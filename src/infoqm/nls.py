"""Grid ground-state solver for the logarithmic nonlinear eigen-equation.

For a nodeless state the node polynomial is a constant, so the equation
on the grid reads

    -psi''/2 + V psi = b (1 + ln psi^2) psi

with b the nonlinearity coefficient.  At fixed b the flow descends the
discrete functional E_b[psi] = integral( psi'^2/2 + V psi^2 - b psi^2 ln psi^2 )
on the unit sphere with explicit normalized gradient steps

    psi  <-  normalize( psi - tau (H psi - b (1 + ln psi^2) psi) )

until the step norm drops below tolerance.  Both solves reach Newton's
basin by a short loose phase instead: backward-Euler steps in H with the
logarithm taken from the old state (BEFD, Bao & Du, SIAM J. Sci. Comput.
25, 1674, 2004), each one Thomas solve of a tridiagonal M-matrix, to a
loose norm.  Newton on the state bordered by the unit-norm constraint,
whose tridiagonal Jacobian is solved by the Thomas algorithm too,
follows.  At a fixed b (ground_state) the border
unknown is the eigenvalue shift m = mu(b) - b; for the self-consistent
root (mu(b) = b, so the stationarity eigenvalue equals the nonlinear
coefficient) it is b itself.  A Newton state is kept only once one
explicit step from it moves it by less than the flow tolerance.  Every
value of F(b) = mu(b) - b is a ground_state, and one fallback rule holds:
a loose phase or Newton solve that fails, or a state that does not
verify, is dropped for flows, the full explicit flow at a fixed b and,
for the root, bisection on the same bracket over ground_state midpoints.
The logarithm is floored at the fixed _EPS_LOG = 1e-100 to keep the far
tails finite; the floor is far below any physical amplitude.

The discretization is written once: _gradient gives g and the floored
logarithm on the interior of a pinned state, and _explicit_step takes
one normalized step.  The flow, its verification of a Newton state, the
discrete energy (which is mu), the loose phase's logarithm and the Newton
residual and Jacobian all go through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    InstabilityError,
    ValidationError,
)
from .numerics import Grid1D, RootBracket

DEFAULT_BRACKET = (-3.0, -0.5)
# floor of u^2 inside the logarithm
_EPS_LOG = 1e-100
_OUTER_CAP = 200
_ENERGY_SAMPLE_EVERY = 100
# the semi-implicit loose phase: its step, its step cap, and the loose norm
# at which it hands over to Newton
_LOOSE_FLOW_NORM = 1e-2
_LOOSE_TAU = 0.1
_LOOSE_CAP = 300
_NEWTON_CAP = 50
_NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class GridProblem:
    """Discretized domain, sampled potential and nonlinearity coefficient b."""

    grid: Grid1D
    potential: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.potential, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValidationError(
                f"potential must have {self.grid.n_points} samples, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("potential samples must be finite")
        if not math.isfinite(self.b):
            raise ValidationError("nonlinearity coefficient must be finite")
        object.__setattr__(self, "potential", v)
        v.flags.writeable = False

    @classmethod
    def harmonic(cls, grid: Grid1D, b: float = 0.0):
        x = grid.points()
        return cls(grid, 0.5 * x * x, b)

    def with_b(self, b: float) -> "GridProblem":
        return GridProblem(self.grid, self.potential, b)


@dataclass(frozen=True)
class FlowConfig:
    """Explicit-step flow parameters; seed feeds randomized probe inits."""

    step: float = 1e-4
    tol_flow: float = 1e-8
    max_iters: int = 400_000
    seed: int = 0

    def __post_init__(self):
        if self.step <= 0:
            raise ValidationError("step must be positive")
        if self.tol_flow <= 0:
            raise ValidationError("tol_flow must be positive")
        if not 1 <= self.max_iters <= 1_000_000:
            raise ValidationError("max_iters must lie in [1, 1e6]")


@dataclass(frozen=True)
class GroundStateSolution:
    """Converged positive state with its stationarity eigenvalue.

    ``iterations`` counts the steps and ``newton_steps`` the bordered
    Newton steps behind every state the solve kept: the semi-implicit steps
    of the loose phase and the Newton solve that made each Newton state,
    or the explicit steps of the full flow that made a fallback state, and
    for a self-consistent solve the sum over the states it evaluated F at
    and the root.  A loose phase whose Newton state was dropped is not
    counted.  ``energy_trace`` starts with the energy of the normalized
    start state, samples the full flow that made a fallback ``psi`` every
    100 steps, and ends with the energy of ``psi`` at ``b``.
    """

    psi: np.ndarray
    mu: float
    b: float
    iterations: int
    flow_norm: float
    energy_trace: tuple[float, ...] = field(default=(), repr=False)
    newton_steps: int = 0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        psi.flags.writeable = False


@dataclass(frozen=True)
class UniquenessReport:
    """Spread of eigenvalues and states over repeated randomized solves."""

    eigenvalues: tuple[float, ...]
    max_eigenvalue_spread: float
    max_state_l2_distance: float
    failures: tuple[tuple[int, str], ...]
    solutions: tuple[GroundStateSolution, ...] = field(repr=False, default=())


def _validate_step(problem: GridProblem, cfg: FlowConfig) -> None:
    v_max = float(np.max(np.abs(problem.potential)))
    if cfg.step * v_max >= 1.0:
        raise ValidationError(
            f"step {cfg.step} violates the stability heuristic step*max|V| < 1"
        )
    h = problem.grid.spacing
    stiffness = 2.0 / (h * h) + v_max
    if cfg.step * stiffness >= 2.0:
        raise ValidationError(
            f"step {cfg.step} is provably unstable for this grid; "
            f"need step < {2.0 / stiffness:.3e}"
        )


def default_initial_guess(grid: Grid1D) -> np.ndarray:
    """Broad positive bump centered in the domain."""
    x = grid.points()
    center = 0.5 * (grid.x_min + grid.x_max)
    s = (grid.x_max - grid.x_min) / 8.0
    return np.exp(-((x - center) ** 2) / (2.0 * s * s))


def randomized_initial_guess(grid: Grid1D, seed: int, index: int) -> np.ndarray:
    """Seeded positive smooth random guess for probe runs.

    All randomness flows from the (seed, index) pair through a
    counter-based Philox generator, so probes are reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)).jumped(index))
    x = grid.points()
    width = grid.x_max - grid.x_min
    center = 0.5 * (grid.x_min + grid.x_max) + 0.1 * width * rng.uniform(-1.0, 1.0)
    s = width / 8.0 * (0.75 + 0.5 * rng.uniform())
    bump = np.exp(-((x - center) ** 2) / (2.0 * s * s))
    phase = np.pi * (x - grid.x_min) / width
    mod = np.ones_like(x)
    for j in range(1, 5):
        mod += rng.uniform(-0.1, 0.1) * np.cos(j * phase)
    return bump * mod


def _gradient(problem: GridProblem, psi: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Interior g = H u - b (1 + L) u of the pinned state psi, and
    L = ln max(u^2, _EPS_LOG), where u is the interior of psi."""
    h = problem.grid.spacing
    u = psi[1:-1]
    lap = (psi[:-2] - 2.0 * u + psi[2:]) * (1.0 / (h * h))
    log_d = np.log(np.maximum(u * u, _EPS_LOG))
    return -0.5 * lap + problem.potential[1:-1] * u - b * (1.0 + log_d) * u, log_d


def _pin_and_normalize(psi: np.ndarray, h: float) -> None:
    """Pin psi at both ends and scale it to unit norm, in place.  Raises
    InstabilityError if its norm is zero or not finite."""
    psi[0] = psi[-1] = 0.0
    norm = math.sqrt(h * float((psi * psi).sum()))
    if not math.isfinite(norm) or norm == 0.0:
        raise InstabilityError("flow iterate blew up; use a smaller step")
    psi /= norm


def _start_state(grid: Grid1D, init: np.ndarray | None) -> np.ndarray:
    """A pinned, normalized copy of init, or of default_initial_guess when
    init is None.  Raises ValidationError unless init has one finite sample
    per grid point and is strictly positive in the interior."""
    if init is None:
        psi = default_initial_guess(grid)
    else:
        psi = np.asarray(init, dtype=float).copy()
        if psi.shape != (grid.n_points,):
            raise ValidationError(f"init must have {grid.n_points} samples")
        if not np.all(np.isfinite(psi)):
            raise ValidationError("init must be finite")
        if np.any(psi[1:-1] <= 0.0):
            raise ValidationError("init must be strictly positive in the interior")
    _pin_and_normalize(psi, grid.spacing)
    return psi


def _explicit_step(problem: GridProblem, psi: np.ndarray, tau: float, out: np.ndarray) -> float:
    """out <- normalize(psi - tau g), pinned at both ends; returns the flow
    norm max|out - psi| / tau.  Raises InstabilityError if the step is not
    finite or leaves the positive cone."""
    out[1:-1] = psi[1:-1] - tau * _gradient(problem, psi, problem.b)[0]
    _pin_and_normalize(out, problem.grid.spacing)
    if out[1:-1].min() < 0.0:
        raise InstabilityError("flow iterate lost positivity; use a smaller step")
    return float(np.abs(out - psi).max()) / tau


def flow_gradient(problem: GridProblem, psi: np.ndarray) -> np.ndarray:
    """g = H psi - b (1 + ln max(psi^2, _EPS_LOG)) psi with pinned boundary."""
    return np.pad(_gradient(problem, psi, problem.b)[0], 1)


def discrete_energy(problem: GridProblem, psi: np.ndarray) -> float:
    """Discrete descent functional of a pinned state psi, whose
    half-gradient is flow_gradient.  By summation by parts it is the
    Rayleigh quotient h <u, H u> - b h <u^2, L> of the interior u, read off
    g as h (u.g + b u.u), so at a returned state it equals mu."""
    u = psi[1:-1]
    g = _gradient(problem, psi, problem.b)[0]
    return problem.grid.spacing * (float(u @ g) + problem.b * float(u @ u))


def gradient_flow_ground_state(
    problem: GridProblem,
    cfg: FlowConfig,
    init: np.ndarray | None = None,
) -> GroundStateSolution:
    """Normalized explicit descent to the nodeless ground state at fixed b.

    Iterates psi <- normalize(psi - step * flow_gradient) until the
    sup-norm of the update per unit step is below cfg.tol_flow.  Raises
    ConvergenceError past cfg.max_iters and InstabilityError if the
    iterate loses positivity (use a smaller step).
    """
    _validate_step(problem, cfg)
    psi = _start_state(problem.grid, init)
    trace: list[float] = []
    flow_norm = math.inf
    iterations = 0
    new = psi.copy()
    while iterations < cfg.max_iters:
        if iterations % _ENERGY_SAMPLE_EVERY == 0:
            trace.append(discrete_energy(problem, psi))
        flow_norm = _explicit_step(problem, psi, cfg.step, new)
        psi, new = new, psi
        iterations += 1
        if flow_norm < cfg.tol_flow:
            break
    else:
        raise ConvergenceError(
            f"flow did not reach tol {cfg.tol_flow} in {cfg.max_iters} iterations "
            f"(flow norm {flow_norm:.3e})"
        )
    trace.append(discrete_energy(problem, psi))
    return GroundStateSolution(
        psi=psi,
        mu=trace[-1],
        b=problem.b,
        iterations=iterations,
        flow_norm=flow_norm,
        energy_trace=tuple(trace),
    )


def _semi_implicit_step(problem: GridProblem, psi: np.ndarray, tau: float, out: np.ndarray) -> float:
    """out <- normalize(u'), pinned at both ends, where u' solves the
    backward-Euler step (1 + tau (H - b (1 + L) - s)) u' = u for the
    interior u of psi and its floored logarithm L.  Returns the loose norm
    max |out - psi| / (tau min(1, u / _LOOSE_FLOW_NORM)): the flow norm
    where u is at least _LOOSE_FLOW_NORM, and a relative change in the
    tails, whose shape Newton needs right and the flow norm cannot see.

    The shift s = min(0, min(V - b (1 + L))) makes the matrix a diagonally
    dominant M-matrix, so u' is positive, and it only rescales u', so a
    stationary psi is a fixed point.  Raises InstabilityError if u'
    underflows to zero.
    """
    h = problem.grid.spacing
    inv_h2 = 1.0 / (h * h)
    local = problem.potential[1:-1] - problem.b * (1.0 + _gradient(problem, psi, problem.b)[1])
    diag = 1.0 + tau * (inv_h2 + local - min(0.0, float(local.min())))
    u = psi[1:-1]
    (out[1:-1],) = _thomas(diag, -0.5 * tau * inv_h2, u)
    _pin_and_normalize(out, h)
    if not out[1:-1].min() > 0.0:
        raise InstabilityError("semi-implicit iterate underflowed to zero")
    weight = np.minimum(1.0, u * (1.0 / _LOOSE_FLOW_NORM))
    return float((np.abs(out[1:-1] - u) / weight).max()) / tau


def _loose_phase(problem: GridProblem, psi: np.ndarray) -> tuple[np.ndarray, int]:
    """Semi-implicit steps at _LOOSE_TAU from the normalized state psi until
    the loose norm is below _LOOSE_FLOW_NORM; returns (psi, steps).  Raises
    ConvergenceError past _LOOSE_CAP steps."""
    new = np.empty_like(psi)
    for steps in range(1, _LOOSE_CAP + 1):
        loose_norm = _semi_implicit_step(problem, psi, _LOOSE_TAU, new)
        psi, new = new, psi
        if loose_norm < _LOOSE_FLOW_NORM:
            return psi, steps
    raise ConvergenceError(
        f"loose phase did not reach {_LOOSE_FLOW_NORM} in {_LOOSE_CAP} steps "
        f"(loose norm {loose_norm:.3e})"
    )


def _thomas(diag: np.ndarray, off: float, *rhs: np.ndarray) -> list[np.ndarray]:
    """Solve T x = r for each r in ``rhs`` and the symmetric tridiagonal T
    with diagonal ``diag`` and constant off-diagonal ``off``: the Thomas
    algorithm without pivoting, one elimination of T, then one forward and
    one back sweep per right-hand side."""
    d = diag.tolist()
    n = len(d)
    pivots = [0.0] * n
    ratio = [0.0] * n
    try:
        pivot = pivots[0] = d[0]
        ratio[0] = off / pivot
        for i in range(1, n):
            pivot = pivots[i] = d[i] - off * ratio[i - 1]
            ratio[i] = off / pivot
    except ZeroDivisionError:
        raise ConvergenceError("tridiagonal solve met a zero pivot") from None
    solutions = []
    for r in rhs:
        x = r.tolist()
        x[0] /= pivots[0]
        for i in range(1, n):
            x[i] = (x[i] - off * x[i - 1]) / pivots[i]
        for i in range(n - 2, -1, -1):
            x[i] -= ratio[i] * x[i + 1]
        solutions.append(np.array(x))
    return solutions


def _newton_step(
    problem: GridProblem, u: np.ndarray, b: float, m: float, free_b: bool
) -> tuple[np.ndarray, float]:
    """One bordered Newton step (d_u, d_p) for the interior u of a state.

    Unknowns are u and the border unknown p (m, or b when free_b), for
    G = H u - b (1 + L) u - m u = 0 and h sum u^2 = 1, where
    L = ln max(u^2, _EPS_LOG).  The Jacobian is the tridiagonal
    J = 1/h^2 + V - b (1 + L + 2 [u^2 > _EPS_LOG]) - m, off-diagonal -1/(2h^2),
    bordered by the column -u (or -(1 + L) u) and the row 2h u.  One
    Thomas pass solves J for G and the column; the border unknown then
    follows from the row (Keller's bordering algorithm).
    """
    h = problem.grid.spacing
    inv_h2 = 1.0 / (h * h)
    off = -0.5 * inv_h2
    g, log_d = _gradient(problem, np.pad(u, 1), b)
    resid = g - m * u
    dens = u * u
    constraint = h * float(dens.sum()) - 1.0
    above_floor = dens > _EPS_LOG
    diag = inv_h2 + problem.potential[1:-1] - b * (1.0 + log_d + 2.0 * above_floor) - m
    border = -(1.0 + log_d) * u if free_b else -u
    y, z = _thomas(diag, off, resid, border)
    d_p = (constraint - 2.0 * h * float(u @ y)) / (2.0 * h * float(u @ z))
    return -y - z * d_p, d_p


def _bordered_newton(
    problem: GridProblem, psi: np.ndarray, free_b: bool
) -> tuple[np.ndarray, float, float, int]:
    """Newton from psi to the positive state with G = 0 and unit norm.

    The border unknown is m at the problem's fixed b (free_b=False), so
    that m = mu(b) - b, or b with m = 0 (free_b=True), the self-consistent
    root.  Returns (psi, b, m, steps); raises ConvergenceError past the
    step cap, on a zero pivot, or when an iterate leaves the positive cone.
    """
    b = problem.b
    m = 0.0 if free_b else discrete_energy(problem, psi) - b
    u = psi[1:-1].copy()
    for step in range(1, _NEWTON_CAP + 1):
        d_u, d_p = _newton_step(problem, u, b, m, free_b)
        u += d_u
        if free_b:
            b += d_p
        else:
            m += d_p
        if not (bool(np.all(u > 0.0)) and math.isfinite(d_p)):
            raise ConvergenceError("bordered Newton left the positive cone")
        if (
            float(np.max(np.abs(d_u))) <= _NEWTON_TOL * float(np.max(u))
            and abs(d_p) <= _NEWTON_TOL * max(1.0, abs(b), abs(m))
        ):
            return np.pad(u, 1), b, m, step
    raise ConvergenceError(f"bordered Newton exceeded {_NEWTON_CAP} steps")


def _verified_solution(
    problem: GridProblem,
    cfg: FlowConfig,
    psi: np.ndarray,
    trace: tuple[float, ...],
    loose_steps: int,
    newton_steps: int,
) -> GroundStateSolution:
    """The solution for a Newton state psi at the problem's b, after a
    loose phase from the start state whose energy ``trace`` holds.

    psi verifies when _explicit_step, the step the flow stops on, moves it
    by a flow norm below cfg.tol_flow; raises ConvergenceError if not, or
    InstabilityError (a ConvergenceError) if that step leaves the positive
    cone.
    """
    flow_norm = _explicit_step(problem, psi, cfg.step, np.empty_like(psi))
    if not flow_norm < cfg.tol_flow:
        raise ConvergenceError(f"Newton state did not verify: flow norm {flow_norm:.3e}")
    trace += (discrete_energy(problem, psi),)
    return GroundStateSolution(
        psi=psi,
        mu=trace[-1],
        b=problem.b,
        iterations=loose_steps,
        flow_norm=flow_norm,
        energy_trace=trace,
        newton_steps=newton_steps,
    )


def _flow_then_newton(
    problem: GridProblem, cfg: FlowConfig, init: np.ndarray | None, free_b: bool
) -> GroundStateSolution:
    """The loose phase from init, then a bordered Newton solve at the
    problem's b, or with b free for the self-consistent root; the state is
    returned through _verified_solution.  Invalid input raises
    ValidationError before any step."""
    _validate_step(problem, cfg)
    psi = _start_state(problem.grid, init)
    trace = (discrete_energy(problem, psi),)
    psi, steps = _loose_phase(problem, psi)
    psi, b, _, newton_steps = _bordered_newton(problem, psi, free_b)
    return _verified_solution(problem.with_b(b), cfg, psi, trace, steps, newton_steps)


def ground_state(
    problem: GridProblem,
    cfg: FlowConfig,
    init: np.ndarray | None = None,
) -> GroundStateSolution:
    """Nodeless ground state at the problem's fixed b.

    The loose phase from init, then a bordered Newton solve in
    (psi, m = mu(b) - b), give a state whose one-step flow norm must be
    below cfg.tol_flow.  If the loose phase or Newton fails, or the state
    does not verify, the full gradient_flow_ground_state from init is
    returned instead.  Invalid input raises ValidationError, before any
    step, as the flow does.
    """
    try:
        return _flow_then_newton(problem, cfg, init, free_b=False)
    except ConvergenceError:
        return gradient_flow_ground_state(problem, cfg, init=init)


def self_consistent_lambda(
    problem: GridProblem,
    cfg: FlowConfig,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    f_tol: float = 1e-6,
    init: np.ndarray | None = None,
) -> tuple[float, GroundStateSolution]:
    """Root b* of F(b) = mu(b) - b in the bracket: the returned coefficient
    is its own stationarity eigenvalue, |mu(b*) - b*| < f_tol.

    F is evaluated only by ground_state: at the lower end from init, at
    the upper end from the lower end's state.  BracketError is raised when
    F has no sign change on the bracket.  The loose phase at the secant
    estimate of the root, started from the nearer end's state, then a
    free-b Newton solve give the root, kept if its one-step flow norm is
    below cfg.tol_flow and |mu - b| < f_tol.  Otherwise bisection on the
    same bracket finds it, each midpoint a ground_state warm-started from
    the previous one.  ``iterations`` and ``newton_steps`` of the result
    are the totals over every state the solve kept: both ends, then the
    root or every midpoint.
    """
    if f_tol <= 0:
        raise ValidationError("f_tol must be positive")
    lo, hi = float(bracket[0]), float(bracket[1])
    kept: list[GroundStateSolution] = []

    def evaluate(b: float, start: np.ndarray | None) -> tuple[float, GroundStateSolution]:
        sol = ground_state(problem.with_b(b), cfg, init=start)
        kept.append(sol)
        return sol.mu - b, sol

    def found(sol: GroundStateSolution) -> tuple[float, GroundStateSolution]:
        return sol.b, replace(
            sol,
            iterations=sum(s.iterations for s in kept),
            newton_steps=sum(s.newton_steps for s in kept),
        )

    f_lo, sol_lo = evaluate(lo, init)
    f_hi, sol_hi = evaluate(hi, sol_lo.psi)
    # constructing the bracket record also validates the sign change
    RootBracket(lo, hi, f_lo, f_hi)
    if abs(f_lo) < f_tol:
        return found(sol_lo)
    if abs(f_hi) < f_tol:
        return found(sol_hi)
    guess = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    nearer = sol_lo if guess - lo < hi - guess else sol_hi
    try:
        root = _flow_then_newton(problem.with_b(guess), cfg, nearer.psi, free_b=True)
        if lo <= root.b <= hi and abs(root.mu - root.b) < f_tol:
            kept.append(root)
            return found(root)
    except ConvergenceError:
        pass
    sol = sol_hi
    for _ in range(_OUTER_CAP):
        mid = 0.5 * (lo + hi)
        f_mid, sol = evaluate(mid, sol.psi)
        if abs(f_mid) < f_tol:
            return found(sol)
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-14:
            raise ConvergenceError(
                f"self-consistency bisection stalled: |F| = {abs(f_mid):.3e} > {f_tol}"
            )
    raise ConvergenceError(f"self-consistency bisection exceeded {_OUTER_CAP} steps")


def uniqueness_probe(
    problem: GridProblem,
    cfg: FlowConfig,
    n_inits: int,
    solve_lambda: bool = True,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    f_tol: float = 1e-6,
) -> UniquenessReport:
    """Repeat the solve from n_inits seeded random positive guesses.

    Reports the largest pairwise eigenvalue gap and the largest pairwise
    L2 distance between states up to sign.  With solve_lambda=False each
    state is the ground_state at the problem's fixed b and the spread of
    mu is reported instead.  Per-init failures are recorded; the probe
    still returns.
    """
    if n_inits < 2:
        raise ValidationError("need at least 2 initializations to probe uniqueness")
    h = problem.grid.spacing
    values: list[float] = []
    solutions: list[GroundStateSolution] = []
    failures: list[tuple[int, str]] = []
    for i in range(n_inits):
        guess = randomized_initial_guess(problem.grid, cfg.seed, i)
        try:
            if solve_lambda:
                lam, sol = self_consistent_lambda(
                    problem, cfg, bracket=bracket, f_tol=f_tol, init=guess
                )
                values.append(lam)
            else:
                sol = ground_state(problem, cfg, init=guess)
                values.append(sol.mu)
            solutions.append(sol)
        except (ConvergenceError, BracketError, ValidationError) as exc:
            failures.append((i, str(exc)))
    spread = 0.0
    dist = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            spread = max(spread, abs(values[i] - values[j]))
            delta_minus = math.sqrt(h * float(np.sum((solutions[i].psi - solutions[j].psi) ** 2)))
            delta_plus = math.sqrt(h * float(np.sum((solutions[i].psi + solutions[j].psi) ** 2)))
            dist = max(dist, min(delta_minus, delta_plus))
    return UniquenessReport(
        eigenvalues=tuple(values),
        max_eigenvalue_spread=spread,
        max_state_l2_distance=dist,
        failures=tuple(failures),
        solutions=tuple(solutions),
    )
