"""Grid ground-state solver for the logarithmic nonlinear eigen-equation.

For a nodeless state the node polynomial is a constant, so the equation
on the grid reads

    -psi''/2 + V psi = b (1 + ln psi^2) psi

with b the nonlinearity coefficient.  At fixed b the flow descends the
discrete functional E_b[psi] = integral( psi'^2/2 + V psi^2 - b psi^2 ln psi^2 )
on the unit sphere with explicit normalized gradient steps

    psi  <-  normalize( psi - tau (H psi - b (1 + ln psi^2) psi) )

until the step norm drops below tolerance.  Both solves run Newton
instead, on the state bordered by the unit-norm constraint, whose
tridiagonal Jacobian takes one tridiagonal solve a step, straight from the
start state.  At a fixed b (ground_state) the border unknown is the
eigenvalue shift m = mu(b) - b; for the self-consistent root (mu(b) = b,
so the stationarity eigenvalue equals the nonlinear coefficient) it is b
itself.
Every Newton solve runs on a sub-grid of the grid's own points: those
whose Agmon distance from the classically allowed region {V <= min V +
_AGMON_ENERGY} is at most _AGMON_DISTANCE = 250, and one pinned end on
each side (Agmon, Lectures on Exponential Decay of Solutions of
Second-Order Elliptic Equations, 1982).  Past a distance of about 115 a
bound state's psi^2 is below the logarithm's floor, where the floored
equation is not the physical one anyway, and past about 745 psi itself
is below the smallest double, which no Newton step or loose step holds.  The cut reads only
V and the grid, so a solve resumed from a written state keeps the same
points; the returned state is exactly 0 outside them.  On an uncut grid
the sub-grid is the grid itself.
At a fixed b Newton runs first in v = ln u, where the nonlinearity
b (1 + 2v) is linear: it holds from starts where the plain Newton step in
u leaves the positive cone, as Newton's basin depends on the variable it
works in (Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 1),
and a converged state at a nearby b is in its basin too (continuation,
Allgower & Georg, Numerical Continuation Methods, 1990).  Only where
that attempt fails (an exp that leaves the range of floats, a step that
is not finite, or the step cap) does the plain chain run from the same
start: Newton in u, and where that fails a short loose phase before
Newton in u is tried once more.  The loose phase takes backward-Euler
steps in H with the logarithm taken from the old state (BEFD, Bao & Du,
SIAM J. Sci. Comput. 25, 1674, 2004), each one tridiagonal solve of an
M-matrix, to a loose norm.  Where the
plain Newton step would leave the positive cone, each entry it cuts by
more than 90% takes the Newton step in ln u instead.  Newton stops
only where its step is small and one explicit step from the state moves
it by less than the flow tolerance: the step test is relative to the
peak, so tails far below it can still move when it first passes, and
Newton steps on until the flow norm is below the tolerance or the step
cap is reached, whose error then gives that flow norm, the tolerance
and eps max(psi) / step.  Where the loose phase or the last Newton solve
fails, its error is raised.
The self-consistent root has one path, a predictor and a corrector
(Allgower & Georg, Numerical Continuation Methods, 1990): one fixed-b
Newton step in ln u at the bracket's lower end from the normalized start,
then the free-b Newton in ln u from that state, which stops as soon as
its b leaves the bracket by more than half the bracket's width.  Its root
is returned where it lies in the bracket with |mu - b| < _F_TOL = 1e-6.
Only where that fails are the bracket's ends solved, by ground_state, to
return an end with |mu - b| < _F_TOL or to name the failure: BracketError
where F(b) = mu(b) - b has no sign change on the bracket, and otherwise
a ConvergenceError that quotes the root's.
The logarithm is floored at the fixed _EPS_LOG = 1e-100 to keep the far
tails finite; the floor is far below any physical amplitude.

The discretization is written once: _floored_log gives the floored
logarithm, _gradient gives g and that logarithm on the interior of a
pinned state (at b = 0, where the logarithm's term is 0, g alone), and
_explicit_step takes one normalized step.  The flow,
its verification of a Newton state, the discrete energy (which is mu)
and the Newton residual in ln u go through _gradient; the loose phase
and the plain Newton Jacobian need only the logarithm, so they call
_floored_log.  ground_state runs Newton in ln u and the plain chain where
that fails; the root, _predicted_root, takes its fixed-b step and its
free-b Newton attempt with the same rule and loop.  Both start in
_newton_start (the step check, the cut, the normalized start state on the
sub-grid and its energy) and end in _newton_result (mu at the returned b,
the energy trace from the start's energy to mu, and the state embedded in
the whole grid).
Every Newton attempt is one loop, _newton, given one of two step rules:
_log_step, in ln u, with b fixed or free, or _newton_step, plain, at a
fixed b only.  A rule makes the step and
the new interior and raises where that is unusable; the loop holds the
border unknown, the stop test, _flow_check and the step cap.  Every
tridiagonal solve is one _thomas call of one right-hand side: up to
_SWEEP_MAX = 64 unknowns a sequential Thomas sweep over Python floats
(_sweep), and above it odd-even cyclic reduction in whole-array
operations down to at most 64 unknowns, which the sweep solves, so that
a 2046-unknown solve takes five reduction levels instead of a loop of
2046 steps.  Both eliminate without pivoting, which is backward stable
for the symmetric positive definite Jacobian of a Newton step in ln u at
b < 0 and the diagonally dominant matrix of a loose step, and both move
an exactly zero pivot off zero, as inverse iteration does.  A loose
step and every Newton step take one solve each.
In ln u the Jacobian J' satisfies J' u = -2b u above the floor, so the
step splits into its part along u and one solve off it (see _log_step);
the plain Jacobian J satisfies J u = G - 2b u, so one solve serves both
the residual and the border column (see _plain_direction).
The seeded starts of the uniqueness probe draw their six doubles a start
from Philox4x64-10 written in plain integers (_philox_uniforms), which
gives numpy's Philox bits, so no random-number library is loaded for them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    InstabilityError,
    ValidationError,
)
from .numerics import (Grid1D, _as_finite, _as_finite_array, _as_int, _as_positive,
                       _check_bracket, _check_sign_change)

DEFAULT_BRACKET = (-3.0, -0.5)
# floor of u^2 inside the logarithm
_EPS_LOG = 1e-100
_ENERGY_SAMPLE_EVERY = 100
# the explicit flow's step cap
_FLOW_CAP = 400_000
# a returned self-consistent state has |mu - b| below this
_F_TOL = 1e-6
# a Newton solve keeps the points whose Agmon distance from {V <= min V +
# _AGMON_ENERGY} is at most _AGMON_DISTANCE: past 115, psi^2 is below _EPS_LOG
_AGMON_ENERGY = 10.0
_AGMON_DISTANCE = 250.0
# the semi-implicit loose phase: its step, its step cap, and the loose norm
# at which it hands over to Newton
_LOOSE_FLOW_NORM = 1e-2
_LOOSE_TAU = 0.1
_LOOSE_CAP = 300
_NEWTON_CAP = 50
_NEWTON_TOL = 1e-10
# a Newton step that cuts an entry by more than this fraction, where the
# plain step leaves the positive cone, is taken in ln u for that entry
_CUT = 0.9
# the most unknowns a tridiagonal solve sweeps sequentially; a larger one
# is first reduced below it (measured: of 32, 64, 96 and 128, 64 and 96
# are fastest from 126 to 2046 unknowns)
_SWEEP_MAX = 64
# Philox4x64-10's multipliers and key bumps (Random123's constants)
_PHILOX_MUL0, _PHILOX_MUL1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_BUMP0, _PHILOX_BUMP1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1


@dataclass(frozen=True)
class GridProblem:
    """Discretized domain, sampled potential and nonlinearity coefficient b."""

    grid: Grid1D
    potential: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        v = _as_finite_array(self.potential, "potential", (self.grid.n_points,))
        object.__setattr__(self, "b", _as_finite(self.b, "b"))
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
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "step", _as_positive(self.step, "step"))
        object.__setattr__(self, "tol_flow", _as_positive(self.tol_flow, "tol_flow"))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))


@dataclass(frozen=True)
class GroundStateSolution:
    """Converged positive state with its stationarity eigenvalue.

    ``iterations`` counts the steps and ``newton_steps`` the bordered
    Newton steps behind the returned state: the semi-implicit steps of the
    loose phase (0 where Newton in ln u or the plain Newton solve held from
    the start state) and the steps of the Newton attempt that made the
    state, in ln u or plain.  For a self-consistent root they are 0 and the
    fixed-b step plus the root's steps; for a bracket end returned as the
    root, that end's own.  A failed Newton attempt, the first attempt of a
    self-consistent solve included, is not counted.
    ``energy_trace`` starts with the energy of the normalized start state
    and ends with the energy of ``psi`` at ``b``.  gradient_flow_ground_state
    counts its explicit steps in ``iterations`` and samples every 100th
    step's energy between.
    ``kept`` is None where the solve ran on the whole grid, and otherwise
    the (x_min, x_max) of the sub-grid it ran on, whose ends are pinned:
    ``psi`` is exactly 0 outside it.
    """

    psi: np.ndarray
    mu: float
    b: float
    iterations: int
    flow_norm: float
    energy_trace: tuple[float, ...] = field(default=(), repr=False)
    newton_steps: int = 0
    kept: tuple[float, float] | None = None

    def __post_init__(self):
        psi = _as_finite_array(self.psi, "psi")
        object.__setattr__(self, "psi", psi)
        psi.flags.writeable = False


@dataclass(frozen=True)
class UniquenessReport:
    """Spread of eigenvalues and states over repeated randomized solves."""

    eigenvalues: tuple[float, ...]
    max_eigenvalue_spread: float
    max_state_l2_distance: float
    failures: tuple[tuple[int, str], ...]


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


def _philox_uniforms(seed: int, index: int, count: int) -> list[float]:
    """The first count doubles of numpy's
    Generator(Philox(key=seed mod 2**128).jumped(index)), bit for bit.

    Philox4x64-10 (Salmon et al., SC11, 2011) in Python ints: the key is
    two 64-bit words, low first; the 256-bit counter starts at
    index * 2**128, which is jumped(index), and is incremented before each
    block of four words; each word w reads as (w >> 11) * 2**-53.
    """
    key = seed % (1 << 128)
    counter = index << 128
    out: list[float] = []
    while len(out) < count:
        counter = (counter + 1) & _MASK256
        c0, c1, c2, c3 = (counter >> shift & _MASK64 for shift in (0, 64, 128, 192))
        k0, k1 = key & _MASK64, key >> 64
        for rnd in range(10):
            if rnd:
                k0, k1 = (k0 + _PHILOX_BUMP0) & _MASK64, (k1 + _PHILOX_BUMP1) & _MASK64
            p0, p1 = _PHILOX_MUL0 * c0, _PHILOX_MUL1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        out += [(w >> 11) * 2.0**-53 for w in (c0, c1, c2, c3)]
    return out[:count]


def randomized_initial_guess(grid: Grid1D, seed: int, index: int) -> np.ndarray:
    """Seeded positive smooth random guess for probe runs.

    All randomness flows from the (seed, index) pair through the
    counter-based Philox4x64-10 generator, so probes are reproducible.  It
    is written in plain integers (_philox_uniforms) and gives numpy's bits,
    so no random-number library is loaded for the six doubles of a start;
    each uniform on [low, high) is low + (high - low) u, as
    Generator.uniform forms it.
    """
    u = iter(_philox_uniforms(seed, index, 6))

    def uniform(low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * next(u)

    x = grid.points()
    width = grid.x_max - grid.x_min
    center = 0.5 * (grid.x_min + grid.x_max) + 0.1 * width * uniform(-1.0, 1.0)
    s = width / 8.0 * (0.75 + 0.5 * uniform())
    bump = np.exp(-((x - center) ** 2) / (2.0 * s * s))
    phase = np.pi * (x - grid.x_min) / width
    mod = np.ones_like(x)
    for j in range(1, 5):
        mod += uniform(-0.1, 0.1) * np.cos(j * phase)
    return bump * mod


def _floored_log(u: np.ndarray) -> np.ndarray:
    """L = ln max(u^2, _EPS_LOG)."""
    return np.log(np.maximum(u * u, _EPS_LOG))


def _gradient(problem: GridProblem, psi: np.ndarray,
              b: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Interior g = H u - b (1 + L) u of the pinned state psi, and its
    floored logarithm L, where u is the interior of psi.  At b = 0 the
    term is left out and L is not formed: g = H u, and L is None."""
    h = problem.grid.spacing
    u = psi[1:-1]
    lap = (psi[:-2] - 2.0 * u + psi[2:]) * (1.0 / (h * h))
    g = -0.5 * lap + problem.potential[1:-1] * u
    if b == 0.0:
        return g, None
    log_d = _floored_log(u)
    return g - b * (1.0 + log_d) * u, log_d


def _pinned(u: np.ndarray) -> np.ndarray:
    """The state whose interior is u, pinned at 0 at both ends, as
    np.pad(u, 1) gives it but at a tenth of its cost."""
    psi = np.zeros(u.size + 2)
    psi[1:-1] = u
    return psi


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
    per grid point and is strictly positive in the interior, and after it
    is normalized every interior entry is a normal float (at least
    sys.float_info.min)."""
    if init is None:
        psi = default_initial_guess(grid)
    else:
        psi = _as_finite_array(init, "init", (grid.n_points,)).copy()
        if np.any(psi[1:-1] <= 0.0):
            raise ValidationError("init must be strictly positive in the interior")
        with np.errstate(over="ignore"):
            if not 0.0 < float((psi[1:-1] ** 2).sum()) < math.inf:
                # squares that overflow or all underflow: scale by the largest entry first
                psi /= float(psi[1:-1].max())
    _pin_and_normalize(psi, grid.spacing)
    if not psi[1:-1].min() >= sys.float_info.min:
        # an entry so far below the norm that scaling leaves it subnormal or
        # 0, which the Newton solve would divide by
        raise ValidationError("init must be strictly positive in the interior")
    return psi


def _explicit_step(problem: GridProblem, psi: np.ndarray, tau: float, out: np.ndarray) -> float:
    """out <- normalize(psi - tau g), pinned at both ends; returns the flow
    norm max|out - psi| / tau.  Raises InstabilityError if the step is not
    finite, leaves the positive cone or underflows to zero."""
    out[1:-1] = psi[1:-1] - tau * _gradient(problem, psi, problem.b)[0]
    _pin_and_normalize(out, problem.grid.spacing)
    low = float(out[1:-1].min())
    if not low > 0.0:
        raise InstabilityError("flow iterate lost positivity; use a smaller step" if low < 0.0
                               else "flow iterate underflowed to zero")
    return float(np.abs(out - psi).max()) / tau


def discrete_energy(problem: GridProblem, psi: np.ndarray) -> float:
    """Discrete descent functional of a pinned state psi, whose
    half-gradient is _gradient.  By summation by parts it is the
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

    Iterates psi <- normalize(psi - step * g), g from _gradient, until the
    sup-norm of the update per unit step is below cfg.tol_flow.  Raises
    ConvergenceError past _FLOW_CAP steps and InstabilityError if the
    iterate loses positivity (use a smaller step).
    """
    _validate_step(problem, cfg)
    psi = _start_state(problem.grid, init)
    trace: list[float] = []
    flow_norm = math.inf
    iterations = 0
    new = psi.copy()
    while iterations < _FLOW_CAP:
        if iterations % _ENERGY_SAMPLE_EVERY == 0:
            trace.append(discrete_energy(problem, psi))
        flow_norm = _explicit_step(problem, psi, cfg.step, new)
        psi, new = new, psi
        iterations += 1
        if flow_norm < cfg.tol_flow:
            break
    else:
        raise ConvergenceError(
            f"flow did not reach tol {cfg.tol_flow} in {_FLOW_CAP} iterations "
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
    u = psi[1:-1]
    local = problem.potential[1:-1] - problem.b * (1.0 + _floored_log(u))
    diag = 1.0 + tau * (inv_h2 + local - min(0.0, float(local.min())))
    out[1:-1] = _thomas(diag, -0.5 * tau * inv_h2, u)
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


def _sweep(d: list[float], e: list[float], r: list[float], tiny: float) -> list[float]:
    """The Thomas algorithm without pivoting (L. H. Thomas, 1949) over
    Python floats, for the symmetric tridiagonal system with diagonal d,
    off-diagonal e (e[i] couples rows i and i + 1) and right-hand side r.
    One zip pass eliminates the system and sweeps r forward, and one pass
    sweeps back.  A pivot of exactly 0 is replaced by tiny."""
    pivot = d[0] or tiny
    y = r[0] / pivot
    ratios, forward = [], [y]
    for d_i, e_i, r_i in zip(d[1:], e, r[1:]):
        ratio = e_i / pivot
        pivot = d_i - e_i * ratio or tiny
        y = (r_i - e_i * y) / pivot
        ratios.append(ratio)
        forward.append(y)
    x = y
    return [x := y_i - q * x for y_i, q in zip(forward[-2::-1], ratios[::-1])][::-1] + [y]


def _thomas(diag: np.ndarray, off: float, rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs for the symmetric tridiagonal T with diagonal
    ``diag`` and constant off-diagonal ``off``.

    Up to _SWEEP_MAX unknowns this is the sequential _sweep.  A larger T is
    first padded with decoupled unit rows to 2^L (m + 1) - 1 unknowns, with
    L the fewest levels that leave m <= _SWEEP_MAX, and reduced by L levels
    of odd-even cyclic reduction (Hockney, J. ACM 12, 95, 1965; Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7, 627, 1970): each level
    eliminates the even-indexed rows in whole-array operations and leaves a
    symmetric tridiagonal system on the odd-indexed rows whose off-diagonal
    varies from row to row.  The m unknowns left are solved by the sweep
    and the eliminated rows found again level by level.  This is Gaussian
    elimination without pivoting in odd-even order, backward stable where T
    is symmetric positive definite, as the Jacobian of a Newton step in
    ln u is at b < 0 (J' u = -2b u > 0 with u > 0 makes it an M-matrix), or
    diagonally dominant, as a loose step's matrix is.

    A pivot of exactly 0, in a level or in the sweep, is replaced by
    2^-52 |off|, as inverse iteration does with an exactly singular shift
    (Peters & Wilkinson, SIAM Rev. 21, 339, 1979).  A level's pivot is a
    diagonal entry of a Schur complement of T, so the solve is then that
    of T with one diagonal entry moved by a rounding error of the
    off-diagonal."""
    n = diag.size
    tiny = 2.0**-52 * abs(off)
    if n <= _SWEEP_MAX:
        return np.array(_sweep(diag.tolist(), [off] * (n - 1), rhs.tolist(), tiny))
    blocks, levels = n + 1, 0
    while blocks > _SWEEP_MAX + 1:
        blocks, levels = -(-blocks // 2), levels + 1
    width = (blocks << levels) - 1
    d = np.ones(width)
    d[:n] = diag
    # e[i] couples rows i - 1 and i; rows 0 and width - 1 have a zero
    # coupling past their end, and the padding rows none at all
    e = np.zeros(width + 1)
    e[1:n] = off
    r = np.zeros(width)
    r[:n] = rhs
    eliminated = []
    for _ in range(levels):
        # even row 2k: x_2k = y_k - left_k x_2k-1 - right_k x_2k+1
        pivots = d[0::2]
        if np.count_nonzero(pivots) < pivots.size:
            pivots = np.where(pivots == 0.0, tiny, pivots)
        e_even, e_odd = e[0::2], e[1::2]
        left, right, y = e_even / pivots, e_odd / pivots, r[0::2] / pivots
        eliminated.append((left, right, y))
        d = d[1::2] - e_odd[:-1] * right[:-1] - e_even[1:] * left[1:]
        r = r[1::2] - e_odd[:-1] * y[:-1] - e_even[1:] * y[1:]
        e = -(e_even * right)
    x = np.array(_sweep(d.tolist(), e[1:-1].tolist(), r.tolist(), tiny))
    for left, right, y in reversed(eliminated):
        # the odd rows' solution between zeros, interleaved with the even rows'
        full = np.zeros(2 * x.size + 3)
        full[2:-1:2] = x
        full[1::2] = y - left * full[0:-2:2] - right * full[2::2]
        x = full[1:-1]
    return x[:n]


def _plain_direction(problem: GridProblem, u: np.ndarray, b: float, m: float
                     ) -> tuple[np.ndarray, float]:
    """One bordered Newton step (d_u, d_m) at the fixed b for the interior u
    of a state.

    Unknowns are u and the eigenvalue shift m, for G = H u - b (1 + L) u -
    m u = 0 and h sum u^2 = 1, where L = ln max(u^2, _EPS_LOG).  The
    Jacobian is the tridiagonal
    J = 1/h^2 + V - b (1 + L + 2 [u^2 > _EPS_LOG]) - m, off-diagonal -1/(2h^2),
    bordered by the column -u and the row 2h u.  J is solved for G (y) and
    for the column (z); d_m then follows from the row (Keller's bordering
    algorithm).

    One solve gives both.  Row by row J u = G - 2b a u, with
    a = [u^2 > _EPS_LOG], so for w = J^-1 (a u) the residual's solve is
    y = u + 2b w exactly, and z = -w differs from J^-1 (-u) only through
    the entries below the floor, whose amplitude is under 1e-50.  The step
    is then a shifted inverse iteration, u + d_u = (d_m - 2b) w.
    """
    h = problem.grid.spacing
    inv_h2 = 1.0 / (h * h)
    dens = u * u
    constraint = h * float(dens.sum()) - 1.0
    above_floor = dens > _EPS_LOG
    diag = inv_h2 + problem.potential[1:-1] - b * (1.0 + _floored_log(u) + 2.0 * above_floor) - m
    w = _thomas(diag, -0.5 * inv_h2, u * above_floor)
    y = u + 2.0 * b * w
    d_m = (constraint - 2.0 * h * float(u @ y)) / (-2.0 * h * float(u @ w))
    return -y + w * d_m, d_m


def _newton_step(
    problem: GridProblem, u: np.ndarray, b: float, m: float, free_b: bool
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """The plain step rule of _newton, at a fixed b only (free_b is False):
    the step (d_u, d_p) of _plain_direction and the new interior it takes
    u to.

    Where u + d_u keeps every entry positive it is the new interior as it
    is.  Otherwise each entry that it cuts by more than _CUT takes the
    Newton step in ln u instead, u exp(d_u / u), and Newton may not stop on
    the step unless every entry so changed lies below the logarithm's
    floor.  Returns (new interior, d_u, d_p, whether Newton may stop);
    raises ConvergenceError where the new interior still leaves the
    positive cone (an entry whose exp underflowed) or d_p is not finite.
    """
    d_u, d_p = _plain_direction(problem, u, b, m)
    new = u + d_u
    may_stop = bool(np.all(new > 0.0))
    if not may_stop:
        cut = d_u < -_CUT * u
        with np.errstate(over="ignore", divide="ignore"):
            new[cut] = u[cut] * np.exp(d_u[cut] / u[cut])
        may_stop = not bool(np.any(u[cut] * u[cut] > _EPS_LOG))
    if not (bool(np.all(new > 0.0)) and math.isfinite(d_p)):
        raise ConvergenceError("bordered Newton left the positive cone")
    return new, d_u, d_p, may_stop


def _flow_check(
    problem: GridProblem, u: np.ndarray, b: float, cfg: FlowConfig
) -> tuple[np.ndarray, float, str]:
    """The state psi with interior u, its flow norm at b (how far
    _explicit_step, the step the flow stops on, moves it) and "" where that
    norm is below cfg.tol_flow, else a note that gives the norm, tol_flow
    and eps max(psi) / cfg.step, the scale of rounding in that norm."""
    psi = _pinned(u)
    flow_norm = _explicit_step(problem.with_b(b), psi, cfg.step, np.empty_like(psi))
    if flow_norm < cfg.tol_flow:
        return psi, flow_norm, ""
    scale = np.finfo(float).eps * float(psi.max()) / cfg.step
    return psi, flow_norm, (f"; at b = {b!r} the flow norm {flow_norm:.3e} is not below "
                            f"tol_flow {cfg.tol_flow!r} (eps*max(psi)/step = {scale:.3e})")


def _log_step(
    problem: GridProblem, u: np.ndarray, b: float, m: float, free_b: bool
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """The ln u step rule of _newton: one bordered Newton step (d_u, d_p) in
    v = ln u for the interior u of a state, with d_u = u d_v (the equations
    of _plain_direction with G divided by u), and the new interior
    u exp(d_u / u) it takes u to.

    In v the nonlinearity b (1 + L) is b (1 + 2v), linear, and the Jacobian
    of G / u, scaled by u, is J' = J - diag(G / u): symmetric tridiagonal,
    with diagonal (u_{i-1} + u_{i+1}) / (2h^2 u_i) - 2b [u_i^2 > _EPS_LOG]
    and off-diagonal -1/(2h^2), so that V and m drop out.  Row by row
    J' u = -2b u above the floor, so J' is singular at b = 0, and Keller's
    bordering, which solves with J' alone, breaks down there and near it.
    The step is split along u instead, since J' maps the space off u to
    itself: the norm row gives the part along u, alpha u with
    alpha = (1 - h |u|^2) / (2h |u|^2); the equations' component along u
    gives d_p = (2b alpha |u|^2 - u.G) / (u.c) for the border column c (-u,
    so that d_m = G.u / |u|^2 - 2b alpha, or -(1 + L) u with b free); and
    the rest is -P J'^-1 P (G + d_p c), with P the projection off u: one
    solve of one right-hand side.  Below the floor J' u = -2b u fails by
    under 1e-50 an entry.

    Returns (new interior, d_u, d_p, True): Newton may stop on any step.
    Raises ConvergenceError where d_p is not finite or the exp leaves the
    range of floats (an entry that underflows to zero, or squares that
    overflow).
    """
    h = problem.grid.spacing
    off = -0.5 / (h * h)
    psi = _pinned(u)
    g, log_d = _gradient(problem, psi, b)
    g -= m * u
    diag = (psi[:-2] + psi[2:]) * (-off) / u - (2.0 * b) * (u * u > _EPS_LOG)
    norm2 = float(u @ u)
    alpha = (1.0 - h * norm2) / (2.0 * h * norm2)
    along = float(u @ g) / norm2
    if free_b:
        if log_d is None:   # b = 0
            log_d = _floored_log(u)
        col = -(1.0 + log_d) * u
        d_p = (2.0 * b * alpha - along) * norm2 / float(u @ col)
        g += d_p * col
        along = float(u @ g) / norm2
    else:
        d_p = along - 2.0 * b * alpha
    x = _thomas(diag, off, g - along * u)
    d_u = (alpha + float(x @ u) / norm2) * u - x
    with np.errstate(over="ignore"):
        new = u * np.exp(d_u / u)
        # positive entries whose squares sum to a float: the next step's
        # logarithm and norm are finite
        in_range = new.min() > 0.0 and float(new @ new) < math.inf
    if not (in_range and math.isfinite(d_p)):
        raise ConvergenceError("Newton in ln u left the range of floats")
    return new, d_u, d_p, True


def _newton(
    problem: GridProblem,
    psi: np.ndarray,
    bracket: tuple[float, float] | None,
    cfg: FlowConfig,
    step,
) -> tuple[np.ndarray, float, int, float]:
    """Newton from psi to the positive state with G = 0 and unit norm, each
    step taken by the step rule ``step``: _log_step, in ln u, or
    _newton_step, plain, which runs at a fixed b only.

    The border unknown is m at the problem's fixed b (bracket None), so
    that m = mu(b) - b, or, for the self-consistent root in ``bracket``
    (lo, hi), b itself with m = 0, starting at the problem's b.  Such a
    free-b attempt raises ConvergenceError as soon as b leaves
    [lo - w, hi + w], w half the bracket's width.  Newton stops on a step
    that the rule lets it stop on, whose max |d_u| is at most _NEWTON_TOL
    times the largest entry of u before the step, so that a step that
    grows u by orders of magnitude cannot pass, and whose |d_p| is at most
    _NEWTON_TOL max(1, |b|, |m|), once
    _flow_check verifies the new state.  Returns (psi, b, steps, flow norm);
    raises the rule's ConvergenceError, or past the step cap one that names
    the attempt and gives _flow_check's note on the last state that passed
    the step test.
    """
    free_b = bracket is not None
    if free_b:
        lo, hi = bracket
        reach = 0.5 * (hi - lo)
    b = problem.b
    m = 0.0 if free_b else discrete_energy(problem, psi) - b
    u = psi[1:-1].copy()
    unverified = ""
    for count in range(1, _NEWTON_CAP + 1):
        new, d_u, d_p, may_stop = step(problem, u, b, m, free_b)
        if free_b:
            b += d_p
            if not lo - reach <= b <= hi + reach:
                raise ConvergenceError(f"free-b Newton left the bracket [{lo}, {hi}] by more "
                                       f"than half its width: b = {b!r}")
        else:
            m += d_p
        if (
            may_stop
            and float(np.abs(d_u).max()) <= _NEWTON_TOL * float(u.max())
            and abs(d_p) <= _NEWTON_TOL * max(1.0, abs(b), abs(m))
        ):
            psi, flow_norm, unverified = _flow_check(problem, new, b, cfg)
            if not unverified:
                return psi, b, count, flow_norm
        u = new
    name = "Newton in ln u" if step is _log_step else "bordered Newton"
    raise ConvergenceError(f"{name} exceeded {_NEWTON_CAP} steps{unverified}")


def _kept(problem: GridProblem) -> slice:
    """The grid points of the sub-grid a Newton solve runs on, its pinned
    ends included: slice(0, n) for the whole grid.

    A bound state decays like exp(-d), d the Agmon distance, the integral
    of sqrt(2 (V - E)) from the allowed region {V <= E} (Agmon, Lectures on
    Exponential Decay of Solutions of Second-Order Elliptic Equations,
    1982), here with E = min V + _AGMON_ENERGY and the trapezoid rule on the
    grid.  Every point with d <= _AGMON_DISTANCE is kept, and one more on
    each side as the pinned end; past d = 115 psi^2 is below _EPS_LOG, where
    the floored equation is not the physical one anyway."""
    v = problem.potential
    energy = float(v.min()) + _AGMON_ENERGY
    # sqrt(2 (V - E)) where V > E, times the trapezoid weight h / 2
    rate = np.sqrt(np.maximum(v - energy, 0.0) * (0.5 * problem.grid.spacing**2))
    integral = np.concatenate(([0.0], np.cumsum(rate[:-1] + rate[1:])))
    allowed = np.flatnonzero(v <= energy)
    first = integral.searchsorted(integral[allowed[0]] - _AGMON_DISTANCE)
    stop = integral.searchsorted(integral[allowed[-1]] + _AGMON_DISTANCE, "right")
    return slice(max(int(first) - 1, 0), min(int(stop) + 1, v.size))


def _newton_start(problem: GridProblem, cfg: FlowConfig, init: np.ndarray | None
                  ) -> tuple[GridProblem, slice, np.ndarray, float]:
    """The start of every Newton solve, after _validate_step: the problem on
    the kept sub-grid, the problem itself where that is the whole grid,
    the grid points it keeps (_kept), and on it the pinned,
    normalized start state (_start_state of init's kept entries, or of
    default_initial_guess of the sub-grid) and its energy.  The cut reads
    only V and the grid, so a solve from a state written by a solve on the
    same grid keeps the same points.  Invalid input raises ValidationError
    before any step."""
    _validate_step(problem, cfg)
    kept = _kept(problem)
    if kept.stop - kept.start < problem.grid.n_points:
        if init is not None:
            init = _as_finite_array(init, "init", (problem.grid.n_points,))[kept]
        x = problem.grid.points()[kept]
        problem = GridProblem(Grid1D(x[0], x[-1], x.size), problem.potential[kept], problem.b)
    start = _start_state(problem.grid, init)
    return problem, kept, start, discrete_energy(problem, start)


def _newton_result(grid: Grid1D, problem: GridProblem, kept: slice, psi: np.ndarray, b: float,
                   energy: float, flow_norm: float, iterations: int,
                   newton_steps: int) -> GroundStateSolution:
    """The result of every Newton solve on problem, the sub-grid of the
    points ``kept`` of grid: the state psi at b, embedded in grid with
    exact zeros in the cut tails, whose mu is its energy at b, with
    energy_trace (the start state's energy, mu)."""
    mu = discrete_energy(problem.with_b(b), psi)
    full = np.zeros(grid.n_points)
    full[kept] = psi
    cut = None if psi.size == full.size else (problem.grid.x_min, problem.grid.x_max)
    return GroundStateSolution(full, mu, b, iterations, flow_norm, (energy, mu), newton_steps, cut)


def ground_state(
    problem: GridProblem,
    cfg: FlowConfig,
    init: np.ndarray | None = None,
) -> GroundStateSolution:
    """Nodeless ground state at the problem's fixed b, by Newton from init
    on the kept sub-grid of _newton_start: _newton with the step rule in
    (ln psi, m = mu(b) - b) first, and where it raises ConvergenceError
    _newton with the plain rule (in psi) from the same start, then the
    loose phase from it and the plain rule once more.

    The solve runs on the points whose Agmon distance from the allowed
    region is at most _AGMON_DISTANCE, and the returned psi is exactly 0
    past them (``kept`` gives their range); init need be positive only
    there.  Each Newton attempt steps on until one explicit step
    (_explicit_step, the step the flow stops on) moves the state by a flow
    norm below cfg.tol_flow; one that cannot reach it within the step cap
    fails like any other attempt, and where rounding alone keeps the norm
    above cfg.tol_flow (near 1e-12 or below) every attempt does, the last
    error then giving the last flow norm, cfg.tol_flow and
    eps max(psi) / cfg.step.  If the loose phase or the last Newton solve
    fails, its ConvergenceError is raised, or InstabilityError (a
    ConvergenceError) where a step leaves the positive cone.  Failed
    attempts are not counted in newton_steps.  Invalid input raises
    ValidationError, before any step, as the flow does.
    """
    sub, kept, start, energy = _newton_start(problem, cfg, init)
    loose_steps = 0
    try:
        psi, _, newton_steps, flow_norm = _newton(sub, start, None, cfg, _log_step)
    except ConvergenceError:
        try:
            psi, _, newton_steps, flow_norm = _newton(sub, start, None, cfg, _newton_step)
        except ConvergenceError:
            psi, loose_steps = _loose_phase(sub, start)
            psi, _, newton_steps, flow_norm = _newton(sub, psi, None, cfg, _newton_step)
    return _newton_result(problem.grid, sub, kept, psi, problem.b, energy, flow_norm,
                          loose_steps, newton_steps)


def _predicted_root(problem: GridProblem, cfg: FlowConfig, init: np.ndarray | None,
                    bracket: tuple[float, float]) -> GroundStateSolution:
    """The self-consistent root in ``bracket`` from init, on the kept
    sub-grid of _newton_start, by one fixed-b Newton step in ln u at the
    problem's b, with m as border unknown, from the normalized start (the
    predictor), and the free-b Newton in ln u from that state, pinned and
    normalized (the corrector; Allgower & Georg, Numerical Continuation
    Methods, 1990).  Its energy_trace is the start state's energy at the
    problem's b and the root's mu; newton_steps counts the fixed-b step and
    the root's steps.  Invalid input raises ValidationError before any
    step.  A failed step or root, a predicted state with an entry that
    underflows to zero on normalizing, and a root outside the bracket or
    with |mu - b| >= _F_TOL raise ConvergenceError."""
    sub, kept, start, energy = _newton_start(problem, cfg, init)
    psi = _pinned(_log_step(sub, start[1:-1], sub.b, energy - sub.b, False)[0])
    _pin_and_normalize(psi, sub.grid.spacing)
    if not psi[1:-1].min() > 0.0:
        raise ConvergenceError("the predicted state underflowed to zero")
    psi, b, steps, flow_norm = _newton(sub, psi, bracket, cfg, _log_step)
    if not bracket[0] <= b <= bracket[1]:
        raise ConvergenceError(f"root b = {b!r} is outside the bracket [{bracket[0]}, {bracket[1]}]")
    root = _newton_result(problem.grid, sub, kept, psi, b, energy, flow_norm, 0, 1 + steps)
    if not abs(root.mu - b) < _F_TOL:
        raise ConvergenceError(f"root b = {b!r} has |mu - b| = {abs(root.mu - b):.3e}")
    return root


def self_consistent_lambda(
    problem: GridProblem,
    cfg: FlowConfig,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    init: np.ndarray | None = None,
) -> tuple[float, GroundStateSolution]:
    """Root b* of F(b) = mu(b) - b in the bracket: the returned coefficient
    is its own stationarity eigenvalue, |mu(b*) - b*| < _F_TOL.

    A bracket that is not a pair of finite lo < hi raises ValidationError
    before any solve, by numerics._check_bracket, the rule find_root
    applies.  The root is _predicted_root's: one fixed-b Newton step in
    ln psi at b = lo from the normalized init, then the free-b Newton in
    ln psi from that state, on the sub-grid ground_state keeps; it is
    returned where it lies in the bracket with |mu - b| < _F_TOL, with
    ``iterations`` 0, ``newton_steps`` the fixed-b step plus the root's
    steps and ``energy_trace`` starting with the energy of the normalized
    start state at b = lo.  The free-b attempt stops as soon as its b
    leaves the bracket by more than half the bracket's width (see _newton).
    Only where that attempt fails are the ends solved, lo first, each by
    ground_state from init: an end with |F| < _F_TOL is returned as the
    root, with that solve's own counts and trace.  Otherwise BracketError
    is raised when F has no sign change on the bracket, by
    numerics._check_sign_change, the rule find_root applies, and
    ConvergenceError quoting the first attempt's failure when it has; an
    end that fails to solve raises its own ConvergenceError.
    """
    lo, hi = _check_bracket(bracket)
    try:
        root = _predicted_root(problem.with_b(lo), cfg, init, (lo, hi))
        return root.b, root
    except ConvergenceError as exc:
        failure = exc
    values = []
    for end in (lo, hi):
        sol = ground_state(problem.with_b(end), cfg, init=init)
        if abs(sol.mu - end) < _F_TOL:
            return end, sol
        values.append(sol.mu - end)
    _check_sign_change(lo, hi, *values)
    raise ConvergenceError(f"free-b Newton solve from b = {lo!r} failed: {failure}") from failure


def uniqueness_probe(
    problem: GridProblem,
    cfg: FlowConfig,
    n_inits: int,
) -> UniquenessReport:
    """Repeat the self-consistent solve on DEFAULT_BRACKET from n_inits
    seeded random positive guesses.

    Reports each root's lambda, the largest pairwise lambda gap and the
    largest pairwise L2 distance between states.  Per-init convergence and
    bracket failures are recorded and the probe still returns; an invalid
    configuration raises ValidationError, since the seeded guesses are
    always valid.
    """
    n_inits = _as_int(n_inits, "n_inits", 2)
    h = problem.grid.spacing
    values: list[float] = []
    solutions: list[GroundStateSolution] = []
    failures: list[tuple[int, str]] = []
    for i in range(n_inits):
        guess = randomized_initial_guess(problem.grid, cfg.seed, i)
        try:
            lam, sol = self_consistent_lambda(problem, cfg, init=guess)
            values.append(lam)
            solutions.append(sol)
        except (ConvergenceError, BracketError) as exc:
            failures.append((i, str(exc)))
    dist = max((math.sqrt(h * float(np.sum((a.psi - b.psi) ** 2)))
                for i, a in enumerate(solutions) for b in solutions[i + 1:]), default=0.0)
    return UniquenessReport(
        eigenvalues=tuple(values),
        max_eigenvalue_spread=max(values) - min(values) if values else 0.0,
        max_state_l2_distance=dist,
        failures=tuple(failures),
    )
