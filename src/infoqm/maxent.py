"""Maximum-entropy density fitting from moment constraints.

Densities take the exponential-family form

    rho(x) = Z(x) S(x) exp(-sum_i a_i x^i)

where a_0 carries the normalization and the optional Z/S factors place
prescribed zeros (|x-x0|^m) and integrable singularities (|x-x0|^{-p},
p < 1) at the ends of the support.  Multipliers for the constrained
orders are found by Newton iteration on the moment residuals, using the
moment covariance matrix as the Jacobian; all other multipliers stay
zero.  One Newton core serves both the 1-D and the 2-D fits: it works
on a tensor-product Simpson grid from ``numerics.QuadratureRule``, and
a 1-D fit is the case of a one-node second axis (y = 1, weight 1).
A 1-D density is integrated on one window read off its exponent: each
infinite end is cut where sum_i a_i x^i has risen by 72 = 12^2/2 above
its minimum (+-12 sigma for a Gaussian), with a tail-mass check in fits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InfeasibleMomentsError,
    NumericError,
    ValidationError,
)
from .numerics import Grid1D, QuadratureRule

_QUAD_POINTS = 8001          # reference Simpson resolution, 1-D
_QUAD_POINTS_2D = 601        # per axis, tensor Simpson
_NEWTON_CAP = 100
_STEP_CLIP = 10.0
_TAIL_MASS_LIMIT = 1e-12
_WINDOW_RISE = 0.5 * 12.0**2   # exponent rise at a cut end: 12 sigma


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class MomentSpec1D:
    """Support interval (ends may be +-inf) and (order, target) constraints."""

    support: tuple[float, float]
    constraints: tuple[tuple[int, float], ...]

    def __post_init__(self):
        a, b = self.support
        if math.isnan(a) or math.isnan(b) or not a < b:
            raise ValidationError(f"support must satisfy a < b, got [{a}, {b}]")
        seen = set()
        for order, value in self.constraints:
            if order < 1 or order != int(order):
                raise ValidationError(f"constraint orders must be positive integers, got {order}")
            if order in seen:
                raise ValidationError(f"duplicate constraint order {order}")
            if not math.isfinite(value):
                raise ValidationError(f"constraint value for order {order} must be finite")
            seen.add(order)
        ordered = tuple(sorted(((int(o), float(v)) for o, v in self.constraints)))
        object.__setattr__(self, "constraints", ordered)
        if self.unbounded and ordered and ordered[-1][0] % 2 == 1:
            raise ValidationError(
                "unbounded support needs an even top constraint order for integrability"
            )

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.support[0]) or math.isinf(self.support[1])

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for o, _ in self.constraints)

    @property
    def targets(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.constraints)


@dataclass(frozen=True)
class MomentSpec2D:
    """Rectangle support and (i, j, target) constraints, total degree <= 4."""

    support: tuple[tuple[float, float], tuple[float, float]]
    constraints: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        (a1, b1), (a2, b2) = self.support
        for lo, hi in ((a1, b1), (a2, b2)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError("2-D support must be a finite nondegenerate rectangle")
        seen = set()
        for i, j, value in self.constraints:
            if i < 0 or j < 0 or i + j < 1:
                raise ValidationError(f"invalid constraint pair ({i}, {j})")
            if i + j > 4:
                raise ValidationError(f"total degree {i + j} exceeds the cap of 4")
            if (i, j) in seen:
                raise ValidationError(f"duplicate constraint pair ({i}, {j})")
            if not math.isfinite(value):
                raise ValidationError(f"constraint value for ({i}, {j}) must be finite")
            seen.add((i, j))
        ordered = tuple(sorted(((int(i), int(j), float(v)) for i, j, v in self.constraints)))
        object.__setattr__(self, "constraints", ordered)


@dataclass(frozen=True)
class EndpointFactors:
    """Prescribed zeros (location, multiplicity) and singularities
    (location, exponent p in (0,1)) multiplying the exponential core."""

    zeros: tuple[tuple[float, float], ...] = ()
    singularities: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for loc, m in self.zeros:
            if not (m > 0 and math.isfinite(m) and math.isfinite(loc)):
                raise ValidationError(f"zero at {loc} needs a positive finite multiplicity")
        for loc, p in self.singularities:
            if not (0.0 < p < 1.0) or not math.isfinite(loc):
                raise ValidationError(
                    f"singularity exponent must lie in (0, 1) for integrability, got {p}"
                )
        zlocs = {loc for loc, _ in self.zeros}
        slocs = {loc for loc, _ in self.singularities}
        if zlocs & slocs:
            raise ValidationError("a location cannot carry both a zero and a singularity")

    @property
    def trivial(self) -> bool:
        return not self.zeros and not self.singularities


@dataclass(frozen=True)
class ExpFamilyDensity1D:
    """Exponential-family density with optional endpoint factors.

    ``multipliers`` holds (order, value) pairs including order 0 (the
    normalization multiplier a_0 = ln of the normalization integral).
    """

    multipliers: tuple[tuple[int, float], ...]
    support: tuple[float, float]
    factors: EndpointFactors | None = None

    def __post_init__(self):
        a, b = self.support
        if math.isnan(a) or math.isnan(b) or not a < b:
            raise ValidationError(f"support must satisfy a < b, got [{a}, {b}]")
        seen = set()
        for order, value in self.multipliers:
            if order < 0 or order != int(order):
                raise ValidationError(f"multiplier orders must be nonnegative ints, got {order}")
            if order in seen:
                raise ValidationError(f"duplicate multiplier order {order}")
            if not math.isfinite(value):
                raise ValidationError(f"multiplier for order {order} must be finite")
            seen.add(order)
        object.__setattr__(
            self, "multipliers", tuple(sorted(((int(o), float(v)) for o, v in self.multipliers)))
        )
        if self.factors is not None:
            for loc, _ in (*self.factors.zeros, *self.factors.singularities):
                if not a <= loc <= b:
                    raise ValidationError(f"factor location {loc} outside support [{a}, {b}]")

    @property
    def a0(self) -> float:
        for order, value in self.multipliers:
            if order == 0:
                return value
        return 0.0


@dataclass(frozen=True)
class ExpFamilyDensity2D:
    """Two-variable exponential family exp(-sum a_ij x^i y^j) on a rectangle."""

    multipliers: tuple[tuple[int, int, float], ...]
    support: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        seen = set()
        for i, j, value in self.multipliers:
            if i < 0 or j < 0:
                raise ValidationError(f"invalid multiplier pair ({i}, {j})")
            if (i, j) in seen:
                raise ValidationError(f"duplicate multiplier pair ({i}, {j})")
            if not math.isfinite(value):
                raise ValidationError(f"multiplier for ({i}, {j}) must be finite")
            seen.add((i, j))
        object.__setattr__(
            self,
            "multipliers",
            tuple(sorted(((int(i), int(j), float(v)) for i, j, v in self.multipliers))),
        )


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    max_moment_residual: float
    window: tuple[float, float]
    tail_mass: float = 0.0


# ---------------------------------------------------------------------------
# quadrature plumbing


def _exponent_poly(multipliers, xs: np.ndarray, include_a0: bool = True) -> np.ndarray:
    """sum_i a_i x^i over the stored multipliers."""
    total = np.zeros_like(xs)
    for order, value in multipliers:
        if order == 0:
            if include_a0:
                total += value
        else:
            total += value * xs**order
    return total


def _factor_values(factors: EndpointFactors | None, xs: np.ndarray) -> np.ndarray:
    if factors is None or factors.trivial:
        return np.ones_like(xs)
    out = np.ones_like(xs)
    for loc, m in factors.zeros:
        out *= np.abs(xs - loc) ** m
    for loc, p in factors.singularities:
        d = np.abs(xs - loc)
        with np.errstate(divide="ignore"):
            out *= np.where(d == 0.0, np.inf, d ** (-p))
    return out


def _exponent_coeffs(support: tuple[float, float], multipliers) -> list[float]:
    """P(x) = sum_i a_i x^i, highest order first; NumericError unless P grows
    toward every infinite end of the support, as a normalizable exp(-P) must."""
    lo, hi = support
    mult = dict(multipliers)
    p = [float(mult.get(i, 0.0)) for i in range(max(mult, default=0), -1, -1)]
    while p and p[0] == 0.0:
        p.pop(0)
    k = len(p) - 1
    if k < 1 or (math.isinf(hi) and p[0] <= 0) or (math.isinf(lo) and p[0] * (-1) ** k <= 0):
        raise NumericError(f"exp(-P), P coefficients {p[::-1]}, does not decay toward "
                           f"every infinite end of [{lo}, {hi}]: not normalizable")
    return p


def _window_rule(support: tuple[float, float], multipliers) -> QuadratureRule:
    """8001-node Simpson rule on the support of exp(-P), P(x) = sum_i a_i x^i.

    Each infinite end is cut where P has risen by _WINDOW_RISE above its
    minimum on the support, which is 12 sigma for a Gaussian.  Raises
    NumericError when exp(-P) is not normalizable on the support.
    """
    lo, hi = support
    if math.isinf(lo) or math.isinf(hi):
        p = _exponent_coeffs(support, multipliers)
        # the minimum lies at a critical point or a finite end; real parts of
        # complex critical points are support points too, so they do no harm
        candidates = np.append(
            np.clip(np.roots(np.polyder(p)).real, lo, hi),
            [e for e in support if math.isfinite(e)],
        )
        p[-1] -= float(np.polyval(p, candidates).min()) + _WINDOW_RISE
        roots = np.roots(p)
        crossings = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
        if crossings.size == 0:
            raise NumericError(f"exponent has no real crossing {_WINDOW_RISE} above its minimum")
        lo = float(crossings.min()) if math.isinf(lo) else lo
        hi = float(crossings.max()) if math.isinf(hi) else hi
    return QuadratureRule.simpson(Grid1D(lo, hi, _QUAD_POINTS))


def reference_rule(d: ExpFamilyDensity1D):
    """Nodes and Simpson weights of the module's reference quadrature for d."""
    rule = _window_rule(d.support, d.multipliers)
    return rule.nodes, rule.weights


# ---------------------------------------------------------------------------
# feasibility


def _max_abs_power(a: float, b: float, order: int) -> float:
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return max(abs(a), abs(b)) ** order


def _min_even_power(a: float, b: float, order: int) -> float:
    if a <= 0.0 <= b:
        return 0.0
    return min(abs(a), abs(b)) ** order


def check_feasible_1d(spec: MomentSpec1D) -> None:
    """Range and Hankel-positivity screening before any iteration.

    Rejects moment vectors on or outside the boundary of the moment cone
    for the order combinations this module supports (orders <= 4).
    """
    a, b = spec.support
    targets = dict(zip(spec.orders, spec.targets))
    for order, value in spec.constraints:
        if order % 2 == 0:
            lo = _min_even_power(a, b, order)
            hi = _max_abs_power(a, b, order)
        else:
            lo = -math.inf if math.isinf(a) else a**order
            hi = math.inf if math.isinf(b) else b**order
        if not lo < value < hi:
            raise InfeasibleMomentsError(
                f"moment of order {order} = {value} outside the open range ({lo}, {hi})"
            )
    blocks = []
    if {1, 2} <= targets.keys():
        blocks.append(np.array([[1.0, targets[1]], [targets[1], targets[2]]]))
    if {2, 4} <= targets.keys() and 1 not in targets and 3 not in targets:
        blocks.append(np.array([[1.0, targets[2]], [targets[2], targets[4]]]))
    if {1, 2, 3, 4} <= targets.keys():
        blocks.append(
            np.array(
                [
                    [1.0, targets[1], targets[2]],
                    [targets[1], targets[2], targets[3]],
                    [targets[2], targets[3], targets[4]],
                ]
            )
        )
    for h in blocks:
        if np.linalg.eigvalsh(h).min() <= 0:
            raise InfeasibleMomentsError("moment vector fails Hankel positivity")


def _check_feasible_2d(spec: MomentSpec2D) -> None:
    (a1, b1), (a2, b2) = spec.support
    targets = {(i, j): v for i, j, v in spec.constraints}
    for (i, j), v in targets.items():
        if i % 2 == 0 and j % 2 == 0:
            cap = _max_abs_power(a1, b1, i) * _max_abs_power(a2, b2, j)
            if not 0.0 < v < cap:
                raise InfeasibleMomentsError(f"moment ({i},{j}) = {v} outside (0, {cap})")
    if {(2, 0), (0, 2), (1, 1)} <= targets.keys():
        m1 = targets.get((1, 0), 0.0)
        m2 = targets.get((0, 1), 0.0)
        cov = np.array(
            [
                [targets[(2, 0)] - m1 * m1, targets[(1, 1)] - m1 * m2],
                [targets[(1, 1)] - m1 * m2, targets[(0, 2)] - m2 * m2],
            ]
        )
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise InfeasibleMomentsError("second-moment matrix is not positive definite")


# ---------------------------------------------------------------------------
# fitting


# y = 1 with weight 1: the second axis of a 1-D fit on the 2-D core
_UNIT_AXIS = QuadratureRule("point", np.ones(1), np.ones(1))


def _power_table(nodes: np.ndarray, top: int) -> np.ndarray:
    """Rows nodes**0 .. nodes**top, by repeated multiplication."""
    table = np.empty((top + 1, nodes.size))
    table[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(table[k - 1], nodes, out=table[k])
    return table


def _newton_fit(pairs, targets: np.ndarray, a: np.ndarray, tol: float, rules):
    """Match the moments <x^i y^j> of exp(-sum_t a_t x^i_t y^j_t) to targets.

    Newton iteration on the moment residuals with the moment covariance as
    Jacobian, each step clipped to _STEP_CLIP.  ``rules`` holds the x and
    y quadrature rules of the tensor-product grid.  Every moment and
    covariance entry is read from the one table Px (w_x w_y^T * core) Py^T.
    Returns (a, a_0, diagnostics).
    """
    pi = np.array([i for i, _ in pairs])
    pj = np.array([j for _, j in pairs])
    px = _power_table(rules[0].nodes, 2 * int(pi.max()))
    py = _power_table(rules[1].nodes, 2 * int(pj.max()))
    w = np.multiply.outer(rules[0].weights, rules[1].weights)
    for iterations in range(_NEWTON_CAP + 1):
        # one outer product per power of y, never the full monomial stack
        by_j: dict[int, np.ndarray] = {}
        for i, j, v in zip(pi, pj, a):
            by_j[j] = by_j.get(j, 0.0) + v * px[i]
        log_core = -sum(np.multiply.outer(u, py[j]) for j, u in by_j.items())
        shift = float(log_core.max())
        table = px @ (w * np.exp(log_core - shift)) @ py.T
        z = float(table[0, 0])
        if not (math.isfinite(z) and z > 0):
            raise NumericError("normalization integral is not finite; fit diverged")
        mom = table / z
        mean = mom[pi, pj]
        r = mean - targets
        residual = float(np.max(np.abs(r)))
        if residual <= tol:
            break
        if iterations == _NEWTON_CAP:
            raise ConvergenceError(
                f"moment-matching Newton did not reach tol={tol} in {_NEWTON_CAP} "
                f"iterations (residual {residual:.3e})"
            )
        cov = mom[pi[:, None] + pi, pj[:, None] + pj] - np.outer(mean, mean)
        try:
            delta = np.linalg.solve(cov, r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular moment covariance: {exc}") from exc
        worst = float(np.max(np.abs(delta)))
        if worst > _STEP_CLIP:
            delta *= _STEP_CLIP / worst
        a = a + delta
    window = (float(rules[0].nodes[0]), float(rules[0].nodes[-1]))
    return a, shift + math.log(z), FitDiagnostics(iterations, residual, window)


def fit_multipliers_1d(
    spec: MomentSpec1D,
    init: np.ndarray | None = None,
    tol: float = 1e-10,
) -> tuple[ExpFamilyDensity1D, FitDiagnostics]:
    """Fit multipliers so every constrained moment matches within tol.

    Runs the shared Newton core with a one-node y axis.  Returns the
    normalized density (a_0 included) and fit diagnostics.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    check_feasible_1d(spec)
    orders = spec.orders
    targets = np.array(spec.targets)
    m = len(orders)

    if init is not None:
        init = np.asarray(init, dtype=float).copy()
        if init.shape != (m,):
            raise ValidationError(f"init must have shape ({m},)")

    if m == 0:
        if spec.unbounded:
            raise ValidationError("unbounded support needs at least one moment constraint")
        lo, hi = spec.support
        density = ExpFamilyDensity1D(((0, math.log(hi - lo)),), spec.support)
        return density, FitDiagnostics(0, 0.0, (lo, hi), 0.0)

    a = np.zeros(m)
    tmap = dict(zip(orders, targets))
    if spec.unbounded and 2 in tmap:
        # the Gaussian of the target mean and variance
        mean = tmap.get(1, 0.0)
        var = tmap[2] - mean * mean
        a = np.array([{1: -mean / var, 2: 0.5 / var}.get(o, 0.0) for o in orders])
    elif spec.unbounded:
        # exp(-a x^k) has <x^k> = 1/(k a) exactly; as t_k >= |<x>|^k, its
        # window, out to where a x^k reaches 72, also covers the target mean
        a[-1] = 1.0 / (orders[-1] * targets[-1])
    # from the cold start even with init: a warm start integrates on the cold fit's window
    rules = (_window_rule(spec.support, tuple(zip(orders, a))), _UNIT_AXIS)
    a, a0, diag = _newton_fit(
        tuple((o, 0) for o in orders), targets, a if init is None else init, tol, rules
    )
    multipliers = ((0, a0),) + tuple((o, float(v)) for o, v in zip(orders, a))
    density = ExpFamilyDensity1D(multipliers, spec.support)
    if spec.unbounded:
        # a fit on the window alone may end just past the normalizable set
        _exponent_coeffs(spec.support, multipliers)
        lo, hi = diag.window
        cut = [x for x, end in zip(diag.window, spec.support) if math.isinf(end)]
        tail = float(density_values(density, np.array(cut)).max() * (hi - lo))
        if tail > _TAIL_MASS_LIMIT:
            raise NumericError(f"truncation window too narrow: tail mass ~ {tail:.2e}")
        diag = replace(diag, tail_mass=tail)
    return density, diag


def fit_multipliers_2d(
    spec: MomentSpec2D, tol: float = 1e-9
) -> tuple[ExpFamilyDensity2D, FitDiagnostics]:
    """Two-variable analogue of fit_multipliers_1d on a finite rectangle."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    _check_feasible_2d(spec)
    pairs = tuple((i, j) for i, j, _ in spec.constraints)
    targets = np.array([v for _, _, v in spec.constraints])
    (a1, b1), (a2, b2) = spec.support

    if not pairs:
        a00 = math.log((b1 - a1) * (b2 - a2))
        density = ExpFamilyDensity2D(((0, 0, a00),), spec.support)
        return density, FitDiagnostics(0, 0.0, (a1, b1), 0.0)

    a = np.array(
        [1.0 / (2.0 * t) if p in ((2, 0), (0, 2)) else 0.0 for p, t in zip(pairs, targets)]
    )
    rules = tuple(
        QuadratureRule.simpson(Grid1D(lo, hi, _QUAD_POINTS_2D)) for lo, hi in spec.support
    )
    a, a00, diag = _newton_fit(pairs, targets, a, tol, rules)
    multipliers = ((0, 0, a00),) + tuple((i, j, float(v)) for (i, j), v in zip(pairs, a))
    density = ExpFamilyDensity2D(multipliers, spec.support)
    return density, diag


# ---------------------------------------------------------------------------
# evaluation and functionals


def density_values(d: ExpFamilyDensity1D, xs: np.ndarray) -> np.ndarray:
    """Vectorized density evaluation; +inf marks singular locations."""
    xs = np.asarray(xs, dtype=float)
    core = np.exp(-_exponent_poly(d.multipliers, xs))
    return _factor_values(d.factors, xs) * core


def density_eval(d: ExpFamilyDensity1D, x: float) -> float:
    """rho(x) = Z(x) S(x) exp(-sum a_i x^i); +inf flags a singular point."""
    a, b = d.support
    if not a <= x <= b:
        raise DomainError(f"x = {x} outside support [{a}, {b}]")
    return float(density_values(d, np.array([x]))[0])


def density_eval_2d(d: ExpFamilyDensity2D, x: float, y: float) -> float:
    (a1, b1), (a2, b2) = d.support
    if not (a1 <= x <= b1 and a2 <= y <= b2):
        raise DomainError(f"({x}, {y}) outside support rectangle")
    expo = sum(v * x**i * y**j for i, j, v in d.multipliers)
    return math.exp(-expo)


def _functional_nodes(d: ExpFamilyDensity1D):
    """Reference nodes, nudged off any singular location by half a spacing."""
    xs, w = reference_rule(d)
    if d.factors is not None and d.factors.singularities:
        half = 0.5 * (xs[1] - xs[0])
        for loc, _ in d.factors.singularities:
            hit = np.isclose(xs, loc, rtol=0.0, atol=1e-15 * max(1.0, abs(loc)))
            xs = np.where(hit, np.where(xs <= 0.5 * (xs[0] + xs[-1]), xs + half, xs - half), xs)
    return xs, w


def information(d: ExpFamilyDensity1D) -> float:
    """Average log-density <ln rho> by quadrature (the negated entropy).

    The integrand rho ln rho is set to its limit 0 wherever rho
    vanishes; nodes that land on declared singular locations are nudged
    inward, so configurations with exponents p < 1 stay integrable.
    """
    xs, w = _functional_nodes(d)
    rho = density_values(d, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(rho > 0.0, rho * np.log(rho), 0.0)
    if not np.all(np.isfinite(integrand)):
        raise NumericError("non-integrable singularity configuration")
    return float(w @ integrand)


def modified_information(d: ExpFamilyDensity1D) -> float:
    """Average of ln(rho / (Z S)), finite even with zeros or singularities.

    With trivial factors this is the identity reduction: it returns
    information(d) through the same code path, bit for bit.
    """
    if d.factors is None or d.factors.trivial:
        return information(d)
    xs, w = _functional_nodes(d)
    rho = density_values(d, xs)
    log_core = -_exponent_poly(d.multipliers, xs)
    integrand = np.where(rho > 0.0, rho * log_core, 0.0)
    integrand = np.where(np.isinf(rho), np.nan, integrand)
    if not np.all(np.isfinite(integrand)):
        raise NumericError("non-integrable singularity configuration")
    return float(w @ integrand)


def moment_gradient_check(
    d: ExpFamilyDensity1D, order: int, h: float
) -> tuple[float, float]:
    """Pair (<x^order>, -d ln N / d a_order by central difference).

    N(a) is the normalization integral of the unnormalized density; the
    two returned numbers agree to O(h^2) for a consistent fit.
    """
    if h < 1e-10:
        raise ValidationError("h below 1e-10 would be dominated by cancellation")
    if order < 1:
        raise ValidationError("order must be >= 1")
    xs, w = _functional_nodes(d)
    weight = _factor_values(d.factors, xs)

    def log_norm(shift: float) -> float:
        expo = -_exponent_poly(d.multipliers, xs, include_a0=False) - shift * xs**order
        m = float(expo.max())
        return m + math.log(float(w @ (weight * np.exp(expo - m))))

    rho = density_values(d, xs)
    analytic = float(w @ (rho * xs**order))
    numeric = -(log_norm(h) - log_norm(-h)) / (2.0 * h)
    return analytic, numeric


def normalization_residual(d: ExpFamilyDensity1D) -> float:
    """|integral of rho - 1| under the reference quadrature."""
    xs, w = _functional_nodes(d)
    return abs(float(w @ density_values(d, xs)) - 1.0)


# ---------------------------------------------------------------------------
# JSON interfaces


_INF_STRINGS = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf, "−inf": -math.inf}
# what reading a malformed document raises; the parsers below map it to ValidationError
_MALFORMED = (AttributeError, KeyError, TypeError, IndexError, ValueError)


def _parse_bound(v) -> float:
    if isinstance(v, str):
        key = v.strip().lower()
        if key in _INF_STRINGS:
            return _INF_STRINGS[key]
        raise ValueError(f"unrecognized support bound {v!r}")
    return float(v)


def moment_spec_from_json(doc) -> MomentSpec1D:
    """Parse {"support": [a, b], "moments": [{"order": i, "value": c}, ...]}.

    Bounds accept "inf" / "-inf" sentinels; a malformed document raises ValidationError.
    """
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        support = (_parse_bound(doc["support"][0]), _parse_bound(doc["support"][1]))
        moments = tuple((int(m["order"]), float(m["value"])) for m in doc.get("moments", []))
    except _MALFORMED as exc:
        raise ValidationError(f"malformed moment spec document: {exc!r}") from exc
    return MomentSpec1D(support, moments)


def _bound_to_json(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def density_to_json(d: ExpFamilyDensity1D, diagnostics: FitDiagnostics | None = None) -> dict:
    doc = {
        "support": [_bound_to_json(d.support[0]), _bound_to_json(d.support[1])],
        "multipliers": [[o, v] for o, v in d.multipliers],
        "factors": None
        if d.factors is None
        else {
            "zeros": [[loc, mlt] for loc, mlt in d.factors.zeros],
            "singularities": [[loc, p] for loc, p in d.factors.singularities],
        },
        "diagnostics": None
        if diagnostics is None
        else {
            "iterations": diagnostics.iterations,
            "max_moment_residual": diagnostics.max_moment_residual,
            "window": list(diagnostics.window),
            "tail_mass": diagnostics.tail_mass,
        },
    }
    return doc


def density_from_json(doc) -> ExpFamilyDensity1D:
    """Parse a density_to_json document; a malformed one raises ValidationError."""
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        factors = None
        if doc.get("factors"):
            factors = EndpointFactors(
                zeros=tuple((float(l), float(m)) for l, m in doc["factors"].get("zeros", [])),
                singularities=tuple(
                    (float(l), float(p)) for l, p in doc["factors"].get("singularities", [])
                ),
            )
        support = (_parse_bound(doc["support"][0]), _parse_bound(doc["support"][1]))
        multipliers = tuple((int(o), float(v)) for o, v in doc["multipliers"])
    except _MALFORMED as exc:
        raise ValidationError(f"malformed density document: {exc!r}") from exc
    return ExpFamilyDensity1D(multipliers, support, factors)
