"""Maximum-entropy density fitting from moment constraints.

Densities take the exponential-family form

    rho(x) = Z(x) S(x) exp(-sum_i a_i x^i)

where a_0 carries the normalization and the optional Z/S factors place
prescribed zeros (|x-x0|^m) and integrable singularities (|x-x0|^{-p},
p < 1) at the ends of the support.  Multipliers for the constrained
orders are found by Newton iteration on the moment residuals, using the
moment covariance matrix as the Jacobian; all other multipliers stay
zero.  One Newton core serves both the 1-D and the 2-D fits: it works
on a tensor product of two ``numerics.QuadratureRule`` axes, and a 1-D
fit is the case of a one-node second axis (y = 1, weight 1).
Every integral runs on Gauss-Legendre nodes that one axis rule places
on a side of the support: n on a window, the hull of the points where
sum_i a_i x^i is at most 72 = 12^2/2 above its minimum on the side
(+-12 sigma for a Gaussian), and n // 4 on each finite piece of the
side beyond it, so only an infinite end is cut.  The window is worked
out in plain floats, its critical points and crossings the roots from
the one root helper, numerics._poly_roots, its values from the one
Horner loop, numerics._horner, and an axis rule is one concatenation of
its mapped Gauss parts, where the window is the whole side too, validated
once, as a whole.  A 1-D fit and every 1-D functional put 768 nodes on
the window.  A density's own node set, on the window read off its
exponent, is built once, on first use, and shared by every functional
of that density (reference_rule).  A 1-D fit first reads the window off
its cold start, and once Newton converges it ends on, and reports, the
density's own window: where that differs, Newton goes on there, again
while a pass takes steps and still moves the window by more than 1e-12
of its width (three passes at most), and the fit raises where the
density at an infinite cut end leaves tail mass.  The Newton core forms
its power rows and index tables once per call; its powers and those of
ln rho come from one running product, _power_table.  A 2-D fit takes
each axis's window from its Gaussian start (the target mean +-12 sd,
clipped to the rectangle) and doubles the nodes until the fitted moments
hold on twice as many.  Both fits share one restart rule, _with_restart:
a 1-D fit starts from ``init`` or its cold start, a 2-D
fit from its Gaussian start, and where Newton fails the fit restarts
once, flat over the whole of a finite support (always, in 2-D) or from
the cold start on its window where the support is infinite; where the
failed attempt was the restart, or the restart fails too, it raises.
Every 1-D evaluator and functional reads ln rho from one function, in two
parts, ln(Z S) and -sum_i a_i x^i (a_0 included), and integrates on one
node set, reference_rule.  EndpointFactors() means no factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InfeasibleMomentsError, NumericError, ValidationError
from .numerics import (QuadratureRule, _as_array, _as_finite_array, _as_int, _as_number,
                       _as_positive, _horner, _poly_roots, _real_roots)

_GAUSS_NODES = 48            # first Gauss-Legendre level per axis, 2-D
_GAUSS_NODES_MAX = 384       # last 2-D level; its recheck runs on twice as many
_NODES_1D = 2 * _GAUSS_NODES_MAX   # window nodes of every 1-D integral
_NEWTON_CAP = 100
_STEP_CLIP = 10.0
_TAIL_MASS_LIMIT = 1e-12
_WINDOW_RISE = 0.5 * 12.0**2   # exponent rise at a window end: 12 sigma
_OWN_PASSES = 3              # most Newton passes of a 1-D fit on its density's own window
_WINDOW_MOVE = 1e-12         # a window move, relative to its width, worth another pass


# ---------------------------------------------------------------------------
# domain types


def _term_table(terms, valid, name: str) -> tuple:
    """Sorted (int key..., float value) terms of a constraint or multiplier table.

    Raises ValidationError unless every key component is an integer under
    numerics._as_int, valid(*key) holds, no key repeats (1 and 1.0 are one
    key) and every value is a finite number under numerics._as_number."""
    table = {}
    for *raw, value in terms:
        shown = raw[0] if len(raw) == 1 else tuple(raw)
        key = tuple(_as_int(c, name) for c in raw)
        if not valid(*key):
            raise ValidationError(f"{name} {shown!r} is out of range")
        if key in table:
            raise ValidationError(f"duplicate {name} {shown!r}")
        table[key] = _as_number(value, f"the value of {name} {shown!r}")
        if not math.isfinite(table[key]):
            raise ValidationError(f"{name} {shown!r} needs a finite value, got {value!r}")
    return tuple(sorted(key + (value,) for key, value in table.items()))


def _interval(support) -> tuple[float, float]:
    """support as a pair of floats a < b (ends may be infinite), each a
    number under numerics._as_number; ValidationError otherwise."""
    a, b = (_as_number(end, "support bound") for end in support)
    if not a < b:
        raise ValidationError(f"support must satisfy a < b, got {[a, b]}")
    return a, b


def _rectangle(support) -> tuple[tuple[float, float], tuple[float, float]]:
    """support as a finite nondegenerate rectangle of two _interval sides;
    ValidationError otherwise."""
    sides = tuple(_interval(side) for side in support)
    if len(sides) != 2 or not all(math.isfinite(end) for side in sides for end in side):
        raise ValidationError("2-D support must be a finite nondegenerate rectangle")
    return sides


@dataclass(frozen=True)
class MomentSpec1D:
    """Support interval (ends may be +-inf) and (order, target) constraints."""

    support: tuple[float, float]
    constraints: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "support", _interval(self.support))
        ordered = _term_table(self.constraints, lambda o: o >= 1, "constraint order")
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
        object.__setattr__(self, "support", _rectangle(self.support))
        ordered = _term_table(
            self.constraints, lambda i, j: min(i, j) >= 0 and 1 <= i + j <= 4, "constraint pair"
        )
        object.__setattr__(self, "constraints", ordered)


@dataclass(frozen=True)
class EndpointFactors:
    """Prescribed zeros (location, multiplicity) and singularities
    (location, exponent p in (0,1)) multiplying the exponential core."""

    zeros: tuple[tuple[float, float], ...] = ()
    singularities: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        rules = {
            "zeros": (math.inf, "a zero needs a finite location and a multiplicity above 0"),
            "singularities": (1.0, "a singularity needs a finite location and an exponent in (0, 1)"),
        }
        for kind, (top, rule) in rules.items():
            pairs = []
            for x, e in getattr(self, kind):
                loc, e = _as_number(x, kind), _as_number(e, kind)
                if not (0.0 < e < top and math.isfinite(loc)):
                    raise ValidationError(f"{rule}, got {e} at {loc}")
                pairs.append((loc, e))
            object.__setattr__(self, kind, tuple(pairs))
        zlocs = {loc for loc, _ in self.zeros}
        slocs = {loc for loc, _ in self.singularities}
        if zlocs & slocs:
            raise ValidationError("a location cannot carry both a zero and a singularity")


@dataclass(frozen=True)
class ExpFamilyDensity1D:
    """Exponential-family density with endpoint factors.

    ``multipliers`` holds (order, value) pairs including order 0 (the
    normalization multiplier a_0 = ln of the normalization integral).
    ``EndpointFactors()`` means no factors; an explicit None is read as it.
    """

    multipliers: tuple[tuple[int, float], ...]
    support: tuple[float, float]
    factors: EndpointFactors = EndpointFactors()

    def __post_init__(self):
        object.__setattr__(self, "support", _interval(self.support))
        ordered = _term_table(self.multipliers, lambda o: o >= 0, "multiplier order")
        object.__setattr__(self, "multipliers", ordered)
        object.__setattr__(self, "factors", self.factors or EndpointFactors())
        a, b = self.support
        for loc, _ in (*self.factors.zeros, *self.factors.singularities):
            if not a <= loc <= b:
                raise ValidationError(f"factor location {loc} outside support [{a}, {b}]")

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        """reference_rule's read-only nodes and weights, built on first use
        and kept on this density (a frozen dataclass without __slots__)."""
        rule = _axis_rule(self.support, _window(self.support, self.multipliers), _NODES_1D)
        return rule.nodes, rule.weights


@dataclass(frozen=True)
class ExpFamilyDensity2D:
    """Two-variable exponential family exp(-sum a_ij x^i y^j) on a rectangle."""

    multipliers: tuple[tuple[int, int, float], ...]
    support: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        object.__setattr__(self, "support", _rectangle(self.support))
        ordered = _term_table(self.multipliers, lambda i, j: min(i, j) >= 0, "multiplier pair")
        object.__setattr__(self, "multipliers", ordered)


@dataclass(frozen=True)
class FitDiagnostics:
    """Newton ``iterations`` of a fit (summed over the windows, in 1-D, and
    the node levels, in 2-D, on which Newton converged; the steps of an
    attempt that failed before the restart are not counted), its final
    ``max_moment_residual`` (in 2-D, on the recheck rule of twice the last
    level's nodes), the integration ``window`` (in 1-D, the window the
    last Newton pass's nodes concentrate on, the own _window of the
    density that pass started from; for a 2-D fit, the x side of the
    rectangle) and the ``tail_mass`` estimate: the density at an infinite
    cut end times the window's width, and 0 for a 2-D fit."""

    iterations: int
    max_moment_residual: float
    window: tuple[float, float]
    tail_mass: float = 0.0


# ---------------------------------------------------------------------------
# quadrature plumbing


def _power_table(nodes: np.ndarray, top: int) -> np.ndarray:
    """Rows nodes**0 .. nodes**top, each of the shape of nodes, by repeated
    multiplication: numpy's power calls pow at every node for each order
    above 2."""
    table = np.empty((top + 1, *nodes.shape))
    table[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(table[k - 1], nodes, out=table[k, ...])
    return table


def _log_density(d: ExpFamilyDensity1D, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of ln rho at xs: ln(Z S), -inf at a zero and +inf at a
    singularity, and -P = -sum_i a_i x^i, a_0 included."""
    total = np.zeros_like(xs)
    powers = _power_table(xs, max((order for order, _ in d.multipliers), default=0))
    for order, value in d.multipliers:
        total += value * powers[order]
    log_zs = np.zeros_like(xs)
    with np.errstate(divide="ignore"):
        for loc, m in d.factors.zeros:
            log_zs += m * np.log(np.abs(xs - loc))
        for loc, p in d.factors.singularities:
            log_zs -= p * np.log(np.abs(xs - loc))
    return log_zs, -total


def _exponent_coeffs(support: tuple[float, float], multipliers) -> list[float]:
    """P(x) = sum_i a_i x^i, highest order first, at least the constant;
    NumericError unless P grows toward every infinite end of the support,
    as a normalizable exp(-P) must."""
    lo, hi = support
    mult = dict(multipliers)
    p = [float(mult.get(i, 0.0)) for i in range(max(mult, default=0), -1, -1)]
    while len(p) > 1 and p[0] == 0.0:
        p.pop(0)
    k = len(p) - 1
    if (math.isinf(hi) and not (k and p[0] > 0)
            or math.isinf(lo) and not (k and p[0] * (-1) ** k > 0)):
        raise NumericError(f"exp(-P), P coefficients {p[::-1]}, does not decay toward "
                           f"every infinite end of [{lo}, {hi}]: not normalizable")
    return p


def _window(support: tuple[float, float], multipliers) -> tuple[float, float]:
    """The ends of the window that the nodes of exp(-P), P(x) = sum_i a_i x^i,
    concentrate on.

    It is the hull of the support points where P is at most _WINDOW_RISE
    above its minimum on the support, which is 12 sigma for a Gaussian, so
    a constant P on a finite support keeps the whole support.  It is worked
    out in plain floats on the roots from numerics._poly_roots, to the bits
    of the same rule over arrays (np.polyder, np.clip, np.polyval and
    np.roots).  Raises NumericError when exp(-P) is not normalizable on the support.
    """
    lo, hi = support
    p = _exponent_coeffs(support, multipliers)
    k = len(p) - 1
    # the minimum lies at a critical point or a finite end; real parts of
    # complex critical points are support points too, so they do no harm.
    # numpy breaks a tie of 0.0 and -0.0 by its SIMD path, so the clip and
    # the hull stay numpy's
    derivative = [c * (k - i) for i, c in enumerate(p[:-1])]
    candidates = _poly_roots(derivative).real.clip(lo, hi).tolist()
    candidates += [e for e in support if math.isfinite(e)]
    values = [_horner(p, x) for x in candidates]
    top = min(values) + _WINDOW_RISE
    p[-1] -= top
    crossings = _real_roots(p)
    if not crossings and (math.isinf(lo) or math.isinf(hi)):
        raise NumericError(f"exponent has no real crossing {_WINDOW_RISE} above its minimum")
    inside = ([x for x in crossings if lo <= x <= hi]
              + [x for x, v in zip(candidates, values) if v <= top])
    hull = np.array(inside)
    return float(hull.min()), float(hull.max())


def _mapped_gauss(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule mapped from
    [-1, 1] onto [lo, hi], not yet validated."""
    unit = QuadratureRule.gauss_legendre(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * unit.nodes, half * unit.weights


def _axis_rule(side: tuple[float, float], window: tuple[float, float], n: int) -> QuadratureRule:
    """n Gauss-Legendre nodes on window and n // 4 on each finite piece of
    side beyond it, in order along the side; an infinite end is cut at the
    window.  A piece within rounding of the window's end, whose nodes would
    coincide, gets none.  The parts are mapped as arrays and concatenated,
    where the window is the whole side too, and the whole rule is
    validated once."""

    def piece(lo: float, hi: float) -> list:
        if not 0.0 < hi - lo < math.inf:
            return []
        nodes, weights = _mapped_gauss(lo, hi, n // 4)
        return [(nodes, weights)] if np.all(np.diff(nodes) > 0) else []

    parts = [*piece(side[0], window[0]), _mapped_gauss(*window, n), *piece(window[1], side[1])]
    return QuadratureRule(*(np.concatenate(c) for c in zip(*parts)))


def reference_rule(d: ExpFamilyDensity1D):
    """Nodes and weights of the one quadrature of every functional of d:
    the _axis_rule of d's support on d's _window with _NODES_1D nodes.  They
    are built once per density, on first use, and every call returns the
    same shared read-only arrays.  No node falls on an end of the support
    or of the window, so a singularity at an end of the support is finite
    at every node."""
    return d._rule


# ---------------------------------------------------------------------------
# feasibility


def _power(x: float, order: int) -> float:
    """x**order, where a power past the float range counts as an infinite end."""
    try:
        return x**order
    except OverflowError:
        return math.copysign(math.inf, x) if order % 2 else math.inf


def _power_range(a: float, b: float, order: int) -> tuple[float, float]:
    """The least and the largest x**order on [a, b], by _power: at both
    ends, and also at 0 for an even order where a <= 0 <= b.  A stable sort
    keeps odd powers that round to -0.0 and 0.0 in the order of their ends."""
    ends = (a, b, 0.0) if order % 2 == 0 and a <= 0.0 <= b else (a, b)
    values = sorted(_power(x, order) for x in ends)
    return values[0], values[-1]


def check_feasible_1d(spec: MomentSpec1D) -> None:
    """Range and Hankel-positivity screening before any iteration.

    Rejects moment vectors on or outside the boundary of the moment cone
    for the order combinations this module supports (orders <= 4); on a
    finite [a, b] that includes E[(x - a)(b - x)] <= 0 from orders 1 and 2.
    """
    a, b = spec.support
    targets = dict(zip(spec.orders, spec.targets))
    for order, value in spec.constraints:
        lo, hi = _power_range(a, b, order)
        if not lo < value < hi:
            raise InfeasibleMomentsError(
                f"moment of order {order} = {value} outside the open range ({lo}, {hi})"
            )
    # the Hankel matrices [<x^(s(i+j))>] over orders 0..2, 0..4 in steps
    # of 2, and 0..4, wherever all their moments are given
    moments = {0: 1.0, **targets}
    blocks = []
    for step, size in ((1, 2), (2, 2), (1, 3)):
        keys = [[step * (i + j) for j in range(size)] for i in range(size)]
        if all(k in moments for row in keys for k in row):
            blocks.append(np.array([[moments[k] for k in row] for row in keys]))
    if {1, 2} <= targets.keys() and math.isfinite(a) and math.isfinite(b):
        # the 1x1 localizing matrix of (x - a)(b - x) >= 0 on [a, b]
        blocks.append(np.array([[(a + b) * targets[1] - targets[2] - a * b]]))
    for h in blocks:
        if np.linalg.eigvalsh(h).min() <= 0:
            raise InfeasibleMomentsError("moment vector fails Hankel positivity")


def _check_feasible_2d(spec: MomentSpec2D) -> None:
    """check_feasible_1d on each axis's marginal (its error names the axis),
    then the truly 2-D checks: the even-even caps and one joint moment
    matrix, over (1, x, y) when both means are given and over (x, y)
    otherwise."""
    (a1, b1), (a2, b2) = spec.support
    targets = {(i, j): v for i, j, v in spec.constraints}
    for axis, support in enumerate(spec.support):
        marginal = tuple((p[axis], v) for p, v in targets.items() if p[1 - axis] == 0)
        try:
            check_feasible_1d(MomentSpec1D(support, marginal))
        except InfeasibleMomentsError as exc:
            raise InfeasibleMomentsError(f"{'xy'[axis]} marginal: {exc}") from exc
    for (i, j), v in targets.items():
        if i % 2 == 0 and j % 2 == 0:
            cap = _power_range(a1, b1, i)[1] * _power_range(a2, b2, j)[1]
            if not 0.0 < v < cap:
                raise InfeasibleMomentsError(f"moment ({i},{j}) = {v} outside (0, {cap})")
    if {(2, 0), (0, 2), (1, 1)} <= targets.keys():
        means = {(1, 0), (0, 1)} <= targets.keys()
        basis = ((0, 0), (1, 0), (0, 1)) if means else ((1, 0), (0, 1))
        moments = {(0, 0): 1.0, **targets}
        joint = np.array([[moments[i + k, j + l] for k, l in basis] for i, j in basis])
        if np.linalg.eigvalsh(joint).min() <= 0:
            raise InfeasibleMomentsError("joint moment matrix is not positive definite")


# ---------------------------------------------------------------------------
# fitting


# y = 1 with weight 1: the second axis of a 1-D fit on the 2-D core
_UNIT_AXIS = QuadratureRule(np.ones(1), np.ones(1))


def _gaussian_start(pairs, targets: np.ndarray) -> np.ndarray:
    """Start multipliers: each axis whose second moment is constrained gets
    the Gaussian of its target mean (0 if the mean is free) and its target
    variance; every other multiplier, the cross term included, is 0."""
    tmap = dict(zip(pairs, targets))
    start = {}
    for first, second in (((1, 0), (2, 0)), ((0, 1), (0, 2))):
        if second in tmap:
            mean = tmap.get(first, 0.0)
            var = tmap[second] - mean * mean
            start.update({first: -mean / var, second: 0.5 / var})
    return np.array([start.get(p, 0.0) for p in pairs])


def _newton_fit(pairs, targets: np.ndarray, a: np.ndarray, tol: float, rules,
                cap: int = _NEWTON_CAP):
    """Match the moments <x^i y^j> of exp(-sum_t a_t x^i_t y^j_t) to targets.

    Newton iteration on the moment residuals with the moment covariance as
    Jacobian, each step clipped to _STEP_CLIP; ConvergenceError after
    ``cap`` steps, so cap 0 only checks a.  ``rules`` holds the x and y
    quadrature rules of the tensor-product grid.  The exponent is one
    product Px[i]^T diag(a) Py[j] of the constrained rows of the two power
    tables, and every moment and covariance entry is read from the one
    table Px (w_x w_y^T * core) Py^T.  Returns (a, a_0, iterations,
    residual).
    """
    pi = np.array([i for i, _ in pairs])
    pj = np.array([j for _, j in pairs])
    px = _power_table(rules[0].nodes, 2 * int(pi.max()))
    py = _power_table(rules[1].nodes, 2 * int(pj.max()))
    w = np.multiply.outer(rules[0].weights, rules[1].weights)
    # loop invariants: the constrained power rows and the covariance's index tables
    rows_x, rows_y = px[pi].T, py[pj]
    cov_i, cov_j = pi[:, None] + pi, pj[:, None] + pj
    for iterations in range(cap + 1):
        log_core = -(rows_x @ (a[:, None] * rows_y))
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
        if iterations == cap:
            raise ConvergenceError(
                f"moment-matching Newton did not reach tol={tol} in {cap} "
                f"iterations (residual {residual:.3e})"
            )
        cov = mom[cov_i, cov_j] - np.outer(mean, mean)
        try:
            delta = np.linalg.solve(cov, r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular moment covariance: {exc}") from exc
        worst = float(np.max(np.abs(delta)))
        if worst > _STEP_CLIP:
            delta *= _STEP_CLIP / worst
        a = a + delta
    return a, shift + math.log(z), iterations, residual


def _with_restart(attempt, start, restart):
    """attempt(*start), and where Newton fails there, attempt(*restart) once.

    start and restart are (windows, a): one window per axis and the
    multipliers Newton starts from.  Where the start already was the
    restart, its ConvergenceError propagates; where the restart fails too,
    one ConvergenceError names the start's windows and both errors."""
    try:
        return attempt(*start)
    except ConvergenceError as exc:
        if start[0] == restart[0] and np.array_equal(start[1], restart[1]):
            raise
        try:
            return attempt(*restart)
        except ConvergenceError as again:
            shown = " x ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in start[0])
            raise ConvergenceError(f"Newton failed on window {shown}: {exc}; "
                                   f"its one restart failed too: {again}") from again


def fit_multipliers_1d(
    spec: MomentSpec1D,
    init: np.ndarray | None = None,
    tol: float = 1e-10,
) -> tuple[ExpFamilyDensity1D, FitDiagnostics]:
    """Fit multipliers so every constrained moment matches within tol.

    Runs the shared Newton core with a one-node y axis on the support's
    _axis_rule with _NODES_1D nodes on a window.  The cold start is the
    Gaussian of the target mean and variance (exp(-x^k / (k t_k)) for an
    even top order k without a second moment), and the first window is
    its _window, also where that is the whole support.  ``init``, one
    finite number per constrained order, replaces the cold start on that
    window.  Where Newton fails, the fit restarts once (_with_restart):
    flat over the whole of a finite support, from the cold start on its
    window on an infinite one.  Where the converged density's own _window
    differs from the window it was fitted on, Newton goes on from it on
    that window, the one reference_rule reads, and a failure there raises.
    Where that pass takes Newton steps and still moves the window by more
    than _WINDOW_MOVE of its width, it runs again, _OWN_PASSES passes at
    most.  The fit raises where the density at an infinite cut end of that
    last window leaves more than _TAIL_MASS_LIMIT beyond it, and reports it.
    Returns the normalized density (a_0 included) and fit diagnostics.
    On the whole line with constrained even orders exactly (2, 4) and every
    constrained odd order's target exactly 0, a kurtosis m4 / m2^2 above 3
    by more than tol allows, m4 - 3 m2^2 > (6 m2 + 3 tol + 1) tol, raises
    InfeasibleMomentsError before any iteration.
    """
    tol = _as_positive(tol, "tol")
    check_feasible_1d(spec)
    orders = spec.orders
    targets = np.array(spec.targets)
    m = len(orders)
    moments = dict(spec.constraints)
    if (spec.support == (-math.inf, math.inf) and [o for o in orders if o % 2 == 0] == [2, 4]
            and not any(moments[o] for o in orders if o % 2)):
        # the constraints are even under x -> -x, and so is the unique
        # maxent density, whose odd multipliers vanish; a4 >= 0 then keeps
        # <x^4> <= 3 <x^2>^2, so a fit within tol needs m4 <= 3 (m2 + tol)^2 + tol
        m2, m4 = moments[2], moments[4]
        if m4 - 3.0 * m2 * m2 > (6.0 * m2 + 3.0 * tol + 1.0) * tol:
            raise InfeasibleMomentsError(f"kurtosis {m4 / (m2 * m2)} exceeds 3, the most of any "
                                         f"exp(-a0 - a2 x^2 - a4 x^4), by more than tol = {tol}")

    if init is not None:
        init = _as_finite_array(init, "init", (m,))

    if m == 0:
        if spec.unbounded:
            raise ValidationError("unbounded support needs at least one moment constraint")
        lo, hi = spec.support
        density = ExpFamilyDensity1D(((0, math.log(hi - lo)),), spec.support)
        return density, FitDiagnostics(0, 0.0, (lo, hi), 0.0)

    pairs = tuple((o, 0) for o in orders)
    cold = _gaussian_start(pairs, targets)
    if 2 not in orders and orders[-1] % 2 == 0:
        # exp(-a x^k) has <x^k> = 1/(k a) on the line; as t_k >= |<x>|^k, its
        # window, out to where a x^k reaches 72, also covers the target mean
        cold[-1] = 1.0 / (orders[-1] * targets[-1])
    # from the cold start even with init: a warm start integrates on the cold fit's window
    window = _window(spec.support, tuple(zip(orders, cold)))

    def attempt(windows, a):
        rules = (_axis_rule(spec.support, windows[0], _NODES_1D), _UNIT_AXIS)
        return (windows[0], *_newton_fit(pairs, targets, a, tol, rules))

    # the one restart: flat over the whole of a finite support, else the cold start
    restart = ((window,), cold) if spec.unbounded else ((spec.support,), np.zeros(m))
    start = ((window,), cold if init is None else init)
    window, a, a0, iterations, residual = _with_restart(attempt, start, restart)
    for passes in range(_OWN_PASSES):
        # a fit on the window alone may end just past the normalizable set,
        # which raises here
        own = _window(spec.support, ((0, a0), *zip(orders, a)))
        moved = max(abs(own[0] - window[0]), abs(own[1] - window[1]))
        if own == window or passes and moved <= _WINDOW_MOVE * (window[1] - window[0]):
            break
        # the nodes reference_rule builds for the density; no restart here
        window, a, a0, steps, residual = attempt((own,), a)
        iterations += steps
        if not steps:
            break  # a is as before: only the rounding of a_0 can move the window
    density = ExpFamilyDensity1D(((0, a0), *zip(orders, a)), spec.support)
    cuts = np.array([x for x, end in zip(window, spec.support) if math.isinf(end)])
    tail = float(density_values(density, cuts).max(initial=0.0)) * (window[1] - window[0])
    if tail > _TAIL_MASS_LIMIT:
        raise NumericError(f"truncation window too narrow: tail mass ~ {tail:.2e}")
    return density, FitDiagnostics(iterations, residual, window, tail)


def _axis_windows(support, pairs, start: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Per axis, the _window of its side under the start's Gaussian exponent
    a_1 x + a_2 x^2: its target mean +-12 sd, clipped to the side.  An axis
    without a second moment starts flat and keeps its side."""
    a = dict(zip(pairs, start))
    return tuple(_window(side, ((1, a.get(first, 0.0)), (2, a.get(second, 0.0))))
                 for side, first, second in zip(support, ((1, 0), (0, 1)), ((2, 0), (0, 2))))


def _gauss_levels(pairs, targets: np.ndarray, a: np.ndarray, tol: float, support, windows):
    """_newton_fit on the tensor product of each axis's _axis_rule of its
    side and window, first with _GAUSS_NODES per axis.  Once Newton
    converges on n nodes, the moments are rechecked on 2n; where they miss
    tol, Newton goes on there, up to _GAUSS_NODES_MAX, past which a failed
    recheck raises ConvergenceError.  A level past the first is entered
    only after the one below it converged, and where Newton fails on a
    level, its ConvergenceError propagates.  Returns (a, a_0, the
    iterations of every level, the recheck residual)."""
    n, iterations = _GAUSS_NODES, 0
    while True:
        rules = tuple(_axis_rule(side, window, n) for side, window in zip(support, windows))
        # past the last level this is the recheck of the last one
        cap = 0 if n > _GAUSS_NODES_MAX else _NEWTON_CAP
        try:
            a, a00, steps, residual = _newton_fit(pairs, targets, a, tol, rules, cap)
        except ConvergenceError as exc:
            if cap:
                raise
            raise ConvergenceError(
                f"2-D fit on {n // 2} Gauss nodes per axis fails its recheck on {n}: {exc}"
            ) from exc
        iterations += steps
        # the moments of the level on n // 2 nodes hold on n
        if n > _GAUSS_NODES and steps == 0:
            return a, a00, iterations, residual
        n *= 2


def fit_multipliers_2d(
    spec: MomentSpec2D, tol: float = 1e-9
) -> tuple[ExpFamilyDensity2D, FitDiagnostics]:
    """Two-variable analogue of fit_multipliers_1d on a finite rectangle.

    Each axis's marginal constraints are screened by check_feasible_1d and
    the Newton core starts from the Gaussian of each axis's target mean
    and variance (_gaussian_start).  It integrates on each axis's
    _axis_rule, its nodes concentrated on the axis's window
    (_axis_windows), doubling them until the moments hold on twice as
    many (_gauss_levels).  Where Newton fails, the fit restarts once
    (_with_restart), flat over the whole rectangle.
    """
    tol = _as_positive(tol, "tol")
    _check_feasible_2d(spec)
    pairs = tuple((i, j) for i, j, _ in spec.constraints)
    targets = np.array([v for _, _, v in spec.constraints])
    (a1, b1), (a2, b2) = spec.support

    if not pairs:
        a00 = math.log((b1 - a1) * (b2 - a2))
        density = ExpFamilyDensity2D(((0, 0, a00),), spec.support)
        return density, FitDiagnostics(0, 0.0, (a1, b1), 0.0)

    a = _gaussian_start(pairs, targets)
    # the one restart: flat over the whole rectangle
    a, a00, iterations, residual = _with_restart(
        lambda windows, a: _gauss_levels(pairs, targets, a, tol, spec.support, windows),
        (_axis_windows(spec.support, pairs, a), a), (spec.support, np.zeros(len(pairs))))
    multipliers = ((0, 0, a00),) + tuple((i, j, float(v)) for (i, j), v in zip(pairs, a))
    diag = FitDiagnostics(iterations, residual, (a1, b1))
    return ExpFamilyDensity2D(multipliers, spec.support), diag


# ---------------------------------------------------------------------------
# evaluation and functionals


def density_values(d: ExpFamilyDensity1D, xs: np.ndarray) -> np.ndarray:
    """Vectorized density evaluation; +inf marks singular locations."""
    log_zs, neg_p = _log_density(d, _as_array(xs, "xs"))
    return np.exp(log_zs + neg_p)


def _log_average(d: ExpFamilyDensity1D, log_of) -> float:
    """Quadrature of rho * log_of(ln(Z S), -P), set to its limit 0 where rho
    vanishes; NumericError unless the integrand is finite at every node,
    where rho overflows included."""
    xs, w = reference_rule(d)
    log_zs, neg_p = _log_density(d, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.exp(log_zs + neg_p)
        integrand = np.where(rho > 0.0, rho * log_of(log_zs, neg_p), 0.0)
    if not np.all(np.isfinite(integrand)):
        raise NumericError("information integrand is not finite at every node")
    return float(w @ integrand)


def information(d: ExpFamilyDensity1D) -> float:
    """Average log-density <ln rho> = <ln(Z S) - P> (the negated entropy)."""
    return _log_average(d, np.add)


def modified_information(d: ExpFamilyDensity1D) -> float:
    """Average of ln(rho / (Z S)) = -P, finite even with zeros or singularities.

    It is the same integral as information(d) with ln(Z S) left out, so
    without factors the two are equal bit for bit.
    """
    return _log_average(d, lambda log_zs, neg_p: neg_p)


def moment_gradient_check(
    d: ExpFamilyDensity1D, order: int, h: float
) -> tuple[float, float]:
    """Pair (<x^order>, -d ln N / d a_order by central difference).

    N(a) is the normalization integral of the unnormalized density; the
    two returned numbers agree to O(h^2) for a consistent fit.
    """
    h = _as_positive(h, "h")
    if h < 1e-10:
        raise ValidationError("h below 1e-10 would be dominated by cancellation")
    order = _as_int(order, "order", 1)
    xs, w = reference_rule(d)
    log_rho = np.add(*_log_density(d, xs))
    power = xs**order

    def log_norm(shift: float) -> float:
        expo = log_rho - shift * power
        m = float(expo.max())
        return m + math.log(float(w @ np.exp(expo - m)))

    analytic = float(w @ (np.exp(log_rho) * power))
    numeric = -(log_norm(h) - log_norm(-h)) / (2.0 * h)
    return analytic, numeric


def normalization_residual(d: ExpFamilyDensity1D) -> float:
    """|integral of rho - 1| under the reference quadrature."""
    xs, w = reference_rule(d)
    return abs(float(w @ density_values(d, xs)) - 1.0)


# ---------------------------------------------------------------------------
# JSON interfaces


_INF_STRINGS = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf, "−inf": -math.inf}
# what reading a malformed document raises (RecursionError: brackets nested
# deeper than the decoder's recursion limit); the parsers below and the CLI's
# document reader map it to ValidationError
_MALFORMED = (AttributeError, KeyError, TypeError, IndexError, ValueError, RecursionError)


def _parse_bound(v) -> float:
    if isinstance(v, str):
        key = v.strip().lower()
        if key in _INF_STRINGS:
            return _INF_STRINGS[key]
        raise ValueError(f"unrecognized support bound {v!r}")
    return _as_number(v, "support bound")


def moment_spec_from_json(doc) -> MomentSpec1D:
    """Parse {"support": [a, b], "moments": [{"order": i, "value": c}, ...]}.

    Bounds accept "inf" / "-inf" sentinels; a malformed document raises ValidationError.
    """
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        support = (_parse_bound(doc["support"][0]), _parse_bound(doc["support"][1]))
        moments = tuple((m["order"], m["value"]) for m in doc.get("moments", []))
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
        if d.factors == EndpointFactors()
        else {
            "zeros": [[loc, mlt] for loc, mlt in d.factors.zeros],
            "singularities": [[loc, p] for loc, p in d.factors.singularities],
        },
        "diagnostics": None if diagnostics is None else asdict(diagnostics),
    }
    return doc


def density_from_json(doc) -> ExpFamilyDensity1D:
    """Parse a density_to_json document; a malformed one raises ValidationError."""
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        rows = doc.get("factors") or {}
        factors = EndpointFactors(rows.get("zeros", []), rows.get("singularities", []))
        support = (_parse_bound(doc["support"][0]), _parse_bound(doc["support"][1]))
        multipliers = tuple((o, v) for o, v in doc["multipliers"])
    except _MALFORMED as exc:
        raise ValidationError(f"malformed density document: {exc!r}") from exc
    return ExpFamilyDensity1D(multipliers, support, factors)
