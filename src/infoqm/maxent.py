"""Maximum-entropy density fitting from moment constraints.

Densities take the exponential-family form

    rho(x) = Z(x) S(x) exp(-sum_i a_i x^i)

where a_0 carries the normalization and the optional Z/S factors place
prescribed zeros (|x-x0|^m) and integrable singularities (|x-x0|^{-p},
p < 1) at the ends of the support.  Multipliers for the constrained
orders are found by Newton's method on the convex dual ln Z(a) + a . m,
whose gradient is minus the moment residuals and whose Hessian is the
moment covariance matrix, each step halved until the dual falls enough
(an Armijo line search); all other multipliers stay zero.  Each fit is
one such solve from one start, with no step clip and no restart.  One
Newton core serves both the 1-D and the 2-D fits: it works
on a tensor product of two ``numerics.QuadratureRule`` axes, and a 1-D
fit is the case of a one-node second axis (y = 1, weight 1).
Every integral runs on Gauss-Legendre nodes that one axis rule places
on a side of the support: n on a window, the hull of the points where
sum_i a_i x^i is at most 72 = 12^2/2 above its minimum on the side
(+-12 sigma for a Gaussian), and n // 4 on each finite piece of the
side beyond it, so only an infinite end is cut.  The window is worked
out in plain floats, its critical points and crossings the roots from
the one root helper, numerics._poly_roots, its values from the one
Horner loop, numerics._horner, and an axis rule is its mapped Gauss
parts, concatenated where there are more than one, validated once, as a
whole.  A 1-D fit and every 1-D functional put 768 nodes on the window.
A density's own node set, on the window read off its exponent, is built
once, on first use, and shared by every functional of that density
(reference_rule), and so is its log-density there, ln(Z S), -P and rho,
formed once, and its modified information, which without factors is its
information too, so a factor-free density's two functionals are one
integral; a fit whose last Newton pass ran on the density's own
window hands the density that pass's node set.  A 1-D fit first reads
the window off its cold start, and once Newton converges it ends on, and
reports, the density's own window: where that differs, Newton goes on
there, again while a pass takes steps and still moves the window by more
than 1e-12 of its width (three passes at most), and the fit raises where
the density at an infinite cut end leaves tail mass.  The Newton core forms
its power rows and index tables once per call; its powers and those of
ln rho come from one running product, _power_table.  A 2-D fit takes
each axis's window from its Gaussian start (the target mean +-12 sd,
clipped to the rectangle) and doubles the nodes until the fitted moments
hold on twice as many.  A 1-D fit starts from ``init`` or its cold
start, a 2-D fit from its Gaussian start, and where Newton fails there
the fit raises its error.
Every 1-D evaluator and functional reads ln rho from one function, in two
parts, ln(Z S) and -sum_i a_i x^i (a_0 included), each functional through
the density's one evaluation on its one node set, reference_rule.
EndpointFactors() means no factors.
"""

from __future__ import annotations

import json
import math
import reprlib
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
_HALVINGS = 30               # most halvings of a Newton step in its line search
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
    What its functionals share is formed on first use and kept on it: the
    node set (reference_rule), ln rho's two parts and rho there, and the
    modified information, which is also the information of a density
    without factors.
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
        and kept on this density (a frozen dataclass without __slots__),
        unless fit_multipliers_1d handed it the rule of its last pass."""
        rule = _axis_rule(self.support, _window(self.support, self.multipliers), _NODES_1D)
        return rule.nodes, rule.weights

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ln(Z S), -P, rho) at the reference_rule nodes, formed on first
        use and kept on this density; rho may overflow to inf unwarned."""
        log_zs, neg_p = _log_density(self, self._rule[0])
        with np.errstate(over="ignore", invalid="ignore"):
            return log_zs, neg_p, np.exp(log_zs + neg_p)

    @cached_property
    def _modified_information(self) -> float:
        """modified_information's value, formed on first use and kept on
        this density; without factors it is information's too."""
        return _log_average(self, lambda log_zs, neg_p: neg_p)


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
    the node levels, in 2-D, of its one solve), its final
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
    total = np.zeros(xs.shape)
    powers = _power_table(xs, max((order for order, _ in d.multipliers), default=0))
    for order, value in d.multipliers:
        total += value * powers[order]
    log_zs = np.zeros(xs.shape)
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
    coincide, gets none.  The parts are mapped as arrays and concatenated
    where there are more than one, and the whole rule is validated once."""

    def piece(lo: float, hi: float) -> list:
        if not 0.0 < hi - lo < math.inf:
            return []
        nodes, weights = _mapped_gauss(lo, hi, n // 4)
        return [(nodes, weights)] if (nodes[1:] > nodes[:-1]).all() else []

    parts = [*piece(side[0], window[0]), _mapped_gauss(*window, n), *piece(window[1], side[1])]
    return QuadratureRule(*parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts)))


def reference_rule(d: ExpFamilyDensity1D):
    """Nodes and weights of the one quadrature of every functional of d:
    the _axis_rule of d's support on d's _window with _NODES_1D nodes.  They
    are built once per density, on first use, or handed over by the fit
    that made d, and every call returns the same shared read-only arrays.
    No node falls on an end of the support or of the window, so a
    singularity at an end of the support is finite at every node."""
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

    Newton's method on the convex dual D(a) = ln Z(a) + a . targets (Mead
    and Papanicolaou, J. Math. Phys. 25, 2404, 1984), whose gradient is -r,
    r the moment residuals, and whose Hessian is the moment covariance.
    Each step takes the full delta = cov^-1 r and halves it, _HALVINGS
    times at most, until D(a + t delta) <= D(a) - 1e-4 t r . delta +
    1e-13 (|D| + |a| . |targets|), the last term an allowance for
    rounding; a trial whose normalization integral is not finite fails,
    and an accepted trial's integrals are the next iterate's.  Raises
    NumericError where the integral at the start is not finite, and
    ConvergenceError where every halving of a step fails, where the
    covariance is singular or after ``cap`` steps, so cap 0 only checks a.
    ``rules`` holds the x and y quadrature rules of the tensor-product
    grid.  The exponent is one product Px[i]^T diag(a) Py[j] of the
    constrained rows of the two power tables, and every moment and
    covariance entry is read from the one table Px (w_x w_y^T * core)
    Py^T.  Returns (a, a_0, iterations, residual).
    """
    pi = np.array([i for i, _ in pairs])
    pj = np.array([j for _, j in pairs])
    px = _power_table(rules[0].nodes, 2 * int(pi.max()))
    py = _power_table(rules[1].nodes, 2 * int(pj.max()))
    w = np.multiply.outer(rules[0].weights, rules[1].weights)
    # loop invariants: the constrained power rows and the covariance's index tables
    rows_x, rows_y = px[pi].T, py[pj]
    cov_i, cov_j = pi[:, None] + pi, pj[:, None] + pj

    def integrals(a):
        """(ln Z, the moment table) at a; None where Z is not finite and positive."""
        log_core = -(rows_x @ (a[:, None] * rows_y))
        shift = float(log_core.max())
        table = px @ (w * np.exp(log_core - shift)) @ py.T
        z = float(table[0, 0])
        return (shift + math.log(z), table / z) if math.isfinite(z) and z > 0 else None

    state = integrals(a)
    if state is None:
        raise NumericError("normalization integral is not finite; fit diverged")
    for iterations in range(cap + 1):
        log_z, mom = state
        mean = mom[pi, pj]
        r = mean - targets
        residual = float(abs(r).max())
        if residual <= tol:
            break
        if iterations == cap:
            raise ConvergenceError(
                f"moment-matching Newton did not reach tol={tol} in {cap} "
                f"iterations (residual {residual:.3e})"
            )
        cov = mom[cov_i, cov_j] - mean[:, None] * mean
        try:
            delta = np.linalg.solve(cov, r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular moment covariance: {exc}") from exc
        dual = log_z + float(a @ targets)
        slope, slack = float(r @ delta), 1e-13 * (abs(dual) + float(abs(a) @ abs(targets)))
        for halving in range(_HALVINGS + 1):
            t = 0.5**halving
            trial = a + t * delta
            state = integrals(trial)
            if state and state[0] + float(trial @ targets) <= dual - 1e-4 * t * slope + slack:
                break
        else:
            raise ConvergenceError(
                f"moment-matching Newton found no decrease of the dual in {_HALVINGS} "
                f"halvings of step {iterations + 1} (residual {residual:.3e})")
        a = trial
    return a, log_z, iterations, residual


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
    window.  The fit is one line-searched Newton solve (_newton_fit) from
    that one start, and a Newton failure raises.  Where the converged
    density's own _window differs from the window it was fitted on, Newton
    goes on from it on that window, the one reference_rule reads, and a
    failure there raises.
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

    def attempt(window, a):
        rule = _axis_rule(spec.support, window, _NODES_1D)
        return (window, rule, *_newton_fit(pairs, targets, a, tol, (rule, _UNIT_AXIS)))

    window, rule, a, a0, iterations, residual = attempt(window, cold if init is None else init)
    for passes in range(_OWN_PASSES):
        # a fit on the window alone may end just past the normalizable set,
        # which raises here
        own = _window(spec.support, ((0, a0), *zip(orders, a)))
        moved = max(abs(own[0] - window[0]), abs(own[1] - window[1]))
        settled = own == window  # the last pass ran on the nodes reference_rule builds
        if settled or passes and moved <= _WINDOW_MOVE * (window[1] - window[0]):
            break
        # the nodes reference_rule builds for the density
        last = a0
        window, rule, a, a0, steps, residual = attempt(own, a)
        iterations += steps
        if not steps:
            # a is as before: only the rounding of a_0 can move the window
            settled = a0 == last
            break
    density = ExpFamilyDensity1D(((0, a0), *zip(orders, a)), spec.support)
    if settled:
        object.__setattr__(density, "_rule", (rule.nodes, rule.weights))
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
    many (_gauss_levels).  The fit is one line-searched Newton solve
    (_newton_fit) from that one start, and a Newton failure raises.
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
    a, a00, iterations, residual = _gauss_levels(pairs, targets, a, tol, spec.support,
                                                 _axis_windows(spec.support, pairs, a))
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
    log_zs, neg_p, rho = d._logs
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = np.where(rho > 0.0, rho * log_of(log_zs, neg_p), 0.0)
    if not np.isfinite(integrand).all():
        raise NumericError("information integrand is not finite at every node")
    return float(reference_rule(d)[1] @ integrand)


def information(d: ExpFamilyDensity1D) -> float:
    """Average log-density <ln rho> = <ln(Z S) - P> (the negated entropy).

    Without factors ln(Z S) is 0, so it is modified_information(d), the one
    integral kept on d; with factors it is its own integral.
    """
    if not (d.factors.zeros or d.factors.singularities):
        return d._modified_information
    return _log_average(d, np.add)


def modified_information(d: ExpFamilyDensity1D) -> float:
    """Average of ln(rho / (Z S)) = -P, finite even with zeros or singularities.

    It is the same integral as information(d) with ln(Z S) left out, so
    without factors the two are equal bit for bit: the one value, formed
    once per density and kept on it.
    """
    return d._modified_information


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
    log_rho = np.add(*d._logs[:2])
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
    log_zs, neg_p, _ = d._logs
    # rho again, not the cached one, so an overflow warns as density_values does
    return abs(float(reference_rule(d)[1] @ np.exp(log_zs + neg_p)) - 1.0)


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


def _malformed(kind: str, exc: Exception) -> ValidationError:
    """The error of a malformed document that raised exc: its repr, or the
    text of a UnicodeDecodeError, whose repr would hold every byte."""
    detail = str(exc) if isinstance(exc, UnicodeDecodeError) else repr(exc)
    return ValidationError(f"malformed {kind} document: {detail}")


def _parse_document(doc, kind: str, read) -> tuple:
    """(support, read(doc)) of a document given as JSON text, as UTF-8
    bytes (RFC 8259, section 8.1) or already parsed, support its (lo, hi)
    pair; a malformed one, or a support that is not exactly a pair, raises
    ValidationError."""
    try:
        if isinstance(doc, bytes):
            doc = doc.decode("utf-8")  # as the CLI reads a document file
        if isinstance(doc, str):
            doc = json.loads(doc)
        support = doc["support"]
        if not isinstance(support, (list, tuple)) or len(support) != 2:
            raise ValueError(f"support must be a pair [lo, hi], got {reprlib.repr(support)}")
        return (_parse_bound(support[0]), _parse_bound(support[1])), read(doc)
    except _MALFORMED as exc:
        raise _malformed(kind, exc) from exc


def moment_spec_from_json(doc) -> MomentSpec1D:
    """Parse {"support": [a, b], "moments": [{"order": i, "value": c}, ...]}.

    Bounds accept "inf" / "-inf" sentinels; a malformed document raises ValidationError.
    """
    support, moments = _parse_document(doc, "moment spec", lambda doc: tuple(
        (m["order"], m["value"]) for m in doc.get("moments", [])))
    return MomentSpec1D(support, moments)


def _bound_to_json(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def density_to_json(d: ExpFamilyDensity1D, diagnostics: FitDiagnostics | None = None) -> dict:
    """The JSON document of d and, where given, its fit's diagnostics.
    ``maxent fit`` writes its multipliers at full precision, so that the
    document read back meets the residual it reports."""
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

    def read(doc):
        rows = doc.get("factors") or {}
        return (EndpointFactors(rows.get("zeros", []), rows.get("singularities", [])),
                tuple((o, v) for o, v in doc["multipliers"]))

    support, (factors, multipliers) = _parse_document(doc, "density", read)
    return ExpFamilyDensity1D(multipliers, support, factors)
