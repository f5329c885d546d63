"""Power-series machinery: Taylor coefficients in one and two variables,
convergence probes for the binomial and exponential product series, and
the radial stationary-point check for two-variable densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import DomainError, NotFoundError, NumericError, ValidationError
from .maxent import ExpFamilyDensity2D
from .numerics import (Grid1D, _as_finite, _as_finite_array, _as_int, _as_number, _as_positive,
                       _horner, _real_roots)

MAX_POLY_DEGREE = 32
MAX_SERIES_TERMS = 200
MAX_TAYLOR2_ORDER = 6

SeriesKind = Literal["binomial", "binomial_xy", "exp_xy"]
RayClassification = Literal["max", "min", "saddle-along-ray"]


def _finite_sum(total: float, point) -> float:
    """total, or NumericError naming the point if it is not finite: a power
    or a term that overflows leaves the sum infinite or NaN."""
    if not math.isfinite(total):
        raise NumericError(f"series sum is not finite at {point!r}")
    return total


@dataclass(frozen=True)
class PowerSeries1D:
    """Finite coefficients a_i of sum a_i (x - center)^i about a finite center."""

    center: float
    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", _as_finite(self.center, "center"))
        object.__setattr__(self, "coefficients",
                           tuple(_as_finite(c, "series coefficient") for c in self.coefficients))

    def eval(self, x: float) -> float:
        """The sum at x by numerics._horner; NumericError where it is not finite."""
        x = _as_finite(x, "x")
        return _finite_sum(_horner(reversed(self.coefficients), x - self.center), x)


@dataclass(frozen=True)
class PowerSeries2D:
    """Coefficients a_ij on total degree <= truncation_order, about the origin."""

    coefficients: np.ndarray
    truncation_order: int

    def __post_init__(self):
        n = _as_int(self.truncation_order, "truncation_order", 0)
        object.__setattr__(self, "truncation_order", n)
        coeffs = _as_finite_array(self.coefficients, "series coefficients", (n + 1, n + 1))
        object.__setattr__(self, "coefficients", coeffs)
        coeffs.flags.writeable = False

    def coefficient(self, i: int, j: int) -> float:
        """a_ij; DomainError unless i, j >= 0 and i + j <= truncation_order."""
        n = self.truncation_order
        i, j = _as_int(i, "i", 0, n, DomainError), _as_int(j, "j", 0, n, DomainError)
        if i + j > n:
            raise DomainError(f"a_ij needs i + j <= {n}, got ({i}, {j})")
        return float(self.coefficients[i, j])

    def eval(self, x: float, y: float) -> float:
        """The sum at (x, y) in plain floats; NumericError where a power, a
        term or the sum is not finite."""
        x, y = _as_finite(x, "x"), _as_finite(y, "y")
        n = self.truncation_order
        coeffs = self.coefficients.tolist()
        total = 0.0
        try:
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    total += coeffs[i][j] * x**i * y**j
        except OverflowError:  # a float ** that overflows raises; a * gives inf
            total = math.inf
        return _finite_sum(total, (x, y))


@dataclass(frozen=True)
class RemainderReport:
    orders: tuple[int, ...]
    sup_remainders: tuple[float, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.sup_remainders):
            raise ValidationError("orders and remainders must have the same length")


def poly_taylor_coeffs(poly_coeffs: Sequence[float], x0: float) -> PowerSeries1D:
    """Re-center a polynomial: coefficients of p about x0 via synthetic division.

    Exact (up to rounding) for degrees up to MAX_POLY_DEGREE; the result
    reproduces p identically since a polynomial is its own Taylor series.
    """
    coeffs = [_as_finite(c, "polynomial coefficient") for c in poly_coeffs]
    x0 = _as_finite(x0, "x0")
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ValidationError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
    work = list(coeffs) or [0.0]
    shifted = []
    # repeated synthetic division by (x - x0); each remainder is the next coefficient
    while work:
        quotient = [0.0] * (len(work) - 1)
        carry = work[-1]
        for idx in range(len(work) - 2, -1, -1):
            quotient[idx] = carry
            carry = work[idx] + x0 * carry
        shifted.append(carry)
        work = quotient
    # an overflow anywhere leaves a remainder infinite or NaN
    if not all(map(math.isfinite, shifted)):
        raise NumericError(f"re-centered coefficients are not finite at x0 = {x0!r}")
    return PowerSeries1D(x0, tuple(shifted))


def taylor_remainder_scan(
    f: Callable[[float], float],
    derivs_at_center: Callable[[int], float],
    x0: float,
    n_max: int,
    probe: Grid1D,
    orders: Sequence[int] | None = None,
) -> RemainderReport:
    """Sup-norm Taylor remainders over a probe grid, per truncation order.

    ``derivs_at_center(k)`` must return the k-th derivative of f at x0
    for k up to n_max; order 0 is the function value.
    """
    n_max = _as_int(n_max, "n_max", 0)
    orders = range(n_max + 1) if orders is None else orders
    wanted = tuple(_as_int(o, "order", 0, n_max) for o in orders)
    coeffs = [derivs_at_center(k) / math.factorial(k) for k in range(n_max + 1)]
    xs = probe.points()
    fs = np.array([f(float(x)) for x in xs])
    sup = []
    for order in wanted:
        series = PowerSeries1D(x0, tuple(coeffs[: order + 1]))
        approx = np.array([series.eval(float(x)) for x in xs])
        sup.append(float(np.max(np.abs(fs - approx))))
    return RemainderReport(wanted, tuple(sup))


def partial_sums(kind: SeriesKind, x: float, n_terms: int, a: float = 1.0,
                 k: float | None = None, y: float = 0.0) -> tuple[list[float], bool]:
    """Partial sums S_0 = 1, ..., S_{n_terms} of one product series, each
    term summed once, and the analytic convergence flag: ``binomial``
    (1 + a x)^k and ``binomial_xy`` (1 + x y)^k, k required, converge iff
    |t| < 1 for t = a x or x y (for the latter the polar r < 1 condition on
    the unit-product locus); ``exp_xy``, exp(x y), converges everywhere.
    a, k, x and y are finite numbers under numerics._as_finite.  The first
    sum that overflows raises NumericError naming its term count."""
    n_terms = _as_int(n_terms, "n_terms", 0, MAX_SERIES_TERMS)
    a, x, y = _as_finite(a, "a"), _as_finite(x, "x"), _as_finite(y, "y")
    k = None if k is None else _as_finite(k, "k")
    if kind == "binomial":
        t = a * x
        names, values = "a, k, x and a*x", (a, k, x, t)
    elif kind in ("binomial_xy", "exp_xy"):
        t = x * y
        names, values = "x, y, x*y and k", (x, y, t, k)
    else:
        raise ValidationError(f"unknown series kind {kind!r}")
    if not math.isfinite(t):
        raise ValidationError(f"{names} must be finite, got {', '.join(map(str, values))}")
    if kind == "exp_xy":
        factor, convergent = (lambda m: t / (m + 1)), True
    elif k is None:
        raise ValidationError(f"{kind} needs the exponent k")
    else:
        factor, convergent = (lambda m: (k - m) / (m + 1.0) * t), abs(t) < 1.0
    sums = [1.0]
    term = 1.0
    for m in range(n_terms):
        term *= factor(m)
        total = sums[-1] + term
        if not math.isfinite(total):
            raise NumericError(f"partial sum through {m + 1} terms is not finite ({total})")
        sums.append(total)
    return sums, convergent


def binomial_series_eval(a: float, k: float, x: float, n_terms: int) -> tuple[float, bool]:
    """Partial sum of (1 + a x)^k through n_terms terms and |a x| < 1."""
    sums, convergent = partial_sums("binomial", x, n_terms, a=a, k=k)
    return sums[-1], convergent


def two_var_series_eval(
    kind: SeriesKind, x: float, y: float, n_terms: int, k: float | None = None
) -> tuple[float, bool]:
    """Partial sum of ``binomial_xy`` or ``exp_xy`` through n_terms terms
    and its convergence flag (see ``partial_sums``)."""
    if kind == "binomial":
        raise ValidationError(f"unknown series kind {kind!r}")
    sums, convergent = partial_sums(kind, x, n_terms, k=k, y=y)
    return sums[-1], convergent


def _central_difference(f, i: int, j: int, h: float) -> float:
    # tensor product of centered i-th and j-th difference stencils, O(h^2)
    total = 0.0
    for r in range(i + 1):
        wx = (-1.0) ** r * math.comb(i, r)
        px = (i / 2.0 - r) * h
        for s in range(j + 1):
            wy = (-1.0) ** s * math.comb(j, s)
            py = (j / 2.0 - s) * h
            total += wx * wy * f(px, py)
    return total / h ** (i + j)


def taylor2_coeffs(
    f: Callable[[float, float], float], n_max: int, h: float
) -> PowerSeries2D:
    """Two-variable Taylor coefficients about the origin by differencing.

    a_ij = (1/(i! j!)) d^{i+j} f / dx^i dy^j at (0, 0), estimated with
    nested central differences at steps h and h/2 combined by one
    Richardson extrapolation (leading error O(h^4)).
    """
    n_max = _as_int(n_max, "n_max", 0, MAX_TAYLOR2_ORDER)
    h = _as_number(h, "h")
    if not 1e-6 < h < 1e-1:
        raise ValidationError("h must lie in (1e-6, 1e-1)")
    coeffs = np.zeros((n_max + 1, n_max + 1))
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            coarse = _central_difference(f, i, j, h)
            fine = _central_difference(f, i, j, h / 2.0)
            deriv = (4.0 * fine - coarse) / 3.0
            coeffs[i, j] = deriv / (math.factorial(i) * math.factorial(j))
    return PowerSeries2D(coeffs, n_max)


def radial_stationary_point(
    d: ExpFamilyDensity2D, theta: float, r_max: float
) -> tuple[float, RayClassification]:
    """Stationary point of ln rho along the ray at angle theta.

    The log-density restricted to the ray is a polynomial in r, so its
    radial derivative is solved exactly; the smallest stationary radius
    in (0, r_max] is returned (falling back to r = 0 when the derivative
    vanishes there) and classified by the sign of the second radial
    derivative.
    """
    theta, r_max = _as_finite(theta, "theta"), _as_positive(r_max, "r_max")
    c, s = math.cos(theta), math.sin(theta)
    degree = max((i + j for i, j, _ in d.multipliers), default=0)
    g = np.zeros(degree + 1)  # ln rho = -sum g[m] r^m (constant dropped)
    for i, j, value in d.multipliers:
        if i + j >= 1:
            g[i + j] += value * c**i * s**j
    dg = np.array([-m * g[m] for m in range(1, degree + 1)])  # coefficient of r^{m-1}
    if not np.any(np.abs(dg) > 1e-14):
        raise NotFoundError("log-density is constant along this ray; no stationary point")
    # roots of the derivative polynomial (numpy wants descending powers)
    candidates = sorted(float(r) for r in _real_roots(dg[::-1]) if 1e-12 < r <= r_max)
    if candidates:
        r_star = candidates[0]
    elif abs(dg[0]) <= 1e-14:
        r_star = 0.0
    else:
        raise NotFoundError(f"no stationary point in (0, {r_max}] and none at 0")
    d2 = sum(-m * (m - 1) * g[m] * r_star ** (m - 2) for m in range(2, degree + 1))
    if d2 < -1e-9:
        return r_star, "max"
    if d2 > 1e-9:
        return r_star, "min"
    return r_star, "saddle-along-ray"
