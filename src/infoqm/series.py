"""Power-series machinery: the two-variable Taylor coefficients of a
function about the origin by differencing, and the partial sums and
convergence flags of the binomial and exponential product series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import NumericError, ValidationError
from .numerics import _as_finite, _as_finite_array, _as_int, _as_number

MAX_SERIES_TERMS = 200
MAX_TAYLOR2_ORDER = 6

SeriesKind = Literal["binomial", "binomial_xy", "exp_xy"]


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
        """a_ij; ValidationError unless i, j >= 0 and i + j <= truncation_order."""
        n = self.truncation_order
        i, j = _as_int(i, "i", 0, n), _as_int(j, "j", 0, n)
        if i + j > n:
            raise ValidationError(f"a_ij needs i + j <= {n}, got ({i}, {j})")
        return float(self.coefficients[i, j])


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
