"""Deterministic numerical primitives shared by every other module.

Uniform grids, fixed quadrature rules (a ``QuadratureRule`` is its nodes
and weights, with no kind; the Gauss-Legendre and Gauss-Hermite rules are
built by Newton's method on their three-term recurrences, ``_three_term``),
the one physicists' Hermite recurrence ``_hermite_rows``, a different order
per row (``hermite_eval`` and ``hermite_deriv`` are its one-row cases), the
one Horner loop ``_horner`` in plain floats, the one bracketed root finder
``find_root(f, lo, hi)``, which narrows the bracket to adjacent doubles,
with the one sign-change rule ``_check_sign_change``, the one polynomial
root helper ``_poly_roots`` (np.roots bit for bit, without its array
plumbing) and its real-root filter ``_real_roots``, and the one rule for
what counts as a number: ``_as_int`` for counts, orders and indices,
``_as_positive`` for tolerances and steps, ``_as_number`` for the reals of
an input document and ``_as_finite`` for a real that must be finite.  An
array follows the same rule one entry at a time: ``_as_array`` for
sampled values and points, ``_as_finite_array`` where every entry must be
finite; a list of plain floats, which the rule passes unchanged, converts
whole.  All values are immutable after construction and every operation
is pure, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NumericError, ValidationError

MAX_HERMITE_ORDER = 64

_REAL = (int, float, np.integer, np.floating)


def _as_number(value, name: str) -> float:
    """value as a float: an int, a float or a numpy integer or float scalar,
    not a bool; NaN and the infinities pass.  Anything else raises
    ValidationError, an int beyond the float range included; its message
    shows the value through reprlib.repr, so a long list stays one short
    line."""
    if isinstance(value, _REAL) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{name} must be a number, got {reprlib.repr(value)}")


def _as_finite(value, name: str) -> float:
    """value as a finite float under the _as_number rule, else ValidationError."""
    number = _as_number(value, name)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _as_array(values, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """values as a float ndarray.  An ndarray or numpy scalar of integer or
    float dtype converts whole, and so does a list whose entries are all
    plain floats, which the _as_number rule passes unchanged; anything else
    (any other list, a tuple, a Python scalar, a bool, string, object or
    complex array) converts one entry at a time under the _as_number rule.
    A ragged input, or a shape other than ``shape`` where one is given,
    raises ValidationError."""
    if isinstance(values, (np.ndarray, np.generic)) and values.dtype.kind in "iuf":
        array = np.asarray(values, dtype=float)
    elif isinstance(values, list) and set(map(type, values)) == {float}:
        array = np.array(values, dtype=float)
    else:
        try:
            entries = np.asarray(values, dtype=object)
        except ValueError as exc:
            raise ValidationError(f"{name} is not a rectangular array: {exc}") from exc
        label = f"{name} entry"
        array = np.array([_as_number(v, label) for v in entries.flat],
                         dtype=float).reshape(entries.shape)
    if shape is not None and array.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def _as_finite_array(values, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """values as a float ndarray under the _as_array rule whose entries are
    all finite, else ValidationError."""
    array = _as_array(values, name, shape)
    finite = np.isfinite(array)
    if not finite.all():
        raise ValidationError(f"{name} must be finite, got {float(array[~finite][0])}")
    return array


def _poly_roots(coeffs) -> np.ndarray:
    """The roots of the polynomial with coefficients ``coeffs``, highest power
    first, bit for bit those of np.roots without its array plumbing: the
    eigenvalues of the same companion matrix (Edelman & Murakami, Math.
    Comp. 64, 763, 1995), real where they all are, after leading zeros are
    stripped, and one 0 per trailing zero."""
    c = [float(v) for v in coeffs]
    nonzero = [i for i, v in enumerate(c) if v != 0.0]
    if not nonzero:
        return np.array([])
    trailing = len(c) - 1 - nonzero[-1]
    c = c[nonzero[0]:nonzero[-1] + 1]
    n = len(c) - 1
    if n:
        companion = np.eye(n, k=-1)
        companion[0] = -np.array(c[1:]) / c[0]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.array([])
    return np.concatenate((roots, np.zeros(trailing, roots.dtype))) if trailing else roots


def _real_roots(coeffs) -> list[float]:
    """The real roots of the polynomial with coefficients ``coeffs``, highest
    power first, as floats: the real parts of the _poly_roots whose
    imaginary part is at most 1e-9 (1 + |r|)."""
    return [r.real for r in _poly_roots(coeffs).tolist() if abs(r.imag) <= 1e-9 * (1.0 + abs(r))]


def _as_positive(value, name: str) -> float:
    """value as a finite float > 0 under the _as_number rule, else ValidationError."""
    number = _as_number(value, name)
    if not 0.0 < number < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return number


def _as_int(value, name: str, lo: float = -math.inf, hi: float = math.inf,
           error: type[ValueError] = ValidationError) -> int:
    """value as an int: an int or numpy integer, or a float or numpy float of
    integral value (2.0 counts as 2).  Anything else (a bool, a string, NaN,
    an infinity, a fraction) or a value outside [lo, hi] raises ``error``,
    whose message shows the value through reprlib.repr, as _as_number's
    does."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if isinstance(value, bool) or not (integral or isinstance(value, (int, np.integer))):
        raise error(f"{name} must be an integer, got {reprlib.repr(value)}")
    if not lo <= int(value) <= hi:
        raise error(f"{name} must be in [{lo}, {hi}], got {reprlib.repr(value)}")
    return int(value)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "x_min", _as_finite(self.x_min, "x_min"))
        object.__setattr__(self, "x_max", _as_finite(self.x_max, "x_max"))
        if not self.x_min < self.x_max:
            raise ValidationError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        object.__setattr__(self, "n_points", _as_int(self.n_points, "n_points"))
        if self.n_points < 3:
            raise ValidationError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule: finite, 1-D, not
    empty, one weight per node and the nodes strictly increasing.

    A rule integrates samples f(x_i) at its nodes as ``weights @ samples``;
    it carries no kind, so what it integrates against is its maker's word.
    ``gauss_legendre`` integrates plain samples over [-1, 1].
    ``gauss_hermite`` integrates against the weight e^{-x^2}: given samples
    g(x_i) it estimates the integral of g(x) e^{-x^2} over the whole real
    line, so the weights sum to sqrt(pi).  Each n-node Gauss rule is exact for
    polynomials of degree below 2n and is built once per n, on first use.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _as_finite_array(self.nodes, "quadrature nodes")
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValidationError(f"quadrature nodes must be 1-D and not empty, "
                                  f"got shape {nodes.shape}")
        weights = _as_finite_array(self.weights, "quadrature weights", nodes.shape)
        if not np.all(np.diff(nodes) > 0):
            raise ValidationError("quadrature nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        nodes.flags.writeable = False
        weights.flags.writeable = False

    @classmethod
    def gauss_legendre(cls, n: int) -> "QuadratureRule":
        return _gauss_legendre(_as_int(n, "gauss_legendre order", 1))

    @classmethod
    def gauss_hermite(cls, n: int) -> "QuadratureRule":
        return _gauss_hermite(_as_int(n, "gauss_hermite order", 1))


_GAUSS_NEWTON_CAP = 20


def _three_term(x: np.ndarray, n: int, step, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """(p_{n-1}(x), p_n(x)) from p_{k+1} = alpha_k x p_k - beta_k p_{k-1},
    with (alpha_k, beta_k) = step(k), p_0 = p0 and p_{-1} = 0."""
    prev, p = np.zeros_like(x), np.full_like(x, p0)
    for k in range(n):
        alpha, beta = step(k)
        prev, p = p, alpha * x * p - beta * prev
    return prev, p


def _gauss_nodes(x: np.ndarray, n: int, step, p0: float, slope) -> tuple[np.ndarray, np.ndarray]:
    """The zeros of p_n by Newton's method from the starts x, all nodes at once
    (Hale & Townsend, SIAM J. Sci. Comput. 35, A652, 2013), and p_n' there.

    slope(x, p_n, p_{n-1}) is p_n'(x).  Stops after a step below 1e-14
    relative to max(1, |x|) at every node, else raises NumericError."""
    for _ in range(_GAUSS_NEWTON_CAP):
        prev, p = _three_term(x, n, step, p0)
        dx = p / slope(x, p, prev)
        x = x - dx
        if np.all(np.abs(dx) <= 1e-14 * np.maximum(1.0, np.abs(x))):
            prev, p = _three_term(x, n, step, p0)
            return x, slope(x, p, prev)
    raise NumericError(f"Gauss nodes of order {n} did not converge")


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> QuadratureRule:
    """Legendre P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1), started from
    cos(pi (k - 1/4) / (n + 1/2)), so P_n' = n (P_{n-1} - x P_n) / (1 - x^2)
    and w = 2 / ((1 - x^2) P_n'^2).  P_n' keeps its x P_n term: P_n is not
    exactly 0 at a rounded node, and leaving it out costs 1e-13 in the
    weights at a few hundred nodes."""
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    x, slope = _gauss_nodes(x, n, lambda k: ((2 * k + 1) / (k + 1), k / (k + 1)), 1.0,
                            lambda x, p, prev: n * (prev - x * p) / ((1.0 - x) * (1.0 + x)))
    return QuadratureRule(x, 2.0 / ((1.0 - x) * (1.0 + x) * slope**2))


@functools.lru_cache(maxsize=32)
def _gauss_hermite(n: int) -> QuadratureRule:
    """Orthonormal Hermite psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1))
    psi_{k-1}, psi_0 = pi^(-1/4), so psi_n' = sqrt(2n) psi_{n-1} and
    w = 2 / psi_n'^2.  The starts are the turning-point (WKB)
    zeros x = sqrt(2n+1) sin(t/2), t + sin t = 4 pi (k - (n+1)/2) / (2n+1),
    solved by eight Newton steps from half the right side: t + sin t is
    concave for t > 0 (odd in t), so |t| rises monotonically to the root."""
    rhs = 4.0 * math.pi * (np.arange(1, n + 1) - 0.5 * (n + 1)) / (2 * n + 1)
    t = 0.5 * rhs
    for _ in range(8):
        t = t - (t + np.sin(t) - rhs) / (1.0 + np.cos(t))
    x = math.sqrt(2 * n + 1) * np.sin(0.5 * t)
    x, slope = _gauss_nodes(x, n, lambda k: (math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))),
                            math.pi**-0.25, lambda x, p, prev: math.sqrt(2.0 * n) * prev)
    # the quotient first: psi_n'^2 overflows at the outer nodes from n ~ 360
    rule = QuadratureRule(x, (math.sqrt(2.0) / slope) ** 2)
    if abs(rule.weights.sum() - math.sqrt(math.pi)) > 1e-12:
        raise NumericError(f"Gauss-Hermite weights of order {n} do not sum to sqrt(pi)")
    return rule


def _hermite_rows(orders: np.ndarray, u: np.ndarray) -> np.ndarray:
    """H_orders[i](u[i]) for every row i of u, by one physicists' recurrence
    H_{m+1} = 2u H_m - 2m H_{m-1}, H_{-1} = 0, over all rows at once; a row
    of order -1 or 0 reads 1."""
    out = np.ones_like(u)
    two_u = 2.0 * u  # formed once, not per step; each product rounds the same
    prev, h = np.zeros_like(u), np.ones_like(u)
    for m in range(int(orders.max())):
        prev, h = h, two_u * h - 2.0 * m * prev
        rows = orders == m + 1
        out[rows] = h[rows]
    return out


def hermite_eval(n: int, u):
    """H_n(u), the one-row case of _hermite_rows.

    Accepts a scalar or an array for ``u`` under the _as_array rule.
    Orders above MAX_HERMITE_ORDER are rejected: the recurrence is this
    artifact's stability-tested range.
    """
    n = _as_int(n, "hermite order", 0, MAX_HERMITE_ORDER, DomainError)
    h = _hermite_rows(np.array([n]), _as_array(u, "u")[None])[0]
    return h if h.ndim else float(h)


def hermite_deriv(n: int, u):
    """H_n'(u) = 2n H_{n-1}(u), where the order -1 row of _hermite_rows reads 1."""
    n = _as_int(n, "hermite order", 0, MAX_HERMITE_ORDER, DomainError)
    dh = 2.0 * n * _hermite_rows(np.array([n - 1]), _as_array(u, "u")[None])[0]
    return dh if dh.ndim else float(dh)


def _horner(coeffs, x: float) -> float:
    """The polynomial with coefficients ``coeffs``, highest power first, at
    x, by Horner's rule in plain floats."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _check_sign_change(lo: float, hi: float, f_lo: float, f_hi: float) -> None:
    """BracketError unless f_lo and f_hi enclose a sign change, a zero end
    included; comparisons, not a product: a NaN end fails both, and tiny
    values cannot underflow."""
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f values {f_lo}, {f_hi}")


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi], finite ends under _as_finite with lo < hi
    whose values of f, numbers under _as_number, enclose a sign change, by
    safeguarded Illinois false position (Dowell & Jarratt, BIT 11, 168,
    1971).  f is evaluated once at each end.

    Each step tries the point (lo w_hi - hi w_lo) / (w_hi - w_lo), where
    an end's weight w is its value of f, halved each time that end is
    kept twice in a row.  It takes the bracket's midpoint instead when
    that point is not strictly inside (lo, hi), as with a NaN or infinite
    weight, or when the last three steps have not cut the bracket below
    half its width, the start counting as three steps at its full width;
    so the worst case stays near bisection's (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    Returns an end or a trial point where f is exactly zero.  Otherwise
    narrows the bracket until no double lies strictly between its ends,
    and returns its rounded midpoint: where f changes sign once among the
    doubles of the bracket, an end of the pair bisection would end on.
    Deterministic: identical inputs give bit-identical output.
    """
    lo, hi = _as_finite(lo, "bracket lo"), _as_finite(hi, "bracket hi")
    if not lo < hi:
        raise ValidationError(f"bracket needs lo < hi, got [{lo}, {hi}]")
    w_lo, w_hi = _as_number(f(lo), "bracket f_lo"), _as_number(f(hi), "bracket f_hi")
    _check_sign_change(lo, hi, w_lo, w_hi)
    if w_lo == 0.0:
        return lo
    if w_hi == 0.0:
        return hi
    # the sign of lo's values, kept apart from w_lo, whose halving can underflow to 0
    lo_negative = w_lo < 0.0
    kept = 0  # +1 after a step that kept hi, -1 after one that kept lo
    widths = (hi - lo,) * 3  # the bracket's widths before each of the last three steps
    while True:
        mid = 0.5 * (lo + hi)
        # the rounded midpoint leaves (lo, hi) only when no double lies inside
        if not lo < mid < hi:
            return mid
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if not lo < x < hi or hi - lo >= 0.5 * widths[0]:
            x = mid
        widths = (widths[1], widths[2], hi - lo)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == lo_negative:  # signs, not a product, which can underflow to 0
            lo, w_lo = x, f_x
            if kept > 0:
                w_hi *= 0.5
            kept = 1
        else:
            hi, w_hi = x, f_x
            if kept < 0:
                w_lo *= 0.5
            kept = -1
