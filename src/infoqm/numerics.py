"""Deterministic numerical primitives shared by every other module.

Uniform grids, fixed quadrature rules (trapezoid, Simpson, Gauss-Hermite),
the physicists' Hermite recurrence, a bracketing root finder, and the one
rule for what counts as a number: ``_as_int`` for counts, orders and
indices, ``_as_positive`` for tolerances and steps, ``_as_number`` for the
reals of an input document and ``_as_finite`` for a real that must be
finite.  All values are immutable after construction and every operation
is pure, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NumericError, ValidationError

MAX_HERMITE_ORDER = 64

_REAL = (int, float, np.integer, np.floating)


def _as_number(value, name: str) -> float:
    """value as a float: an int, a float or a numpy integer or float scalar,
    not a bool; NaN and the infinities pass.  Anything else raises
    ValidationError, an int beyond the float range included."""
    if isinstance(value, _REAL) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


def _as_finite(value, name: str) -> float:
    """value as a finite float under the _as_number rule, else ValidationError."""
    number = _as_number(value, name)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


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
    an infinity, a fraction) or a value outside [lo, hi] raises ``error``."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if isinstance(value, bool) or not (integral or isinstance(value, (int, np.integer))):
        raise error(f"{name} must be an integer, got {value!r}")
    if not lo <= int(value) <= hi:
        raise error(f"{name} must be in [{lo}, {hi}], got {value!r}")
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
    """Nodes and weights of a fixed quadrature rule.

    ``trapezoid`` and ``simpson`` integrate plain samples f(x_i) over a
    Grid1D.  ``gauss_hermite`` integrates against the weight e^{-x^2}:
    given samples g(x_i) it estimates the integral of g(x) e^{-x^2} over
    the whole real line, so the weights sum to sqrt(pi).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValidationError("nodes and weights must be matching 1-D arrays")
        if not np.all(np.diff(nodes) > 0):
            raise ValidationError("quadrature nodes must be strictly increasing")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("quadrature weights must be finite")
        if self.kind == "gauss_hermite" and abs(weights.sum() - math.sqrt(math.pi)) > 1e-12:
            raise ValidationError("gauss_hermite weights must sum to sqrt(pi)")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        nodes.flags.writeable = False
        weights.flags.writeable = False

    @classmethod
    def trapezoid(cls, grid: Grid1D) -> "QuadratureRule":
        w = np.full(grid.n_points, grid.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls("trapezoid", grid.points(), w)

    @classmethod
    def simpson(cls, grid: Grid1D) -> "QuadratureRule":
        if grid.n_points % 2 == 0:
            raise ValidationError("simpson needs an odd number of grid points")
        w = np.ones(grid.n_points)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return cls("simpson", grid.points(), w * (grid.spacing / 3.0))

    @classmethod
    def gauss_hermite(cls, n: int) -> "QuadratureRule":
        n = _as_int(n, "gauss_hermite order", 1)
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        return cls("gauss_hermite", nodes, weights)


@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] whose endpoint values enclose a sign change."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")
        # comparisons, not a product: a NaN end fails both, and tiny values cannot underflow
        if not (self.f_lo <= 0.0 <= self.f_hi or self.f_hi <= 0.0 <= self.f_lo):
            raise BracketError(
                f"no sign change on [{self.lo}, {self.hi}]: f values {self.f_lo}, {self.f_hi}"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "RootBracket":
        return cls(lo, hi, f(lo), f(hi))


def hermite_eval(n: int, u):
    """H_n(u) by the physicists' recurrence H_{n+1} = 2u H_n - 2n H_{n-1}.

    Accepts a scalar or an ndarray for ``u``.  Orders above
    MAX_HERMITE_ORDER are rejected: the recurrence is this artifact's
    stability-tested range.
    """
    n = _as_int(n, "hermite order", 0, MAX_HERMITE_ORDER, DomainError)
    u = np.asarray(u, dtype=float)
    h_prev = np.ones_like(u)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * u
    for m in range(1, n):
        h_prev, h = h, 2.0 * u * h - 2.0 * m * h_prev
    return h if h.ndim else float(h)


def hermite_deriv(n: int, u):
    """H_n'(u) = 2n H_{n-1}(u)."""
    n = _as_int(n, "hermite order", 0, MAX_HERMITE_ORDER, DomainError)
    if n == 0:
        u = np.asarray(u, dtype=float)
        z = np.zeros_like(u)
        return z if z.ndim else 0.0
    d = 2.0 * n * np.asarray(hermite_eval(n - 1, u))
    return d if d.ndim else float(d)


def integrate(f, rule: QuadratureRule) -> float:
    """Quadrature estimate of a function or of samples taken at rule.nodes."""
    samples = np.asarray(f(rule.nodes) if callable(f) else f, dtype=float)
    if samples.shape != rule.nodes.shape:
        raise ValidationError(
            f"samples have shape {samples.shape}, rule has {rule.nodes.shape}"
        )
    if not np.all(np.isfinite(samples)):
        raise NumericError("non-finite sample passed to integrate")
    return float(rule.weights @ samples)


def find_root(f: Callable[[float], float], bracket: RootBracket, tol: float) -> float:
    """Root of f inside a sign-change bracket, by bisection.

    Stops at a midpoint where f is exactly zero, once the bracket is
    narrower than ``tol``, or once no double lies strictly between its
    ends, and then returns the bracket's midpoint.  A ``tol`` below the
    spacing of doubles in the bracket therefore bisects to adjacent
    doubles.  Deterministic: identical inputs give bit-identical output.
    """
    tol = _as_positive(tol, "tol")
    lo, hi = bracket.lo, bracket.hi
    f_lo = bracket.f_lo
    if f_lo == 0.0:
        return lo
    if bracket.f_hi == 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        # the rounded midpoint leaves (lo, hi) only when no double lies inside
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):  # signs, not a product, which can underflow to 0
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < tol:
            return 0.5 * (lo + hi)
