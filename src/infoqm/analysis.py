"""Numerical diagnostics for the closed-form state family: Gram matrices,
the orthogonality-multiplier estimate, energy ordering, and least-squares
completeness projections in a possibly non-orthogonal family.

Every function integrated here is a polynomial times one Gaussian: a state
psi_n = H_n(sqrt(2 beta_n) x) exp(-alpha_n - beta_n x^2), a ``GaussPower``
target x^p exp(-x^2 / (2 s^2)), and the eigen-equation residual of a state,
a polynomial of degree n + 2 times exp(-beta_n x^2).  So each overlap is the
integral of a polynomial against exp(-c x^2) over the whole line, which a
Gauss-Hermite rule of enough nodes, scaled by 1/sqrt(c), gives exactly
(Golub & Welsch, Math. Comp. 23, 221, 1969).  ``_overlaps`` takes every
pair's own rule in one vectorized pass: one fancy index reads each pair's
nodes and square-root weights from ``_gauss_hermite_table``, the rules
1..k_max zero-padded and built once per k_max, and its Hermite factors
come from the one physicists' recurrence, ``numerics._hermite_rows``.
Nothing is sampled on a grid or cut off at a domain's ends: the results
differ from the exact integrals by rounding alone, and a pair of opposite
parity reads exactly 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditionedError, ValidationError
from .numerics import MAX_HERMITE_ORDER, QuadratureRule, _as_int, _as_positive, _hermite_rows
from .oscillator import OscillatorState

CONDITION_LIMIT = 1e12
# the logarithms of the smallest and the largest positive finite float
_LOG_FLOAT_RANGE = (math.log(math.ulp(0.0)), math.log(sys.float_info.max))


@dataclass(frozen=True)
class GaussPower:
    """The projection target x^power exp(-x^2 / (2 scale^2)).

    ``power`` is an integer in [0, MAX_HERMITE_ORDER] and ``scale`` a
    positive finite number, under the number rule, and the squared norm
    Gamma(power + 1/2) scale^(2 power + 1) must be a positive finite
    float, so that every overlap with the target is one; each check
    raises ValidationError.
    """

    power: int
    scale: float

    def __post_init__(self):
        power = _as_int(self.power, "gauss_power power", 0, MAX_HERMITE_ORDER)
        scale = _as_positive(self.scale, "gauss_power scale")
        log_norm2 = math.lgamma(power + 0.5) + (2 * power + 1) * math.log(scale)
        if not _LOG_FLOAT_RANGE[0] < log_norm2 < _LOG_FLOAT_RANGE[1]:
            raise ValidationError(
                "gauss_power squared norm Gamma(power + 1/2) scale^(2 power + 1) = "
                f"exp({log_norm2:.6g}) is not a positive finite float")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class ProjectionReport:
    """Least-squares expansion of a target in leading states.

    ``coefficients`` belong to the largest truncation order tested;
    residuals and condition numbers are per order.  Residual
    monotonicity is reported, never asserted.
    """

    target_label: str
    orders: tuple[int, ...]
    residuals: tuple[float, ...]
    condition_numbers: tuple[float, ...]
    coefficients: tuple[float, ...] = ()


def _terms(functions) -> np.ndarray:
    """One row (width, factor, power, order, sigma) per OscillatorState or
    GaussPower, for the function factor x^power H_order(sigma x)
    exp(-x^2 / width^2)."""
    rows = []
    for f in functions:
        if isinstance(f, OscillatorState):
            if f.alpha < -_LOG_FLOAT_RANGE[1]:
                raise ValidationError(f"state n={f.n}: exp(-alpha) overflows at alpha {f.alpha}")
            rows.append((1.0 / math.sqrt(f.beta), math.exp(-f.alpha), 0, f.n,
                         math.sqrt(2.0 * f.beta)))
        elif isinstance(f, GaussPower):
            rows.append((math.sqrt(2.0) * f.scale, 1.0, f.power, 0, 0.0))
        else:
            raise ValidationError(f"expected an OscillatorState or a GaussPower, "
                                  f"got {type(f).__name__}")
    return np.array(rows, dtype=float).reshape(-1, 5)


@functools.lru_cache(maxsize=32)
def _gauss_hermite_table(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, root_weights), read-only arrays of shape (k_max, k_max): row
    k - 1 holds the nodes and the square roots of the weights of the
    k-node Gauss-Hermite rule, zero-padded.  Built once per k_max, on first
    use, from QuadratureRule.gauss_hermite."""
    nodes, root_w = np.zeros((k_max, k_max)), np.zeros((k_max, k_max))
    for k in range(1, k_max + 1):
        rule = QuadratureRule.gauss_hermite(k)
        nodes[k - 1, :k] = rule.nodes
        root_w[k - 1, :k] = np.sqrt(rule.weights)
    nodes.flags.writeable = root_w.flags.writeable = False
    return nodes, root_w


def _overlaps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The whole-line integral of the product of the functions of row i of
    left and of right, two _terms arrays of one shape, for every row i.

    The product is a polynomial of degree d times exp(-x^2 / h^2), with
    1/h^2 the sum of the two 1/width^2.  Put x = h y: the integral is h
    times that of the polynomial against exp(-y^2), which the Gauss-Hermite
    rule of d // 2 + 1 nodes gives exactly.  Each row takes its own rule,
    padded with zero weights to the longest one, by one fancy index into
    _gauss_hermite_table.  Where d is odd the product is odd and its
    integral is exactly 0, so only the even rows are integrated.
    """
    out = np.zeros(len(left))
    even = (left[:, 2] + left[:, 3] + right[:, 2] + right[:, 3]) % 2 == 0
    if not even.any():
        return out
    (wl, fl, pl, nl, sl), (wr, fr, pr, nr, sr) = left[even].T, right[even].T
    counts = (pl + nl + pr + nr).astype(int) // 2 + 1
    nodes, root_w = _gauss_hermite_table(int(counts.max()))
    nodes, root_w = nodes[counts - 1], root_w[counts - 1]
    # the same for (left, right) as for (right, left); the quotient first,
    # which is at most 1, so h overflows only where a width does
    h = np.minimum(wl, wr) * (np.maximum(wl, wr) / np.hypot(wl, wr))
    x = h[:, None] * nodes
    herm = _hermite_rows(np.concatenate((nl, nr)), np.vstack((sl[:, None] * x, sr[:, None] * x)))
    # a square root of the weight on each side, so that no product is formed
    # unweighted: x^(2 power) overflows at the outer nodes of the widest targets
    lhs, rhs = fl[:, None] * root_w, fr[:, None] * root_w
    # x^0 is exactly 1, so a side of power 0 throughout skips the factor
    if pl.any():
        lhs = lhs * x ** pl[:, None]
    if pr.any():
        rhs = rhs * x ** pr[:, None]
    out[even] = h * np.einsum("ij,ij->i", lhs * herm[: len(x)], rhs * herm[len(x):])
    return out


def gram_matrix(states: Sequence[OscillatorState | GaussPower]) -> np.ndarray:
    """Read-only Gram matrix of the states (GaussPower targets may be among
    them): each pair's exact overlap, taken once and set on both sides of
    the diagonal, so the matrix is exactly symmetric."""
    terms = _terms(states)
    if not len(terms):
        raise ValidationError("a Gram matrix needs at least one state")
    i, j = np.triu_indices(len(terms))
    g = np.empty((len(terms), len(terms)))
    g[i, j] = g[j, i] = _overlaps(terms[i], terms[j])
    g.flags.writeable = False
    return g


def mu0_estimate(lower: OscillatorState, upper: OscillatorState) -> float:
    """Numerical orthogonality multiplier <psi_lower, R(psi_upper)>.

    R is the eigen-equation residual of the upper state (as
    oscillator.eigen_residual evaluates it).  Since psi'' = (4 beta^2 x^2 -
    2 beta (2n + 1)) psi, it is (q0 + q2 x^2) psi, and the multiplier is two
    exact overlaps.  The projection onto an opposite-parity lower state
    is exactly 0.
    """
    n, alpha, beta, lam = upper.n, upper.alpha, upper.beta, upper.lam
    q0 = beta * (2 * n + 1) - lam * (1.0 - 2.0 * alpha)
    q2 = 0.5 - 2.0 * beta * beta + 2.0 * lam * beta
    right = _terms((upper, upper))
    right[1, 2] = 2.0  # x^2 psi_upper
    plain, squared = _overlaps(_terms((lower, lower)), right)
    return float(q0 * plain + q2 * squared)


def energy_ordering_check(states: Sequence[OscillatorState]) -> bool:
    """True iff the energies increase strictly in the given order."""
    energies = [s.energy for s in states]
    return all(a < b for a, b in zip(energies, energies[1:]))


def completeness_projection(
    target: OscillatorState | GaussPower,
    states: Sequence[OscillatorState],
    orders: Sequence[int],
    target_label: str = "target",
) -> ProjectionReport:
    """Gram-system least squares of the target on leading states.

    For each truncation order M the first M states are used; the
    coefficients solve G c = b, b_i = <psi_i, target>, which is the right
    projection even when the family is not orthogonal.  G, b and |t|^2
    are exact overlaps, from one Gram matrix of the states and the target,
    and each residual is the norm of target - sum c_i psi_i,
    sqrt(|t|^2 - 2 c.b + c^T G c), with a form that rounds below 0 read as
    0: residuals below about 1e-8 |t| are rounding.  A condition number
    beyond CONDITION_LIMIT raises IllConditionedError carrying the partial
    report.
    """
    orders = tuple(_as_int(m, "order", 1, len(states)) for m in orders)
    if not orders:
        return ProjectionReport(target_label, (), (), (), ())
    top = max(orders)
    full = gram_matrix(list(states[:top]) + [target])
    overlaps, norm2 = full[:top, top], full[top, top]
    residuals: list[float] = []
    conditions: list[float] = []
    coeffs: tuple[float, ...] = ()
    for idx, m in enumerate(orders):
        g, b = full[:m, :m], overlaps[:m]
        cond = float(np.linalg.cond(g))
        conditions.append(cond)
        if cond > CONDITION_LIMIT:
            partial = ProjectionReport(
                target_label, orders[:idx], tuple(residuals), tuple(conditions[:-1]), coeffs
            )
            raise IllConditionedError(
                f"gram condition number {cond:.3e} beyond {CONDITION_LIMIT:.0e} at order {m}",
                partial=partial,
            )
        c = np.linalg.solve(g, b)
        residuals.append(math.sqrt(max(float(norm2 - 2.0 * (c @ b) + c @ g @ c), 0.0)))
        if m == top:
            coeffs = tuple(float(v) for v in c)
    return ProjectionReport(target_label, orders, tuple(residuals), tuple(conditions), coeffs)
