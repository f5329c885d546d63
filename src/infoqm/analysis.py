"""Numerical diagnostics for the closed-form state family: inner products,
Gram matrices, the orthogonality-multiplier estimate, energy ordering,
and least-squares completeness projections in a possibly non-orthogonal
family.

The library functions integrate on the grid their samples come with.  The
``analyze`` subcommands sample the closed-form states through
``_settled_level``, on nested levels of ``DEFAULT_ANALYSIS_GRID``: their
integrands are smooth and decay like Gaussians, where the trapezoid rule
converges geometrically (Trefethen & Weideman, SIAM Review 56, 385, 2014),
so a coarse level, checked against the one below it, usually holds the
full grid's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditionedError, NumericError, ValidationError
from .numerics import Grid1D, QuadratureRule, _as_array, _as_finite_array, _as_int
from .oscillator import OscillatorState, eigen_residual, psi_eval

DEFAULT_ANALYSIS_GRID = Grid1D(-14.0, 14.0, 8001)
CONDITION_LIMIT = 1e12

# every 32nd point of DEFAULT_ANALYSIS_GRID (251 points), every 16th, ..., all 8001
_LEVELS = tuple(
    Grid1D(DEFAULT_ANALYSIS_GRID.x_min, DEFAULT_ANALYSIS_GRID.x_max,
           (DEFAULT_ANALYSIS_GRID.n_points - 1) // stride + 1)
    for stride in (32, 16, 8, 4, 2, 1)
)
# a level settles where each Gram entry G_ij differs from the level below's
# by at most this times sqrt(G_ii G_jj)
_LEVEL_TOL = 1e-13


@dataclass(frozen=True)
class BasisSet:
    """Functions sampled on a shared grid."""

    grid: Grid1D
    members: np.ndarray  # (n_members, n_points)

    def __post_init__(self):
        members = _as_finite_array(self.members, "basis members")
        if members.ndim != 2 or members.shape[0] < 1:
            raise ValidationError("basis needs at least one member")
        if members.shape[1] != self.grid.n_points:
            raise ValidationError("member samples do not match the grid")
        object.__setattr__(self, "members", members)
        members.flags.writeable = False

    def __len__(self) -> int:
        return self.members.shape[0]

    @classmethod
    def from_states(
        cls, states: Sequence[OscillatorState], grid: Grid1D = DEFAULT_ANALYSIS_GRID
    ) -> "BasisSet":
        xs = grid.points()
        rows = np.array([psi_eval(s, xs) for s in states])
        return cls(grid, rows)


@dataclass(frozen=True)
class ProjectionReport:
    """Least-squares expansion of a target in leading basis members.

    ``coefficients`` belong to the largest truncation order tested;
    residuals and condition numbers are per order.  Residual
    monotonicity is reported, never asserted.
    """

    target_label: str
    orders: tuple[int, ...]
    residuals: tuple[float, ...]
    condition_numbers: tuple[float, ...]
    coefficients: tuple[float, ...] = ()


def _samples_on(grid: Grid1D, f) -> np.ndarray:
    values = _as_array(f(grid.points()) if callable(f) else f, "samples", (grid.n_points,))
    if not np.all(np.isfinite(values)):
        raise ValidationError("samples must be finite on the grid")
    return values


def inner_product(f, g, grid: Grid1D) -> float:
    """Trapezoid quadrature of f*g over the grid's measure."""
    fs = _samples_on(grid, f)
    gs = _samples_on(grid, g)
    return float(QuadratureRule.trapezoid(grid).weights @ (fs * gs))


def gram_matrix(basis: BasisSet) -> np.ndarray:
    """Full symmetric, read-only Gram matrix of the basis members (trapezoid rule)."""
    w = QuadratureRule.trapezoid(basis.grid).weights
    g = (basis.members * w) @ basis.members.T
    # the upper triangle, mirrored: the product need not come out symmetric
    g = np.triu(g) + np.triu(g, 1).T
    g.flags.writeable = False
    return g


def mu0_estimate(
    lower: OscillatorState,
    upper: OscillatorState,
    grid: Grid1D = DEFAULT_ANALYSIS_GRID,
) -> float:
    """Numerical orthogonality multiplier <psi_lower, R(psi_upper)>.

    R is the eigen-equation residual operator of the upper state; the
    projection onto an opposite-parity lower state vanishes.
    """
    xs = grid.points()
    return inner_product(psi_eval(lower, xs), eigen_residual(upper, xs), grid)


def energy_ordering_check(states: Sequence[OscillatorState]) -> bool:
    """True iff the energies increase strictly in the given order."""
    energies = [s.energy for s in states]
    return all(a < b for a, b in zip(energies, energies[1:]))


def _settled_level(states: Sequence[OscillatorState], target=None):
    """(basis, target samples, Gram, settled) on the first level of _LEVELS
    whose Gram agrees with the level below's within _LEVEL_TOL.

    The Gram is that of the states' rows with the target's samples appended
    as the last row, so one product checks the basis Gram, the overlaps and
    the target's norm together; without a target (None) it is the basis
    Gram and the samples are None.  The coarsest level is not sampled on
    its own: its rows are every other sample of the next level's.  The last
    level, DEFAULT_ANALYSIS_GRID itself, is taken unchecked, with settled
    False.  Target samples that are not finite raise ValidationError on the
    level they are taken on; every level holds the grid's ends and its
    midpoint.
    """
    previous = None
    for coarse, level in zip(_LEVELS, _LEVELS[1:]):
        basis = BasisSet.from_states(states, level)
        samples = None if target is None else _samples_on(level, target)
        rows = basis if target is None else BasisSet(level, np.vstack((basis.members, samples)))
        with np.errstate(over="ignore", invalid="ignore"):
            gram = gram_matrix(rows)
            if level is _LEVELS[-1]:
                return basis, samples, gram, False
            if previous is None:
                previous = gram_matrix(BasisSet(coarse, rows.members[:, ::2]))
            scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
            if np.isfinite(gram).all() and np.all(np.abs(gram - previous) <= _LEVEL_TOL * scale):
                return basis, samples, gram, True
        previous = gram


def completeness_projection(
    target,
    basis: BasisSet,
    orders: Sequence[int],
    target_label: str = "target",
) -> ProjectionReport:
    """Gram-system least squares of the target on leading basis members.

    For each truncation order M the first M members are used; the
    coefficients solve G c = <phi_i, target>, which is the right
    projection even when the family is not orthogonal.  Each residual is
    the quadrature norm of target - sum c_i phi_i.  A condition
    number beyond CONDITION_LIMIT raises IllConditionedError carrying
    the partial report.  A target whose samples are not finite raises
    ValidationError, and an overlap or residual that is not finite (the
    target's scale overflows the quadrature) raises NumericError.
    """
    orders = tuple(_as_int(m, "order", 1, len(basis)) for m in orders)
    if not orders:
        return ProjectionReport(target_label, (), (), (), ())
    ts = _samples_on(basis.grid, target)
    w = QuadratureRule.trapezoid(basis.grid).weights
    with np.errstate(over="ignore"):
        overlaps = np.array([float(w @ (basis.members[i] * ts)) for i in range(max(orders))])
    if not np.all(np.isfinite(overlaps)):
        raise NumericError(f"overlaps of {target_label} with the basis are not finite")
    full_gram = gram_matrix(BasisSet(basis.grid, basis.members[: max(orders)]))
    residuals: list[float] = []
    conditions: list[float] = []
    coeffs: tuple[float, ...] = ()
    for idx, m in enumerate(orders):
        g = full_gram[:m, :m]
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
        c = np.linalg.solve(g, overlaps[:m])
        diff = ts - c @ basis.members[:m]
        with np.errstate(over="ignore"):
            residual = math.sqrt(float(w @ (diff * diff)))
        if not math.isfinite(residual):
            raise NumericError(f"residual of {target_label} at order {m} is not finite")
        residuals.append(residual)
        if m == max(orders):
            coeffs = tuple(float(v) for v in c)
    return ProjectionReport(target_label, orders, tuple(residuals), tuple(conditions), coeffs)
