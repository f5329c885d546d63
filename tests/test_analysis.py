import random

import numpy as np
import pytest

from infoqm import (
    BasisSet,
    IllConditionedError,
    NumericError,
    OscillatorState,
    QuadratureRule,
    ValidationError,
    alpha_from_beta,
    completeness_projection,
    energy_ordering_check,
    gram_matrix,
    inner_product,
    mu0_estimate,
    psi_eval,
    table,
)
from infoqm.analysis import _LEVELS, DEFAULT_ANALYSIS_GRID, _settled_level

# frozen from scripts/oracle_overlaps.py (trapezoid, 8001 points on [-14, 14];
# the 16001-point run agrees to 1e-12)
ORACLE_OVERLAP_02 = 0.1611868415688419
ORACLE_OVERLAP_13 = 0.2322275352000255

# frozen least-squares residuals of x*exp(-x^2/2) in the family n <= 7
# (dense-grid oracle, 16001 points on [-14, 14])
ORACLE_PROJECTION_RESIDUALS = {
    2: 0.5208961282519861,
    4: 0.07481959286000289,
    8: 0.0055379007164926735,
}


def linear_family(n_max: int) -> list[OscillatorState]:
    """States with the linear-oscillator width beta = 1/2 (lambda = 0)."""
    return [
        OscillatorState(n, n % 2, alpha_from_beta(n, 0.5), 0.5, 0.0, n + 0.5)
        for n in range(n_max + 1)
    ]


@pytest.fixture(scope="module")
def family_basis(states, analysis_grid):
    return BasisSet.from_states(states, analysis_grid)


@pytest.fixture(scope="module")
def family_gram(family_basis):
    return gram_matrix(family_basis)


class TestInnerProduct:
    def test_normalization(self, states, analysis_grid):
        xs = analysis_grid.points()
        psi0 = psi_eval(states[0], xs)
        assert abs(inner_product(psi0, psi0, analysis_grid) - 1.0) < 1e-8

    def test_opposite_parity_vanishes(self, states, analysis_grid):
        xs = analysis_grid.points()
        val = inner_product(psi_eval(states[0], xs), psi_eval(states[1], xs), analysis_grid)
        assert abs(val) < 1e-10

    def test_same_parity_overlap_matches_oracle(self, states, analysis_grid):
        xs = analysis_grid.points()
        val = inner_product(psi_eval(states[0], xs), psi_eval(states[2], xs), analysis_grid)
        assert abs(val - ORACLE_OVERLAP_02) < 1e-6

    def test_grid_mismatch(self, analysis_grid):
        with pytest.raises(ValidationError):
            inner_product(np.ones(10), np.ones(analysis_grid.n_points), analysis_grid)

    def test_accepts_callables(self, analysis_grid):
        val = inner_product(np.cos, np.sin, analysis_grid)
        assert abs(val) < 1e-12  # odd integrand on a symmetric grid


class TestGramMatrix:
    def test_linear_family_is_orthonormal(self, analysis_grid):
        basis = BasisSet.from_states(linear_family(5), analysis_grid)
        g = gram_matrix(basis)
        assert np.max(np.abs(g - np.eye(6))) < 1e-8

    def test_family_diagonal_and_parity(self, family_gram):
        g = family_gram
        assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-8
        for m in range(8):
            for n in range(8):
                if (m + n) % 2 == 1:
                    assert abs(g[m, n]) < 1e-10

    def test_family_same_parity_overlaps_are_nonzero(self, family_gram):
        # the family is *not* orthogonal across same-parity pairs
        assert family_gram[0, 2] > 0.1

    def test_exact_symmetry(self, family_gram):
        g = family_gram
        assert np.max(np.abs(g - g.T)) == 0.0

    def test_matches_the_pairwise_sums(self, family_basis, family_gram):
        # one weighted product in place of a dot product per pair: the sums
        # run in another order, within a few ulp of entries of size <= 1
        m, w = family_basis.members, QuadratureRule.trapezoid(family_basis.grid).weights
        reference = np.array([[w @ (u * v) for v in m] for u in m])
        assert np.max(np.abs(family_gram - reference)) < 1e-15

    def test_single_member(self, states, analysis_grid):
        xs = analysis_grid.points()
        basis = BasisSet(analysis_grid, psi_eval(states[0], xs)[None, :])
        g = gram_matrix(basis)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_empty_basis_rejected(self, analysis_grid):
        with pytest.raises(ValidationError):
            BasisSet(analysis_grid, np.empty((0, analysis_grid.n_points)))

    def test_members_off_the_grid_rejected(self, analysis_grid):
        with pytest.raises(ValidationError, match="do not match the grid"):
            BasisSet(analysis_grid, np.zeros((1, analysis_grid.n_points - 1)))


class TestSettledLevel:
    def test_levels_nest_in_the_analysis_grid(self):
        full = DEFAULT_ANALYSIS_GRID.points()
        assert [level.n_points for level in _LEVELS] == [251, 501, 1001, 2001, 4001, 8001]
        assert _LEVELS[-1] == DEFAULT_ANALYSIS_GRID
        for level in _LEVELS:
            stride = (DEFAULT_ANALYSIS_GRID.n_points - 1) // (level.n_points - 1)
            assert np.max(np.abs(level.points() - full[::stride])) < 1e-14

    def test_family_gram_settles_on_a_coarse_level(self, states):
        basis, samples, gram, settled = _settled_level(states)
        full = gram_matrix(BasisSet.from_states(states))
        assert settled and basis.grid.n_points < DEFAULT_ANALYSIS_GRID.n_points
        assert samples is None
        assert np.max(np.abs(gram - full)) < 1e-14
        assert np.array_equal(gram, gram.T)

    def test_target_row_holds_overlaps_and_norm(self, states):
        target = lambda xs: xs * np.exp(-0.5 * xs * xs)  # noqa: E731
        basis, samples, gram, settled = _settled_level(states, target)
        assert settled and gram.shape == (len(states) + 1,) * 2
        w = QuadratureRule.trapezoid(basis.grid).weights
        assert np.max(np.abs(gram[-1, :-1] - basis.members @ (w * samples))) < 1e-15
        assert gram[-1, -1] == pytest.approx(0.5 * np.sqrt(np.pi), abs=1e-14)
        report = completeness_projection(samples, basis, (2, 4, 8))
        for order, residual in zip(report.orders, report.residuals):
            assert residual == pytest.approx(ORACLE_PROJECTION_RESIDUALS[order], abs=1e-12)

    def test_target_cut_off_at_the_grid_ends_takes_the_full_grid(self, states):
        target = lambda xs: xs**4 * np.exp(-(xs * xs) / 18.0)  # noqa: E731
        basis, samples, _, settled = _settled_level(states, target)
        assert not settled and basis.grid == DEFAULT_ANALYSIS_GRID
        assert np.array_equal(samples, target(DEFAULT_ANALYSIS_GRID.points()))

    def test_non_finite_target_raises_on_the_first_sampled_level(self, states):
        sizes = []

        def target(xs):
            sizes.append(xs.size)
            return np.where(np.abs(xs) > 10.0, np.inf, 0.0)

        with pytest.raises(ValidationError, match="samples must be finite"):
            _settled_level(states, target)
        assert sizes == [501]


class TestMu0Estimate:
    def test_adjacent_solved_pair_vanishes(self, states):
        assert abs(mu0_estimate(states[0], states[1])) < 1e-8

    def test_even_residual_pair_vanishes(self, states):
        assert abs(mu0_estimate(states[1], states[2])) < 1e-8

    def test_linear_family_pair_vanishes(self):
        lin = linear_family(1)
        assert abs(mu0_estimate(lin[0], lin[1])) < 1e-10

    def test_identity_with_gram_entry(self, states, family_gram):
        # <psi_m, R(psi_n)> = -2 k_n beta_n G_mn, so it vanishes exactly
        # when the overlap does and only then
        g = family_gram
        for m, n in ((1, 3), (0, 2), (2, 4)):
            expected = -2.0 * states[n].k * states[n].beta * g[m, n]
            assert mu0_estimate(states[m], states[n]) == pytest.approx(expected, abs=1e-8)

    def test_same_parity_odd_pair_is_reported_nonzero(self, states, family_gram):
        # for odd upper states the multiplier is proportional to the overlap
        val = mu0_estimate(states[1], states[3])
        expected = -2.0 * states[3].beta * ORACLE_OVERLAP_13
        assert val == pytest.approx(expected, abs=1e-6)


class TestEnergyOrdering:
    def test_solved_family_is_ordered(self, states):
        assert energy_ordering_check(states) is True

    def test_shuffled_copy_fails(self, states):
        shuffled = list(states)
        random.Random(3).shuffle(shuffled)
        assert shuffled != list(states)
        assert energy_ordering_check(shuffled) is False

    def test_single_state(self, states):
        assert energy_ordering_check(states[:1]) is True


class TestCompletenessProjection:
    def test_in_span_target(self, states, family_basis, analysis_grid):
        target = psi_eval(states[3], analysis_grid.points())
        report = completeness_projection(target, family_basis, (2, 4, 8), "n=3")
        assert report.residuals[0] > 0.5  # not reachable with n <= 1
        assert report.residuals[1] <= 1e-8
        assert report.residuals[2] <= 1e-8
        assert len(report.coefficients) == 8

    def test_out_of_span_target_matches_oracle(self, family_basis, analysis_grid):
        xs = analysis_grid.points()
        target = xs * np.exp(-0.5 * xs * xs)
        report = completeness_projection(target, family_basis, (2, 4, 8))
        for order, residual in zip(report.orders, report.residuals):
            assert residual == pytest.approx(ORACLE_PROJECTION_RESIDUALS[order], abs=1e-6)

    def test_condition_numbers_reported(self, family_basis, analysis_grid):
        xs = analysis_grid.points()
        report = completeness_projection(np.exp(-xs * xs), family_basis, (2, 8))
        assert len(report.condition_numbers) == 2
        assert all(c >= 1.0 for c in report.condition_numbers)

    def test_empty_orders(self, family_basis):
        report = completeness_projection(np.zeros(family_basis.grid.n_points), family_basis, ())
        assert report.orders == ()
        assert report.residuals == ()
        assert report.coefficients == ()

    def test_orders_out_of_range(self, family_basis, analysis_grid):
        with pytest.raises(ValidationError):
            completeness_projection(
                np.zeros(analysis_grid.n_points), family_basis, (0,)
            )
        with pytest.raises(ValidationError):
            completeness_projection(
                np.zeros(analysis_grid.n_points), family_basis, (9,)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_raise(self, family_basis, analysis_grid, bad):
        target = np.zeros(analysis_grid.n_points)
        target[analysis_grid.n_points // 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            completeness_projection(target, family_basis, (2,))
        with pytest.raises(ValidationError, match="finite"):
            inner_product(target, target, analysis_grid)

    def test_overflowing_overlap_raises(self, family_basis, analysis_grid):
        # finite samples whose quadrature sum leaves the double range
        target = np.full(analysis_grid.n_points, 1e308)
        with pytest.raises(NumericError, match="overlaps"):
            completeness_projection(target, family_basis, (2,))

    def test_overflowing_residual_raises(self, family_basis, analysis_grid):
        # x^200 exp(-x^2/18) is finite on the grid, its square is not
        xs = analysis_grid.points()
        target = xs**200 * np.exp(-(xs * xs) / 18.0)
        assert np.all(np.isfinite(target))
        with pytest.raises(NumericError, match="residual of target at order 2"):
            completeness_projection(target, family_basis, (2, 4))

    def test_ill_conditioned_basis_raises_with_partial(self, states, analysis_grid):
        xs = analysis_grid.points()
        psi0 = psi_eval(states[0], xs)
        near_dup = np.vstack([psi0, psi0 * (1.0 + 1e-14)])
        basis = BasisSet(analysis_grid, near_dup)
        with pytest.raises(IllConditionedError) as err:
            completeness_projection(psi0, basis, (1, 2))
        partial = err.value.partial
        assert partial.orders == (1,)
        assert partial.residuals[0] <= 1e-7
