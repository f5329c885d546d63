import dataclasses
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoqm import (
    GaussPower,
    IllConditionedError,
    OscillatorState,
    QuadratureRule,
    ValidationError,
    alpha_from_beta,
    completeness_projection,
    eigen_residual,
    energy_ordering_check,
    gram_matrix,
    mu0_estimate,
    psi_eval,
)
from infoqm.analysis import _gauss_hermite_table, _overlaps, _terms

from conftest import reference_hermite

# frozen from a trapezoid of 8001 points on [-14, 14]; the whole-line values
# that scripts/oracle_overlaps.py prints differ by 1.0e-15 (<psi0, psi2>) and
# 2.7e-15 (<psi1, psi3>), and the script fails beyond 1e-14
ORACLE_OVERLAP_02 = 0.1611868415688419
ORACLE_OVERLAP_13 = 0.2322275352000255

# frozen least-squares residuals of x*exp(-x^2/2) in the family n <= 7
# (trapezoid of 16001 points on [-14, 14]; within 1e-15 of the script's,
# which fails beyond 1e-14)
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
def family_gram(states):
    return gram_matrix(states)


def dense_overlap(f, g) -> float:
    """The trapezoid integral of f g on 16001 points of [-14, 14], where every
    function of the family n <= 7 is below 1e-20."""
    xs = np.linspace(-14.0, 14.0, 16001)
    return float(np.trapezoid(f(xs) * g(xs), xs))




def scaled_gh_overlap(f, g, c: float, nodes: int) -> float:
    """The integral of f g, a polynomial times exp(-c x^2), by numpy's own
    Gauss-Hermite rule, scaled by 1/sqrt(c) and applied to the sampled
    product times exp(c x^2)."""
    y, w = np.polynomial.hermite.hermgauss(nodes)
    x = y / np.sqrt(c)
    return float(w @ (np.exp(y * y) * f(x) * g(x))) / np.sqrt(c)


class TestInnerProduct:
    def test_normalization(self, states):
        assert abs(gram_matrix(states[:1])[0, 0] - 1.0) < 1e-8

    def test_opposite_parity_vanishes(self, states):
        assert abs(gram_matrix(states[:2])[0, 1]) < 1e-10

    def test_same_parity_overlap_matches_oracle(self, states):
        assert abs(gram_matrix(states[:3])[0, 2] - ORACLE_OVERLAP_02) < 1e-6


class TestGramMatrix:
    def test_linear_family_is_orthonormal(self):
        g = gram_matrix(linear_family(5))
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
        assert not g.flags.writeable

    def test_matches_the_pairwise_sums(self, states, family_gram):
        # one pass over all pairs, each row padded to the longest rule,
        # against each pair integrated alone on a rule of its own size
        terms = _terms(states)
        reference = np.array([[_overlaps(terms[[m]], terms[[n]])[0] for n in range(8)]
                              for m in range(8)])
        assert np.max(np.abs(family_gram - reference)) < 1e-15

    def test_matches_numpy_gauss_hermite(self, states, family_gram):
        # each pair sampled through psi_eval and integrated by numpy's own
        # rule of the pair's size; exp(+-c x^2) rounds in the reference
        reference = np.array([
            [scaled_gh_overlap(partial(psi_eval, u), partial(psi_eval, v), u.beta + v.beta,
                               (u.n + v.n) // 2 + 1) for v in states]
            for u in states
        ])
        assert np.max(np.abs(family_gram - reference)) < 1e-14

    def test_single_member(self, states):
        g = gram_matrix(states[:1])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValidationError):
            gram_matrix([])

    def test_member_of_another_kind_rejected(self, states):
        with pytest.raises(ValidationError, match="OscillatorState or a GaussPower, got str"):
            gram_matrix([states[0], "psi_1"])

    def test_state_whose_factor_overflows_rejected(self):
        # a hand-built state may hold any finite alpha; exp(-alpha) must be a float
        state = OscillatorState(0, 0, -710.0, 0.5, -1.0, 1.0)
        with pytest.raises(ValidationError, match="exp\\(-alpha\\) overflows"):
            gram_matrix([state])


def masked_overlaps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """_overlaps as it was written before its gathers: each distinct rule
    size built by QuadratureRule.gauss_hermite and written into the rows of
    that size by a mask, and each row's Hermite factor from the plain
    recurrence run on that row alone; the bit-for-bit reference."""
    out = np.zeros(len(left))
    even = (left[:, 2] + left[:, 3] + right[:, 2] + right[:, 3]) % 2 == 0
    if not even.any():
        return out
    (wl, fl, pl, nl, sl), (wr, fr, pr, nr, sr) = left[even].T, right[even].T
    counts = (pl + nl + pr + nr).astype(int) // 2 + 1
    nodes = np.zeros((counts.size, counts.max()))
    root_w = np.zeros_like(nodes)
    for k in np.unique(counts).tolist():
        rule = QuadratureRule.gauss_hermite(k)
        rows = counts == k
        nodes[rows, :k] = rule.nodes
        root_w[rows, :k] = np.sqrt(rule.weights)
    h = np.minimum(wl, wr) * (np.maximum(wl, wr) / np.hypot(wl, wr))
    x = h[:, None] * nodes
    herm_l = np.array([reference_hermite(int(n), u) for n, u in zip(nl, sl[:, None] * x)])
    herm_r = np.array([reference_hermite(int(n), u) for n, u in zip(nr, sr[:, None] * x)])
    lhs = fl[:, None] * root_w * x ** pl[:, None] * herm_l
    rhs = fr[:, None] * root_w * x ** pr[:, None] * herm_r
    out[even] = h * np.einsum("ij,ij->i", lhs, rhs)
    return out


STATES = st.builds(lambda n, beta: OscillatorState(n, n % 2, alpha_from_beta(n, beta), beta,
                                                   -1.0, 1.0),
                   st.integers(0, 40), st.floats(0.05, 5.0))
TARGETS = st.builds(GaussPower, st.integers(0, 64), st.floats(0.05, 5.0))
MEMBERS = st.one_of(STATES, TARGETS)


class TestOverlapKernel:
    def test_table_rows_are_the_rules(self):
        nodes, root_w = _gauss_hermite_table(24)
        assert nodes.shape == root_w.shape == (24, 24)
        assert not nodes.flags.writeable and not root_w.flags.writeable
        for k in range(1, 25):
            rule = QuadratureRule.gauss_hermite(k)
            assert nodes[k - 1, :k].tobytes() == rule.nodes.tobytes()
            assert root_w[k - 1, :k].tobytes() == np.sqrt(rule.weights).tobytes()
            assert not nodes[k - 1, k:].any() and not root_w[k - 1, k:].any()
        assert _gauss_hermite_table(24) is _gauss_hermite_table(24)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(MEMBERS, MEMBERS), min_size=1, max_size=12))
    def test_same_bits_as_the_masked_kernel(self, pairs):
        # the whole batch against the masked kernel on that batch, and each
        # pair alone, on a rule of its own size, against the masked kernel
        # on that pair.  A pair alone is not compared with its row of the
        # batch: the batch pads the row with zeros to its longest rule, and
        # einsum's reduction groups a padded row differently, so the two
        # can differ in the last bits
        left, right = _terms([a for a, _ in pairs]), _terms([b for _, b in pairs])
        assert _overlaps(left, right).tobytes() == masked_overlaps(left, right).tobytes()
        for i in range(len(pairs)):
            alone = _overlaps(left[[i]], right[[i]])
            assert alone.tobytes() == masked_overlaps(left[[i]], right[[i]]).tobytes()


class TestGaussPower:
    @pytest.mark.parametrize("power, scale", [(0, 0.3), (1, 1.0), (4, 5.0), (20, 2.0),
                                              (64, 1.0)])
    def test_whole_line_norm(self, power, scale):
        norm2 = math.gamma(power + 0.5) * scale ** (2 * power + 1)
        assert gram_matrix([GaussPower(power, scale)])[0, 0] == pytest.approx(norm2, rel=1e-13)

    @pytest.mark.parametrize("power, scale, message", [
        (-1, 1.0, r"must be in \[0, 64\]"),
        (65, 1.0, r"must be in \[0, 64\]"),
        (2, 1e-300, "not a positive finite float"),
    ])
    def test_range_errors(self, power, scale, message):
        with pytest.raises(ValidationError, match=message):
            GaussPower(power, scale)

    @pytest.mark.parametrize("power, scale", [(0, 1e300), (64, 50.0), (64, 1e-3), (0, 1e-300)])
    def test_extreme_targets_stay_finite(self, states, power, scale):
        # the widest, tallest and narrowest targets the range admits
        target = GaussPower(power, scale)
        norm = math.exp(0.5 * (math.lgamma(power + 0.5) + (2 * power + 1) * math.log(scale)))
        report = completeness_projection(target, states, (1, 8))
        assert all(0.0 <= r <= norm * (1.0 + 1e-12) for r in report.residuals)
        assert all(math.isfinite(c) for c in report.coefficients)


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

    @pytest.mark.parametrize("m, n", [(0, 2), (1, 3), (2, 6), (3, 7), (7, 5)])
    def test_matches_the_sampled_eigen_residual(self, states, m, n):
        dense = dense_overlap(partial(psi_eval, states[m]), partial(eigen_residual, states[n]))
        assert mu0_estimate(states[m], states[n]) == pytest.approx(dense, abs=1e-12)


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
    def test_in_span_target(self, states):
        report = completeness_projection(states[3], states, (2, 4, 8), "n=3")
        assert report.residuals[0] > 0.5  # not reachable with n <= 1
        assert report.residuals[1] <= 1e-8
        assert report.residuals[2] <= 1e-8
        assert len(report.coefficients) == 8

    def test_out_of_span_target_matches_oracle(self, states):
        # x exp(-x^2 / 2)
        report = completeness_projection(GaussPower(1, 1.0), states, (2, 4, 8))
        for order, residual in zip(report.orders, report.residuals):
            assert residual == pytest.approx(ORACLE_PROJECTION_RESIDUALS[order], abs=1e-6)

    def test_condition_numbers_reported(self, states):
        # exp(-x^2)
        report = completeness_projection(GaussPower(0, math.sqrt(0.5)), states, (2, 8))
        assert len(report.condition_numbers) == 2
        assert all(c >= 1.0 for c in report.condition_numbers)

    def test_empty_orders(self, states):
        report = completeness_projection(GaussPower(0, 1.0), states, ())
        assert report.orders == ()
        assert report.residuals == ()
        assert report.coefficients == ()

    def test_orders_out_of_range(self, states):
        with pytest.raises(ValidationError):
            completeness_projection(GaussPower(0, 1.0), states, (0,))
        with pytest.raises(ValidationError):
            completeness_projection(GaussPower(0, 1.0), states, (9,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_raise(self, bad):
        # a target is a record, not samples: its scale is checked when it is built
        with pytest.raises(ValidationError, match="finite"):
            GaussPower(1, bad)

    def test_overflowing_overlap_raises(self):
        # Gamma(64.5) 60^129 is beyond the double range: rejected before any overlap
        with pytest.raises(ValidationError, match="not a positive finite float"):
            GaussPower(64, 60.0)

    def test_overflowing_residual_raises(self):
        # x^200 exp(-x^2/18): its square is not integrable in doubles, and its
        # power is beyond the Hermite range
        with pytest.raises(ValidationError, match=r"gauss_power power must be in \[0, 64\]"):
            GaussPower(200, 3.0)

    def test_ill_conditioned_basis_raises_with_partial(self, states):
        # psi_0 beside a copy whose width is 1e-6 wider: their Gram is near singular
        beta = states[0].beta * (1.0 + 1e-6)
        near_dup = dataclasses.replace(states[0], beta=beta, alpha=alpha_from_beta(0, beta))
        with pytest.raises(IllConditionedError) as err:
            completeness_projection(states[0], [states[0], near_dup], (1, 2))
        partial_report = err.value.partial
        assert partial_report.orders == (1,)
        assert partial_report.residuals[0] <= 1e-7
