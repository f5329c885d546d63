import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoqm import (
    NumericError,
    PowerSeries2D,
    ValidationError,
    binomial_series_eval,
    partial_sums,
    taylor2_coeffs,
    two_var_series_eval,
)


class TestBinomialSeries:
    def test_geometric_limit(self):
        value, convergent = binomial_series_eval(1.0, -1.0, 0.5, 60)
        assert convergent
        assert value == pytest.approx(1.0 / 1.5, abs=1e-8)

    def test_finite_expansion_exact(self):
        value, convergent = binomial_series_eval(1.0, 2.0, 0.3, 3)
        assert convergent
        assert value == pytest.approx(1.69, abs=1e-12)

    def test_divergence_flag(self):
        _, convergent = binomial_series_eval(2.0, -1.0, 0.8, 10)
        assert not convergent

    def test_term_cap(self):
        with pytest.raises(ValidationError):
            binomial_series_eval(1.0, -1.0, 0.5, 201)

    @pytest.mark.parametrize(
        "a, k, x",
        [(1.0, -1.0, math.nan), (1.0, -1.0, math.inf), (1.0, math.nan, 0.5), (math.inf, -1.0, 0.5)],
    )
    def test_nonfinite_input_rejected(self, a, k, x):
        with pytest.raises(ValidationError):
            binomial_series_eval(a, k, x, 10)

    def test_overflowing_product_rejected(self):
        with pytest.raises(ValidationError, match=r"a\*x"):
            binomial_series_eval(1e200, -1.0, 1e200, 10)

    def test_overflowing_partial_sum_rejected(self):
        # a x = 1e300 is finite; the second term overflows to -inf
        value, _ = binomial_series_eval(1e150, 0.5, 1e150, 1)
        assert value == pytest.approx(5e299)
        with pytest.raises(NumericError, match="not finite"):
            binomial_series_eval(1e150, 0.5, 1e150, 2)

    def test_partial_sums_stabilize_inside_region(self):
        s_199, _ = binomial_series_eval(1.0, -1.0, 0.9, 199)
        s_200, _ = binomial_series_eval(1.0, -1.0, 0.9, 200)
        assert abs(s_200 - s_199) < 1e-6

    def test_partial_sums_blow_up_outside_region(self):
        s_199, convergent = binomial_series_eval(1.0, -1.0, 1.1, 199)
        s_200, _ = binomial_series_eval(1.0, -1.0, 1.1, 200)
        assert not convergent
        assert abs(s_200 - s_199) > 1e3


class TestTwoVariableSeries:
    def test_exp_xy_at_unit_point(self):
        value, convergent = two_var_series_eval("exp_xy", 1.0, 1.0, 30)
        assert convergent
        assert value == pytest.approx(math.e, abs=1e-9)

    def test_binomial_xy_inside_region(self):
        value, convergent = two_var_series_eval("binomial_xy", 0.5, 0.5, 60, k=-1.0)
        assert convergent
        assert value == pytest.approx(0.8, abs=1e-8)

    def test_binomial_xy_outside_region(self):
        _, convergent = two_var_series_eval("binomial_xy", 2.0, 1.0, 10, k=-1.0)
        assert not convergent

    def test_binomial_xy_requires_exponent(self):
        with pytest.raises(ValidationError):
            two_var_series_eval("binomial_xy", 0.5, 0.5, 10)

    @pytest.mark.parametrize(
        "kind, x, y, k",
        [("exp_xy", math.nan, 1.0, None), ("exp_xy", 1.0, -math.inf, None),
         ("binomial_xy", 0.5, math.nan, -1.0), ("binomial_xy", 0.5, 0.5, math.inf)],
    )
    def test_nonfinite_input_rejected(self, kind, x, y, k):
        with pytest.raises(ValidationError):
            two_var_series_eval(kind, x, y, 10, k=k)

    @pytest.mark.parametrize("kind, k", [("exp_xy", None), ("binomial_xy", 0.5)])
    @pytest.mark.parametrize("x, y", [(1e200, 1e200), (-1e200, 1e200), (1e300, 0.5e10)])
    def test_overflowing_product_rejected(self, kind, k, x, y):
        with pytest.raises(ValidationError, match=r"^x, y, x\*y") as info:
            two_var_series_eval(kind, x, y, 10, k=k)
        assert f"{x}, {y}, " in str(info.value)

    @pytest.mark.parametrize(
        "kind, x, y, k", [("exp_xy", 1e100, -1e100, None), ("binomial_xy", 1e150, 1e150, 0.5)]
    )
    def test_overflowing_partial_sum_rejected(self, kind, x, y, k):
        value, _ = two_var_series_eval(kind, x, y, 1, k=k)
        assert math.isfinite(value)
        with pytest.raises(NumericError, match="not finite"):
            two_var_series_eval(kind, x, y, 3, k=k)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            two_var_series_eval("log_xy", 0.5, 0.5, 10)


def _reference_sum(factor, n_terms):
    """The partial sum through n_terms terms, re-summed from the first term."""
    total = term = 1.0
    for m in range(n_terms):
        term *= factor(m)
        total += term
    return total


class TestPartialSums:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["binomial", "binomial_xy", "exp_xy"]),
        a=st.floats(-3.0, 3.0),
        k=st.floats(-5.0, 5.0),
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
        n_terms=st.integers(0, 60),
    )
    def test_each_sum_is_the_eval_and_the_reference(self, kind, a, k, x, y, n_terms):
        sums, convergent = partial_sums(kind, x, n_terms, a=a, k=k, y=y)
        assert len(sums) == n_terms + 1 and sums[0] == 1.0
        t = a * x if kind == "binomial" else x * y
        factor = ((lambda m: t / (m + 1)) if kind == "exp_xy"
                  else (lambda m: (k - m) / (m + 1.0) * t))
        for n, value in enumerate(sums):
            if kind == "binomial":
                assert binomial_series_eval(a, k, x, n) == (value, convergent)
            else:
                assert two_var_series_eval(kind, x, y, n, k=k) == (value, convergent)
            assert value == _reference_sum(factor, n)
        assert convergent == (kind == "exp_xy" or abs(t) < 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: binomial_series_eval(1e150, 0.5, 1e150, 10),
            lambda: two_var_series_eval("exp_xy", 1e100, -1e100, 10),
            lambda: partial_sums("binomial", 1e150, 10, a=1e150, k=2.0),
        ],
        ids=["binomial", "exp_xy", "binomial-nan-later"],
    )
    def test_first_overflow_names_its_term_count(self, call):
        # the third sum is nan for k = 2 (inf * 0); the second is the first not finite
        with pytest.raises(NumericError, match=r"^partial sum through 2 terms is not finite \("):
            call()

    def test_kind_and_exponent_required(self):
        with pytest.raises(ValidationError, match="unknown series kind 'log_xy'"):
            partial_sums("log_xy", 0.5, 3, y=0.5)
        with pytest.raises(ValidationError, match="binomial needs the exponent k"):
            partial_sums("binomial", 0.5, 3)
        with pytest.raises(ValidationError, match="unknown series kind 'binomial'"):
            two_var_series_eval("binomial", 0.5, 0.5, 3, k=-1.0)


class TestTaylor2:
    def test_exp_xy_coefficients(self):
        series = taylor2_coeffs(lambda x, y: math.exp(x * y), 4, 0.02)
        assert series.coefficient(1, 1) == pytest.approx(1.0, abs=1e-6)
        assert series.coefficient(2, 2) == pytest.approx(0.5, abs=1e-6)
        assert series.coefficient(1, 0) == pytest.approx(0.0, abs=1e-9)

    def test_monomial_recovery(self):
        series = taylor2_coeffs(lambda x, y: x * x * y, 4, 0.05)
        for i in range(5):
            for j in range(5 - i):
                expected = 1.0 if (i, j) == (2, 1) else 0.0
                assert series.coefficient(i, j) == pytest.approx(expected, abs=1e-6)

    def test_geometric_two_variable(self):
        series = taylor2_coeffs(lambda x, y: 1.0 / (1.0 + x * y), 4, 0.02)
        assert series.coefficient(1, 1) == pytest.approx(-1.0, abs=1e-5)
        assert series.coefficient(2, 2) == pytest.approx(1.0, abs=1e-5)

    def test_partial_sum_matches_series_eval(self):
        series = taylor2_coeffs(lambda x, y: math.exp(x * y), 6, 0.02)
        direct, _ = two_var_series_eval("exp_xy", 0.3, 0.4, 3)
        total = sum(series.coefficient(i, j) * 0.3**i * 0.4**j
                    for i in range(7) for j in range(7 - i))
        assert total == pytest.approx(direct, abs=1e-5)

    @pytest.mark.parametrize("h", [0.5, 1e-7])
    def test_step_validation(self, h):
        with pytest.raises(ValidationError):
            taylor2_coeffs(lambda x, y: x * y, 2, h)

    def test_order_cap(self):
        with pytest.raises(ValidationError):
            taylor2_coeffs(lambda x, y: x * y, 7, 0.02)


class TestPowerSeries2DType:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            PowerSeries2D(np.zeros((2, 3)), 2)

    def test_coefficient_above_the_truncation_order_raises(self):
        # (1, 1) lies in the array's zero padding above total degree 1
        series = PowerSeries2D([[1.0, 2.0], [3.0, 0.0]], 1)
        assert (series.coefficient(0, 1), series.coefficient(1, 0)) == (2.0, 3.0)
        with pytest.raises(ValidationError, match=r"a_ij needs i \+ j <= 1, got \(1, 1\)"):
            series.coefficient(1, 1)
