import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoqm import (
    DomainError,
    ExpFamilyDensity2D,
    Grid1D,
    NotFoundError,
    NumericError,
    PowerSeries1D,
    PowerSeries2D,
    RemainderReport,
    ValidationError,
    binomial_series_eval,
    partial_sums,
    poly_taylor_coeffs,
    radial_stationary_point,
    taylor2_coeffs,
    taylor_remainder_scan,
    two_var_series_eval,
)


class TestPowerSeries1D:
    def test_eval_is_horner(self):
        s = PowerSeries1D(1.0, (1.0, 2.0, 1.0))
        assert s.eval(3.0) == pytest.approx(9.0)  # (x-1)^2 + 2(x-1) + 1 = x^2

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            PowerSeries1D(0.0, (1.0, math.inf))

    @pytest.mark.parametrize("coeffs, x", [((1.0, 1.0, 1.0), 1e200), ((1.0, 1e300, -1e300), 1e10)],
                             ids=["inf", "-inf"])
    def test_overflowing_sum_raises(self, coeffs, x):
        with pytest.raises(NumericError, match=re.escape(f"not finite at {x!r}")):
            PowerSeries1D(0.0, coeffs).eval(x)


class TestPowerSeries2D:
    def test_eval_is_the_sum_of_terms(self):
        # bit for bit the sum of a_ij x^i y^j in numpy scalars, term by term
        coeffs = np.arange(1.0, 10.0).reshape(3, 3) / 7.0
        expected = 0.0
        for i in range(3):
            for j in range(3 - i):
                expected += coeffs[i, j] * 0.3**i * (-1.7)**j
        assert PowerSeries2D(coeffs, 2).eval(0.3, -1.7) == expected

    @pytest.mark.parametrize("coeff, x", [(1.0, 1e200), (1e300, 1e10)], ids=["power", "term"])
    def test_overflow_raises(self, coeff, x):
        # a power that raises OverflowError, and a term that overflows to inf
        with pytest.raises(NumericError, match=re.escape(f"not finite at {(x, 1.0)}")):
            PowerSeries2D(np.full((3, 3), coeff), 2).eval(x, 1.0)


class TestPolyTaylor:
    def test_square_about_origin(self):
        assert poly_taylor_coeffs([0.0, 0.0, 1.0], 0.0).coefficients == (0.0, 0.0, 1.0)

    def test_square_about_one(self):
        assert poly_taylor_coeffs([0.0, 0.0, 1.0], 1.0).coefficients == (1.0, 2.0, 1.0)

    def test_cubic_hermite_power_form(self):
        # 8x^3 - 12x re-centered at 0 is itself
        assert poly_taylor_coeffs([0.0, -12.0, 0.0, 8.0], 0.0).coefficients == (
            0.0,
            -12.0,
            0.0,
            8.0,
        )

    def test_degree_cap(self):
        with pytest.raises(ValidationError):
            poly_taylor_coeffs([1.0] * 34, 0.0)

    def test_overflowing_recentering_raises(self):
        # the input is valid; its re-centered coefficients overflow
        with pytest.raises(NumericError, match=r"not finite at x0 = 1e\+200"):
            poly_taylor_coeffs([1.0, 1.0, 1.0], 1e200)

    @settings(max_examples=40)
    @given(
        coeffs=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=9),
        x0=st.floats(-2, 2, allow_nan=False),
    )
    def test_reexpansion_reproduces_polynomial(self, coeffs, x0):
        series = poly_taylor_coeffs(coeffs, x0)
        scale = max(1.0, max(abs(c) for c in coeffs))
        for x in np.linspace(x0 - 1.0, x0 + 1.0, 20):
            direct = sum(c * x**i for i, c in enumerate(coeffs))
            assert series.eval(float(x)) == pytest.approx(direct, rel=1e-12, abs=1e-12 * scale)


class TestRemainderScan:
    def test_exponential_remainders_decrease(self):
        probe = Grid1D(-1.0, 1.0, 41)
        report = taylor_remainder_scan(
            math.exp, lambda k: 1.0, 0.0, 8, probe, orders=(2, 4, 8)
        )
        assert report.orders == (2, 4, 8)
        r2, r4, r8 = report.sup_remainders
        assert r2 > r4 > r8
        # sup残 at order 2 is attained at x = 1: e - (1 + 1 + 1/2)
        assert r2 == pytest.approx(math.e - 2.5, abs=1e-12)
        assert r2 < math.e / math.factorial(3)  # Lagrange bound

    def test_cubic_truncates_exactly(self):
        probe = Grid1D(-2.0, 2.0, 21)
        poly = lambda x: 1.0 + 2.0 * x - x**3

        def derivs(k):
            return {0: 1.0, 1: 2.0, 2: 0.0, 3: -6.0}.get(k, 0.0)

        report = taylor_remainder_scan(poly, derivs, 0.0, 3, probe)
        assert report.sup_remainders[-1] <= 1e-12

    def test_geometric_decay_rate(self):
        # 1/(1+x): derivative oracle (-1)^k k!, remainders halve per order on [-1/2, 1/2]
        probe = Grid1D(-0.5, 0.5, 41)
        f = lambda x: 1.0 / (1.0 + x)
        derivs = lambda k: (-1.0) ** k * math.factorial(k)
        report = taylor_remainder_scan(f, derivs, 0.0, 10, probe, orders=tuple(range(4, 11)))
        sup = report.sup_remainders
        ratios = [sup[i + 1] / sup[i] for i in range(len(sup) - 1)]
        assert all(abs(r - 0.5) < 0.02 for r in ratios)

    def test_remainders_monotone_for_entire_function(self):
        probe = Grid1D(-1.5, 1.5, 31)
        report = taylor_remainder_scan(math.cos, lambda k: [1.0, 0.0, -1.0, 0.0][k % 4], 0.0, 12, probe)
        sup = report.sup_remainders
        assert all(a >= b - 1e-15 for a, b in zip(sup, sup[1:]))

    def test_order_out_of_range(self):
        with pytest.raises(ValidationError):
            taylor_remainder_scan(math.exp, lambda k: 1.0, 0.0, 4, Grid1D(-1, 1, 11), orders=(5,))

    def test_report_needs_one_remainder_per_order(self):
        assert RemainderReport((2, 4), (0.5, 0.1)).orders == (2, 4)
        with pytest.raises(ValidationError, match="same length"):
            RemainderReport((2, 4), (0.5,))


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
        assert series.eval(0.3, 0.4) == pytest.approx(direct, abs=1e-5)

    @pytest.mark.parametrize("h", [0.5, 1e-7])
    def test_step_validation(self, h):
        with pytest.raises(ValidationError):
            taylor2_coeffs(lambda x, y: x * y, 2, h)

    def test_order_cap(self):
        with pytest.raises(ValidationError):
            taylor2_coeffs(lambda x, y: x * y, 7, 0.02)


class TestRadialStationaryPoint:
    def test_radial_gaussian_peaks_at_origin(self):
        d = ExpFamilyDensity2D(((2, 0, 1.0), (0, 2, 1.0)), ((-5, 5), (-5, 5)))
        for theta in (0.0, 0.7, math.pi / 2):
            r, kind = radial_stationary_point(d, theta, 3.0)
            assert r == 0.0
            assert kind == "max"

    def test_quartic_ring_maximum(self):
        # ln rho = (x^2+y^2) - (x^2+y^2)^2 up to a constant
        d = ExpFamilyDensity2D(
            (
                (2, 0, -1.0),
                (0, 2, -1.0),
                (4, 0, 1.0),
                (2, 2, 2.0),
                (0, 4, 1.0),
            ),
            ((-5, 5), (-5, 5)),
        )
        r, kind = radial_stationary_point(d, 0.0, 3.0)
        assert r == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert kind == "max"

    def test_log_convex_ray_minimum(self):
        # rho ~ exp(+x^2 - x^4) reversed: exp(x^2)... use exp(-( -x^2 + x^4 )) flipped sign
        d = ExpFamilyDensity2D(((2, 0, 1.0), (4, 0, -0.25)), ((-2, 2), (-2, 2)))
        r, kind = radial_stationary_point(d, 0.0, 1.9)
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert kind == "min"

    def test_uniform_box_has_no_stationary_point(self):
        d = ExpFamilyDensity2D(((0, 0, 0.0),), ((0, 1), (0, 1)))
        with pytest.raises(NotFoundError):
            radial_stationary_point(d, 0.0, 0.9)

    def test_linear_ray_has_no_stationary_point(self):
        # ln rho = -x along theta = 0: the derivative is a nonzero constant
        d = ExpFamilyDensity2D(((1, 0, 1.0),), ((-1, 1), (-1, 1)))
        with pytest.raises(NotFoundError, match="no stationary point in"):
            radial_stationary_point(d, 0.0, 0.9)

    def test_cubic_ray_is_a_saddle_at_the_origin(self):
        # ln rho = -x^3 along theta = 0: r = 0 is a double root of the derivative
        d = ExpFamilyDensity2D(((3, 0, 1.0),), ((-1, 1), (-1, 1)))
        assert radial_stationary_point(d, 0.0, 0.9) == (0.0, "saddle-along-ray")

    def test_bad_r_max(self):
        d = ExpFamilyDensity2D(((2, 0, 1.0),), ((-1, 1), (-1, 1)))
        with pytest.raises(ValidationError):
            radial_stationary_point(d, 0.0, 0.0)


class TestPowerSeries2DType:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            PowerSeries2D(np.zeros((2, 3)), 2)

    def test_coefficient_above_the_truncation_order_raises(self):
        # (1, 1) lies in the array's zero padding above total degree 1
        series = PowerSeries2D([[1.0, 2.0], [3.0, 0.0]], 1)
        assert (series.coefficient(0, 1), series.coefficient(1, 0)) == (2.0, 3.0)
        with pytest.raises(DomainError, match=r"a_ij needs i \+ j <= 1, got \(1, 1\)"):
            series.coefficient(1, 1)
