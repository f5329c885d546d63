import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoqm import (
    ConvergenceError,
    EndpointFactors,
    ExpFamilyDensity1D,
    ExpFamilyDensity2D,
    InfeasibleMomentsError,
    InfoqmError,
    MomentSpec1D,
    MomentSpec2D,
    NumericError,
    ValidationError,
    density_from_json,
    density_to_json,
    density_values,
    fit_multipliers_1d,
    fit_multipliers_2d,
    information,
    modified_information,
    moment_gradient_check,
    moment_spec_from_json,
    normalization_residual,
)
from infoqm import maxent
from infoqm.maxent import reference_rule

from conftest import SIGNED_COEFFS, leggauss_moment

INF = math.inf

# frozen from scripts/oracle_maxent_bisection.py (1-D bisection on the
# quadratic multiplier with 100001-point Simpson quadrature)
ORACLE_A2_SYMMETRIC = 1.8742066309485939

# frozen 2-D moment-matching oracle; agrees with the truncation-free
# bivariate Gaussian closed form -0.3 / (1 - 0.3^2)
ORACLE_A11 = -0.3296703296703297


def quartic_moments(mean):
    """Raw moments 1..4 of mean + Z, Z the unit-variance base exp(-c x^4)."""
    kurtosis = 0.25 / (math.gamma(0.75) / math.gamma(0.25)) ** 2
    return ((1, mean), (2, mean**2 + 1.0), (3, mean**3 + 3.0 * mean),
            (4, mean**4 + 6.0 * mean**2 + kurtosis))


def gaussian_density():
    d, _ = fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), tol=1e-12)
    return d


def uniform_density(a=0.0, b=1.0):
    return ExpFamilyDensity1D(((0, math.log(b - a)),), (a, b))


def linear_ramp_density():
    # rho(x) = 2x on [0,1]: single zero of multiplicity 1 at 0, a0 = -ln 2
    return ExpFamilyDensity1D(
        ((0, -math.log(2.0)),), (0.0, 1.0), EndpointFactors(zeros=((0.0, 1.0),))
    )


_SQUARE = ((0.0, 1.0), (0.0, 1.0))

# each term table: constructor from terms, key width, an out-of-range key
TERM_TABLES = {
    "MomentSpec1D": (lambda terms: MomentSpec1D((0.0, 1.0), terms), 1, (0,)),
    "ExpFamilyDensity1D": (lambda terms: ExpFamilyDensity1D(terms, (0.0, 1.0)), 1, (-1,)),
    "MomentSpec2D": (lambda terms: MomentSpec2D(_SQUARE, terms), 2, (3, 2)),
    "ExpFamilyDensity2D": (lambda terms: ExpFamilyDensity2D(terms, _SQUARE), 2, (0, -1)),
}

# bad terms for a key width w and an out-of-range key
BAD_TERMS = {
    "non-integral-key": lambda w, out: ((1.5,) + (0.5,) * (w - 1) + (0.1,),),
    "nan-key": lambda w, out: ((math.nan,) + (1,) * (w - 1) + (0.1,),),
    "string-key": lambda w, out: (("1",) + (0,) * (w - 1) + (0.1,),),
    "duplicate-key": lambda w, out: (
        (1,) + (0,) * (w - 1) + (0.1,), (1.0,) + (0.0,) * (w - 1) + (0.2,)
    ),
    "infinite-value": lambda w, out: ((1,) + (0,) * (w - 1) + (INF,),),
    "out-of-range-key": lambda w, out: (out + (0.1,),),
}


class TestSpecValidation:
    @pytest.mark.parametrize("case", BAD_TERMS)
    @pytest.mark.parametrize("table", TERM_TABLES)
    def test_term_table_rule(self, table, case):
        build, width, out_of_range = TERM_TABLES[table]
        with pytest.raises(ValidationError):
            build(BAD_TERMS[case](width, out_of_range))

    @pytest.mark.parametrize("table", TERM_TABLES)
    def test_integral_keys_stored_as_ints(self, table):
        build, width, _ = TERM_TABLES[table]
        built = build(((2.0,) + (0.0,) * (width - 1) + (1,),))
        terms = built.constraints if table.startswith("Moment") else built.multipliers
        assert terms == ((2,) + (0,) * (width - 1) + (1.0,),)
        assert all(type(c) is int for c in terms[0][:-1]) and type(terms[0][-1]) is float

    def test_orders_sorted_and_distinct(self):
        spec = MomentSpec1D((0.0, 1.0), ((2, 0.3), (1, 0.4)))
        assert spec.orders == (1, 2)
        with pytest.raises(ValidationError):
            MomentSpec1D((0.0, 1.0), ((2, 0.3), (2, 0.4)))

    def test_unbounded_needs_even_top_order(self):
        with pytest.raises(ValidationError):
            MomentSpec1D((-INF, INF), ((1, 0.0), (3, 0.1)))

    def test_degenerate_support(self):
        with pytest.raises(ValidationError):
            MomentSpec1D((1.0, 1.0), ())

    @pytest.mark.parametrize(
        "support",
        [((1.0, 0.0), (0.0, 1.0)), ((0.0, math.nan), (0.0, 1.0)), ((-INF, 1.0), (0.0, 1.0))],
    )
    def test_2d_density_support_must_be_finite_rectangle(self, support):
        with pytest.raises(ValidationError):
            ExpFamilyDensity2D(((2, 0, 1.0),), support)

    def test_2d_total_degree_cap(self):
        with pytest.raises(ValidationError):
            MomentSpec2D(((-1, 1), (-1, 1)), ((3, 2, 0.1),))

    def test_singularity_exponent_range(self):
        with pytest.raises(ValidationError):
            EndpointFactors(singularities=((0.0, 1.0),))

    def test_zero_and_singularity_at_one_location(self):
        with pytest.raises(ValidationError, match="cannot carry both a zero and a singularity"):
            EndpointFactors(zeros=((0, 1),), singularities=((0, 0.5),))

    def test_factor_location_outside_support(self):
        with pytest.raises(ValidationError):
            ExpFamilyDensity1D(
                ((0, 0.0),), (0.0, 1.0), EndpointFactors(zeros=((2.0, 1.0),))
            )


class TestFeasibility:
    def test_second_moment_above_support_range(self):
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 1.5),)))

    def test_negative_even_moment(self):
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ((2, -1.0),)))

    def test_hankel_variance(self):
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.9), (2, 0.5),)))

    def test_even_block_checked_with_odd_orders(self):
        # m4 < m2^2 is infeasible whatever odd orders ride along
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0), (4, 0.5))))

    @pytest.mark.parametrize(
        "support, m1, m2",
        [((0.0, 1.0), 0.3, 0.4), ((-1.0, 3.0), 1.0, 5.5), ((2.0, 4.0), 3.0, 10.0)],
    )
    def test_interval_localizing_condition(self, support, m1, m2):
        # E[(x - a)(b - x)] = (a + b) m1 - m2 - ab must be positive on [a, b]
        a, b = support
        assert (a + b) * m1 - m2 - a * b <= 0
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_1d(MomentSpec1D(support, ((1, m1), (2, m2))))

    @pytest.mark.parametrize("kurtosis", [3.05, 3.2, 5.0])
    def test_whole_line_kurtosis_above_three(self, kurtosis):
        # a4 >= 0 keeps <x^4> <= 3 <x^2>^2 on the whole line
        spec = MomentSpec1D((-INF, INF), ((2, 1.0), (4, kurtosis)))
        with pytest.raises(InfeasibleMomentsError, match=rf"^kurtosis {kurtosis} exceeds 3"):
            fit_multipliers_1d(spec, tol=1e-10)

    @pytest.mark.parametrize("kurtosis", [2.9, 2.99, 3.0, 3.0 + 1e-10])
    def test_whole_line_kurtosis_up_to_three_within_tol_fits(self, kurtosis):
        spec = MomentSpec1D((-INF, INF), ((2, 1.0), (4, kurtosis)))
        _, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert diag.max_moment_residual <= 1e-10

    @pytest.mark.parametrize("kurtosis", [3.05, 3.2, 5.0])
    @pytest.mark.parametrize("odd", [(1,), (3,), (1, 3)], ids=["1", "3", "1-3"])
    def test_whole_line_kurtosis_above_three_with_zero_odd_moments(self, odd, kurtosis):
        # the constraints are even under x -> -x, so the maxent density is
        # even, its odd multipliers vanish and a4 >= 0 bounds the kurtosis
        spec = MomentSpec1D((-INF, INF), ((2, 1.0), (4, kurtosis), *((o, 0.0) for o in odd)))
        with pytest.raises(InfeasibleMomentsError, match=rf"^kurtosis {kurtosis} exceeds 3"):
            fit_multipliers_1d(spec, tol=1e-10)

    @pytest.mark.parametrize("kurtosis, iterations", [(2.9, 4), (3.0, 0)])
    @pytest.mark.parametrize("odd", [(1,), (3,), (1, 3)], ids=["1", "3", "1-3"])
    def test_whole_line_kurtosis_up_to_three_with_zero_odd_moments_fits(self, odd, kurtosis,
                                                                       iterations):
        spec = MomentSpec1D((-INF, INF), ((2, 1.0), (4, kurtosis), *((o, 0.0) for o in odd)))
        density, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert diag.max_moment_residual <= 1e-10 and diag.iterations == iterations
        # the even density's odd multipliers, up to rounding (under 1e-16 here)
        assert all(abs(dict(density.multipliers)[o]) <= 1e-14 for o in odd)

    def test_2d_even_even_cap(self):
        # (2,2) = 1.5 passes both marginals but exceeds max x^2 y^2 = 1 on the square
        spec = MomentSpec2D(((-1.0, 1.0), (-1.0, 1.0)), ((2, 0, 0.3), (0, 2, 0.3), (2, 2, 1.5)))
        with pytest.raises(InfeasibleMomentsError,
                           match=r"^moment \(2,2\) = 1\.5 outside \(0, 1\.0\)$"):
            fit_multipliers_2d(spec)

    @pytest.mark.parametrize(
        "support, constraints, match",
        [
            ((-1e80, 1e80), ((2, 1.0), (4, 3.0)), None),
            ((-1e120, 1e120), ((3, 0.5),), None),
            ((1e80, 2e80), ((4, 1.0),), r"order 4 = 1\.0 outside the open range \(inf, inf\)$"),
            ((-2e120, -1e110), ((3, 1.0),), r"order 3 = 1\.0 outside the open range \(-inf, -inf\)$"),
        ],
        ids=["even-passes", "odd-passes", "even-above", "odd-below"],
    )
    def test_power_past_the_float_range_is_an_infinite_end(self, support, constraints, match):
        # 1e80**4 and (-2e120)**3 overflow a float: each bound counts as infinite
        spec = MomentSpec1D(support, constraints)
        if match is None:
            maxent.check_feasible_1d(spec)
        else:
            with pytest.raises(InfeasibleMomentsError, match=match):
                maxent.check_feasible_1d(spec)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2, unique=True),
           st.integers(0, 6))
    @example([-INF, INF], 2)
    @example([-INF, INF], 3)
    @example([-1e200, 1e-3], 3)
    @example([1e155, INF], 2)
    @example([-1e-200, 1e-200], 3)
    @example([-1e-200, 1e-200], 2)
    @example([-3.0, -0.0], 4)
    def test_power_range_is_the_brute_force_range(self, ends, order):
        a, b = sorted(ends)
        if not a < b:  # -0.0 and 0.0
            return

        def power(x):
            try:
                return x**order
            except OverflowError:
                return math.copysign(INF, x) if order % 2 else INF

        points = [a, b] + [0.0] * (a <= 0.0 <= b)
        if math.isfinite(b - a):
            points += [a + t * (b - a) for t in (0.1, 0.5, 0.9)]
        values = [power(x) for x in points]
        lo, hi = maxent._power_range(a, b, order)
        assert (lo, hi) == (min(values), max(values))
        # the same floats, the sign of a zero included, as the even and odd
        # rules it replaces wherever they ran: the range from order 1 (1-D
        # and 2-D) and the top at order 0 on a finite interval (a 2-D cap)
        if order % 2:
            old = (power(a), power(b))
        else:
            old = (0.0 if a <= 0.0 <= b else power(min(abs(a), abs(b))),
                   INF if INF in (abs(a), abs(b)) else power(max(abs(a), abs(b))))
        if order:
            assert (repr(lo), repr(hi)) == tuple(map(repr, old))
        elif math.isfinite(a) and math.isfinite(b):
            assert repr(hi) == repr(old[1])

    def test_2d_caps_past_the_float_range(self):
        # the (2,2) cap 1e160**2 * 1 overflows: it is infinite, so it passes,
        # and a marginal whose range overflows raises as in 1-D
        wide = ((-1e160, 1e160), (-1.0, 1.0))
        maxent._check_feasible_2d(MomentSpec2D(wide, ((2, 0, 1.0), (0, 2, 0.3), (2, 2, 1.0))))
        far = ((1e160, 2e160), (-1.0, 1.0))
        with pytest.raises(InfeasibleMomentsError, match=r"^x marginal: .*\(inf, inf\)$"):
            maxent._check_feasible_2d(MomentSpec2D(far, ((2, 0, 1.0), (0, 2, 0.3))))

    def test_2d_covariance_not_psd(self):
        spec = MomentSpec2D(((-6, 6), (-6, 6)), ((2, 0, 1.0), (1, 1, 2.0), (0, 2, 1.0)))
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_2d(spec)

    @pytest.mark.parametrize(
        "constraints",
        [
            ((1, 0, 0.9), (2, 0, 0.5), (0, 2, 1.0)),
            ((0, 1, -0.9), (0, 2, 0.5), (2, 0, 1.0)),
            ((2, 0, 1.0), (4, 0, 0.5), (0, 2, 1.0)),
            ((2, 0, 1.0), (0, 2, 1.0), (0, 4, 0.9)),
            ((1, 0, 3.5), (2, 0, 1.0), (0, 2, 1.0)),
            ((0, 1, -3.5), (0, 2, 1.0), (2, 0, 1.0)),
        ],
        ids=["x-variance", "y-variance", "x-m40", "y-m04", "x-mean", "y-mean"],
    )
    def test_2d_marginal_screened_by_1d_rules(self, constraints):
        # a negative marginal variance, m40 < m20^2 or a mean outside the
        # rectangle is infeasible on the marginal alone
        with pytest.raises(InfeasibleMomentsError):
            fit_multipliers_2d(MomentSpec2D(((-3.0, 3.0), (-3.0, 3.0)), constraints))

    @pytest.mark.parametrize(
        "constraints, axis",
        [
            (((0, 1, -3.5), (0, 2, 1.0), (2, 0, 1.0)), "y"),
            (((1, 0, -3.5), (2, 0, 1.0), (0, 2, 1.0)), "x"),
        ],
        ids=["y-mean", "x-mean"],
    )
    def test_2d_marginal_error_names_its_axis(self, constraints, axis):
        spec = MomentSpec2D(((-3.0, 3.0), (-3.0, 3.0)), constraints)
        with pytest.raises(InfeasibleMomentsError, match=rf"^{axis} marginal: moment of order 1"):
            fit_multipliers_2d(spec)


class TestFit1D:
    def test_standard_gaussian(self):
        d, diag = fit_multipliers_1d(
            MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), tol=1e-12
        )
        mult = dict(d.multipliers)
        assert abs(mult[1]) < 1e-8
        assert abs(mult[2] - 0.5) < 1e-8
        assert abs(mult[0] - math.log(math.sqrt(2 * math.pi))) < 1e-8
        assert diag.tail_mass < 1e-12

    def test_no_constraints_is_uniform(self):
        d, _ = fit_multipliers_1d(MomentSpec1D((0.0, 1.0), ()))
        assert d.multipliers == ((0, 0.0),)

    def test_symmetric_interval_second_moment(self):
        d, _ = fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), tol=1e-12)
        assert dict(d.multipliers)[2] == pytest.approx(ORACLE_A2_SYMMETRIC, abs=1e-8)

    def test_moments_recheck_against_independent_rule(self):
        spec = MomentSpec1D((-1.0, 1.0), ((2, 0.2),))
        d, _ = fit_multipliers_1d(spec, tol=1e-12)
        xs = np.linspace(-1.0, 1.0, 20001)
        rho = density_values(d, xs)
        m2 = np.trapezoid(rho * xs**2, xs)
        assert abs(m2 - 0.2) < 1e-8

    def test_warm_start(self):
        spec = MomentSpec1D((-1.0, 1.0), ((2, 0.2),))
        d, _ = fit_multipliers_1d(spec, tol=1e-12)
        init = np.array([dict(d.multipliers)[2]])
        d2, diag2 = fit_multipliers_1d(spec, init=init, tol=1e-12)
        assert diag2.iterations == 0
        assert dict(d2.multipliers)[2] == pytest.approx(dict(d.multipliers)[2], abs=1e-12)

    def test_bad_tol(self):
        with pytest.raises(ValidationError):
            fit_multipliers_1d(MomentSpec1D((0.0, 1.0), ()), tol=0.0)

    def test_nan_tol_rejected_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(maxent, "_newton_fit", fail)
        with pytest.raises(ValidationError):
            fit_multipliers_1d(MomentSpec1D((0.0, 1.0), ((1, 0.4),)), tol=math.nan)
        with pytest.raises(ValidationError):
            fit_multipliers_2d(MomentSpec2D(_SQUARE, ((2, 0, 0.3),)), tol=math.nan)

    def test_unbounded_without_constraints_rejected(self):
        with pytest.raises(ValidationError):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ()))

    def test_quartic_only_cold_start_is_exact(self):
        # exp(-a4 x^4) has <x^4> = 1/(4 a4); a large t4 needs the window
        # read off the start exponent, not one centered and scaled by a guess
        for t4 in (3.0, 1e4):
            d, _ = fit_multipliers_1d(MomentSpec1D((-INF, INF), ((4, t4),)))
            assert dict(d.multipliers)[4] == pytest.approx(1.0 / (4.0 * t4), rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize(
        "support, mean", [((0.0, INF), 1.0), ((-INF, 0.0), -1.0)], ids=["upper", "lower"]
    )
    def test_half_line_fit(self, support, mean):
        # the finite end carries density; only the cut end bounds the tail mass
        d, diag = fit_multipliers_1d(MomentSpec1D(support, ((1, mean), (2, 1.5))), tol=1e-12)
        assert diag.tail_mass < 1e-12
        finite = 0 if math.isfinite(support[0]) else 1
        assert diag.window[finite] == support[finite]
        xs = np.linspace(*diag.window, 20001)
        rho = density_values(d, xs)
        assert np.trapezoid(rho, xs) == pytest.approx(1.0, abs=1e-7)
        assert np.trapezoid(rho * xs, xs) == pytest.approx(mean, abs=1e-7)
        assert np.trapezoid(rho * xs**2, xs) == pytest.approx(1.5, abs=1e-7)

    def test_half_line_window_cuts_the_finite_end(self):
        # unit variance at mean 20: the exponent rises 72 at 8 and at 32, so
        # the nodes concentrate on (8, 32), not (0, 32); only the infinite
        # end is cut, and the piece (0, 8) keeps nodes of its own
        spec = MomentSpec1D((0.0, INF), ((1, 20.0), (2, 401.0)))
        _, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert diag.window == pytest.approx((8.0, 32.0), abs=1e-12)
        assert diag.tail_mass < 1e-12

    @pytest.mark.parametrize(
        "constraints",
        [((2, 0.1),), ((1, 0.5), (2, 0.26)), ((4, 1e-3),)],
        ids=["sd-0.3", "sd-0.1-off-centre", "quartic-only"],
    )
    def test_narrow_density_on_a_wide_interval(self, constraints):
        # a density some 1e-3 of [-100, 100] wide: the window comes from the
        # start, not the whole support, so the Gauss rule resolves it
        spec = MomentSpec1D((-100.0, 100.0), constraints)
        d, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert diag.window[1] - diag.window[0] < 10.0
        xs = np.linspace(-100.0, 100.0, 400001)
        rho = density_values(d, xs)
        assert np.trapezoid(rho, xs) == pytest.approx(1.0, abs=1e-12)
        for order, target in constraints:
            assert np.trapezoid(rho * xs**order, xs) == pytest.approx(target, abs=1e-12)
        assert normalization_residual(d) < 1e-13

    @pytest.mark.parametrize("var", [1e-4, 1e-6])
    def test_small_variance_on_the_unit_interval(self, var):
        # the Gaussian start is all but the fit, as on the line
        d, diag = fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, var),)), tol=1e-12)
        assert dict(d.multipliers)[2] == pytest.approx(0.5 / var, rel=1e-9)
        assert diag.iterations <= 2

    def test_wide_window_refits_on_the_fits_own(self, monkeypatch):
        # a mean 1e-5 of the support from its end: the flat start integrates
        # over all of [0, 1000], and the fit is done again on its own window,
        # [0, 0.72] for exp(-100 x); that pass moves a_1 from 100.0000022 to
        # 100 and the window by 2.2e-8 of its width, so one more pass runs on
        # the moved window, and the fit reports its density's own exactly
        windows = []
        newton_fit = maxent._newton_fit

        def spy(pairs, targets, a, tol, rules, cap=maxent._NEWTON_CAP):
            windows.append((rules[0].nodes[0], rules[0].nodes[-1]))
            return newton_fit(pairs, targets, a, tol, rules, cap)

        monkeypatch.setattr(maxent, "_newton_fit", spy)
        d, diag = fit_multipliers_1d(MomentSpec1D((0.0, 1000.0), ((1, 0.01),)), tol=1e-12)
        assert len(windows) == 3 and windows[0][1] > 999.0
        assert diag.window == pytest.approx((0.0, 0.72), abs=1e-6)
        assert diag.window == maxent._window(d.support, d.multipliers)
        assert dict(d.multipliers)[1] == pytest.approx(100.0, rel=1e-10)
        assert normalization_residual(d) < 1e-13

    @pytest.mark.parametrize("least_steps, own_passes", [(0, 1), (1, maxent._OWN_PASSES)])
    def test_own_window_passes(self, monkeypatch, least_steps, own_passes):
        # a window rule whose every reading moves by 1e-9 of the width: the
        # own-window pass of this exact Gaussian start takes no Newton step
        # and ends the fit, and where every pass reports a step, the fit
        # stops after three; it reports the last window it ran on
        reads, windows = [], []
        window, axis_rule, newton_fit = maxent._window, maxent._axis_rule, maxent._newton_fit

        def moving_window(support, multipliers):
            lo, hi = window(support, multipliers)
            reads.append((lo, hi))
            return lo, hi + 1e-9 * len(reads) * (hi - lo)

        def rule_spy(side, window, n):
            windows.append(window)
            return axis_rule(side, window, n)

        def stepping(*args):
            a, a0, steps, residual = newton_fit(*args)
            return a, a0, max(steps, least_steps), residual

        monkeypatch.setattr(maxent, "_window", moving_window)
        monkeypatch.setattr(maxent, "_axis_rule", rule_spy)
        monkeypatch.setattr(maxent, "_newton_fit", stepping)
        _, diag = fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.5), (2, 1.25))), tol=1e-12)
        assert len(windows) == len(reads) == 1 + own_passes
        assert diag.window == windows[-1] != windows[-2]
        assert diag.iterations == least_steps * (1 + own_passes)

    def test_support_whose_powers_overflow_raises(self):
        # 1e80**4 overflows a float: the screen reads it as an infinite end,
        # and the nodes past the window reach |x| = 1e80, whose powers
        # overflow, so the normalization integral is not finite; a typed
        # error, although the same spec on +-1e70 fits the standard Gaussian
        spec = MomentSpec1D((-1e80, 1e80), ((2, 1.0), (4, 3.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError,
                               match="^normalization integral is not finite; fit diverged$"):
                fit_multipliers_1d(spec)

    @pytest.mark.parametrize(
        "spec, tol",
        [
            (MomentSpec1D((-INF, INF), quartic_moments(3.5)), 1e-8),
            (MomentSpec1D((-20.0, 20.0), ((2, 1.0), (4, 2.5))), 1e-10),
            (MomentSpec1D((0.0, INF), ((1, 1.0), (2, 1.5))), 1e-12),
        ],
        ids=["quartic-mean-3.5", "bounded-kurtosis-2.5", "half-line"],
    )
    def test_fit_ends_on_its_own_window(self, spec, tol):
        # each start's window differs from the fitted density's own (wider
        # for the quartic and on [-20, 20], narrower on the half line): the
        # fit goes on there and reports the window whose nodes reference_rule
        # builds for the density
        d, diag = fit_multipliers_1d(spec, tol=tol)
        assert diag.window == pytest.approx(maxent._window(d.support, d.multipliers), rel=1e-9)
        xs, w = reference_rule(d)
        rho = density_values(d, xs)
        assert abs(float(w @ rho) - 1.0) <= 10.0 * tol
        for order, target in spec.constraints:
            assert abs(float(w @ (rho * xs**order)) - target) <= 10.0 * tol * max(1.0, abs(target))

    def test_failed_own_window_pass_raises(self, monkeypatch):
        # Newton converges on the quartic's start window; where it then fails
        # on the density's own window, that error propagates: no restart
        calls = []
        newton_fit = maxent._newton_fit

        def spy(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ConvergenceError("own window fails")
            return newton_fit(*args)

        monkeypatch.setattr(maxent, "_newton_fit", spy)
        with pytest.raises(ConvergenceError, match=r"^own window fails$"):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), quartic_moments(3.5)), tol=1e-8)
        assert len(calls) == 2

    def test_bimodal_density_ends_on_its_own_window(self, leggauss_4000):
        # orders 1, 3 and 4 of exp(-((x - 0.5) / 0.1)^4 / 12): the fitted
        # exponent has a second well near -1.615, outside the start's window
        # and 10.9 above the main one, so a fit that stays on the start's
        # window reads a tail mass of 8.9e-12; its own window covers both
        z2 = math.sqrt(12.0) * math.gamma(0.75) / math.gamma(0.25)   # <z^2>, and <z^4> = 3
        mean, v2, v4 = 0.5, 0.01 * z2, 3e-4
        raw = ((1, mean), (3, mean**3 + 3.0 * mean * v2),
               (4, mean**4 + 6.0 * mean**2 * v2 + v4))
        d, diag = fit_multipliers_1d(MomentSpec1D((-INF, INF), raw), tol=1e-10)
        assert diag.window[0] < -1.615 < 0.5 < diag.window[1] and diag.tail_mass < 1e-12
        for order, target in ((0, 1.0),) + raw:
            assert abs(leggauss_moment(d.multipliers, 6.0, order, leggauss_4000)
                       - target) <= 1e-11

    def test_failed_start_window_falls_back_to_the_whole_support(self, monkeypatch):
        # kurtosis 30 on [-20, 20] needs mass far past the start's +-12 sd
        # window: Newton fails from the Gaussian start, and the fit starts
        # flat over the whole support
        windows, starts = [], []
        axis_rule, newton_fit = maxent._axis_rule, maxent._newton_fit

        def rule_spy(side, window, n):
            windows.append(window)
            return axis_rule(side, window, n)

        def newton_spy(pairs, targets, a, tol, rules, cap=maxent._NEWTON_CAP):
            starts.append(tuple(a))
            return newton_fit(pairs, targets, a, tol, rules, cap)

        monkeypatch.setattr(maxent, "_axis_rule", rule_spy)
        monkeypatch.setattr(maxent, "_newton_fit", newton_spy)
        spec = MomentSpec1D((-20.0, 20.0), ((2, 1.0), (4, 30.0)))
        d, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert len(windows) == len(starts) == 2
        assert windows[0] == pytest.approx((-12.0, 12.0), abs=1e-12)
        assert windows[1] == (-20.0, 20.0) and starts[1] == (0.0, 0.0)
        assert diag.window == (-20.0, 20.0)
        # the density rises steeply toward both ends: numpy's own 3000-node
        # Gauss-Legendre rule checks it
        xs, w = np.polynomial.legendre.leggauss(3000)
        rho = density_values(d, 20.0 * xs)
        assert 20.0 * (w @ rho) == pytest.approx(1.0, abs=1e-12)
        assert 20.0 * (w @ (rho * (20.0 * xs) ** 4)) == pytest.approx(30.0, rel=1e-9)

    def test_cold_window_on_the_whole_support_starts_gaussian(self, monkeypatch):
        # the cold start's +-12 sd window covers all of [-1, 1]; the fit still
        # starts from the Gaussian of its targets, a_2 = 1 / (2 * 0.2), not flat
        starts = []
        newton_fit = maxent._newton_fit

        def spy(pairs, targets, a, tol, rules, cap=maxent._NEWTON_CAP):
            starts.append((tuple(a), rules[0].nodes.size, float(rules[0].weights.sum())))
            return newton_fit(pairs, targets, a, tol, rules, cap)

        monkeypatch.setattr(maxent, "_newton_fit", spy)
        d, diag = fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), tol=1e-12)
        assert starts == [((2.5,), maxent._NODES_1D, pytest.approx(2.0, rel=1e-14))]
        assert diag.window == (-1.0, 1.0)
        assert dict(d.multipliers)[2] == pytest.approx(ORACLE_A2_SYMMETRIC, abs=1e-8)

    @pytest.mark.parametrize("init", [(1.0, 0.5), (0.0, 2.0)], ids=["mean-1", "sd-0.5"])
    def test_failed_warm_start_restarts_from_the_cold_start(self, init):
        # Newton diverges from either warm start on the cold window; on the
        # line the restart is the cold start, which is the unit Gaussian, so
        # the fit takes no counted step
        spec = MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0)))
        d, diag = fit_multipliers_1d(spec, init=np.array(init), tol=1e-10)
        assert diag.iterations == 0 and diag.window == (-12.0, 12.0)
        mult = dict(d.multipliers)
        assert mult[1] == 0.0 and mult[2] == 0.5

    @pytest.mark.parametrize(
        "spec, init, message",
        [
            (MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), None,
             r"^Newton failed on window \[-1, 1\]: attempt 1; its one restart failed too: "
             r"attempt 2$"),
            (MomentSpec1D((-INF, INF), ((2, 1.0),)), np.array([0.7]),
             r"^Newton failed on window \[-12, 12\]: attempt 1; its one restart failed too: "
             r"attempt 2$"),
            # on the line without init the cold start is the restart: no second attempt
            (MomentSpec1D((-INF, INF), ((2, 1.0),)), None, r"^attempt 1$"),
        ],
        ids=["bounded", "warm-unbounded", "cold-unbounded"],
    )
    def test_failed_restart_names_both_attempts(self, monkeypatch, spec, init, message):
        calls = []

        def fail(*args):
            calls.append(args)
            raise ConvergenceError(f"attempt {len(calls)}")

        monkeypatch.setattr(maxent, "_newton_fit", fail)
        with pytest.raises(ConvergenceError, match=message):
            fit_multipliers_1d(spec, init=init, tol=1e-10)
        assert len(calls) == (1 if message == r"^attempt 1$" else 2)

    def test_tail_mass_past_the_limit_raises(self, monkeypatch):
        # the unit Gaussian's tail estimate at its +-12 window is 5.2e-31
        monkeypatch.setattr(maxent, "_TAIL_MASS_LIMIT", 1e-40)
        with pytest.raises(NumericError, match=r"^truncation window too narrow: tail mass ~ 5\.15e-31$"):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), tol=1e-10)

    @pytest.mark.parametrize("side", [14.0, 16.0, 18.0])
    def test_density_rising_toward_finite_ends(self, side, leggauss_4000):
        # kurtosis 3.05 on [-side, side] has a negative x^4 multiplier: the
        # density falls past the start's +-12 window and rises again toward
        # both ends, so the nodes must reach the ends
        spec = MomentSpec1D((-side, side), ((2, 1.0), (4, 3.05)))
        d, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert dict(d.multipliers)[4] < 0.0 and diag.tail_mass == 0.0
        for order, target in ((0, 1.0), (2, 1.0), (4, 3.05)):
            assert abs(leggauss_moment(d.multipliers, side, order, leggauss_4000)
                       - target) <= 1e-9

    @pytest.mark.parametrize(
        "mean, sd, orders",
        [(5.0, 1.0, (1, 4)), (-5.0, 0.3, (1, 4)), (10.0, 3.0, (1, 4)), (3.0, 1.0, (1, 3, 4))],
    )
    def test_shifted_mean_without_second_moment(self, mean, sd, orders):
        # raw moments of N(mean, sd^2); with no order-2 target the cold start,
        # and so the window, must still cover a density far from the origin
        v = sd * sd
        raw = {1: mean, 3: mean**3 + 3 * mean * v, 4: mean**4 + 6 * mean**2 * v + 3 * v * v}
        spec = MomentSpec1D((-INF, INF), tuple((o, raw[o]) for o in orders))
        d, diag = fit_multipliers_1d(spec, tol=1e-10)
        assert diag.window[0] < mean < diag.window[1]
        xs = np.linspace(mean - 40.0 * sd, mean + 40.0 * sd, 40001)
        rho = density_values(d, xs)
        assert np.trapezoid(rho, xs) == pytest.approx(1.0, abs=1e-8)
        for o in orders:
            assert np.trapezoid(rho * xs**o, xs) == pytest.approx(raw[o], rel=1e-8)
        assert math.isfinite(information(d))
        assert normalization_residual(d) < 1e-8

    @pytest.mark.parametrize("mean, var", [(0.0, 1.0), (1.5, 0.3), (-2.0, 2.5), (3.0, 0.05)])
    def test_gaussian_moments_with_higher_orders(self, mean, var):
        # the maxent solution has a3 = a4 = 0, the edge of the normalizable set;
        # the functionals must accept the density the fit returns
        raw = (mean, mean**2 + var, mean**3 + 3 * mean * var,
               mean**4 + 6 * mean**2 * var + 3 * var * var)
        d, _ = fit_multipliers_1d(MomentSpec1D((-INF, INF), tuple(zip((1, 2, 3, 4), raw))),
                                  tol=1e-12)
        exact = -0.5 * math.log(2.0 * math.pi * math.e * var)
        assert information(d) == pytest.approx(exact, abs=1e-9)
        assert normalization_residual(d) < 1e-10

    def test_moments_past_the_normalizable_set_raise(self):
        # <x^4> above 3 <x^2>^2 needs a4 < 0: no maxent density on the whole
        # line, so the fit must not return one the functionals reject.  With
        # orders (2, 4), and a zero mean besides, the kurtosis screen names
        # the cause; with a mean of 0.1, <x^4> above the Gaussian's 2.9998
        # needs a4 < 0 as well, and the fit runs and ends past the
        # normalizable set
        for odd in ((), ((1, 0.0),)):
            with pytest.raises(InfeasibleMomentsError, match="^kurtosis 3.000000001 exceeds 3"):
                fit_multipliers_1d(MomentSpec1D((-INF, INF), ((2, 1.0), (4, 3.0 + 1e-9), *odd)),
                                   tol=1e-12)
        with pytest.raises(NumericError, match="not normalizable"):
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.1), (2, 1.0), (4, 2.9998 + 1e-9))),
                               tol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(c2=st.floats(0.05, 0.32))
    def test_fit_properties_on_interval(self, c2):
        d, _ = fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, c2),)), tol=1e-11)
        assert normalization_residual(d) < 1e-8
        xs, w = reference_rule(d)
        rho = density_values(d, xs)
        assert np.all(rho >= 0.0)
        assert abs(float(w @ (rho * xs**2)) - c2) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(mean=st.floats(-2.0, 2.0), var=st.floats(0.5, 3.0))
    def test_fit_properties_unbounded(self, mean, var):
        c2 = var + mean * mean
        d, _ = fit_multipliers_1d(
            MomentSpec1D((-INF, INF), ((1, mean), (2, c2))), tol=1e-11
        )
        mult = dict(d.multipliers)
        assert mult[2] == pytest.approx(1.0 / (2.0 * var), rel=1e-7)
        assert mult[1] == pytest.approx(-mean / var, rel=1e-7, abs=1e-8)
        assert normalization_residual(d) < 1e-8


def truncated_gaussian(mean, sds, corr):
    """Moment spec of the Gaussian (mean, sds, corr) truncated to
    [-3, 3]^2, its moments from a 1601^2 Simpson sum, and the multipliers
    that generate it: P/2 on the squares, P12 on xy and -P mean on x and
    y, P the precision matrix."""
    xs = np.linspace(-3.0, 3.0, 1601)
    w = np.where(np.arange(xs.size) % 2 == 1, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    cov = np.array([[sds[0] ** 2, corr * sds[0] * sds[1]],
                    [corr * sds[0] * sds[1], sds[1] ** 2]])
    p = np.linalg.inv(cov)
    dx, dy = xs[:, None] - mean[0], xs[None, :] - mean[1]
    rho = np.outer(w, w) * np.exp(-0.5 * (p[0, 0] * dx * dx + 2.0 * p[0, 1] * dx * dy
                                          + p[1, 1] * dy * dy))
    rho /= rho.sum()
    pairs = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    constraints = tuple((i, j, float(xs**i @ rho @ xs**j)) for i, j in pairs)
    b = p @ np.asarray(mean)
    exact = {(2, 0): p[0, 0] / 2, (0, 2): p[1, 1] / 2, (1, 1): p[0, 1],
             (1, 0): -b[0], (0, 1): -b[1]}
    return MomentSpec2D(((-3.0, 3.0), (-3.0, 3.0)), constraints), exact


def assert_multipliers_match(d, exact, rel=1e-6):
    """Every fitted multiplier within rel of the largest exact one."""
    mult = {(i, j): v for i, j, v in d.multipliers}
    scale = max(abs(v) for v in exact.values())
    assert max(abs(mult[p] - v) for p, v in exact.items()) <= rel * scale


def simpson_moments_2d(support, multipliers, n=4001, rows=250):
    """<x^i y^j>, i, j <= 4, of exp(-sum v x^i y^j) from a plain numpy
    Simpson sum on n x n nodes of the rectangle, rows of x at a time."""
    (a1, b1), (a2, b2) = support
    axes = []
    for lo, hi in ((a1, b1), (a2, b2)):
        xs = np.linspace(lo, hi, n)
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        axes.append((xs, w * (xs[1] - xs[0]) / 3.0))
    (xs, wx), (ys, wy) = axes
    powers_x, powers_y = np.vander(xs, 5, increasing=True).T, np.vander(ys, 5, increasing=True).T
    table = np.zeros((5, 5))
    for s in range(0, n, rows):
        x = xs[s:s + rows, None]
        rho = np.exp(-sum(v * x**i * ys**j for i, j, v in multipliers))
        table += (powers_x[:, s:s + rows] * wx[s:s + rows]) @ rho @ (powers_y * wy).T
    return table / table[0, 0]


def reference_residual(spec, density):
    table = simpson_moments_2d(spec.support, density.multipliers)
    return max(abs(table[i, j] - v) for i, j, v in spec.constraints)


def leggauss_moments_2d(support, multipliers, nx=800, ny=200):
    """<x^i y^j>, i, j <= 4, of exp(-sum v x^i y^j) from numpy's
    Gauss-Legendre rules, nx by ny nodes, over the rectangle."""
    axes = []
    for (lo, hi), n in zip(support, (nx, ny)):
        t, w = np.polynomial.legendre.leggauss(n)
        axes.append((0.5 * (lo + hi) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * w))
    (xs, wx), (ys, wy) = axes
    rho = np.exp(-sum(v * xs[:, None] ** i * ys**j for i, j, v in multipliers))
    px, py = np.vander(xs, 5, increasing=True).T, np.vander(ys, 5, increasing=True).T
    table = (px * wx) @ rho @ (py * wy).T
    return table / table[0, 0]


# (half-side of x, <x^4>) of leptokurtic specs, (2,0) = (0,2) = 1 and y on
# [-3, 3]: each has a maxent density with a negative x^4 multiplier and
# mass toward the x edges
LEPTOKURTIC_2D = [(12.5, 3.2), (14.0, 3.2), (16.0, 3.2), (14.0, 3.5), (14.0, 4.0)]


def narrow_spec(sd, kurtosis):
    """(2,0), (0,2), (4,0), (0,4) of a symmetric density of the given sd and
    kurtosis on [-3, 3]^2, the same on both axes."""
    v = sd * sd
    constraints = ((2, 0, v), (0, 2, v), (4, 0, kurtosis * v * v), (0, 4, kurtosis * v * v))
    return MomentSpec2D(((-3.0, 3.0), (-3.0, 3.0)), constraints)


class TestFit2D:
    def test_product_gaussians(self):
        spec = MomentSpec2D(
            ((-8.0, 8.0), (-8.0, 8.0)), ((2, 0, 1.0), (0, 2, 1.0), (1, 1, 0.0))
        )
        d, _ = fit_multipliers_2d(spec, tol=1e-10)
        mult = {(i, j): v for i, j, v in d.multipliers}
        assert mult[(2, 0)] == pytest.approx(0.5, abs=1e-6)
        assert mult[(0, 2)] == pytest.approx(0.5, abs=1e-6)
        assert abs(mult[(1, 1)]) < 1e-6

    def test_no_constraints_uniform_unit_square(self):
        d, _ = fit_multipliers_2d(MomentSpec2D(((0.0, 1.0), (0.0, 1.0)), ()))
        assert d.multipliers == ((0, 0, 0.0),)

    def test_correlated_gaussian_cross_multiplier(self):
        spec = MomentSpec2D(
            ((-6.0, 6.0), (-6.0, 6.0)), ((2, 0, 1.0), (0, 2, 1.0), (1, 1, 0.3))
        )
        d, _ = fit_multipliers_2d(spec, tol=1e-10)
        mult = {(i, j): v for i, j, v in d.multipliers}
        assert mult[(1, 1)] == pytest.approx(ORACLE_A11, abs=1e-6)

    def test_product_of_1d_fits(self):
        # a separable 2-D spec fits the product of two 1-D fits
        v = 0.75
        square = ((-3.0, 3.0), (-3.0, 3.0))
        d2, _ = fit_multipliers_2d(MomentSpec2D(square, ((2, 0, v), (0, 2, v))))
        d1, _ = fit_multipliers_1d(MomentSpec1D((-3.0, 3.0), ((2, v),)))
        mult2 = {(i, j): val for i, j, val in d2.multipliers}
        mult1 = dict(d1.multipliers)
        assert mult2[(2, 0)] == pytest.approx(mult1[2], abs=1e-8)
        assert mult2[(0, 2)] == pytest.approx(mult1[2], abs=1e-8)
        assert mult2[(0, 0)] == pytest.approx(2.0 * mult1[0], abs=1e-8)

    @pytest.mark.parametrize(
        "sd, shift", [(0.3, 2.0), (0.3, 3.0), (0.3, 4.0), (0.5, 3.0), (0.5, 4.0)]
    )
    def test_off_centre_correlated_gaussian(self, sd, shift):
        # means shift sd from the centre, in three quadrants; the start
        # must follow the target means, not the centre
        for signs in ((1, 1), (1, -1), (-1, -1)):
            mean = (signs[0] * shift * sd, signs[1] * shift * sd)
            spec, exact = truncated_gaussian(mean, (sd, sd), 0.3)
            d, diag = fit_multipliers_2d(spec, tol=1e-9)
            assert diag.max_moment_residual <= 1e-9
            assert_multipliers_match(d, exact)

    def test_one_given_mean(self):
        # feasible, though reading the free y mean as 0 would give the
        # covariance [[0.19, 0.95], [0.95, 1.0]], which is not positive definite
        spec = MomentSpec2D(
            ((-6.0, 6.0), (-6.0, 6.0)), ((1, 0, 0.9), (2, 0, 1.0), (1, 1, 0.95), (0, 2, 1.0))
        )
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        assert diag.max_moment_residual <= 1e-9

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_truncated_gaussian_is_its_own_maxent_fit(self, data):
        # the Gaussian truncated to the square is the maxent density of its
        # own first and second moments, so the fit must return its multipliers
        sds = [data.draw(st.floats(0.2, 0.8)) for _ in range(2)]
        mean = [data.draw(st.floats(-3.0 + 2.0 * s, 3.0 - 2.0 * s)) for s in sds]
        spec, exact = truncated_gaussian(mean, sds, data.draw(st.floats(-0.7, 0.7)))
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        assert diag.max_moment_residual <= 1e-9
        assert_multipliers_match(d, exact)

    @pytest.mark.parametrize("sd", [0.5, 0.2, 0.1, 0.05])
    @pytest.mark.parametrize("kurtosis", [3.0, 2.65])
    def test_narrow_specs(self, monkeypatch, sd, kurtosis):
        # Gaussian-like and platykurtic densities down to sd 0.05 on [-3, 3]^2;
        # the platykurtic one at sd 0.05 has no fit on any rule tried so far
        spec = narrow_spec(sd, kurtosis)
        if (sd, kurtosis) == (0.05, 2.65):
            # the first level fails, then the flat restart, and one error
            # names both attempts
            calls = []
            newton_fit = maxent._newton_fit

            def spy(*args):
                calls.append(args)
                return newton_fit(*args)

            monkeypatch.setattr(maxent, "_newton_fit", spy)
            with pytest.raises(ConvergenceError, match=(
                    r"^Newton failed on window \[-0\.6, 0\.6\] x \[-0\.6, 0\.6\]: .*"
                    r"did not reach tol=1e-09 in 100 iterations \(residual [0-9.e+-]+\); "
                    r"its one restart failed too: \w")):
                fit_multipliers_2d(spec, tol=1e-9)
            assert len(calls) <= 2
            return
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        assert diag.max_moment_residual <= 1e-9
        assert diag.window == (-3.0, 3.0)
        assert reference_residual(spec, d) <= 1e-8

    def test_failed_first_level_restarts_flat_over_the_rectangle(self, monkeypatch):
        # no retry of the failed level: the restart is flat over the whole
        # rectangle on _GAUSS_NODES per axis, then rechecked on twice as many
        levels = []
        newton_fit = maxent._newton_fit

        def spy(pairs, targets, a, tol, rules, cap=maxent._NEWTON_CAP):
            levels.append((rules[0].nodes.size, float(rules[0].weights.sum()), tuple(a)))
            if len(levels) == 1:
                raise ConvergenceError("first level fails")
            result = newton_fit(pairs, targets, a, tol, rules, cap)
            levels[-1] += (result[2],)
            return result

        monkeypatch.setattr(maxent, "_newton_fit", spy)
        spec = MomentSpec2D(((-8.0, 8.0), (-8.0, 8.0)), ((2, 0, 0.25), (0, 2, 0.25)))
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        n = maxent._GAUSS_NODES
        # the start's +-12 sd window, +-6, leaves a piece of n // 4 nodes at each end
        assert levels[0] == (n + 2 * (n // 4), pytest.approx(16.0), (2.0, 2.0))
        assert levels[1][:3] == (n, pytest.approx(16.0), (0.0, 0.0))
        assert [level[0] for level in levels[2:]] == [2 * n, 4 * n]
        assert diag.iterations == sum(level[3] for level in levels[1:])
        assert diag.max_moment_residual <= 1e-9
        assert reference_residual(spec, d) <= 1e-9

    def test_underresolved_start_escalates(self, monkeypatch):
        # on 16 nodes the recheck fails, so Newton goes on at 32 nodes
        levels = []
        newton_fit = maxent._newton_fit

        def spy(pairs, targets, a, tol, rules, cap=maxent._NEWTON_CAP):
            result = newton_fit(pairs, targets, a, tol, rules, cap)
            levels.append((rules[0].nodes.size, result[2]))
            return result

        monkeypatch.setattr(maxent, "_GAUSS_NODES", 16)
        monkeypatch.setattr(maxent, "_newton_fit", spy)
        spec = narrow_spec(0.5, 2.65)
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        stepped = [n for n, iterations in levels if iterations]
        assert len(stepped) > 1 and stepped[0] == 16
        assert diag.iterations == sum(iterations for _, iterations in levels)
        assert reference_residual(spec, d) <= 1e-9

    def test_failed_last_recheck_raises(self, monkeypatch):
        # with 16 nodes as both the first and the last level, the recheck on
        # 32 misses tol and nothing is left to escalate to
        monkeypatch.setattr(maxent, "_GAUSS_NODES", 16)
        monkeypatch.setattr(maxent, "_GAUSS_NODES_MAX", 16)
        with pytest.raises(ConvergenceError, match=r"fails its recheck on 32.*residual"):
            fit_multipliers_2d(narrow_spec(0.5, 2.65), tol=1e-9)

    @pytest.mark.parametrize("half, m40", LEPTOKURTIC_2D)
    def test_leptokurtic_specs_on_wide_rectangles(self, monkeypatch, half, m40):
        # Newton fails on the first level from the Gaussian start; the flat
        # restart then fits on three levels and its recheck
        calls = []
        newton_fit = maxent._newton_fit

        def spy(*args):
            calls.append(args)
            return newton_fit(*args)

        monkeypatch.setattr(maxent, "_newton_fit", spy)
        spec = MomentSpec2D(((-half, half), (-3.0, 3.0)), ((2, 0, 1.0), (4, 0, m40), (0, 2, 1.0)))
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        assert len(calls) <= 4
        assert diag.max_moment_residual <= 1e-9 and diag.tail_mass == 0.0
        table = leggauss_moments_2d(spec.support, d.multipliers)
        assert max(abs(table[i, j] - v) for i, j, v in spec.constraints) <= 1e-9

    def test_density_rising_past_a_cut_window(self):
        # kurtosis 3.05 on a 14 sd half-side: the x^4 multiplier is negative
        # and the density rises again past the 12 sd window, whose pieces of
        # the side beyond it carry nodes of their own
        spec = MomentSpec2D(((-14.0, 14.0), (-3.0, 3.0)), ((2, 0, 1.0), (4, 0, 3.05), (0, 2, 1.0)))
        d, diag = fit_multipliers_2d(spec, tol=1e-9)
        assert {(i, j): v for i, j, v in d.multipliers}[(4, 0)] < 0.0
        assert diag.tail_mass == 0.0
        assert reference_residual(spec, d) <= 1e-9


class TestAxisRule:
    def test_whole_side_window_is_the_windows_rule(self):
        # a one-part concatenation: the window's mapped Gauss rule, bit for bit
        rule = maxent._axis_rule((-3.0, 3.0), (-3.0, 3.0), 48)
        nodes, weights = maxent._mapped_gauss(-3.0, 3.0, 48)
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize(
        "side, window, pieces",
        [((-INF, INF), (-2.0, 3.0), 0), ((-INF, 5.0), (-2.0, 3.0), 1),
         ((-4.0, INF), (-2.0, 3.0), 1)],
    )
    def test_an_infinite_end_is_cut(self, side, window, pieces):
        # the nodes cover the window and the finite pieces of the side only
        rule = maxent._axis_rule(side, window, 48)
        covered = [w if math.isinf(s) else s for s, w in zip(side, window)]
        assert rule.nodes.size == 48 + 12 * pieces
        assert covered[0] < rule.nodes[0] and rule.nodes[-1] < covered[1]
        assert rule.weights.sum() == pytest.approx(covered[1] - covered[0], rel=1e-14)

    @pytest.mark.parametrize("ulps", [1, 4])
    def test_a_piece_within_rounding_gets_no_nodes(self, ulps):
        # a window end a few ulps inside a side end leaves a piece whose
        # nodes would coincide
        step = ulps * np.spacing(3.0)
        for window in ((-3.0 + step, 2.0), (-2.0, 3.0 - step)):
            rule = maxent._axis_rule((-3.0, 3.0), window, 48)
            assert rule.nodes.size == 48 + 12

    @pytest.mark.parametrize("window", [(-3.0, 3.0), (-1.0, 2.0), (-3.0, 0.5), (0.5, 3.0)])
    def test_finite_side_weights_sum_to_its_length(self, window):
        rule = maxent._axis_rule((-3.0, 3.0), window, 48)
        assert rule.nodes.size == 48 + 12 * sum(w != s for w, s in zip(window, (-3.0, 3.0)))
        assert -3.0 < rule.nodes[0] and rule.nodes[-1] < 3.0
        assert rule.weights.sum() == pytest.approx(6.0, rel=1e-14)


def np_window(support, multipliers):
    """maxent._window's rule written over numpy arrays, through np.polyder,
    np.clip, np.polyval and np.roots: the plain-float _window gives its
    bits, signed zeros and errors included."""
    lo, hi = support
    p = maxent._exponent_coeffs(support, multipliers)
    candidates = np.append(np.clip(np.roots(np.polyder(p)).real, lo, hi),
                           [e for e in support if math.isfinite(e)])
    values = np.polyval(p, candidates)
    top = float(values.min()) + maxent._WINDOW_RISE
    p[-1] -= top
    roots = np.roots(p)
    crossings = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
    if crossings.size == 0 and (math.isinf(lo) or math.isinf(hi)):
        raise NumericError(
            f"exponent has no real crossing {maxent._WINDOW_RISE} above its minimum")
    inside = np.append(crossings[(lo <= crossings) & (crossings <= hi)], candidates[values <= top])
    return float(inside.min()), float(inside.max())


def window_outcome(window, support, multipliers):
    """The window's ends as hex, so that 0.0 and -0.0 differ, or the type and
    message of what it raised."""
    try:
        return tuple(end.hex() for end in window(support, multipliers))
    except Exception as exc:
        return type(exc), str(exc)


WINDOW_SUPPORTS = [(-INF, INF), (0.0, INF), (-0.0, INF), (-INF, 0.0), (-INF, -0.0), (-3.0, INF),
                   (-INF, 5.0), (0.0, 1.0), (-0.0, 0.5), (-10.0, -0.0), (-1.0, 2.0)]


class TestWindow:
    @settings(max_examples=400, deadline=None)
    @given(support=st.sampled_from(WINDOW_SUPPORTS),
           coeffs=st.lists(SIGNED_COEFFS, min_size=2, max_size=9))
    @example(support=(0.0, INF), coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
    @example(support=(-0.0, INF), coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
    @example(support=(-INF, 0.0), coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
    @example(support=(-INF, INF), coeffs=[0.0, 0.0, 0.0, 0.0, 0.0, -10.0, 1e-3])
    @example(support=(0.0, 1.0), coeffs=[0.0])
    def test_bits_of_the_numpy_rule(self, support, coeffs):
        # coeffs[i] is a_i; where P does not grow toward an infinite end
        # both raise the same NumericError
        multipliers = tuple(enumerate(coeffs))
        assert (window_outcome(maxent._window, support, multipliers)
                == window_outcome(np_window, support, multipliers))

    def test_no_real_crossing_raises(self):
        # 1e-3 x^6 - 10 x^5 is about -6.7e19 at its minimum, x = 8333.3;
        # 72 above it the computed crossings are the pair 8333.3 +- 6.4e-5 i,
        # which the real-root filter rejects
        d = ExpFamilyDensity1D(((0, 0.0), (5, -10.0), (6, 1e-3)), (-INF, INF))
        for functional in (information, normalization_residual):
            with pytest.raises(NumericError,
                               match=r"^exponent has no real crossing 72\.0 above its minimum$"):
                functional(d)


class TestDensityEval:
    def test_uniform(self):
        assert density_values(uniform_density(), 0.3) == pytest.approx(1.0)

    def test_gaussian_at_origin(self):
        assert density_values(gaussian_density(), 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-9
        )

    def test_linear_ramp(self):
        d = linear_ramp_density()
        assert density_values(d, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert density_values(d, 0.0) == 0.0

    def test_singularity_returns_inf(self):
        d = ExpFamilyDensity1D(
            ((0, 0.0),), (0.0, 1.0), EndpointFactors(singularities=((0.0, 0.5),))
        )
        assert density_values(d, 0.0) == math.inf

    def test_positivity_on_grid(self):
        d = gaussian_density()
        xs = np.linspace(-10, 10, 2001)
        assert np.all(density_values(d, xs) >= 0.0)

    @pytest.mark.parametrize("xs", [
        np.concatenate((np.linspace(-4.0, 9.0, 769), [0.0, -0.0, 1e-300, -1e-300])),
        np.linspace(-4.0, 9.0, 770).reshape(35, 22), np.float64(-0.0), 1e-300, 2.5],
        ids=["nodes", "2-D", "zero", "tiny", "scalar"])
    def test_powers_are_the_power_table_bit_for_bit(self, xs):
        # -P reads its powers from _power_table, of any shape, and rounds as
        # the running product it kept on its own did
        d = ExpFamilyDensity1D(((0, 18.28), (1, -19.59), (2, 8.396), (3, -1.599), (5, 1e-3),
                                (6, 0.1142)), (-math.inf, math.inf))
        xs = np.asarray(xs, dtype=float)
        total = np.zeros_like(xs)
        power, reached = 1.0, 0
        for order, value in d.multipliers:
            for _ in range(order - reached):
                power = power * xs
            reached = order
            total += value * power
        _, neg_p = maxent._log_density(d, xs)
        assert neg_p.shape == xs.shape and neg_p.tobytes() == (-total).tobytes()
        values = density_values(d, xs)
        assert values.shape == xs.shape and values.tobytes() == np.exp(-total).tobytes()

    def test_exponent_matches_numpy_powers(self):
        # the powers are running products, which round differently from
        # xs**order in the last bits only
        d = ExpFamilyDensity1D(((0, 18.28), (1, -19.59), (2, 8.396), (3, -1.599), (5, 1e-3),
                                (6, 0.1142)), (-math.inf, math.inf))
        xs = np.linspace(-4.0, 9.0, 769)
        reference = sum(value * xs**order for order, value in d.multipliers)
        _, neg_p = maxent._log_density(d, xs)
        assert np.max(np.abs(neg_p + reference)) <= 1e-14 * np.max(np.abs(reference))


class TestInformation:
    def test_uniform_on_0_2(self):
        assert information(uniform_density(0.0, 2.0)) == pytest.approx(
            -math.log(2.0), abs=1e-10
        )

    def test_standard_gaussian(self):
        expected = -0.5 * math.log(2 * math.pi * math.e)
        assert information(gaussian_density()) == pytest.approx(expected, abs=1e-9)

    def test_linear_ramp(self):
        # quadrature oracle for the integral of 2x ln(2x) on [0,1]
        assert information(linear_ramp_density()) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-6
        )


    def test_narrow_gaussian_on_a_wide_interval(self):
        # sd 1e-4 on [-1, 1]: the nodes concentrate on the +-12 sd window, so
        # the rule resolves a density that fills a thousandth of the support
        v = 1e-8
        d = ExpFamilyDensity1D(((0, 0.5 * math.log(2 * math.pi * v)), (2, 0.5 / v)), (-1.0, 1.0))
        assert abs(information(d) + 0.5 * math.log(2 * math.pi * math.e * v)) <= 1e-12
        assert normalization_residual(d) < 1e-13

    def test_overflowing_density_raises(self):
        # rho = e^800 overflows at every node: a typed error, and no numpy
        # warning (the suite turns warnings into errors)
        d = ExpFamilyDensity1D(((0, -800.0),), (0.0, 1.0))
        with pytest.raises(NumericError, match="^information integrand is not finite"):
            information(d)

    @pytest.mark.parametrize("m", [40, 60, 100])
    def test_chi_density_on_a_finite_interval(self, m):
        # x^m exp(-x^2/2) on [0, 20] peaks at sqrt(m), where x^2/2 has risen
        # by m/2: the piece (12, 20) beyond the window keeps nodes of its own,
        # so the mass past 12 is not lost
        log_z = 0.5 * (m - 1) * math.log(2.0) + math.lgamma(0.5 * (m + 1))
        d = ExpFamilyDensity1D(((0, log_z), (2, 0.5)), (0.0, 20.0),
                               EndpointFactors(zeros=((0.0, m),)))
        assert normalization_residual(d) < 1e-13
        # <-P> = -<x^2>/2 - a_0, with <x^2> = m + 1
        assert modified_information(d) == pytest.approx(-0.5 * (m + 1) - log_z, abs=1e-11)


# ln of the integral of exp(-u^4/12) over the line
QUARTIC_LOG_Z = math.log(math.gamma(0.25) / 2.0) + 0.25 * math.log(12.0)


def shifted_quartic(s, sigma):
    """exp(-((x - s)/sigma)^4 / 12) / (sigma Z), expanded in powers of x."""
    c = sigma**-4 / 12.0
    return ExpFamilyDensity1D(
        (
            (0, QUARTIC_LOG_Z + math.log(sigma) + c * s**4),
            (1, -4.0 * c * s**3),
            (2, 6.0 * c * s * s),
            (3, -4.0 * c * s),
            (4, c),
        ),
        (-INF, INF),
    )


def shifted_gaussian(s, sigma):
    v = sigma * sigma
    return ExpFamilyDensity1D(
        ((0, 0.5 * math.log(2 * math.pi * v) + s * s / (2 * v)), (1, -s / v), (2, 0.5 / v)),
        (-INF, INF),
    )


class TestTranslationAndScale:
    """Densities built by hand, centered z sigma from the origin.

    Shifting leaves <ln rho> unchanged and scaling by sigma shifts it by
    -ln sigma.  The error floor is cancellation among the expanded
    monomials, about z^4/12 ulp: at |z| = 100 the quartic's information
    is off by 3e-8 and its normalization residual is 8e-9.
    """

    def test_unit_quartic_closed_form(self):
        assert information(shifted_quartic(0.0, 1.0)) == pytest.approx(
            -(QUARTIC_LOG_Z + 0.25), abs=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from([shifted_quartic, shifted_gaussian]),
        z=st.floats(-100.0, 100.0),
        sigma=st.floats(0.01, 100.0),
    )
    @example(family=shifted_quartic, z=30.0, sigma=1.0)
    @example(family=shifted_quartic, z=-100.0, sigma=0.01)
    @example(family=shifted_quartic, z=100.0, sigma=100.0)
    def test_shift_and_scale(self, family, z, sigma):
        d = family(z * sigma, sigma)
        unit = information(family(0.0, 1.0))
        assert information(d) == pytest.approx(unit - math.log(sigma), abs=1e-6)
        assert normalization_residual(d) < 1e-6

    @pytest.mark.parametrize(
        "multipliers, support",
        [
            (((0, 0.0),), (-INF, INF)),
            (((0, 0.0), (2, -1.0)), (-INF, INF)),
            (((0, 0.0), (1, 1.0)), (-INF, INF)),
            (((0, 0.0), (1, -1.0)), (0.0, INF)),
            (((0, 0.0), (1, 1.0)), (-INF, 0.0)),
            (((0, 0.0), (1, 1.0), (3, 1.0)), (-INF, INF)),
        ],
        ids=["flat", "a2<0", "linear", "growing-upper-tail", "growing-lower-tail", "cubic"],
    )
    def test_non_normalizable_raises(self, multipliers, support):
        d = ExpFamilyDensity1D(multipliers, support)
        with pytest.raises(NumericError):
            information(d)
        with pytest.raises(NumericError):
            normalization_residual(d)


class TestModifiedInformation:
    def test_identity_reduction_without_factors(self):
        d = gaussian_density()
        assert modified_information(d) == information(d)

    def test_identity_reduction_with_trivial_factors(self):
        d = ExpFamilyDensity1D(((0, math.log(2.0)),), (0.0, 2.0), EndpointFactors())
        assert modified_information(d) == information(d)

    def test_linear_ramp_with_zero_factor(self):
        assert modified_information(linear_ramp_density()) == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_gaussian_value(self):
        assert modified_information(gaussian_density()) == pytest.approx(-1.418939, abs=1e-6)


# rho = (m + 1) x^m and (1 - p) x^-p on [0, 1] with a flat core: the closed
# forms of <ln rho / (Z S)>, <ln rho> and <x>, and the tolerances of
# modified_information, information, normalization_residual, the quadrature
# <x> and the central-difference <x> of moment_gradient_check.  Each
# tolerance is ten times the reference rule's measured error on its case,
# except zero-3's first, kept at 1e-14 (six times).  The singular cases and
# zero-0.5 are loose because a Gauss-Legendre rule in x, smooth up to the
# end, does not resolve x^-p or the x^m ln x of a non-integer zero there.
FACTOR_CLOSED_FORMS = {
    "zero-0.5": (("zeros", 0.5), (1.4e-9, 2.3e-8, 3.5e-9, 1e-14, 2.1e-9)),
    "zero-1": (("zeros", 1.0), (6.7e-15, 1.5e-11, 8.9e-15, 5.6e-15, 4.4e-11)),
    "zero-1.5": (("zeros", 1.5), (1.6e-14, 1.4e-13, 1.6e-14, 5.6e-15, 1.6e-11)),
    "zero-3": (("zeros", 3.0), (1e-14, 7.8e-15, 8.9e-15, 8.9e-15, 8e-12)),
    "singularity-0.2": (("singularities", 0.2), (8e-6, 1.4e-4, 3.6e-5, 1.7e-11, 1.6e-5)),
    "singularity-0.4": (("singularities", 0.4), (5.9e-4, 7.7e-3, 1.2e-3, 3.2e-10, 4.3e-4)),
}


class TestEndpointFactorClosedForms:
    @pytest.mark.parametrize("case", FACTOR_CLOSED_FORMS)
    def test_power_factor_on_unit_interval(self, case):
        (kind, e), (tol_mod, tol_info, tol_norm, tol_mean, tol_grad) = FACTOR_CLOSED_FORMS[case]
        q = e if kind == "zeros" else -e   # rho = (q + 1) x^q
        d = ExpFamilyDensity1D(
            ((0, -math.log(q + 1)),), (0.0, 1.0), EndpointFactors(**{kind: ((0.0, e),)})
        )
        mean = (q + 1) / (q + 2)
        assert abs(modified_information(d) - math.log(q + 1)) <= tol_mod
        assert abs(information(d) - (math.log(q + 1) - q / (q + 1))) <= tol_info
        assert normalization_residual(d) <= tol_norm
        analytic, numeric = moment_gradient_check(d, 1, 1e-5)
        assert abs(analytic - mean) <= tol_mean
        assert abs(numeric - mean) <= tol_grad


class TestMomentGradient:
    def test_gaussian_second_moment(self):
        analytic, numeric = moment_gradient_check(gaussian_density(), 2, 1e-5)
        assert analytic == pytest.approx(1.0, abs=1e-8)
        assert abs(analytic - numeric) < 1e-6

    def test_uniform_first_moment(self):
        analytic, numeric = moment_gradient_check(uniform_density(), 1, 1e-5)
        assert analytic == pytest.approx(0.5, abs=1e-10)
        assert numeric == pytest.approx(0.5, abs=1e-8)

    def test_fitted_interval_density(self):
        d, _ = fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), tol=1e-12)
        analytic, numeric = moment_gradient_check(d, 2, 1e-5)
        assert analytic == pytest.approx(0.2, abs=1e-9)
        assert abs(analytic - numeric) < 1e-6

    def test_h_too_small(self):
        with pytest.raises(ValidationError):
            moment_gradient_check(uniform_density(), 1, 1e-11)

    @pytest.mark.parametrize("order, h", [(1, math.nan), (1.5, 1e-5), (math.nan, 1e-5), (0, 1e-5)])
    def test_nan_h_and_non_integral_order(self, order, h):
        with pytest.raises(ValidationError):
            moment_gradient_check(uniform_density(-1.0, 1.0), order, h)

    def test_dual_identity_on_three_fits(self):
        fits = [
            fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), tol=1e-12)[0],
            fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), tol=1e-12)[0],
            fit_multipliers_1d(MomentSpec1D((0.0, 2.0), ((1, 1.2),)), tol=1e-12)[0],
        ]
        for d in fits:
            for order, _ in d.multipliers:
                if order == 0:
                    continue
                analytic, numeric = moment_gradient_check(d, order, 1e-5)
                assert abs(analytic - numeric) < 1e-6


class TestJsonInterfaces:
    def test_spec_parsing_with_inf_sentinels(self):
        doc = {"support": ["-inf", "inf"], "moments": [{"order": 2, "value": 1.0}]}
        spec = moment_spec_from_json(json.dumps(doc))
        assert spec.support == (-INF, INF)
        assert spec.constraints == ((2, 1.0),)

    def test_spec_parsing_rejects_garbage(self):
        with pytest.raises(ValidationError):
            moment_spec_from_json({"support": ["wide", 1.0], "moments": []})
        with pytest.raises(ValidationError):
            moment_spec_from_json({"moments": []})

    @pytest.mark.parametrize("doc", [
        {"support": [0.0, 1.0]},
        {"support": [0.0, 1.0], "multipliers": [[0]]},
        {"support": [0.0, 1.0], "multipliers": [[0, 0.0]], "factors": 5},
        {"support": ["wide", 1.0], "multipliers": [[0, 0.0]]},
        "[0, 1",
    ], ids=["no-multipliers", "short-pair", "factors-not-a-table", "bad-bound", "bad-json"])
    def test_density_parsing_rejects_garbage(self, doc):
        with pytest.raises(ValidationError, match="^malformed density document: "):
            density_from_json(doc)

    @pytest.mark.parametrize("parse, kind", [(moment_spec_from_json, "moment spec"),
                                             (density_from_json, "density")])
    def test_document_nested_too_deep_is_malformed(self, parse, kind):
        with pytest.raises(ValidationError, match=f"^malformed {kind} document: RecursionError"):
            parse("[" * 200000 + "]" * 200000)

    def test_density_round_trip(self):
        d = linear_ramp_density()
        doc = density_to_json(d)
        back = density_from_json(json.dumps(doc))
        assert back == d

    @pytest.mark.parametrize("factors", [None, {"zeros": [], "singularities": []}, {}])
    def test_no_factors_is_one_value(self, factors):
        doc = {"support": [0.0, 1.0], "multipliers": [[0, 0.0]], "factors": factors}
        d = density_from_json(doc)
        assert d.factors == EndpointFactors()
        assert d == ExpFamilyDensity1D(((0, 0.0),), (0.0, 1.0), None)
        assert density_to_json(d)["factors"] is None

    def test_fitted_density_round_trip_with_diagnostics(self):
        spec = MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0)))
        d, diag = fit_multipliers_1d(spec, tol=1e-12)
        doc = density_to_json(d, diag)
        assert doc["diagnostics"]["iterations"] == diag.iterations
        back = density_from_json(json.dumps(doc))
        assert back.multipliers == d.multipliers


# information, modified_information and normalization_residual of four
# densities, and the iterations and multipliers of the unit-sd quartic fits
# of the five mean strata of the benchmark's closed_form workload at seed 11,
# written by the code that built a density's node set on every call
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden"
                     / "maxent_functionals.json").read_text(encoding="utf-8"))
FUNCTIONALS = (information, modified_information, normalization_residual,
               lambda d: moment_gradient_check(d, 2, 1e-4))


class TestSharedNodeSet:
    """A density builds the node set of its functionals once and shares it."""

    @pytest.mark.parametrize("name", sorted(GOLDEN["densities"]))
    def test_one_window_and_one_rule_per_density(self, monkeypatch, name):
        counts = {"_window": 0, "_axis_rule": 0}
        for kernel in counts:
            def counted(*args, _kernel=kernel, _inner=getattr(maxent, kernel)):
                counts[_kernel] += 1
                return _inner(*args)

            monkeypatch.setattr(maxent, kernel, counted)
        d = density_from_json(GOLDEN["densities"][name])
        for functional in FUNCTIONALS:
            functional(d)
        assert counts == {"_window": 1, "_axis_rule": 1}
        # an equal density is another object, with a node set of its own
        information(density_from_json(GOLDEN["densities"][name]))
        assert counts == {"_window": 2, "_axis_rule": 2}

    def test_shared_arrays_are_read_only(self):
        d = shifted_quartic(3.5, 1.0)
        xs, w = reference_rule(d)
        again = reference_rule(d)
        assert again[0] is xs and again[1] is w
        assert not (xs.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError):
            xs[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0

    @pytest.mark.parametrize("name", sorted(GOLDEN["densities"]))
    def test_values_equal_those_of_a_fresh_equal_density(self, name):
        d = density_from_json(GOLDEN["densities"][name])
        shared = [functional(d) for functional in FUNCTIONALS * 2]
        fresh = [functional(density_from_json(GOLDEN["densities"][name]))
                 for functional in FUNCTIONALS * 2]
        assert shared == fresh
        rule = maxent._axis_rule(d.support, maxent._window(d.support, d.multipliers),
                                 maxent._NODES_1D)
        xs, w = reference_rule(d)
        assert np.array_equal(xs, rule.nodes) and np.array_equal(w, rule.weights)

    @pytest.mark.parametrize("name", sorted(GOLDEN["densities"]))
    def test_functionals_match_the_golden(self, name):
        entry = GOLDEN["densities"][name]
        d = density_from_json(entry)
        for functional in (information, modified_information, normalization_residual):
            assert functional(d) == entry[functional.__name__]

    @pytest.mark.parametrize("name", sorted(GOLDEN["quartic_fits"]))
    def test_quartic_strata_fits_match_the_golden(self, name):
        entry = GOLDEN["quartic_fits"][name]
        spec = moment_spec_from_json(entry["spec"])
        if "error" in entry:
            # the last stratum lies past 18 sd, where Newton fails
            with pytest.raises(InfoqmError) as raised:
                fit_multipliers_1d(spec, tol=entry["tol"])
            assert f"{type(raised.value).__name__}: {raised.value}" == entry["error"]
            return
        d, diag = fit_multipliers_1d(spec, tol=entry["tol"])
        assert diag.iterations == entry["iterations"]
        assert [list(pair) for pair in d.multipliers] == entry["multipliers"]
