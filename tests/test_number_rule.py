"""One number rule: every count, tolerance and document real validates
through numerics._as_int, _as_positive and _as_number, and every array
through numerics._as_array and _as_finite_array, one entry at a time
(a list of plain floats, which the rule passes unchanged, converts whole)."""

import json
import math
import tempfile
from pathlib import Path
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoqm import (
    DomainError,
    EndpointFactors,
    ExpFamilyDensity1D,
    ExpFamilyDensity2D,
    FlowConfig,
    GaussPower,
    Grid1D,
    GridProblem,
    GroundStateSolution,
    MomentSpec1D,
    MomentSpec2D,
    OscillatorState,
    PowerSeries2D,
    QuadratureRule,
    ValidationError,
    alpha_from_beta,
    binomial_series_eval,
    density_from_json,
    density_values,
    eigen_residual,
    energy,
    find_root,
    fit_multipliers_1d,
    fit_multipliers_2d,
    ground_state,
    hermite_eval,
    lambda_from_beta,
    moment_gradient_check,
    moment_spec_from_json,
    partial_sums,
    psi_deriv,
    psi_eval,
    psi_second_derivative,
    solve_state,
    table,
    taylor2_coeffs,
    two_var_series_eval,
    uniqueness_probe,
)
from infoqm import cli
from infoqm.cli import _target_from_spec
from infoqm.numerics import _as_array, _as_finite_array, _as_int, _as_number, _as_positive

INF = math.inf
# a float count, NaN, both infinities, a bool and a string
BAD_COUNTS = {"float": 2.5, "nan": math.nan, "inf": INF, "-inf": -INF, "bool": True, "str": "2"}
# NaN, both infinities, zero, a bool and a string
BAD_TOLERANCES = {"nan": math.nan, "inf": INF, "-inf": -INF, "zero": 0.0, "bool": True,
                  "str": "1e-3"}
# the document reals: a bool and a string always, NaN and infinities where a
# finite value belongs
BAD_REALS = {"nan": math.nan, "inf": INF, "-inf": -INF, "bool": True, "str": "0.5"}
# a lower support bound may be -inf; False (0) and "0" would make [0, 2]
BAD_BOUNDS = {"nan": math.nan, "inf": INF, "bool": False, "str": "0"}

_UNIT = ExpFamilyDensity1D(((0, math.log(2.0)),), (-1.0, 1.0))
_PROBLEM = GridProblem.harmonic(Grid1D(-8.0, 8.0, 64))
_CFG = FlowConfig(step=1e-3)
_PROBE = Grid1D(-0.5, 0.5, 5)
_SERIES2 = PowerSeries2D(np.arange(25.0).reshape(5, 5), 4)


def _spec_doc(order=1, value=0.5, lo=0.0):
    return {"support": [lo, 2.0], "moments": [{"order": order, "value": value}]}


def _density_doc(order=2, value=1.0, zero=(-1.0, 1.0)):
    return {"support": [-1.0, 1.0], "multipliers": [[0, 0.0], [order, value]],
            "factors": {"zeros": [list(zero)], "singularities": []}}


COUNT_SITES = {
    "Grid1D.n_points": (lambda v: Grid1D(-1.0, 1.0, v), ValidationError),
    "gauss_hermite": (QuadratureRule.gauss_hermite, ValidationError),
    "gauss_legendre": (QuadratureRule.gauss_legendre, ValidationError),
    "hermite_eval": (lambda v: hermite_eval(v, 0.3), DomainError),
    "OscillatorState.n": (lambda v: OscillatorState(v, 0, 1.0, 0.5, -1.0, 1.0), ValidationError),
    "solve_state": (solve_state, DomainError),
    "table": (table, DomainError),
    "taylor2_coeffs": (lambda v: taylor2_coeffs(lambda x, y: 1.0, v, 0.01), ValidationError),
    "binomial_series_eval": (lambda v: binomial_series_eval(1.0, -1.0, 0.5, v), ValidationError),
    "two_var_series_eval": (lambda v: two_var_series_eval("exp_xy", 0.5, 0.5, v),
                            ValidationError),
    "PowerSeries2D.truncation_order": (lambda v: PowerSeries2D([[1.0, 0.0], [0.0, 0.0]], v),
                                       ValidationError),
    "PowerSeries2D.coefficient.i": (lambda v: _SERIES2.coefficient(v, 0), DomainError),
    "PowerSeries2D.coefficient.j": (lambda v: _SERIES2.coefficient(0, v), DomainError),
    "energy": (lambda v: energy(v, 1.0, -1.0), ValidationError),
    "alpha_from_beta.n": (lambda v: alpha_from_beta(v, 0.3), ValidationError),
    "FlowConfig.seed": (lambda v: FlowConfig(seed=v), ValidationError),
    "uniqueness_probe": (lambda v: uniqueness_probe(_PROBLEM, _CFG, v), ValidationError),
    "moment_gradient_check.order": (lambda v: moment_gradient_check(_UNIT, v, 1e-5),
                                    ValidationError),
    "spec order": (lambda v: moment_spec_from_json(_spec_doc(order=v)), ValidationError),
    "density order": (lambda v: density_from_json(_density_doc(order=v)), ValidationError),
    "target n": (lambda v: _target_from_spec({"kind": "state", "n": v}), DomainError),
    "target power": (lambda v: _target_from_spec({"kind": "gauss_power", "power": v}),
                     ValidationError),
    "GaussPower.power": (lambda v: GaussPower(v, 1.0), ValidationError),
}

TOLERANCE_SITES = {
    "FlowConfig.step": (lambda v: FlowConfig(step=v), ValidationError),
    "FlowConfig.tol_flow": (lambda v: FlowConfig(tol_flow=v), ValidationError),
    "fit_multipliers_1d": (
        lambda v: fit_multipliers_1d(MomentSpec1D((-INF, INF), ((2, 1.0),)), tol=v),
        ValidationError,
    ),
    "fit_multipliers_2d": (
        lambda v: fit_multipliers_2d(MomentSpec2D(((-1, 1), (-1, 1)), ((2, 0, 0.3),)), tol=v),
        ValidationError,
    ),
    "OscillatorState.beta": (lambda v: OscillatorState(0, 0, 1.0, v, -1.0, 1.0),
                             ValidationError),
    "alpha_from_beta": (lambda v: alpha_from_beta(0, v), ValidationError),
    "lambda_from_beta": (lambda v: lambda_from_beta(v), ValidationError),
    "moment_gradient_check.h": (lambda v: moment_gradient_check(_UNIT, 1, v), ValidationError),
    "taylor2_coeffs.h": (lambda v: taylor2_coeffs(lambda x, y: 1.0, 2, v), ValidationError),
    "gauss_power scale": (
        lambda v: _target_from_spec({"kind": "gauss_power", "power": 1, "scale": v}),
        ValidationError,
    ),
    "GaussPower.scale": (lambda v: GaussPower(1, v), ValidationError),
}

REAL_SITES = {
    "moment value": (lambda v: moment_spec_from_json(_spec_doc(value=v)), BAD_REALS),
    "support bound": (lambda v: moment_spec_from_json(_spec_doc(lo=v)),
                      {"nan": math.nan, "bool": False, "str": "0.5"}),
    "multiplier": (lambda v: density_from_json(_density_doc(value=v)), BAD_REALS),
    "factor location": (lambda v: density_from_json(_density_doc(zero=(v, 1.0))), BAD_REALS),
    "factor exponent": (lambda v: density_from_json(_density_doc(zero=(-1.0, v))), BAD_REALS),
    "EndpointFactors": (lambda v: EndpointFactors(singularities=((0.0, v),)), BAD_REALS),
    "GridProblem.b": (lambda v: GridProblem.harmonic(_PROBE, b=v), BAD_REALS),
    "Grid1D.x_min": (lambda v: Grid1D(v, 5.0, 11), BAD_REALS),
    "Grid1D.x_max": (lambda v: Grid1D(-5.0, v, 11), BAD_REALS),
    "OscillatorState.alpha": (lambda v: OscillatorState(0, 0, v, 0.5, -1.0, 1.0), BAD_REALS),
    "OscillatorState.lam": (lambda v: OscillatorState(0, 0, 1.0, 0.5, v, 1.0), BAD_REALS),
    "OscillatorState.energy": (lambda v: OscillatorState(0, 0, 1.0, 0.5, -1.0, v), BAD_REALS),
    "energy.alpha": (lambda v: energy(0, v, -1.0), BAD_REALS),
    "energy.lam": (lambda v: energy(0, 1.0, v), BAD_REALS),
    "fit_multipliers_1d.init": (
        lambda v: fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))),
                                     init=[v, 0.5]),
        BAD_REALS,
    ),
    "MomentSpec1D.support": (lambda v: MomentSpec1D((v, 2.0), ((1, 1.5),)), BAD_BOUNDS),
    "ExpFamilyDensity1D.support": (lambda v: ExpFamilyDensity1D(((0, 0.0),), (v, 2.0)),
                                   BAD_BOUNDS),
    "MomentSpec2D.support": (lambda v: MomentSpec2D(((v, 2.0), (0.0, 1.0)), ((2, 0, 0.3),)),
                             BAD_REALS),
    "ExpFamilyDensity2D.support": (lambda v: ExpFamilyDensity2D(((0, 0, 0.0),),
                                                                ((0.0, 1.0), (v, 2.0))),
                                   BAD_REALS),
    "partial_sums.y": (lambda v: partial_sums("exp_xy", 0.5, 10, y=v), BAD_REALS),
    "binomial_series_eval.a": (lambda v: binomial_series_eval(v, -1.0, 0.5, 10), BAD_REALS),
    "binomial_series_eval.k": (lambda v: binomial_series_eval(1.0, v, 0.5, 10), BAD_REALS),
    "binomial_series_eval.x": (lambda v: binomial_series_eval(1.0, -1.0, v, 10), BAD_REALS),
    "two_var_series_eval.x": (lambda v: two_var_series_eval("binomial_xy", v, 0.5, 10, k=-1.0),
                              BAD_REALS),
    "two_var_series_eval.y": (lambda v: two_var_series_eval("binomial_xy", 0.5, v, 10, k=-1.0),
                              BAD_REALS),
    "two_var_series_eval.k": (lambda v: two_var_series_eval("binomial_xy", 0.5, 0.5, 10, k=v),
                              BAD_REALS),
    "find_root.lo": (lambda v: find_root(lambda x: x, v, 2.0), BAD_REALS),
    "find_root.hi": (lambda v: find_root(lambda x: x, -1.0, v), BAD_REALS),
    # NaN end values pass and then fail the sign test as a BracketError;
    # False (0) and True (1) would make a sign change
    "find_root.f_lo": (lambda v: find_root(lambda x: v if x < 0.0 else x, -1.0, 1.0),
                       {"bool": False, "str": "-1"}),
    "find_root.f_hi": (lambda v: find_root(lambda x: v if x > 0.0 else x, -1.0, 1.0),
                       {"bool": True, "str": "1"}),
}

_STATE = OscillatorState(0, 0, 1.0, 0.5, -1.0, 1.0)


def _resume(psi):
    """Run ``nls ground`` on 16 points from a --resume document holding psi."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resume.json"
        path.write_text(json.dumps({"psi": psi}, default=np.ndarray.tolist))
        args = cli._PARSER.parse_args(["nls", "ground", "--domain", "-4", "4", "--grid", "16",
                                       "--resume", str(path)])
        return args.handler(args)


# every array input: the call, a valid input as a list of integral floats,
# and whether each entry must also be finite
ARRAY_SITES = {
    "QuadratureRule.nodes": (lambda v: QuadratureRule(v, [1.0, 1.0, 1.0]),
                             [0.0, 1.0, 2.0], True),
    "QuadratureRule.weights": (lambda v: QuadratureRule([0.0, 1.0, 2.0], v),
                               [1.0, 1.0, 1.0], True),
    "hermite_eval": (lambda v: hermite_eval(2, v), [0.0, 1.0], False),
    "psi_eval": (lambda v: psi_eval(_STATE, v), [0.0, 1.0], False),
    "psi_deriv": (lambda v: psi_deriv(_STATE, v), [0.0, 1.0], False),
    "psi_second_derivative": (lambda v: psi_second_derivative(_STATE, v), [0.0, 1.0], False),
    "eigen_residual": (lambda v: eigen_residual(_STATE, v), [0.0, 1.0], False),
    "density_values": (lambda v: density_values(_UNIT, v), [0.0, 1.0], False),
    "fit_multipliers_1d.init": (
        lambda v: fit_multipliers_1d(MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), init=v),
        [0.0, 1.0], True,
    ),
    "GridProblem.potential": (lambda v: GridProblem(_PROBE, v), [0.0, 1.0, 2.0, 1.0, 0.0], True),
    "GroundStateSolution.psi": (lambda v: GroundStateSolution(v, 0.5, 0.0, 1, 0.0),
                                [0.0, 1.0, 1.0, 1.0, 0.0], True),
    # nls._start_state, which every solve starts from
    "ground_state.init": (lambda v: ground_state(GridProblem.harmonic(_PROBE), _CFG, init=v),
                          [0.0, 1.0, 1.0, 1.0, 0.0], True),
    "PowerSeries2D.coefficients": (lambda v: PowerSeries2D(v, 1), [[1.0, 0.0], [0.0, 0.0]],
                                   True),
    "--resume": (_resume, [0.0] + [1.0] * 14 + [0.0], True),
}


def _with_entry(values, index, entry):
    """A copy of the nested list values whose first (index 0) or last
    (index -1) scalar entry is entry."""
    if not isinstance(values, list):
        return entry
    copy = list(values)
    copy[index] = _with_entry(values[index], index, entry)
    return copy


def _first(values):
    return _first(values[0]) if isinstance(values, list) else values


def _bad_arrays(good, finite):
    """A bool and a numeric string equal to the first entry, a ragged input,
    and NaN and inf entries where every entry must be finite."""
    bad = {"bool": _with_entry(good, 0, bool(_first(good))),
           "str": _with_entry(good, 0, repr(_first(good))),
           "ragged": [good, [_first(good)]]}
    if finite:
        bad.update(nan=_with_entry(good, 0, math.nan), inf=_with_entry(good, -1, INF))
    return bad


ARRAY_CASES = [pytest.param(call, bad, id=f"{site}-{label}")
               for site, (call, good, finite) in ARRAY_SITES.items()
               for label, bad in _bad_arrays(good, finite).items()]


@pytest.mark.parametrize("call, bad", ARRAY_CASES)
def test_bad_array_entry_raises_validation_error(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


ARRAY_GOOD = [pytest.param(call, good, id=site) for site, (call, good, _) in ARRAY_SITES.items()]
# a resumed state whose pinned ends were written as the integer 0
ARRAY_GOOD.append(pytest.param(_resume, [0] + [1.0] * 14 + [0], id="--resume-integer-ends"))


@pytest.mark.parametrize("call, good", ARRAY_GOOD)
def test_array_site_takes_a_list_of_floats_and_an_integer_array(call, good):
    call(good)
    call(np.array(good, dtype=np.int64))


CASES = (
    [pytest.param(call, bad, err, id=f"{site}-{label}")
     for site, (call, err) in COUNT_SITES.items() for label, bad in BAD_COUNTS.items()]
    + [pytest.param(call, bad, err, id=f"{site}-{label}")
       for site, (call, err) in TOLERANCE_SITES.items() for label, bad in BAD_TOLERANCES.items()]
    + [pytest.param(call, bad, ValidationError, id=f"{site}-{label}")
       for site, (call, bads) in REAL_SITES.items() for label, bad in bads.items()]
)

BELOW_RANGE = {
    "gauss_legendre": lambda: QuadratureRule.gauss_legendre(0),
    "PowerSeries2D.truncation_order": lambda: PowerSeries2D(np.zeros((0, 0)), -1),
    "alpha_from_beta.n": lambda: alpha_from_beta(-1, 0.3),
    "energy": lambda: energy(-1, 1.0, -1.0),
}


@pytest.mark.parametrize("call", BELOW_RANGE.values(), ids=BELOW_RANGE.keys())
def test_count_out_of_range_raises(call):
    with pytest.raises(ValidationError, match=r"must be in \["):
        call()


@pytest.mark.parametrize("call, bad, error", CASES)
def test_bad_number_raises_typed_error(call, bad, error):
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (3, 3), (5, 0), (0, 5)])
def test_series2d_index_outside_the_triangle_raises(i, j):
    # a negative index would wrap to a_4j; (3, 3) lies in the zero padding
    # above total degree 4
    series = taylor2_coeffs(lambda x, y: math.exp(x + y), 4, 0.02)
    with pytest.raises(DomainError, match="must be in|i \\+ j <="):
        series.coefficient(i, j)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: solve_state(v),
        lambda v: Grid1D(-1.0, 1.0, v + 3),
        lambda v: hermite_eval(v, 0.3),
        lambda v: binomial_series_eval(1.0, -1.0, 0.5, v),
        lambda v: FlowConfig(seed=v + 1),
        lambda v: moment_spec_from_json(_spec_doc(order=v, value=0.9)),
        lambda v: alpha_from_beta(v, 0.3),
        lambda v: energy(v, 1.0, -1.0),
        lambda v: _SERIES2.coefficient(v, 1),
    ],
    ids=["solve_state", "Grid1D", "hermite_eval", "binomial_series_eval", "FlowConfig",
         "spec order", "alpha_from_beta", "energy", "PowerSeries2D.coefficient"],
)
def test_integral_float_counts_like_its_int(call):
    # repr, so that an integral float stored unconverted does not pass as 2 == 2.0
    assert repr(call(2.0)) == repr(call(2)) == repr(call(np.int64(2)))


# ---------------------------------------------------------------------------
# the helpers themselves


def _tagged(strategy, tag):
    return strategy.map(lambda v: (tag, v))


NUMPY_INTS = st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32])
NUMPY_FLOATS = st.sampled_from([np.float16, np.float32, np.float64])

VALUES = st.one_of(
    _tagged(st.integers(-(2**80), 2**80), "int"),
    _tagged(st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024)), "huge int"),
    _tagged(st.floats(), "float"),
    st.integers(-(10**6), 10**6).map(lambda i: ("float", float(i))),
    _tagged(st.tuples(NUMPY_INTS, st.integers(0, 100)).map(lambda p: p[0](p[1])), "numpy int"),
    _tagged(st.tuples(NUMPY_FLOATS, st.floats(-1e4, 1e4)).map(lambda p: p[0](p[1])),
            "numpy float"),
    _tagged(
        st.one_of(
            st.booleans(),
            st.sampled_from([np.bool_(True), np.bool_(False), None, 1j, Decimal("1"),
                             Fraction(1, 2), [1], (2.0,)]),
            st.text(max_size=4),
        ),
        "other",
    ),
)


def _real_value(tag, v):
    """The float a documented real stands for, or None outside the set."""
    if tag in ("int", "float", "numpy int", "numpy float"):
        return float(v)
    return None


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_as_number_accepts_exactly_the_reals(tagged):
    tag, v = tagged
    want = _real_value(tag, v)
    if want is None:
        with pytest.raises(ValidationError):
            _as_number(v, "x")
    else:
        got = _as_number(v, "x")
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_as_positive_accepts_exactly_finite_positive_reals(tagged):
    tag, v = tagged
    want = _real_value(tag, v)
    if want is None or not (want > 0 and math.isfinite(want)):
        with pytest.raises(ValidationError):
            _as_positive(v, "x")
    else:
        got = _as_positive(v, "x")
        assert type(got) is float and got == want


@settings(max_examples=400, deadline=None)
@given(VALUES, st.integers(-5, 5), st.integers(0, 10), st.sampled_from([ValidationError,
                                                                        DomainError]))
def test_as_int_accepts_exactly_integral_values_in_range(tagged, lo, span, error):
    tag, v = tagged
    if tag in ("int", "huge int", "numpy int"):
        want = int(v)
    elif tag in ("float", "numpy float") and math.isfinite(v) and float(v).is_integer():
        want = int(v)
    else:
        want = None
    if want is None:
        with pytest.raises(error):
            _as_int(v, "x", error=error)
    else:
        got = _as_int(v, "x", error=error)
        assert type(got) is int and got == want
    if want is not None and lo <= want <= lo + span:
        assert _as_int(v, "x", lo, lo + span, error) == want
    else:
        with pytest.raises(error):
            _as_int(v, "x", lo, lo + span, error)


@pytest.mark.parametrize(
    "call, start",
    [
        (lambda: Grid1D(0.0, 1.0, [1.0] * 3000), "n_points must be an integer, got [1.0, 1.0"),
        (lambda: _as_int(10**3000, "x", 0, 5), "x must be in [0, 5], got 1000"),
    ],
    ids=["not an integer", "out of range"],
)
def test_as_int_message_abbreviates_a_long_value(call, start):
    # the value is shown through reprlib.repr, as _as_number shows it
    with pytest.raises(ValidationError) as info:
        call()
    message = str(info.value)
    assert message.startswith(start) and "..." in message
    assert len(message) < 100



# the array rule: an entry stands for a number exactly when _as_number takes it
ENTRIES = VALUES.filter(lambda tagged: not isinstance(tagged[1], (list, tuple)))


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=4))
def test_as_array_follows_the_number_rule_entry_by_entry(tagged):
    values = [v for _, v in tagged]
    wants = [_real_value(tag, v) for tag, v in tagged]
    if None in wants:
        with pytest.raises(ValidationError):
            _as_array(values, "x")
    else:
        got = _as_array(values, "x", (len(values),))
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(wants, dtype=float), equal_nan=True)


@pytest.mark.parametrize("values", [
    np.arange(3, dtype=np.int32),
    np.arange(3, dtype=np.uint8),
    np.arange(3.0, dtype=np.float32),
    np.array([0, 1.0, 2], dtype=object),
    (0, 1.0, np.int64(2)),
    [np.float16(0), 1, 2.0],
])
def test_as_array_takes_numeric_arrays_and_sequences(values):
    got = _as_array(values, "x", (3,))
    assert got.dtype == np.float64 and got.tolist() == [0.0, 1.0, 2.0]


# a long list of floats whose last entry alone is not a number
_LONG = [1.0] * 2047


@pytest.mark.parametrize("values", [np.array([True, False]), np.array(["1", "2"]),
                                    np.array([1 + 0j, 2]), np.array([1.0, "2"], dtype=object),
                                    np.bool_(True), "1.5", True, None, {"x": 1.0},
                                    [[1.0, 2.0], [3.0]], [np.zeros((2, 2)), np.zeros((2, 3))],
                                    _LONG + [True], _LONG + ["1.0"], _LONG + [10**400]],
                         ids=["bool array", "str array", "complex array", "object array",
                              "numpy bool", "str", "bool", "None", "dict", "ragged",
                              "ragged arrays", "float list ending in a bool",
                              "float list ending in a str", "float list ending in a huge int"])
def test_as_array_rejects_what_is_not_an_array_of_numbers(values):
    with pytest.raises(ValidationError):
        _as_array(values, "x")


def test_as_array_keeps_a_scalar_zero_dimensional_and_checks_the_shape():
    assert _as_array(1.5, "x").shape == _as_array(np.float64(1.5), "x").shape == ()
    with pytest.raises(ValidationError, match=r"x must have shape \(3,\), got \(2,\)"):
        _as_array([1.0, 2.0], "x", (3,))
    with pytest.raises(ValidationError, match=r"x must have shape \(1, 2\), got \(2,\)"):
        _as_array(np.zeros(2), "x", (1, 2))


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
def test_as_finite_array_rejects_a_non_finite_entry(bad):
    assert np.array_equal(_as_array([0.0, bad], "x"), [0.0, bad], equal_nan=True)
    with pytest.raises(ValidationError, match="x must be finite"):
        _as_finite_array([0.0, bad], "x")
    with pytest.raises(ValidationError, match="x must be finite"):
        _as_finite_array(np.array([[0.0], [bad]]), "x")
