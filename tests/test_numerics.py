import functools
import math
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoqm import (
    BracketError,
    Grid1D,
    NumericError,
    QuadratureRule,
    ValidationError,
    find_root,
    hermite_eval,
)
from infoqm import numerics, oscillator
from infoqm.numerics import _hermite_rows, _poly_roots

from conftest import HERMITE_POINTS, SIGNED_COEFFS, reference_hermite


def same_bits(a, b) -> bool:
    """True iff a and b are float arrays or scalars of one shape and the
    same bits: -0.0 is not 0.0, and a NaN matches only its own pattern."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGrid:
    def test_spacing(self):
        g = Grid1D(0.0, 1.0, 101)
        assert g.spacing == pytest.approx(0.01)
        assert len(g.points()) == 101

    @pytest.mark.parametrize("args", [(1.0, 0.0, 10), (0.0, 0.0, 10), (0.0, 1.0, 2)])
    def test_invalid(self, args):
        with pytest.raises(ValidationError):
            Grid1D(*args)


class TestHermite:
    @pytest.mark.parametrize(
        "n,u,expected",
        [(0, 3.7, 1.0), (1, 0.5, 1.0), (2, 1.0, 2.0), (3, 1.0, -4.0), (4, 0.0, 12.0)],
    )
    def test_values(self, n, u, expected):
        assert hermite_eval(n, u) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [-1, 65, 300])
    def test_order_bounds(self, n):
        with pytest.raises(ValidationError):
            hermite_eval(n, 0.0)

    def test_orthogonality_under_gauss_hermite(self):
        rule = QuadratureRule.gauss_hermite(40)
        for m in range(9):
            for n in range(9):
                val = rule.weights @ (hermite_eval(m, rule.nodes) * hermite_eval(n, rule.nodes))
                if m == n:
                    exact = 2.0**n * math.factorial(n) * math.sqrt(math.pi)
                    assert abs(val - exact) <= 1e-9 * exact
                else:
                    assert abs(val) <= 1e-9 * 2.0 ** max(m, n) * math.factorial(max(m, n))

    def test_vectorized_matches_scalar(self):
        u = np.linspace(-2, 2, 11)
        vec = hermite_eval(5, u)
        assert vec == pytest.approx([hermite_eval(5, x) for x in u])

    @pytest.mark.parametrize("n", range(65))
    def test_one_row_case_is_the_recurrence_bit_for_bit(self, n):
        # hermite_eval reads _hermite_rows, and rounds as the recurrence it
        # ran on its own did
        assert same_bits(hermite_eval(n, HERMITE_POINTS), reference_hermite(n, HERMITE_POINTS))
        for u in (0.0, -0.0, 1e-300, 0.7):
            value = hermite_eval(n, u)
            assert type(value) is float
            assert same_bits(value, reference_hermite(n, np.array(u)))

    def test_rows_of_mixed_orders(self):
        # one recurrence gives every row its own order, each row on its own
        # points, whatever the orders' sequence; a row of order -1 reads 1
        for orders in ([3, -1, 64, 0, 1, 64, 17],  # mixed
                       [17, 3, 17, 64, 0, 3, -1, 2, 64, 1, 0, -1],  # unsorted, repeated
                       [-1, 0, -1, 0],  # all below 1
                       [64]):
            u = np.vstack([np.roll(HERMITE_POINTS, 7 * i) for i in range(len(orders))])
            rows = _hermite_rows(np.array(orders), u)
            assert rows.shape == u.shape
            for order, row, points in zip(orders, rows, u):
                assert same_bits(row, reference_hermite(max(order, 0), points)), orders

    def test_memory_stays_near_the_input(self):
        # the recurrence keeps its arrays at the orders asked for only: one
        # order-64 row peaks at 6 times its input's bytes, where a table of
        # all 65 orders would hold 65
        u = np.linspace(-3.0, 3.0, 200_000)
        tracemalloc.start()
        try:
            hermite_eval(64, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * u.nbytes


class TestQuadrature:
    def test_gauss_hermite_weight_sum(self):
        rule = QuadratureRule.gauss_hermite(24)
        assert abs(rule.weights.sum() - math.sqrt(math.pi)) < 1e-12

    @pytest.mark.parametrize(
        "nodes, weights, match",
        [
            ([[0.0, 1.0]], [[1.0, 1.0]], "must be 1-D"),
            ([], [], "not empty"),
            ([0.0, 1.0], [1.0, 1.0, 1.0], r"weights must have shape \(2,\)"),
            ([1.0, 0.0], [1.0, 1.0], "strictly increasing"),
        ],
        ids=["2-D", "empty", "unmatched", "decreasing"],
    )
    def test_malformed_rule_rejected(self, nodes, weights, match):
        with pytest.raises(ValidationError, match=match):
            QuadratureRule(nodes, weights)

    def test_hermite_weights_off_sqrt_pi_raise(self, monkeypatch):
        # the Gauss-Hermite builder checks its own weights: perturbed slopes
        # at the nodes move their sum off sqrt(pi) by about 3.5e-6.  The
        # cached rules go, so that order 7 is built again; a failed build
        # is not cached
        gauss_nodes = numerics._gauss_nodes

        def perturbed(*args):
            x, slope = gauss_nodes(*args)
            return x, slope * (1.0 + 1e-6)

        monkeypatch.setattr(numerics, "_gauss_nodes", perturbed)
        numerics._gauss_hermite.cache_clear()
        with pytest.raises(NumericError,
                           match=r"^Gauss-Hermite weights of order 7 do not sum to sqrt\(pi\)$"):
            QuadratureRule.gauss_hermite(7)


GAUSS_ORDERS = [1, 2, 3, 4, 5, 8, 13, 16, 24, 31, 40, 48, 64, 96, 100]


class TestGaussRules:
    # numpy.polynomial is the reference here only; the package builds its
    # rules by Newton's method on the three-term recurrences
    @pytest.mark.parametrize("n", GAUSS_ORDERS)
    def test_legendre_matches_leggauss(self, n):
        nodes, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(QuadratureRule.gauss_legendre(n).nodes - nodes)) <= 1e-15

    @pytest.mark.parametrize("n", GAUSS_ORDERS)
    def test_hermite_matches_hermgauss(self, n):
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        rule = QuadratureRule.gauss_hermite(n)
        assert np.all(np.abs(rule.nodes - nodes) <= 2e-15 * np.maximum(1.0, np.abs(nodes)))
        assert np.all(np.abs(rule.weights - weights) <= 1e-12 * weights)

    @pytest.mark.parametrize("n", GAUSS_ORDERS)
    def test_monomials_integrate_exactly(self, n):
        # degree < 2n is exact; the Hermite moments Gamma((k+1)/2) grow fast,
        # so their error is measured against sum w |x|^k
        legendre, hermite = QuadratureRule.gauss_legendre(n), QuadratureRule.gauss_hermite(n)
        for k in range(min(2 * n - 1, 60) + 1):
            even = k % 2 == 0
            assert abs(legendre.weights @ legendre.nodes**k - even * 2.0 / (k + 1)) <= 1e-13
            scale = hermite.weights @ np.abs(hermite.nodes) ** k
            exact = math.gamma((k + 1) / 2) if even else 0.0
            assert abs(hermite.weights @ hermite.nodes**k - exact) <= 1e-13 * scale

    def test_legendre_weights_sum_to_two(self):
        # measured: at most 8.9e-16
        for n in GAUSS_ORDERS:
            assert abs(QuadratureRule.gauss_legendre(n).weights.sum() - 2.0) <= 4e-15

    @pytest.mark.parametrize("n", [128, 192, 384, 768])
    def test_legendre_weights_at_many_nodes(self, n):
        # weights from P_n' with its x P_n term, which the rounded node leaves
        # nonzero: measured at most 1.8e-15 on the sum and 1.2e-16 on x^20
        rule = QuadratureRule.gauss_legendre(n)
        assert abs(rule.weights.sum() - 2.0) <= 4e-15
        x, w = 0.5 * (1.0 + rule.nodes), 0.5 * rule.weights   # on [0, 1]
        assert abs(w @ x**20 - 1.0 / 21.0) <= 1e-14

    def test_nodes_that_do_not_converge_raise(self, monkeypatch):
        # with no Newton step allowed the nodes never converge; an exception
        # is not cached, and 977 nodes are built nowhere else
        monkeypatch.setattr(numerics, "_GAUSS_NEWTON_CAP", 0)
        with pytest.raises(NumericError, match="^Gauss nodes of order 977 did not converge$"):
            QuadratureRule.gauss_legendre(977)

    def test_built_once_per_order(self):
        assert QuadratureRule.gauss_legendre(48) is QuadratureRule.gauss_legendre(48.0)
        assert QuadratureRule.gauss_hermite(7) is QuadratureRule.gauss_hermite(np.int64(7))

    def test_no_rule_is_built_at_import(self):
        code = ("import infoqm, infoqm.cli; from infoqm import numerics; "
                "print(numerics._gauss_legendre.cache_info().currsize, "
                "numerics._gauss_hermite.cache_info().currsize)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src})
        assert out.stdout.split() == ["0", "0"]


ZEROS = st.lists(st.sampled_from([0.0, -0.0]), max_size=3)


class TestPolyRoots:
    @settings(max_examples=500, deadline=None)
    @given(lead=ZEROS, coeffs=st.lists(SIGNED_COEFFS, min_size=1, max_size=9), trail=ZEROS)
    def test_bits_of_np_roots(self, lead, coeffs, trail):
        # degrees 0-8 between leading and trailing zeros; a list and an
        # array of the same coefficients give the same roots
        c = lead + coeffs + trail
        expected = np.roots(c)
        for got in (_poly_roots(c), _poly_roots(np.array(c))):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_overflowing_degree_one_raises_as_np_roots_does(self):
        with pytest.raises(np.linalg.LinAlgError), np.errstate(over="ignore"):
            np.roots([1e-300, 1e300])
        with pytest.raises(np.linalg.LinAlgError), np.errstate(over="ignore"):
            _poly_roots([1e-300, 1e300])

    def test_degree_one_takes_no_eigen_solve(self, monkeypatch):
        cases = [[2.0, -3.0], [0.0, -0.0, 4.0, 1.0, 0.0], [-5e-324, 1e-320], [3e-200, 7e-70]]
        expected = [np.roots(c).tobytes() for c in cases]
        calls = []
        eigvals = np.linalg.eigvals

        def spy(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        assert [_poly_roots(c).tobytes() for c in cases] == expected
        assert not calls
        # a ratio past 2^459 or a degree above 1 still eigen-solves
        _poly_roots([1.0, 1e139])
        _poly_roots([1.0, 0.0, -1.0])
        assert calls == [(1, 1), (2, 2)]

    def test_degree_one_ratio_sweep_matches_np_roots(self):
        # coefficient ratios from about 1e-300 to 1e300, subnormal
        # coefficients and the ends of the range eigvals leaves unscaled
        # included: the division inside it, eigvals outside, raising where
        # the ratio is not finite
        mags = [m * 10.0**e for e in range(-300, 301, 20) for m in (1.0, 3.7)]
        mags += [5e-324, 1e-320, 2.2e-310, 1.7e308, 2.0**-459, 2.0**459,
                 math.nextafter(2.0**-459, 0.0), math.nextafter(2.0**459, math.inf)]
        values = mags + [-v for v in mags]
        for c0 in values:
            for c1 in values:
                with np.errstate(over="ignore", under="ignore"):
                    try:
                        expected = np.roots([c0, c1])
                    except np.linalg.LinAlgError:
                        with pytest.raises(np.linalg.LinAlgError):
                            _poly_roots([c0, c1])
                        continue
                    got = _poly_roots([c0, c1])
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (c0, c1)


def bisection_reference(f, lo, hi):
    """find_root as plain bisection, under the same stopping rules."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid


def counted_solve(solver, f, lo, hi):
    """(root, evaluations of f) of solver on [lo, hi], the bracket's ends included."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root = solver(counted, lo, hi)
    return root, len(calls)


def end_values(f_lo, f_hi):
    """f with the value f_lo at 0, f_hi at 1 and x - 0.5 in between."""
    return lambda x: f_lo if x == 0.0 else f_hi if x == 1.0 else x - 0.5


def width_closure(n):
    """The residual and bracket that solve_state hands to find_root for state n."""
    norm = oscillator._norm_constant(n)
    residual = functools.partial(oscillator._closure_residual, norm, n + n % 2)
    return (residual, *oscillator._width_bracket(norm, n + n % 2))


def infinite_ends(x):
    return -math.inf if x == 0.0 else math.inf if x == 1.0 else x - 0.3


# functions that defeat interpolation, each on [0, 1]
HARD_ROOTS = {
    "x51": lambda x: x**51 - 1e-30,
    "step": lambda x: -1.0 if x < 0.7 else 1.0,
    "root10": lambda x: math.copysign(abs(x - 0.7) ** 0.1, x - 0.7),
    "atan": lambda x: math.atan(1e12 * (x - 0.3)),
    "infinite-ends": infinite_ends,
}


class TestFindRoot:
    @pytest.mark.parametrize("n", range(21))
    def test_width_is_the_bisection_width(self, n):
        # in at most 15 evaluations, the bracket's ends included; bisection takes 44-54
        residual, lo, hi = width_closure(n)
        root, calls = counted_solve(find_root, residual, lo, hi)
        assert root == counted_solve(bisection_reference, residual, lo, hi)[0]
        assert calls <= 15

    @pytest.mark.parametrize("n", range(21))
    def test_proved_bracket_keeps_the_width(self, n):
        # the bracket holds the width, strictly, inside the generic range
        # [BETA_SCAN_LO, min(2, cap)], on which plain bisection gives the
        # same width, bit for bit
        residual, lo, hi = width_closure(n)
        cap = oscillator._admissible_beta_cap(oscillator._norm_constant(n))
        beta = oscillator.solve_state(n).beta
        assert oscillator.BETA_SCAN_LO <= lo < beta < hi <= cap
        assert residual(lo) < 0.0 < residual(hi)
        assert find_root(residual, lo, hi) == bisection_reference(
            residual, oscillator.BETA_SCAN_LO, min(2.0, cap))

    @pytest.mark.parametrize("n", range(21))
    def test_closure_changes_sign_once_near_the_width(self, n):
        # what the bit-for-bit identity rests on: over 4096 doubles each side of
        # the width the computed residual changes sign exactly once
        residual, _, _ = width_closure(n)
        bits = np.float64(oscillator.solve_state(n).beta).view(np.int64)
        betas = np.arange(bits - 4096, bits + 4097, dtype=np.int64).view(np.float64)
        negative = [residual(beta) < 0.0 for beta in betas.tolist()]
        assert negative[0] and not negative[-1]
        assert sum(a != b for a, b in zip(negative, negative[1:])) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        slope=st.floats(1.0, 1e6) | st.floats(-1e6, -1.0),
        lo=st.floats(-100.0, 100.0),
        width=st.floats(1e-9, 100.0),
        at=st.floats(0.0, 1.0),
    )
    def test_monotone_affine_root_is_the_bisection_root(self, slope, lo, width, at):
        # |slope| >= 1 keeps every nonzero x - c nonzero after scaling
        hi = lo + width
        c = lo + at * (hi - lo)
        f = lambda x: slope * (x - c)
        assert find_root(f, lo, hi) == bisection_reference(f, lo, hi)

    @pytest.mark.parametrize("f", HARD_ROOTS.values(), ids=HARD_ROOTS.keys())
    def test_worst_case_near_bisection(self, f):
        root, calls = counted_solve(find_root, f, 0.0, 1.0)
        expected, reference_calls = counted_solve(bisection_reference, f, 0.0, 1.0)
        assert abs(root - expected) <= 2.0 * math.ulp(expected)
        assert calls <= 2 * reference_calls

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_cosine(self):
        assert find_root(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_identity(self):
        assert find_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "power,exact",
        [
            (3, "1.2599210498948731647672106072782283505702514647015"),
            (2, "1.4142135623730950488016887242096980785696718753769"),
        ],
        ids=["cube", "square"],
    )
    def test_root_within_one_ulp(self, power, exact):
        # no double lies strictly inside the final bracket, so the root is
        # within one ulp
        root = find_root(lambda x: x**power - 2.0, 1.0, 2.0)
        assert abs(Decimal(root) - Decimal(exact)) <= Decimal(math.ulp(root))

    @pytest.mark.parametrize("f_lo, f_hi, root", [(0.0, 1.0, 0.25), (-1.0, 0.0, 0.75)])
    def test_zero_end_is_the_root(self, f_lo, f_hi, root):
        # an exact zero at an end needs no evaluation inside the bracket
        calls = []

        def f(x):
            calls.append(x)
            return f_lo if x == 0.25 else f_hi if x == 0.75 else x - 0.5

        assert find_root(f, 0.25, 0.75) == root
        assert calls == [0.25, 0.75]

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError, match="lo < hi"):
            find_root(lambda x: x - 0.5, 1.0, 0.0)

    def test_no_sign_change(self):
        message = r"no sign change on \[-1.0, 1.0\]: f values 2.0, 2.0"
        with pytest.raises(BracketError, match=message):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("f_lo, f_hi", [(math.nan, 1.0), (-1.0, math.nan),
                                            (math.nan, math.nan), (1e-200, 1e-200),
                                            (-1e-200, -1e-200)])
    def test_nan_or_same_sign_end_values(self, f_lo, f_hi):
        # a product test passes NaN ends, and tiny same-sign ends whose product is 0
        with pytest.raises(BracketError):
            find_root(end_values(f_lo, f_hi), 0.0, 1.0)

    @pytest.mark.parametrize("f_lo, f_hi", [(-1e-200, 1e-200), (0.0, 1.0), (math.inf, 0.0),
                                            (-math.inf, math.inf)])
    def test_sign_change_or_zero_end_is_a_bracket(self, f_lo, f_hi):
        root = 0.0 if f_lo == 0.0 else 1.0 if f_hi == 0.0 else 0.5
        assert find_root(end_values(f_lo, f_hi), 0.0, 1.0) == root

    @pytest.mark.parametrize("bracket", [(-3.0,), None, (-3.0, -0.5, 7.0), [], 1.5])
    def test_bracket_that_is_not_a_pair_raises(self, bracket):
        # the one bracket rule checks the shape first: no IndexError or
        # TypeError, and no entry past the second ignored
        with pytest.raises(ValidationError, match=r"^bracket must be a pair lo, hi, got "):
            numerics._check_bracket(bracket)

    @pytest.mark.parametrize("bracket", [(-3.0, -0.5), [-3, -0.5], np.array([-3.0, -0.5])])
    def test_bracket_pair_is_two_floats(self, bracket):
        lo, hi = numerics._check_bracket(bracket)
        assert (lo, hi) == (-3.0, -0.5) and type(lo) is type(hi) is float

    def test_tiny_values_keep_their_signs(self):
        # f_lo * f_mid underflows to -0.0 here, which a product test reads as no sign change
        root = find_root(lambda x: (x - 0.3) * 1e-200, 0.0, 1.0)
        assert abs(root - 0.3) < 1e-12

    def test_deterministic(self):
        f = lambda x: math.sin(x) - 0.3
        assert find_root(f, 0.0, 1.0) == find_root(f, 0.0, 1.0)  # bit-identical
