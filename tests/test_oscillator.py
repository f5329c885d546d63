import math

import numpy as np
import pytest

from infoqm import (
    DomainError,
    Grid1D,
    NumericError,
    OscillatorState,
    ValidationError,
    alpha_from_beta,
    beta_closure_residual,
    eigen_residual,
    energy,
    lambda_from_beta,
    psi_deriv,
    psi_eval,
    psi_second_derivative,
    solve_state,
    state_information,
    table,
)
from infoqm import oscillator

from conftest import GOLDEN_TABLE, HERMITE_POINTS, reference_hermite


def linear_limit_state(n: int) -> OscillatorState:
    """Reference state with beta = 1/2: the linear-oscillator width."""
    alpha = alpha_from_beta(n, 0.5)
    return OscillatorState(n, n % 2, alpha, 0.5, 0.0, 0.0)


class TestScalarRelations:
    def test_alpha_linear_width(self):
        assert alpha_from_beta(0, 0.5) == pytest.approx(0.25 * math.log(math.pi), abs=1e-14)

    @pytest.mark.parametrize("n,beta,expected", [(0, 0.165957, 0.561903), (2, 0.265717, 1.483947)])
    def test_alpha_reference_rows(self, n, beta, expected):
        assert alpha_from_beta(n, beta) == pytest.approx(expected, abs=1e-5)

    def test_alpha_rejects_bad_beta(self):
        with pytest.raises(ValidationError):
            alpha_from_beta(0, 0.0)

    @pytest.mark.parametrize("n,k,beta", [(0, 0, 0.165957), (7, 1, 0.330258)])
    def test_closure_holds_on_reference_rows(self, n, k, beta):
        assert abs(beta_closure_residual(n, k, beta)) < 1e-4

    @pytest.mark.parametrize("n", range(21))
    def test_closure_increasing_on_the_bracket(self, n):
        # solve_state narrows [BETA_SCAN_LO, cap] and relies on one root there
        k = n % 2
        cap = oscillator._admissible_beta_cap(oscillator._norm_constant(n))
        betas = np.linspace(oscillator.BETA_SCAN_LO, cap, 2001)
        g = np.array([beta_closure_residual(n, k, b) for b in betas])
        assert np.all(np.diff(g) > 0.0)
        assert g[0] < 0.0 < g[-1]

    @pytest.mark.parametrize("call", [lambda n: alpha_from_beta(n, 1.0),
                                      lambda n: beta_closure_residual(n, n % 2, 1.0)],
                             ids=["alpha_from_beta", "beta_closure_residual"])
    def test_normalization_constant_overflow(self, call):
        # 2^n n! sqrt(pi) is a finite double up to n = 150
        assert math.isfinite(oscillator._norm_constant(oscillator._MAX_NORM_N))
        assert math.isfinite(call(oscillator._MAX_NORM_N))
        for n in (oscillator._MAX_NORM_N + 1, 170, 171, 200):
            with pytest.raises(NumericError, match=f"n = {n} overflows"):
                call(n)

    @pytest.mark.parametrize("call", [lambda: alpha_from_beta(150, 0.3),
                                      lambda: alpha_from_beta(100, 1e-300),
                                      lambda: beta_closure_residual(150, 0, 0.3)],
                             ids=["alpha_n150", "alpha_tiny_beta", "residual_n150"])
    def test_non_finite_result_raises(self, call):
        # the constant is finite, but its quotient by sqrt(2 beta) is not
        with pytest.raises(NumericError, match=r"not finite at n = \d+, beta = "):
            call()

    def test_closure_sign_at_small_beta(self):
        # the (2 alpha - 1) term dominates as beta -> 0+
        assert beta_closure_residual(0, 0, 1e-4) < 0.0

    def test_lambda_linear_limit_exact(self):
        assert lambda_from_beta(0.5) == 0.0

    @pytest.mark.parametrize("beta,expected", [(0.165957, -1.34046), (0.182575, -1.18673)])
    def test_lambda_reference_rows(self, beta, expected):
        assert lambda_from_beta(beta) == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("n,tol", [(0, 2e-5), (1, 5e-5), (7, 5e-5)])
    def test_energy_reference_rows(self, states, n, tol):
        s = states[n]
        assert energy(s.n, s.alpha, s.lam) == pytest.approx(GOLDEN_TABLE[n][3], abs=tol)


class TestSolveState:
    def test_reference_table(self, states):
        for n, (alpha, beta, lam, en) in GOLDEN_TABLE.items():
            s = states[n]
            assert s.k == n % 2
            assert abs(s.alpha - alpha) <= 2e-5
            assert abs(s.beta - beta) <= 2e-5
            assert abs(s.lam - lam) <= 1e-4
            assert abs(s.energy - en) <= 1e-4

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, (0.561903, 0.165957, -1.34046, 0.836186)),
            (4, (3.3791495, 0.312319, -0.488143, 5.00752)),
            (6, (5.7558755, 0.334322, -0.413460, 7.03368)),
        ],
    )
    def test_named_rows(self, states, n, expected):
        s = states[n]
        assert s.alpha == pytest.approx(expected[0], abs=2e-5)
        assert s.beta == pytest.approx(expected[1], abs=2e-5)
        assert s.lam == pytest.approx(expected[2], abs=1e-4)
        assert s.energy == pytest.approx(expected[3], abs=1e-4)

    def test_deterministic(self):
        a = solve_state(3)
        b = solve_state(3)
        assert (a.alpha, a.beta, a.lam, a.energy) == (b.alpha, b.beta, b.lam, b.energy)

    def test_branch_invariants_through_n20(self):
        # n = 0..20 is the whole domain of solve_state, and every state keeps a
        # margin from the branch's edges 2 alpha = 1 and lambda = 0 (smallest
        # 2 alpha - 1 is 0.1238, largest lambda -0.2785)
        for n in range(21):
            s = solve_state(n)
            assert 2.0 * s.alpha - 1.0 > 0.1
            assert s.lam < -0.25
            assert 0.0 < s.beta < 0.5

    def test_x2_coefficient_consistency(self, states):
        for s in states:
            assert abs(s.lam * 4.0 * s.beta - (4.0 * s.beta**2 - 1.0)) < 1e-10

    def test_energy_monotonic(self, states):
        energies = [s.energy for s in states]
        assert energies == sorted(energies)
        assert len(set(energies)) == len(energies)

    @pytest.mark.parametrize("n", [-1, 21])
    def test_out_of_range(self, n):
        with pytest.raises(DomainError):
            solve_state(n)

    @pytest.mark.parametrize("n", range(21))
    def test_public_residual_changes_sign_at_solved_width(self, n):
        # solve_state solves a private residual; the public one must agree
        beta = solve_state(n).beta
        g = beta_closure_residual(n, n % 2, beta)
        neighbours = [math.nextafter(beta, 0.0), math.nextafter(beta, math.inf)]
        assert g == 0.0 or any((g < 0.0) != (beta_closure_residual(n, n % 2, b) < 0.0)
                               for b in neighbours)

    def test_normalization(self, states):
        xs = Grid1D(-14.0, 14.0, 8001).points()
        for s in states:
            norm = np.trapezoid(psi_eval(s, xs) ** 2, xs)
            assert abs(norm - 1.0) < 1e-8


class TestTable:
    def test_shape_and_consistency(self, states):
        rows = table(7)
        assert len(rows) == 8
        for row, s in zip(rows, states):
            assert row == s

    def test_single_row(self):
        rows = table(0)
        assert len(rows) == 1 and rows[0].n == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            table(21)

    def test_width_solve_work(self, monkeypatch):
        # closure evaluations per state, the bracket's two ends included: the
        # width solve's work, counted exactly
        norms = []
        residual = oscillator._closure_residual

        def counted(norm, nk, beta):
            norms.append(norm)
            return residual(norm, nk, beta)

        monkeypatch.setattr(oscillator, "_closure_residual", counted)
        table(20)
        assert [norms.count(oscillator._norm_constant(n)) for n in range(21)] == [
            12, 13, 15, 15, 15, 14, 15, 16, 15, 14, 15, 16, 16, 14, 15, 14, 14, 14, 16, 15, 14]
        assert len(norms) == 307


class TestPsi:
    def test_ground_value_at_origin(self, states):
        # e^{-alpha_0} with the six-figure reference alpha
        assert psi_eval(states[0], 0.0) == pytest.approx(math.exp(-0.561903), abs=1e-5)

    def test_odd_state_vanishes_at_origin(self, states):
        assert psi_eval(states[1], 0.0) == 0.0

    def test_norm_on_coarser_grid(self, states):
        xs = Grid1D(-12.0, 12.0, 4001).points()
        norm = np.trapezoid(psi_eval(states[0], xs) ** 2, xs)
        assert abs(norm - 1.0) < 1e-8

    @pytest.mark.parametrize("n", range(8))
    def test_derivatives_match_finite_differences(self, states, n):
        s = states[n]
        h = 1e-5
        for x in (-1.7, 0.31, 2.4):
            fd1 = (psi_eval(s, x + h) - psi_eval(s, x - h)) / (2 * h)
            fd2 = (psi_eval(s, x + h) - 2 * psi_eval(s, x) + psi_eval(s, x - h)) / (h * h)
            assert psi_deriv(s, x) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
            assert psi_second_derivative(s, x) == pytest.approx(fd2, rel=1e-5, abs=1e-5)

    def test_first_derivative_is_the_recurrence_bit_for_bit(self):
        # H_{n-1} and H_n from one two-row recurrence round as the separate
        # runs of hermite_deriv and hermite_eval did; at n = 0, 2n H_{-1} = 0
        xs = np.concatenate((np.linspace(-12.0, 12.0, 8001), HERMITE_POINTS[-5:]))
        for s in table(20):
            scale = math.sqrt(2.0 * s.beta)
            u = scale * xs
            dh = 2.0 * s.n * reference_hermite(s.n - 1, u) if s.n else np.zeros_like(u)
            g = np.exp(-s.alpha - s.beta * xs * xs)
            expected = (scale * dh - 2.0 * s.beta * xs * reference_hermite(s.n, u)) * g
            assert psi_deriv(s, xs).tobytes() == expected.tobytes()

    def test_derivative_order_bound(self):
        # the Hermite recurrence's tested range, as for hermite_eval
        with pytest.raises(DomainError, match=r"^hermite order must be in \[0, 64\], got 65$"):
            psi_deriv(linear_limit_state(65), 0.5)

    @pytest.mark.parametrize("n", range(8))
    def test_second_derivative_closed_form(self, states, n):
        # psi'' = (4 b^2 x^2 - 2 b (2n+1)) psi for this family
        s = states[n]
        xs = np.linspace(-6, 6, 101)
        expected = (4 * s.beta**2 * xs**2 - 2 * s.beta * (2 * n + 1)) * psi_eval(s, xs)
        assert psi_second_derivative(s, xs) == pytest.approx(expected, abs=1e-12)


class TestEigenResidual:
    def test_even_states_solve_pointwise(self, states):
        xs = np.linspace(-5, 5, 201)
        for n in (0, 2):
            s = states[n]
            r = eigen_residual(s, xs)
            assert np.all(np.abs(r) < 1e-4 * np.abs(psi_eval(s, xs)) + 1e-10)

    def test_even_state_sample_point(self, states):
        assert abs(eigen_residual(states[2], 1.3)) < 1e-4

    def test_odd_state_uniform_shift(self, states):
        s = states[1]
        r = eigen_residual(s, 0.7)
        expected = -2.0 * s.beta * psi_eval(s, 0.7)
        assert r == pytest.approx(expected, rel=1e-4)

    def test_residual_identity_probe_grid(self, states):
        xs = np.linspace(-8.0, 8.0, 401)
        for s in states:
            psi = psi_eval(s, xs)
            shift = eigen_residual(s, xs) + 2.0 * s.k * s.beta * psi
            assert np.max(np.abs(shift)) <= 1e-6 * np.max(np.abs(psi))


class TestStateInformation:
    @pytest.mark.parametrize("n,expected", [(0, -1.623806), (1, -3.269236)])
    def test_solved_rows(self, states, n, expected):
        assert state_information(states[n]) == pytest.approx(expected, abs=1e-5)

    def test_linear_limit_state(self):
        s = linear_limit_state(0)
        assert state_information(s) == pytest.approx(-(0.5 * math.log(math.pi) + 0.5), abs=1e-12)

    def test_quadrature_cross_check(self, states):
        xs = Grid1D(-14.0, 14.0, 8001).points()
        for s in states:
            dens = psi_eval(s, xs) ** 2
            avg = np.trapezoid(dens * (-2 * s.alpha - 2 * s.beta * xs**2), xs)
            assert abs(avg - state_information(s)) < 1e-8

    def test_energy_equals_lambda_times_one_plus_information(self, states):
        for s in states:
            assert s.energy == pytest.approx(s.lam * (1.0 + state_information(s)), abs=1e-12)
