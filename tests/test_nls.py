import math
from dataclasses import replace

import numpy as np
import pytest

from infoqm import (
    BracketError,
    ConvergenceError,
    FlowConfig,
    Grid1D,
    GridProblem,
    InstabilityError,
    ValidationError,
    discrete_energy,
    flow_gradient,
    gradient_flow_ground_state,
    ground_state,
    psi_eval,
    self_consistent_lambda,
    uniqueness_probe,
)
from infoqm import nls
from infoqm.nls import default_initial_guess, randomized_initial_guess

from conftest import GOLDEN_TABLE

GOLDEN_LAMBDA0 = GOLDEN_TABLE[0][2]


def harmonic_problem(n_points=512, half_width=10.0, b=0.0):
    return GridProblem.harmonic(Grid1D(-half_width, half_width, n_points), b=b)


def l2_distance(psi_a, psi_b, h):
    return math.sqrt(h * float(np.sum((psi_a - psi_b) ** 2)))


def normalized_on(grid, values):
    v = np.asarray(values, dtype=float).copy()
    v[0] = v[-1] = 0.0
    return v / math.sqrt(grid.spacing * float(np.sum(v * v)))


@pytest.fixture(scope="module")
def coarse_cfg():
    return FlowConfig(step=5e-4, tol_flow=1e-9, max_iters=400_000, seed=0)


@pytest.fixture(scope="module")
def coarse_self_consistent(coarse_cfg):
    problem = harmonic_problem(512)
    return self_consistent_lambda(problem, coarse_cfg)


class TestLinearFlow:
    def test_harmonic_ground_state(self, coarse_cfg):
        problem = harmonic_problem(512)
        sol = gradient_flow_ground_state(problem, coarse_cfg)
        assert abs(sol.mu - 0.5) < 1e-3
        grid = problem.grid
        exact = normalized_on(grid, np.exp(-0.5 * grid.points() ** 2))
        assert l2_distance(sol.psi, exact, grid.spacing) < 1e-3

    def test_box_first_mode(self):
        grid = Grid1D(0.0, math.pi, 257)
        problem = GridProblem(grid, np.zeros(grid.n_points))
        sol = gradient_flow_ground_state(problem, FlowConfig(step=1e-4, tol_flow=1e-9))
        assert abs(sol.mu - 0.5) < 1e-3
        exact = normalized_on(grid, np.sin(grid.points()))
        assert l2_distance(sol.psi, exact, grid.spacing) < 1e-3

    def test_norm_and_positivity(self, coarse_cfg):
        problem = harmonic_problem(512)
        sol = gradient_flow_ground_state(problem, coarse_cfg)
        h = problem.grid.spacing
        assert abs(h * float(np.sum(sol.psi**2)) - 1.0) < 1e-12
        assert np.min(sol.psi[1:-1]) > 0.0

    def test_single_step_preserves_norm(self, coarse_cfg):
        problem = harmonic_problem(256)
        grid = problem.grid
        psi = normalized_on(grid, default_initial_guess(grid))
        stepped = psi - coarse_cfg.step * flow_gradient(problem, psi)
        stepped = normalized_on(grid, stepped)
        assert abs(grid.spacing * float(np.sum(stepped**2)) - 1.0) < 1e-12


class TestNonlinearFlow:
    def test_matches_closed_form_at_reference_coefficient(self, states, coarse_cfg):
        problem = harmonic_problem(512, b=GOLDEN_LAMBDA0)
        sol = gradient_flow_ground_state(problem, coarse_cfg)
        grid = problem.grid
        exact = normalized_on(grid, psi_eval(states[0], grid.points()))
        assert l2_distance(sol.psi, exact, grid.spacing) < 2e-3
        assert abs(sol.mu - sol.b) < 1e-3  # near self-consistency already

    def test_energy_trace_nonincreasing(self):
        problem = harmonic_problem(512, b=-1.0)
        sol = gradient_flow_ground_state(problem, FlowConfig(step=5e-4, tol_flow=1e-8))
        trace = np.array(sol.energy_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_gradient_matches_energy_finite_difference(self):
        grid = Grid1D(-6.0, 6.0, 101)
        problem = GridProblem.harmonic(grid, b=-1.3)
        rng = np.random.default_rng(42)
        psi = normalized_on(grid, np.exp(-0.4 * grid.points() ** 2) * (1 + 0.1 * rng.uniform(-1, 1, 101)))
        g = flow_gradient(problem, psi)
        h = grid.spacing
        eps = 1e-6
        for _ in range(10):
            v = np.zeros(grid.n_points)
            v[1:-1] = rng.uniform(-1.0, 1.0, grid.n_points - 2)
            fd = (discrete_energy(problem, psi + eps * v) - discrete_energy(problem, psi - eps * v)) / (2 * eps)
            analytic = 2.0 * h * float(np.sum(g * v))
            assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestSelfConsistency:
    def test_lambda_close_to_reference(self, coarse_self_consistent, states):
        lam, sol = coarse_self_consistent
        assert abs(lam - GOLDEN_LAMBDA0) < 5e-3  # coarse-grid budget
        assert abs(sol.mu - lam) < 1e-6

    def test_stationarity_residual(self, coarse_self_consistent):
        lam, sol = coarse_self_consistent
        problem = harmonic_problem(512, b=lam)
        grid = problem.grid
        h = grid.spacing
        psi = sol.psi
        resid = np.zeros_like(psi)
        lap = (psi[:-2] - 2 * psi[1:-1] + psi[2:]) / (h * h)
        dens = np.maximum(psi[1:-1] ** 2, nls._EPS_LOG)
        resid[1:-1] = (
            -0.5 * lap
            + problem.potential[1:-1] * psi[1:-1]
            - lam * (1.0 + np.log(dens)) * psi[1:-1]
        )
        assert math.sqrt(h * float(np.sum(resid**2))) <= 1e-4

    def test_state_matches_closed_form(self, coarse_self_consistent, states):
        _, sol = coarse_self_consistent
        grid = Grid1D(-10.0, 10.0, 512)
        exact = normalized_on(grid, psi_eval(states[0], grid.points()))
        assert l2_distance(sol.psi, exact, grid.spacing) < 2e-3

    def test_grid_refinement_agreement(self):
        # coarse estimate first, then a 4x finer solve warm-started from it;
        # both tolerances resolve lambda far below the 1e-3 comparison target
        half_width = 16.0
        lam_1024, sol_1024 = self_consistent_lambda(
            harmonic_problem(1024, half_width=half_width),
            FlowConfig(step=4e-4, tol_flow=1e-8),
            f_tol=1e-5,
        )
        grid_fine = Grid1D(-half_width, half_width, 4096)
        interp = np.interp(
            grid_fine.points(), np.linspace(-half_width, half_width, 1024), sol_1024.psi
        )
        interp[interp <= 0] = 1e-12
        lam_4096, _ = self_consistent_lambda(
            GridProblem.harmonic(grid_fine),
            FlowConfig(step=5.5e-5, tol_flow=1e-7),
            bracket=(lam_1024 - 0.003, lam_1024 + 0.003),
            f_tol=1e-4,
            init=interp,
        )
        assert abs(lam_1024 - lam_4096) < 1e-3

    def test_bracket_without_sign_change(self):
        problem = harmonic_problem(192)
        cfg = FlowConfig(step=2e-3, tol_flow=1e-7)
        with pytest.raises(BracketError):
            self_consistent_lambda(problem, cfg, bracket=(-0.5, -0.1))


def dense_bordered_system(problem, u, b, m, free_b):
    """Dense bordered Jacobian and right-hand side of one Newton step."""
    h = problem.grid.spacing
    n = u.size
    log_d = np.log(np.maximum(u * u, nls._EPS_LOG))
    lap = (np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n)) / (h * h)
    h_op = -0.5 * lap + np.diag(problem.potential[1:-1])
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = h_op - np.diag(b * (3.0 + log_d) + m)
    jac[:n, n] = -(1.0 + log_d) * u if free_b else -u
    jac[n, :n] = 2.0 * h * u
    resid = np.append(h_op @ u - (b * (1.0 + log_d) + m) * u, h * float(u @ u) - 1.0)
    return jac, resid


def forced_newton_failure(*args, **kwargs):
    raise ConvergenceError("forced failure")


def one_step_flow_norm(problem, psi, step):
    stepped = normalized_on(problem.grid, psi - step * flow_gradient(problem, psi))
    return float(np.max(np.abs(stepped - psi))) / step


def assert_same_solution(a, b):
    assert np.array_equal(a.psi, b.psi)
    assert (a.mu, a.b, a.iterations, a.flow_norm, a.newton_steps) == (
        b.mu, b.b, b.iterations, b.flow_norm, b.newton_steps
    )
    assert a.energy_trace == b.energy_trace


class TestBorderedNewton:
    @pytest.mark.parametrize("free_b", [False, True])
    def test_step_matches_dense_solve(self, free_b):
        grid = Grid1D(-6.0, 6.0, 22)
        problem = GridProblem.harmonic(grid)
        rng = np.random.default_rng(3)
        u = np.exp(-0.2 * grid.points()[1:-1] ** 2) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, 20))
        b, m = -1.3, (0.0 if free_b else 0.2)
        jac, resid = dense_bordered_system(problem, u, b, m, free_b)

        def residual(x):  # x = (u, border unknown)
            b_x, m_x = (x[-1], m) if free_b else (b, x[-1])
            return dense_bordered_system(problem, x[:-1], b_x, m_x, free_b)[1]

        # the dense Jacobian is the derivative of the residual
        x0 = np.append(u, b if free_b else m)
        for k in range(x0.size):
            e = np.zeros_like(x0)
            e[k] = 1e-6
            fd = (residual(x0 + e) - residual(x0 - e)) / 2e-6
            assert np.max(np.abs(fd - jac[:, k])) <= 1e-6 * max(1.0, np.max(np.abs(jac[:, k])))
        expected = np.linalg.solve(jac, -resid)
        d_u, d_p = nls._newton_step(problem, u, b, m, free_b)
        assert np.max(np.abs(d_u - expected[:-1])) <= 1e-12
        assert abs(d_p - expected[-1]) <= 1e-12

    @pytest.mark.parametrize("b", [0.0, -1.3])
    def test_mu_is_dense_rayleigh_quotient(self, b):
        # a pinned state that is neither normalized nor stationary
        grid = Grid1D(-6.0, 6.0, 40)
        problem = GridProblem.harmonic(grid, b=b)
        psi = np.zeros(grid.n_points)
        psi[1:-1] = np.random.default_rng(5).uniform(0.1, 2.0, grid.n_points - 2)
        u = psi[1:-1]
        h = grid.spacing
        h_op = dense_bordered_system(problem, u, 0.0, 0.0, False)[0][:-1, :-1]
        log_d = np.log(np.maximum(u * u, nls._EPS_LOG))
        expected = h * float(u @ h_op @ u) - b * h * float((u * u) @ log_d)
        assert abs(discrete_energy(problem, psi) - expected) <= 1e-12 * abs(expected)

    def test_root_independent_of_initial_guess(self):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        grid = problem.grid
        inits = [default_initial_guess(grid)] + [randomized_initial_guess(grid, 9, i) for i in (0, 1)]
        results = [self_consistent_lambda(problem, cfg, init=init) for init in inits]
        roots = [lam for lam, _ in results]
        assert all(sol.newton_steps > 0 for _, sol in results)
        assert max(roots) - min(roots) <= 1e-12

    def test_bisection_fallback_when_newton_fails(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        lam_newton, _ = self_consistent_lambda(problem, cfg)
        monkeypatch.setattr(nls, "_bordered_newton", forced_newton_failure)
        lam, sol = self_consistent_lambda(problem, cfg)
        assert sol.newton_steps == 0
        assert abs(sol.mu - lam) < 1e-6
        assert abs(lam - lam_newton) < 1e-5

    def test_bisection_midpoints_are_newton_states(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        lam_newton, _ = self_consistent_lambda(problem, cfg)
        fixed_b_newton = nls._bordered_newton

        def free_b_failure(problem, psi, free_b):
            if free_b:
                raise ConvergenceError("forced failure")
            return fixed_b_newton(problem, psi, free_b)

        monkeypatch.setattr(nls, "_bordered_newton", free_b_failure)
        lam, sol = self_consistent_lambda(problem, cfg)
        assert abs(lam - lam_newton) < 1e-5
        assert abs(sol.mu - lam) < 1e-6
        assert sol.newton_steps > 0

    def test_work_totals_cover_every_kept_state(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        loose, flows, newton = [], [], []
        loose_phase, flow, bordered_newton = (
            nls._loose_phase, nls.gradient_flow_ground_state, nls._bordered_newton
        )

        def counted_loose(problem, psi):
            out = loose_phase(problem, psi)
            loose.append(out[1])
            return out

        def counted_flow(problem, cfg, init=None):
            sol = flow(problem, cfg, init)
            flows.append(sol.iterations)
            return sol

        def counted_newton(problem, psi, free_b):
            out = bordered_newton(problem, psi, free_b)
            newton.append(out[3])
            return out

        monkeypatch.setattr(nls, "_loose_phase", counted_loose)
        monkeypatch.setattr(nls, "gradient_flow_ground_state", counted_flow)
        monkeypatch.setattr(nls, "_bordered_newton", counted_newton)
        _, sol = self_consistent_lambda(problem, cfg)
        assert len(loose) == 3  # both ends and the root step
        assert not flows
        assert sol.iterations == sum(loose)
        assert sol.newton_steps == sum(newton)

        # with every Newton solve failing, each kept state is a full flow;
        # the loose phases before the failed Newton solves are not counted
        loose.clear()
        monkeypatch.setattr(nls, "_bordered_newton", forced_newton_failure)
        _, sol = self_consistent_lambda(problem, cfg)
        assert len(flows) > 2  # both ends and at least one midpoint
        assert len(loose) == len(flows) + 1  # and the root step
        assert sol.iterations == sum(flows)
        assert sol.newton_steps == 0

    def test_returned_state_is_flow_stationary(self, coarse_self_consistent, coarse_cfg):
        lam, sol = coarse_self_consistent
        problem = harmonic_problem(512, b=lam)
        assert sol.newton_steps > 0
        assert sol.b == lam
        assert one_step_flow_norm(problem, sol.psi, coarse_cfg.step) < coarse_cfg.tol_flow
        assert sol.flow_norm < coarse_cfg.tol_flow
        assert sol.energy_trace[-1] == discrete_energy(problem, sol.psi)


class TestFixedBNewton:
    CFG = FlowConfig(step=5e-3, tol_flow=1e-9)

    @pytest.mark.parametrize("b", [0.0, -1.3, -2.5])
    def test_agrees_with_full_flow(self, b):
        problem = harmonic_problem(256, half_width=12.0, b=b)
        grid = problem.grid
        inits = [default_initial_guess(grid)] + [randomized_initial_guess(grid, 9, i) for i in (0, 1)]
        for init in inits:
            flowed = gradient_flow_ground_state(problem, self.CFG, init=init)
            sol = ground_state(problem, self.CFG, init=init)
            assert sol.newton_steps > 0
            assert sol.iterations < flowed.iterations
            assert sol.b == b
            assert abs(sol.mu - flowed.mu) <= 1e-9
            assert l2_distance(sol.psi, flowed.psi, grid.spacing) <= 1e-5

    def test_returned_state_is_flow_stationary(self):
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        sol = ground_state(problem, self.CFG)
        assert sol.newton_steps > 0
        assert one_step_flow_norm(problem, sol.psi, self.CFG.step) < self.CFG.tol_flow
        assert sol.flow_norm < self.CFG.tol_flow
        assert sol.energy_trace[-1] == discrete_energy(problem, sol.psi)

    def test_flow_fallback_when_newton_fails(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        init = randomized_initial_guess(problem.grid, 9, 0)
        monkeypatch.setattr(nls, "_bordered_newton", forced_newton_failure)
        sol = ground_state(problem, self.CFG, init=init)
        assert sol.newton_steps == 0
        assert_same_solution(sol, gradient_flow_ground_state(problem, self.CFG, init=init))

    def test_flow_fallback_when_newton_state_does_not_verify(self):
        # at this step the Newton state's one-step flow norm is 1.4e-13,
        # rounding error alone, while the flow itself gets below 1e-13
        problem = harmonic_problem(256, b=-1.3)
        cfg = FlowConfig(step=8e-4, tol_flow=1e-13)
        newton = ground_state(problem, replace(cfg, tol_flow=1e-9))
        assert newton.newton_steps > 0
        assert one_step_flow_norm(problem, newton.psi, cfg.step) >= cfg.tol_flow
        sol = ground_state(problem, cfg)
        assert sol.newton_steps == 0
        assert_same_solution(sol, gradient_flow_ground_state(problem, cfg))

    def test_flow_fallback_when_loose_phase_hits_its_cap(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        init = randomized_initial_guess(problem.grid, 9, 0)
        monkeypatch.setattr(nls, "_LOOSE_CAP", 1)
        sol = ground_state(problem, self.CFG, init=init)
        assert sol.newton_steps == 0
        assert_same_solution(sol, gradient_flow_ground_state(problem, self.CFG, init=init))

    def test_invalid_init_raises_validation_error(self):
        problem = harmonic_problem(64)
        init = -np.ones(64)
        with pytest.raises(ValidationError):
            ground_state(problem, self.CFG, init=init)


class TestLoosePhase:
    @pytest.mark.parametrize("b", [0.0, -1.3, -3.0])
    def test_newton_state_is_a_fixed_point(self, b):
        problem = harmonic_problem(512, b=b)
        sol = ground_state(problem, FlowConfig(step=1e-3, tol_flow=1e-9))
        assert sol.newton_steps > 0
        out = np.empty_like(sol.psi)
        nls._semi_implicit_step(problem, sol.psi, nls._LOOSE_TAU, out)
        assert float(np.max(np.abs(out - sol.psi))) < 1e-12

    @pytest.mark.parametrize("n_points, step", [(256, 5e-3), (512, 1.5e-3)])
    def test_newton_path_from_every_start(self, n_points, step):
        base = harmonic_problem(n_points, half_width=12.0)
        cfg = FlowConfig(step=step, tol_flow=1e-9)
        grid = base.grid
        inits = [None, randomized_initial_guess(grid, 13, 0), randomized_initial_guess(grid, 13, 1)]
        inits += [ground_state(base.with_b(b), cfg).psi for b in (-3.0, -0.5)]
        for b in (-3.0, -2.0, -1.34, -0.5):
            sols = [ground_state(base.with_b(b), cfg, init=init) for init in inits]
            assert all(sol.newton_steps > 0 for sol in sols)
            mus = [sol.mu for sol in sols]
            assert max(mus) - min(mus) <= 1e-10

    @pytest.mark.parametrize("n_points, half_width", [(512, 16.0), (1024, 20.0)])
    def test_linear_wide_domain_takes_newton_path(self, n_points, half_width):
        # the tails of the default guess are orders of magnitude too heavy
        # here; the loose norm weighs their relative change
        problem = harmonic_problem(n_points, half_width=half_width, b=0.0)
        sol = ground_state(problem, FlowConfig(step=5e-4, tol_flow=1e-9))
        assert sol.newton_steps > 0
        assert abs(sol.mu - 0.5) < 1e-3

    def test_underflow_raises_instability(self):
        # far tails below the smallest double: Newton cannot take a state
        # with zeros, so the loose phase raises and ground_state falls back
        problem = harmonic_problem(1024, half_width=50.0, b=0.0)
        with pytest.raises(InstabilityError):
            nls._loose_phase(problem, nls._start_state(problem.grid, None))

    def test_self_consistent_loose_steps_on_criterion_3_grid(self):
        problem = GridProblem.harmonic(Grid1D(-12.0, 12.0, 2048))
        _, sol = self_consistent_lambda(problem, FlowConfig(step=1e-4, tol_flow=1e-8))
        assert sol.newton_steps > 0
        assert sol.iterations <= 200

    def test_mu_is_the_final_energy(self, coarse_self_consistent):
        # one evaluation of the functional gives both, on every path
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        flowed = gradient_flow_ground_state(problem, TestFixedBNewton.CFG)
        newton = ground_state(problem, TestFixedBNewton.CFG)
        _, root = coarse_self_consistent
        assert flowed.newton_steps == 0
        assert newton.newton_steps > 0 and root.newton_steps > 0
        for sol in (flowed, newton, root):
            assert sol.mu == sol.energy_trace[-1]

    def test_energy_trace_starts_at_the_normalized_start_state(self):
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        init = randomized_initial_guess(problem.grid, 9, 0)
        sol = ground_state(problem, TestFixedBNewton.CFG, init=init)
        assert sol.newton_steps > 0
        assert sol.energy_trace[0] == discrete_energy(problem, normalized_on(problem.grid, init))


class TestUniquenessProbe:
    def test_requires_at_least_two_inits(self, coarse_cfg):
        with pytest.raises(ValidationError):
            uniqueness_probe(harmonic_problem(256), coarse_cfg, 1)

    def test_linear_fixed_coefficient_runs_agree(self):
        problem = harmonic_problem(256, b=0.0)
        cfg = FlowConfig(step=8e-4, tol_flow=1e-9, seed=11)
        report = uniqueness_probe(problem, cfg, 3, solve_lambda=False)
        assert not report.failures
        assert report.max_eigenvalue_spread < 1e-6
        assert all(abs(mu - 0.5) < 1e-3 for mu in report.eigenvalues)

    def test_randomized_guesses_are_seeded(self):
        grid = Grid1D(-10.0, 10.0, 128)
        a = randomized_initial_guess(grid, 7, 0)
        b = randomized_initial_guess(grid, 7, 0)
        c = randomized_initial_guess(grid, 7, 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a > 0.0)


class TestValidationAndErrors:
    def test_unstable_step_rejected(self):
        problem = harmonic_problem(512)
        with pytest.raises(ValidationError):
            gradient_flow_ground_state(problem, FlowConfig(step=1.0, tol_flow=1e-8))

    def test_step_against_potential_heuristic(self):
        problem = harmonic_problem(64, half_width=10.0)
        with pytest.raises(ValidationError):
            gradient_flow_ground_state(problem, FlowConfig(step=0.05, tol_flow=1e-8))

    def test_convergence_cap(self):
        problem = harmonic_problem(256)
        with pytest.raises(ConvergenceError):
            gradient_flow_ground_state(problem, FlowConfig(step=5e-4, tol_flow=1e-13, max_iters=10))

    def test_potential_shape_mismatch(self):
        grid = Grid1D(-1.0, 1.0, 64)
        with pytest.raises(ValidationError):
            GridProblem(grid, np.zeros(65))

    def test_max_iters_cap(self):
        with pytest.raises(ValidationError):
            FlowConfig(max_iters=2_000_000)

    def test_init_must_be_positive(self, coarse_cfg):
        problem = harmonic_problem(256)
        bad = np.ones(256)
        bad[100] = 0.0
        with pytest.raises(ValidationError):
            gradient_flow_ground_state(problem, coarse_cfg, init=bad)

    def test_init_shape(self, coarse_cfg):
        problem = harmonic_problem(256)
        with pytest.raises(ValidationError):
            gradient_flow_ground_state(problem, coarse_cfg, init=np.ones(17))

    def test_warm_restart_converges_immediately(self, coarse_cfg):
        problem = harmonic_problem(512)
        first = gradient_flow_ground_state(problem, coarse_cfg)
        again = gradient_flow_ground_state(problem, coarse_cfg, init=first.psi)
        assert again.iterations <= 50
        assert abs(again.mu - first.mu) < 1e-10
