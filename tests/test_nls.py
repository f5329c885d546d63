import contextlib
import importlib.util
import json
import math
import pathlib
import re
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


def pinned_gradient(problem, psi):
    """g = H psi - b (1 + L) psi of the pinned state psi at the problem's b,
    pinned at 0 at both ends."""
    return nls._pinned(nls._gradient(problem, psi, problem.b)[0])


def normalized_on(grid, values):
    v = np.asarray(values, dtype=float).copy()
    v[0] = v[-1] = 0.0
    return v / math.sqrt(grid.spacing * float(np.sum(v * v)))


@pytest.fixture(scope="module")
def coarse_cfg():
    return FlowConfig(step=5e-4, tol_flow=1e-9, seed=0)


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
        stepped = psi - coarse_cfg.step * pinned_gradient(problem, psi)
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
        g = pinned_gradient(problem, psi)
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
        # coarse estimate first, then a 4x finer solve warm-started from it
        half_width = 16.0
        lam_1024, sol_1024 = self_consistent_lambda(
            harmonic_problem(1024, half_width=half_width),
            FlowConfig(step=4e-4, tol_flow=1e-8),
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
            init=interp,
        )
        assert abs(lam_1024 - lam_4096) < 1e-3

    @pytest.mark.parametrize(
        "bracket", [(-0.5, -3.0), (-1.0, -1.0), (math.nan, -0.5), (-3.0, math.inf)]
    )
    def test_bad_bracket_rejected_before_any_solve(self, monkeypatch, bracket):
        calls = []
        solve = nls.ground_state

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(nls, "ground_state", counted)
        with pytest.raises(ValidationError):
            self_consistent_lambda(
                harmonic_problem(192, half_width=8.0), FlowConfig(step=2e-3), bracket=bracket
            )
        assert not calls

    def test_bracket_without_sign_change(self):
        problem = harmonic_problem(192)
        cfg = FlowConfig(step=2e-3, tol_flow=1e-7)
        with pytest.raises(BracketError):
            self_consistent_lambda(problem, cfg, bracket=(-0.5, -0.1))

    @pytest.mark.parametrize("root_end", ["hi", "lo"])
    def test_bracket_end_within_F_TOL_is_the_root(self, monkeypatch, root_end):
        # F(lambda*) = -2.2e-16 here, of the same sign as F(-3): an end within
        # _F_TOL is returned before the sign change is checked.  The first
        # attempt returns the free-b root, which lies within rounding of
        # lambda*; where it fails, the end itself is returned
        problem = harmonic_problem(96, half_width=8.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        lam, _ = self_consistent_lambda(problem, cfg)
        bracket = (-3.0, lam) if root_end == "hi" else (lam, -0.5)
        for first_attempt in (True, False):
            if not first_attempt:
                without_first_attempt(monkeypatch)
            got, sol = self_consistent_lambda(problem, cfg, bracket=bracket)
            assert got == sol.b and abs(got - lam) <= 1e-15
            assert abs(sol.mu - sol.b) < 1e-6
        assert root_end == "hi" or got == lam  # the lower end itself


def dense_bordered_system(problem, u, b, m, free_b):
    """Dense bordered Jacobian and right-hand side of one Newton step.
    Below the logarithm's floor (u^2 <= _EPS_LOG) the floored logarithm is a
    constant, so the derivative of b (1 + L) u there lacks the 2b term."""
    h = problem.grid.spacing
    n = u.size
    log_d = np.log(np.maximum(u * u, nls._EPS_LOG))
    above_floor = u * u > nls._EPS_LOG
    lap = (np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n)) / (h * h)
    h_op = -0.5 * lap + np.diag(problem.potential[1:-1])
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = h_op - np.diag(b * (1.0 + log_d + 2.0 * above_floor) + m)
    jac[:n, n] = -(1.0 + log_d) * u if free_b else -u
    jac[n, :n] = 2.0 * h * u
    resid = np.append(h_op @ u - (b * (1.0 + log_d) + m) * u, h * float(u @ u) - 1.0)
    return jac, resid


def dense_log_system(problem, u, b, m, free_b):
    """Dense bordered Jacobian and right-hand side of one Newton step in
    v = ln u, for d_u = u d_v: the u-block is J - diag(G / u)."""
    jac, resid = dense_bordered_system(problem, u, b, m, free_b)
    jac[:-1, :-1] -= np.diag(resid[:-1] / u)
    return jac, resid


def forced_newton_failure(*args, **kwargs):
    raise ConvergenceError("forced failure")


def without_first_attempt(monkeypatch):
    """Make the first attempt of self_consistent_lambda, the predicted
    root, fail at once, so that the lower end and the root continued from
    it are solved as where that attempt fails on its own."""
    monkeypatch.setattr(nls, "_predicted_root", forced_newton_failure)


def failing(attempt):
    """A Newton attempt made to fail at once, in place of ``attempt``."""
    return forced_newton_failure


def free_b_failure(attempt):
    """The Newton attempt ``attempt``, made to fail with b free."""
    def failing_free_b(problem, psi, bracket, cfg):
        if bracket is not None:
            raise ConvergenceError("forced failure")
        return attempt(problem, psi, bracket, cfg)
    return failing_free_b


def failures_into(failures):
    """A Newton attempt wrapper that appends the message of each attempt
    that fails to failures."""
    def recorded(attempt):
        def recorded_attempt(problem, psi, bracket, cfg):
            try:
                return attempt(problem, psi, bracket, cfg)
            except ConvergenceError as exc:
                failures.append(str(exc))
                raise
        return recorded_attempt
    return recorded


def wrap_attempts(monkeypatch, log=None, plain=None):
    """Wrap nls._newton so that each Newton attempt with the step rule in
    ln u runs as log(attempt) and each with the plain rule as
    plain(attempt), where attempt(problem, psi, bracket, cfg) is the attempt
    itself (bracket None at a fixed b); a wrapper of None leaves its
    attempts as they are.  Returns the wrappers by "log" and "plain", a dict
    that may be changed between solves."""
    wrappers = {"log": log, "plain": plain}
    newton = nls._newton

    def wrapped(problem, psi, bracket, cfg, step):
        def attempt(problem, psi, bracket, cfg):
            return newton(problem, psi, bracket, cfg, step)
        wrap = wrappers["log" if step is nls._log_step else "plain"]
        return (wrap(attempt) if wrap else attempt)(problem, psi, bracket, cfg)

    monkeypatch.setattr(nls, "_newton", wrapped)
    return wrappers


def one_step_flow_norm(problem, psi, step):
    stepped = normalized_on(problem.grid, psi - step * pinned_gradient(problem, psi))
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
        d_u, d_p = nls._plain_direction(problem, u, b, m, free_b)
        assert np.max(np.abs(d_u - expected[:-1])) <= 1e-12
        assert abs(d_p - expected[-1]) <= 1e-12

    @pytest.mark.parametrize("free_b", [False, True])
    def test_step_matches_dense_solve_at_the_log_floor(self, free_b):
        # the tails of exp(-x^2) on +-20 lie far below the floor, where the
        # Jacobian has no 2b term and the fixed-b step's one solve differs
        # from the border column's own solve
        grid = Grid1D(-20.0, 20.0, 64)
        problem = GridProblem.harmonic(grid)
        u = normalized_on(grid, np.exp(-grid.points() ** 2))[1:-1]
        assert int(np.sum(u * u <= nls._EPS_LOG)) == 28
        b, m = -1.3, (0.0 if free_b else 0.2)
        jac, resid = dense_bordered_system(problem, u, b, m, free_b)
        expected = np.linalg.solve(jac, -resid)
        d_u, d_p = nls._plain_direction(problem, u, b, m, free_b)
        # entry by entry, so that the tails count: they are near 1e-54 in d_u
        assert np.all(np.abs(d_u - expected[:-1]) <= 1e-13 * np.abs(expected[:-1]))
        assert abs(d_p - expected[-1]) <= 1e-13 * abs(expected[-1])

    @pytest.mark.parametrize("b", [0.0, -1e-8, -1.3])
    @pytest.mark.parametrize("free_b", [False, True])
    def test_log_step_matches_dense_solve(self, free_b, b):
        # J' is singular at b = 0 with null vector u, and nearly so just
        # below it; the bordered system is not, and the step solves it
        grid = Grid1D(-6.0, 6.0, 22)
        problem = GridProblem.harmonic(grid)
        rng = np.random.default_rng(3)
        u = np.exp(-0.2 * grid.points()[1:-1] ** 2) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, 20))
        m = 0.0 if free_b else 0.2
        jac, resid = dense_log_system(problem, u, b, m, free_b)

        def scaled_residual(x):  # x = (v, border unknown), G divided by u
            b_x, m_x = (x[-1], m) if free_b else (b, x[-1])
            r = dense_bordered_system(problem, np.exp(x[:-1]), b_x, m_x, free_b)[1]
            return np.append(r[:-1] / np.exp(x[:-1]), r[-1])

        # the dense Jacobian, with d_u = u d_v, is the derivative of G / u in v
        x0 = np.append(np.log(u), b if free_b else m)
        scale = np.append(u, 1.0)
        for k in range(x0.size):
            e = np.zeros_like(x0)
            e[k] = 1e-6
            fd = scale * (scaled_residual(x0 + e) - scaled_residual(x0 - e)) / 2e-6
            want = jac[:, k] * scale[k]
            assert np.max(np.abs(fd - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))
        expected = np.linalg.solve(jac, -resid)
        _, d_u, d_p, _ = nls._log_step(problem, u, b, m, free_b)
        assert np.max(np.abs(d_u - expected[:-1])) <= 1e-12 * np.max(np.abs(expected[:-1]))
        assert abs(d_p - expected[-1]) <= 1e-12 * max(1.0, abs(expected[-1]))

    @pytest.mark.parametrize("b", [0.0, -1e-8, -1.3])
    @pytest.mark.parametrize("free_b", [False, True])
    def test_log_step_matches_dense_solve_at_the_log_floor(self, free_b, b):
        # the split along u takes J' u = -2b u, which fails below the floor
        # by under 1e-50: entry by entry, the tails still match
        grid = Grid1D(-20.0, 20.0, 64)
        problem = GridProblem.harmonic(grid)
        u = normalized_on(grid, np.exp(-grid.points() ** 2))[1:-1]
        m = 0.0 if free_b else 0.2
        jac, resid = dense_log_system(problem, u, b, m, free_b)
        expected = np.linalg.solve(jac, -resid)
        _, d_u, d_p, _ = nls._log_step(problem, u, b, m, free_b)
        assert np.all(np.abs(d_u - expected[:-1]) <= 1e-13 * np.abs(expected[:-1]))
        assert abs(d_p - expected[-1]) <= 1e-13 * abs(expected[-1])

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

    def test_work_totals_cover_every_kept_state(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        loose, flows, log_newton, newton = [], [], [], []
        loose_phase, flow = nls._loose_phase, nls.gradient_flow_ground_state

        def counted_loose(problem, psi):
            out = loose_phase(problem, psi)
            loose.append(out[1])
            return out

        def counted_flow(problem, cfg, init=None):
            sol = flow(problem, cfg, init)
            flows.append(sol.iterations)
            return sol

        def counted(attempt, steps):
            def counted_attempt(problem, psi, bracket, cfg):
                out = attempt(problem, psi, bracket, cfg)
                steps.append(out[2])
                return out
            return counted_attempt

        monkeypatch.setattr(nls, "_loose_phase", counted_loose)
        monkeypatch.setattr(nls, "gradient_flow_ground_state", counted_flow)
        wrappers = wrap_attempts(monkeypatch, lambda attempt: counted(attempt, log_newton),
                                 lambda attempt: counted(attempt, newton))
        _, sol = self_consistent_lambda(problem, cfg)
        # the first attempt holds from the default guess: one fixed-b step
        # in ln u and one free-b Newton attempt in ln u, so neither the plain
        # solve nor a loose phase runs
        assert not loose and not flows and not newton
        assert len(log_newton) == 1
        assert sol.iterations == sum(loose) == 0
        assert sol.newton_steps == 1 + sum(log_newton)

        # with the first attempt made to fail, Newton in ln u holds from the
        # default guess at the lower end and then from that end's state
        log_newton.clear()
        without_first_attempt(monkeypatch)
        _, sol = self_consistent_lambda(problem, cfg)
        assert not loose and not flows and not newton
        assert len(log_newton) == 2  # the lower end and the continued root
        assert sol.iterations == sum(loose) == 0
        assert sol.newton_steps == sum(log_newton)

        # with Newton in ln u failing, from this start the plain Newton solve
        # at the lower end leaves the positive cone; the loose phase then
        # runs and is counted, and the failed attempts are not
        log_newton.clear()
        wrappers["log"] = failing
        init = randomized_initial_guess(problem.grid, 9, 1)
        _, sol = self_consistent_lambda(problem, cfg, init=init)
        assert len(loose) == 1 and not flows
        assert len(newton) == 2
        assert sol.iterations == sum(loose) > 0
        assert sol.newton_steps == sum(newton)

        # with every Newton solve failing, the lower end raises after its
        # loose phase: no full flow runs, and no other state is solved
        loose.clear()
        wrappers["plain"] = failing
        with pytest.raises(ConvergenceError, match="^forced failure$"):
            self_consistent_lambda(problem, cfg)
        assert not flows
        assert len(loose) == 1  # before the lower end's second Newton solve

    def test_returned_state_is_flow_stationary(self, coarse_self_consistent, coarse_cfg):
        lam, sol = coarse_self_consistent
        problem = harmonic_problem(512, b=lam)
        assert sol.newton_steps > 0
        assert sol.b == lam
        assert one_step_flow_norm(problem, sol.psi, coarse_cfg.step) < coarse_cfg.tol_flow
        assert sol.flow_norm < coarse_cfg.tol_flow
        assert sol.energy_trace[-1] == discrete_energy(problem, sol.psi)


def tridiagonal_case(n, kind, rng):
    """(diag, off) of an n-unknown system on [-12, 12]: an M-matrix like the
    semi-implicit step's, or the bordered Newton Jacobian's diagonal
    1/h^2 + V - b (3 + L) at b = -3 and u = exp(-x^2/2), which falls below
    2 |off|, and then below zero, in the tails."""
    h = 24.0 / (n + 1)
    off = -0.5 / (h * h)
    if kind == "dominant":
        return 2.0 * abs(off) + rng.uniform(0.1, 1.0, n), off
    x = np.linspace(-12.0, 12.0, n + 2)[1:-1]
    return 1.0 / (h * h) + 0.5 * x * x + 3.0 * (3.0 - x * x), off


class TestThomas:
    @pytest.mark.parametrize("kind", ["dominant", "newton"])
    @pytest.mark.parametrize("n_rhs", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 46, 510, 2046])
    def test_matches_dense_solve(self, n, n_rhs, kind):
        rng = np.random.default_rng(n)
        diag, off = tridiagonal_case(n, kind, rng)
        if kind == "newton" and n >= 46:
            assert np.any(np.abs(diag) < 2.0 * abs(off))
        rhs = rng.standard_normal((n_rhs, n))
        dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
        expected = np.linalg.solve(dense, rhs.T).T
        for r, want in zip(rhs, expected, strict=True):
            x = nls._thomas(diag, off, r)
            assert x.shape == (n,) and x.dtype == np.float64
            assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("diag, at", [([0.0, 1.0, 1.0], 0), ([1.0, 0.25, 1.0], 1),
                                          ([1.0, 1.0, 1.0 / 3.0], 2)],
                             ids=["first", "second", "last"])
    def test_zero_pivot_is_moved(self, diag, at):
        # the pivot at ``at`` comes out exactly 0 and is replaced by 2^-52 |off|:
        # each solution then solves the system with that diagonal entry so
        # moved, to the backward error of elimination without pivoting,
        # eps |L| |U| |x| (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2002, Thm. 9.3), whose growth the tiny pivot makes large
        off, tiny = 0.5, 2.0**-53
        pivots = [diag[0] or tiny]
        for d_i in diag[1:]:
            pivots.append(d_i - off * (off / pivots[-1]) or tiny)
        assert pivots[at] == tiny
        moved = np.array(diag)
        moved[at] += tiny
        dense = np.diag(moved) + off * (np.eye(3, k=1) + np.eye(3, k=-1))
        lower = np.eye(3) + np.diag([off / p for p in pivots[:-1]], -1)
        upper = np.diag(pivots) + off * np.eye(3, k=1)
        growth = np.abs(lower) @ np.abs(upper)
        rhs = np.array([[1.0, 1.0, 1.0], [1.0, -2.0, 3.0]])
        for r in rhs:
            x = nls._thomas(np.array(diag), off, r)
            assert np.all(np.isfinite(x))
            bound = 4.0 * np.finfo(float).eps * (growth @ np.abs(x))
            assert np.all(np.abs(dense @ x - r) <= bound)

    @pytest.mark.parametrize("kind", ["dominant", "newton"])
    @pytest.mark.parametrize("n", [63, 64, 65, 66, 127, 129, 4094])
    def test_matches_dense_solve_across_the_crossover(self, n, kind):
        # sizes on both sides of the sweep's limit, and ones whose reduction
        # levels leave odd and even remainders
        rng = np.random.default_rng(n)
        diag, off = tridiagonal_case(n, kind, rng)
        rhs = rng.standard_normal((2, n))
        expected = np.linalg.solve(dense_tridiagonal(diag, off), rhs.T).T
        for r, want in zip(rhs, expected, strict=True):
            x = nls._thomas(diag, off, r)
            assert x.shape == (n,) and x.dtype == np.float64
            assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_rhs", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 46, 63, 64])
    def test_sweep_limit_and_below_is_the_sequential_sweep(self, n, n_rhs):
        # up to _SWEEP_MAX unknowns no reduction level runs: the solve takes
        # the operations of the plain Thomas sweep, bit for bit
        assert nls._SWEEP_MAX == 64
        rng = np.random.default_rng(n)
        for kind in ("dominant", "newton"):
            diag, off = tridiagonal_case(n, kind, rng)
            rhs = rng.standard_normal((n_rhs, n))
            assert all(np.array_equal(nls._thomas(diag, off, r), thomas_sweep(diag, off, r))
                       for r in rhs)

    def test_log_jacobian_of_a_converged_state(self):
        # the Jacobian of a Newton step in ln u at b < 0, at the state Newton
        # converged to: J' u = -2b u > 0 with u > 0 and a negative
        # off-diagonal make it a symmetric M-matrix, so positive definite
        b = -2.0
        problem = harmonic_problem(1024, half_width=12.0, b=b)
        psi = ground_state(problem, FlowConfig(step=5e-4, tol_flow=1e-8)).psi
        u, off = psi[1:-1], -0.5 / problem.grid.spacing**2
        assert np.all(u * u > nls._EPS_LOG)
        diag = (psi[:-2] + psi[2:]) * (-off) / u - 2.0 * b
        dense = dense_tridiagonal(diag, off)
        assert np.all(dense @ u > 0.0) and np.linalg.eigvalsh(dense)[0] > 0.0
        rhs = np.random.default_rng(3).standard_normal((2, u.size))
        expected = np.linalg.solve(dense, rhs.T).T
        for r, want in zip(rhs, expected, strict=True):
            x = nls._thomas(diag, off, r)
            assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))

    def test_zero_pivot_in_a_reduction_level_is_moved(self):
        # diag[0] = 0 is the first pivot the first reduction level takes; it
        # is replaced by 2^-52 |off|, and each solution solves the system
        # with that entry so moved to the backward error eps |L| |U| |x| of
        # elimination without pivoting in the odd-even order the levels take
        n = 130
        diag, off = tridiagonal_case(n, "dominant", np.random.default_rng(5))
        diag[0] = 0.0
        order, rest = [], np.arange(n)
        while rest.size > nls._SWEEP_MAX:
            order += rest[0::2].tolist()
            rest = rest[1::2]
        order += rest.tolist()
        assert order[0] == 0 and n > nls._SWEEP_MAX
        moved = diag.copy()
        moved[0] = 2.0**-52 * abs(off)
        dense = dense_tridiagonal(moved, off)
        lower, upper = unpivoted_lu(dense[np.ix_(order, order)])
        growth = np.empty_like(dense)
        growth[np.ix_(order, order)] = np.abs(lower) @ np.abs(upper)
        rhs = np.random.default_rng(6).standard_normal((2, n))
        for r in rhs:
            x = nls._thomas(diag, off, r)
            assert np.all(np.isfinite(x))
            bound = 4.0 * np.finfo(float).eps * (growth @ np.abs(x))
            assert np.all(np.abs(dense @ x - r) <= bound)


def dense_tridiagonal(diag, off):
    """The dense symmetric tridiagonal matrix of diag and constant off."""
    n = diag.size
    dense = np.zeros((n, n))
    rows = np.arange(n)
    dense[rows, rows] = diag
    dense[rows[:-1], rows[1:]] = dense[rows[1:], rows[:-1]] = off
    return dense


def unpivoted_lu(a):
    """(L, U) of Gaussian elimination without pivoting on the dense a."""
    n = a.shape[0]
    lower, upper = np.eye(n), a.copy()
    for k in range(n - 1):
        lower[k + 1:, k] = upper[k + 1:, k] / upper[k, k]
        upper[k + 1:] -= np.outer(lower[k + 1:, k], upper[k])
    return lower, upper


def thomas_sweep(diag, off, rhs):
    """The sequential Thomas sweep over Python floats that _thomas took for
    every size before the reduction levels: one pass eliminates and sweeps
    the right-hand side forward, one sweeps back, and a pivot of exactly 0
    is replaced by 2^-52 |off|."""
    d, r = diag.tolist(), rhs.tolist()
    tiny = 2.0**-52 * abs(off)
    pivot = d[0] or tiny
    ratio = off / pivot
    y = r[0] / pivot
    ratios, forward = [ratio], [y]
    for d_i, r_i in zip(d[1:], r[1:]):
        pivot = d_i - off * ratio or tiny
        ratio = off / pivot
        y = (r_i - off * y) / pivot
        ratios.append(ratio)
        forward.append(y)
    x = y
    return np.array([x := y_i - q * x for y_i, q in zip(forward[-2::-1], ratios[-2::-1])][::-1]
                    + [y])


class TestWorkCounts:
    """Exact tridiagonal work: every _thomas call, attributed to the step
    that made it."""

    @staticmethod
    def counted(monkeypatch, solve):
        """Run solve() with counting wrappers; return the _thomas calls per
        step kind (fixed-b or free-b, in ln u or plain, or loose)."""
        log = []  # [kind, _thomas calls] of each step, in order
        thomas, loose_step = nls._thomas, nls._semi_implicit_step

        def counted_thomas(diag, off, rhs):
            log[-1][1] += 1
            return thomas(diag, off, rhs)

        def counted(step, prefix):
            def counted_step(problem, u, b, m, free_b):
                log.append([prefix + ("free_b" if free_b else "fixed_b"), 0])
                return step(problem, u, b, m, free_b)
            return counted_step

        def counted_loose_step(*args):
            log.append(["loose", 0])
            return loose_step(*args)

        monkeypatch.setattr(nls, "_thomas", counted_thomas)
        monkeypatch.setattr(nls, "_log_step", counted(nls._log_step, "log_"))
        monkeypatch.setattr(nls, "_newton_step", counted(nls._newton_step, ""))
        monkeypatch.setattr(nls, "_semi_implicit_step", counted_loose_step)
        solve()
        work = {}
        for kind, calls in log:
            # every step makes one _thomas call, and a plain free-b step two
            assert calls == (2 if kind == "free_b" else 1), kind
            work[f"{kind}_calls"] = work.get(f"{kind}_calls", 0) + calls
        return work

    def test_fixed_b_cold_start(self, monkeypatch):
        problem = harmonic_problem(2048, half_width=12.0, b=-2.0)
        cfg = FlowConfig(step=1e-4, tol_flow=1e-8)
        work = self.counted(monkeypatch, lambda: ground_state(problem, cfg))
        # one solve a step in ln u; the plain chain alone takes 8
        assert work == {"log_fixed_b_calls": 7}

    def test_criterion_3_solve(self, monkeypatch):
        problem = harmonic_problem(2048, half_width=12.0)
        cfg = FlowConfig(step=1e-4, tol_flow=1e-8)
        work = self.counted(monkeypatch, lambda: self_consistent_lambda(problem, cfg))
        # the first attempt: one fixed-b step at the lower end, then the
        # free-b root, one solve a step in ln u
        assert work == {"log_fixed_b_calls": 1, "log_free_b_calls": 6}

    def test_lower_end_and_continuation_of_the_criterion_3_solve(self, monkeypatch):
        # with the first attempt made to fail: the lower end at a fixed b,
        # then the free-b root continued from it, one solve a step in ln u;
        # the plain chain alone takes 7 fixed-b steps and 7 free-b steps of
        # two solves each
        problem = harmonic_problem(2048, half_width=12.0)
        cfg = FlowConfig(step=1e-4, tol_flow=1e-8)
        without_first_attempt(monkeypatch)
        work = self.counted(monkeypatch, lambda: self_consistent_lambda(problem, cfg))
        assert work == {"log_fixed_b_calls": 8, "log_free_b_calls": 6}

    def test_plain_chain_of_the_criterion_3_solve(self, monkeypatch):
        # with the first attempt and Newton in ln u made to fail, the plain
        # chain gives both states: each free-b step solves for the residual
        # and for the border column, one _thomas call each
        problem = harmonic_problem(2048, half_width=12.0)
        cfg = FlowConfig(step=1e-4, tol_flow=1e-8)
        without_first_attempt(monkeypatch)
        wrap_attempts(monkeypatch, log=failing)
        work = self.counted(monkeypatch, lambda: self_consistent_lambda(problem, cfg))
        assert work == {"fixed_b_calls": 7, "free_b_calls": 14}

    def test_probe_with_loose_phases(self, monkeypatch):
        # the first attempt holds from each start of this probe, where the
        # lower end and its continuation take 12 and 12 solves in ln u, and
        # the plain chain alone runs 26 loose steps besides 9 fixed-b and 14
        # free-b Newton steps
        problem = harmonic_problem(48, half_width=8.0)
        cfg = FlowConfig(step=0.02, tol_flow=1e-9, seed=0)
        work = self.counted(monkeypatch, lambda: uniqueness_probe(problem, cfg, 2))
        assert work == {"log_fixed_b_calls": 2, "log_free_b_calls": 12}

    def test_lambda_solve_from_a_perturbed_start(self, monkeypatch):
        # a narrow, rippled --resume-like state on the 512-point lambda grid
        # of the benchmark, from which the lower end and its continuation
        # take 13 solves in ln u, and the plain chain alone runs a loose
        # phase of 19 steps at the lower end, and 37 tridiagonal solves
        grid = Grid1D(-12.0, 12.0, 512)
        x, width = grid.points(), 24.0
        s = width / 8.0 * 0.7
        init = np.exp(-((x + 0.08 * width) ** 2) / (2.0 * s * s))
        for j, a in enumerate((0.08, 0.05, -0.06, 0.03, -0.02), start=1):
            init *= 1.0 + a * np.cos(j * np.pi * (x - grid.x_min) / width)
        cfg = FlowConfig(step=1.5e-3, tol_flow=1e-8)
        solved = []
        work = self.counted(monkeypatch, lambda: solved.append(
            self_consistent_lambda(GridProblem.harmonic(grid), cfg, init=init)))
        (lam, sol), = solved
        assert sol.iterations == 0 and abs(sol.mu - lam) <= 1e-12
        assert work == {"log_fixed_b_calls": 1, "log_free_b_calls": 6}


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

    @staticmethod
    def flow_calls(monkeypatch):
        """The problems each gradient_flow_ground_state call ran on."""
        calls = []
        flow = nls.gradient_flow_ground_state

        def spy(problem, cfg, init=None):
            calls.append(problem)
            return flow(problem, cfg, init)

        monkeypatch.setattr(nls, "gradient_flow_ground_state", spy)
        return calls

    def test_newton_failure_raises(self, monkeypatch):
        # Newton in ln u, the plain attempt and the one after the loose
        # phase all fail: the last error is raised, and no full flow runs
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        init = randomized_initial_guess(problem.grid, 9, 0)
        flows = self.flow_calls(monkeypatch)
        monkeypatch.setattr(nls, "_newton", forced_newton_failure)
        with pytest.raises(ConvergenceError, match="^forced failure$"):
            ground_state(problem, self.CFG, init=init)
        assert not flows

    def test_newton_state_that_does_not_verify_raises(self, monkeypatch):
        # rounding alone keeps this state's one-step flow norm at 1.4e-13,
        # at the scale eps max(psi) / step = 1.6e-13: Newton in ln u and
        # both plain attempts step on to the cap without verifying, and
        # each error gives both numbers; no full flow runs
        problem = harmonic_problem(256, half_width=8.0, b=-1.3)
        cfg = FlowConfig(step=8e-4, tol_flow=1e-13)
        newton = ground_state(problem, replace(cfg, tol_flow=1e-9))
        assert newton.newton_steps > 0
        assert one_step_flow_norm(problem, newton.psi, cfg.step) >= cfg.tol_flow
        failures = []

        wrap_attempts(monkeypatch, failures_into(failures), failures_into(failures))
        flows = self.flow_calls(monkeypatch)
        with pytest.raises(ConvergenceError) as raised:
            ground_state(problem, cfg)
        assert str(raised.value) == failures[-1] and len(failures) == 3
        for failure, name in zip(failures, ["Newton in ln u"] + ["bordered Newton"] * 2):
            floor = re.fullmatch(
                rf"{name} exceeded {nls._NEWTON_CAP} steps; at b = -1\.3 the flow norm (\S+) is "
                r"not below tol_flow 1e-13 \(eps\*max\(psi\)/step = (\S+)\)", failure)
            flow_norm, scale = (float(v) for v in floor.groups())
            assert flow_norm >= 1e-13 and 0.1 < flow_norm / scale < 10.0
        assert not flows

    def test_newton_steps_on_until_the_state_verifies(self):
        # on 64 points the quartic's tails near 1e-9 still move by 4% a
        # step when max |d_u| first falls below _NEWTON_TOL max u: the
        # flow norm there is 3.3e-9, far above rounding, and Newton steps
        # on until it is below tol_flow
        problem, cfg = stable_problem("quartic", 64, half_width=8.0)
        problem = problem.with_b(-0.5)
        cfg = replace(cfg, tol_flow=1e-10)
        early = ground_state(problem, replace(cfg, tol_flow=1.0))
        scale = np.finfo(float).eps * float(early.psi.max()) / cfg.step
        assert early.flow_norm > 1e4 * scale and early.flow_norm > cfg.tol_flow
        sol = ground_state(problem, cfg)
        assert sol.iterations == 0 and sol.newton_steps > early.newton_steps
        assert sol.flow_norm < cfg.tol_flow
        assert one_step_flow_norm(problem, sol.psi, cfg.step) < cfg.tol_flow
        assert abs(sol.mu - early.mu) < 1e-12

    def test_loose_phase_cap_raises(self, monkeypatch):
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        init = randomized_initial_guess(problem.grid, 9, 0)
        flows = self.flow_calls(monkeypatch)
        calls = []

        def direct_failure(attempt):
            # the attempts in ln u and plain fail, so the loose phase runs
            def first_fails(problem, psi, bracket, cfg):
                calls.append(bracket)
                if len(calls) == 1:
                    raise ConvergenceError("forced failure")
                return attempt(problem, psi, bracket, cfg)
            return first_fails

        wrap_attempts(monkeypatch, failing, direct_failure)
        monkeypatch.setattr(nls, "_LOOSE_CAP", 1)
        with pytest.raises(ConvergenceError, match="^loose phase did not reach 0.01 in 1 steps"):
            ground_state(problem, self.CFG, init=init)
        assert calls == [None]  # the loose phase raised before a second Newton solve
        assert not flows

    def test_exactly_singular_shift_is_solved_by_newton(self, monkeypatch):
        # three unknowns at b = 0: the last fixed-b step is an inverse
        # iteration whose shift is mu to the last bit, so _thomas meets an
        # exact zero pivot; Newton ends on the grid operator's lowest
        # eigenvalue all the same
        problem = GridProblem.harmonic(Grid1D(-0.5, 0.5, 5))
        zero_pivots = []
        thomas = nls._thomas

        def recorded(diag, off, *rhs):
            d = diag.tolist()
            pivot = d[0]
            for d_i in d[1:]:
                if pivot == 0.0:
                    break
                pivot = d_i - off * (off / pivot)
            zero_pivots.append(pivot == 0.0)
            return thomas(diag, off, *rhs)

        monkeypatch.setattr(nls, "_thomas", recorded)
        sol = ground_state(problem, FlowConfig(), init=np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert any(zero_pivots)
        assert sol.newton_steps > 0
        h = problem.grid.spacing
        dense = (np.diag(1.0 / (h * h) + problem.potential[1:-1])
                 - 0.5 / (h * h) * (np.eye(3, k=1) + np.eye(3, k=-1)))
        assert abs(sol.mu - np.linalg.eigvalsh(dense)[0]) <= 1e-15

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

    def test_loose_phase_forms_no_gradient(self, monkeypatch):
        # the semi-implicit step reads only the floored logarithm
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        calls = []
        gradient = nls._gradient

        def counted_gradient(*args):
            calls.append(args)
            return gradient(*args)

        monkeypatch.setattr(nls, "_gradient", counted_gradient)
        _, steps = nls._loose_phase(problem, nls._start_state(problem.grid, None))
        assert steps > 0
        assert not calls

    def test_underflow_raises_instability(self):
        # far tails below the smallest double: Newton cannot take a state
        # with zeros, so the loose phase raises
        problem = harmonic_problem(1024, half_width=50.0, b=0.0)
        with pytest.raises(InstabilityError):
            nls._loose_phase(problem, nls._start_state(problem.grid, None))

    def test_self_consistent_loose_steps_on_criterion_3_grid(self):
        # measured: 0 semi-implicit and 22 Newton steps over both ends and the root
        problem = GridProblem.harmonic(Grid1D(-12.0, 12.0, 2048))
        _, sol = self_consistent_lambda(problem, FlowConfig(step=1e-4, tol_flow=1e-8))
        assert 0 < sol.newton_steps <= 30
        assert sol.iterations <= 10

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

    def test_lambda_energy_trace_starts_at_the_normalized_start_state(self):
        # the root is continued from the lower end's state, but its trace
        # starts where the lower end's does: at the start state, at b = lo
        problem = harmonic_problem(256, half_width=12.0)
        init = randomized_initial_guess(problem.grid, 9, 0)
        lo = nls.DEFAULT_BRACKET[0]
        lam, sol = self_consistent_lambda(problem, TestFixedBNewton.CFG, init=init)
        assert lam != lo and sol.newton_steps > 0
        start = normalized_on(problem.grid, init)
        assert sol.energy_trace[0] == discrete_energy(problem.with_b(lo), start)
        assert sol.energy_trace[-1] == sol.mu


class TestContinuation:
    """Newton runs straight from the start state; the loose phase runs only
    where that direct attempt fails."""

    CFG = FlowConfig(step=5e-3, tol_flow=1e-9)

    def test_newton_continues_from_a_converged_state(self):
        base = harmonic_problem(256, half_width=12.0)
        start = ground_state(base.with_b(-3.0), self.CFG)
        sol = ground_state(base.with_b(-0.5), self.CFG, init=start.psi)
        assert sol.iterations == 0 and sol.newton_steps > 0
        assert abs(sol.mu - ground_state(base.with_b(-0.5), self.CFG).mu) <= 1e-10

    def test_direct_newton_leaving_the_cone_falls_back_to_the_loose_phase(self, monkeypatch):
        base = harmonic_problem(256, half_width=12.0)
        start = ground_state(base.with_b(-0.5), self.CFG)
        cold = ground_state(base.with_b(-3.0), self.CFG)
        failures = []

        # Newton in ln u holds from this start; forced to fail, it falls back
        # to the plain attempt, which leaves the cone
        assert ground_state(base.with_b(-3.0), self.CFG, init=start.psi).iterations == 0
        wrap_attempts(monkeypatch, failing, failures_into(failures))
        sol = ground_state(base.with_b(-3.0), self.CFG, init=start.psi)
        assert failures == ["bordered Newton left the positive cone"]
        assert sol.iterations > 0 and sol.newton_steps > 0
        assert abs(sol.mu - cold.mu) <= 1e-10

    @staticmethod
    def wide_domain_root():
        """self_consistent_lambda on +-20 at 512 points, checked, and the
        states it solved, as recorded_solves lists them."""
        problem = harmonic_problem(512, half_width=20.0)
        with recorded_solves() as solved:
            lam, sol = self_consistent_lambda(problem, FlowConfig(step=1e-3, tol_flow=1e-9))
        assert abs(sol.mu - sol.b) < 1e-12
        assert abs(lam - GOLDEN_LAMBDA0) < 1e-3
        assert sol.iterations <= 30 and 0 < sol.newton_steps <= 40
        return solved

    def test_wide_domain_root_is_the_free_b_newton_root(self):
        # the free-b Newton solve from one fixed-b step at the lower end,
        # the first attempt, holds: no end, bisection midpoint or continued
        # root is solved
        assert self.wide_domain_root() == ["predicted"]

    def test_wide_domain_continued_root_is_the_free_b_newton_root(self, monkeypatch):
        # with the first attempt made to fail, the free-b Newton solve from
        # the lower end's state holds; no upper end is solved
        without_first_attempt(monkeypatch)
        assert self.wide_domain_root() == ["predicted", nls.DEFAULT_BRACKET[0], "root"]


POTENTIALS = {
    "harmonic": lambda x: 0.5 * x * x,
    "quartic": lambda x: 0.25 * x**4,
    "double_well": lambda x: (x * x - 4.0) ** 2 / 8.0,
}
WIDE_BRACKET = (-6.0, 0.5)


def stable_problem(name, n_points, half_width=12.0):
    """The potential on n_points over +-half_width, and a config whose step
    is 0.9 of the smaller of the two stability bounds."""
    grid = Grid1D(-half_width, half_width, n_points)
    v = POTENTIALS[name](grid.points())
    v_max, h = float(np.max(np.abs(v))), grid.spacing
    step = 0.9 * min(1.0 / v_max, 2.0 / (2.0 / (h * h) + v_max))
    return GridProblem(grid, v), FlowConfig(step=step, tol_flow=1e-8)


def sweep_case(potential, half_width, n_points):
    """A case of scripts/nls_start_sweep.py: the potential on n_points over
    +-half_width, and the sweep's config, step
    min(0.9 / (2/h^2 + max V), 0.9 / max V) at tol_flow 1e-8."""
    grid = Grid1D(-half_width, half_width, n_points)
    h, v = grid.spacing, potential(grid.points())
    v_max = float(v.max())
    cfg = FlowConfig(step=min(0.9 / (2.0 / (h * h) + v_max), 0.9 / v_max), tol_flow=1e-8)
    return GridProblem(grid, v), cfg


def spectral_oracle():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "oracle_nls_spectral.py"
    spec = importlib.util.spec_from_file_location("oracle_nls_spectral", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def recorded_solves():
    """A list of the states solved inside the block, in order: "predicted"
    for each first attempt of self_consistent_lambda, whether it holds or
    not, the b of each ground_state call, and "root" for each free-b solve
    continued from a state."""
    solved = []
    predicted_root, solve, newton_state = nls._predicted_root, nls.ground_state, nls._newton_state

    def counted_predicted_root(problem, cfg, init, bracket):
        solved.append("predicted")
        return predicted_root(problem, cfg, init, bracket)

    def counted_ground_state(problem, cfg, init=None):
        solved.append(problem.b)
        return solve(problem, cfg, init)

    def counted_newton_state(problem, cfg, init, bracket=None):
        if bracket is not None:
            solved.append("root")
        return newton_state(problem, cfg, init, bracket)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nls, "_predicted_root", counted_predicted_root)
        mp.setattr(nls, "ground_state", counted_ground_state)
        mp.setattr(nls, "_newton_state", counted_newton_state)
        yield solved


def solved_states(problem, cfg, bracket):
    """self_consistent_lambda's (lam, sol) and the states it solved, as
    recorded_solves lists them."""
    with recorded_solves() as solved:
        lam, sol = self_consistent_lambda(problem, cfg, bracket=bracket)
    return lam, sol, solved


@pytest.fixture(scope="module")
def bracket_roots():
    """(potential, points) -> (default-bracket, wide-bracket) solved_states
    on +-12."""
    roots = {}
    for name in POTENTIALS:
        for n_points in (512, 1024, 2048):
            problem, cfg = stable_problem(name, n_points)
            roots[name, n_points] = tuple(solved_states(problem, cfg, bracket)
                                          for bracket in (nls.DEFAULT_BRACKET, WIDE_BRACKET))
    return roots


class TestOneRootPath:
    """The root is first the free-b Newton solve from one fixed-b step at
    the lower end; where that fails, the free-b Newton solve continued from
    the lower end's state, and where that fails too the upper end is
    solved, to name the failure or to return the upper end as the root."""

    @pytest.mark.parametrize("n_points", [512, 1024, 2048])
    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_wide_bracket_ends_on_the_free_b_root(self, bracket_roots, name, n_points):
        # the first attempt holds, but for the quartic on the default
        # bracket, where its fixed-b step at b = -3 leaves the range of
        # floats and the root is continued from the lower end's state
        default, wide = bracket_roots[name, n_points]
        fallback = ["predicted", nls.DEFAULT_BRACKET[0], "root"]
        assert default[2] == (fallback if name == "quartic" else ["predicted"])
        assert wide[2] == ["predicted"]
        for lam, sol, _ in (default, wide):
            assert sol.b == lam and sol.newton_steps > 0 and sol.iterations == 0
            assert abs(sol.mu - lam) < 1e-14
        assert abs(wide[0] - default[0]) <= 1e-12

    @pytest.mark.parametrize("n_points", [512, 1024, 2048])
    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_wide_bracket_continued_root_is_the_first_attempts_root(self, monkeypatch,
                                                                    bracket_roots, name, n_points):
        # with the first attempt made to fail, both brackets end on the
        # root continued from the lower end's state, the same root
        problem, cfg = stable_problem(name, n_points)
        without_first_attempt(monkeypatch)
        for (lo, hi), (first, _, _) in zip((nls.DEFAULT_BRACKET, WIDE_BRACKET),
                                          bracket_roots[name, n_points]):
            lam, sol, solved = solved_states(problem, cfg, (lo, hi))
            assert solved == ["predicted", lo, "root"]
            assert sol.b == lam and abs(sol.mu - lam) < 1e-14
            assert abs(lam - first) <= 1e-12

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_grid_error_against_spectral_oracle(self, bracket_roots, name):
        # second order: the error falls by about 4 per doubling, on either
        # bracket, against an oracle that shares no code with the grid solve
        exact = spectral_oracle().spectral_lambda(POTENTIALS[name], 64)
        for which in (0, 1):
            errors = [abs(bracket_roots[name, n][which][0] - exact) for n in (512, 1024, 2048)]
            assert errors[0] < 2e-4 and errors[-1] > 1e-7
            for coarse, fine in zip(errors, errors[1:]):
                assert 3.8 < coarse / fine < 4.2

    @pytest.mark.parametrize("bracket", [nls.DEFAULT_BRACKET, WIDE_BRACKET])
    def test_first_attempt_solves_no_end(self, bracket):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        lam, sol, solved = solved_states(problem, cfg, bracket)
        lo, hi = bracket
        assert solved == ["predicted"]
        assert lo < lam < hi and sol.b == lam and abs(sol.mu - lam) < 1e-14
        # one fixed-b step in ln u from the normalized start at b = lo, then
        # the free-b Newton in ln u from that state, pinned and normalized
        lower = problem.with_b(lo)
        start = nls._start_state(problem.grid, None)
        energy = discrete_energy(lower, start)
        psi = nls._pinned(nls._log_step(lower, start[1:-1], lo, energy - lo, False)[0])
        psi /= math.sqrt(problem.grid.spacing * float((psi * psi).sum()))
        root_psi, root_b, steps, _ = nls._newton(lower, psi, bracket, cfg, nls._log_step)
        assert np.array_equal(sol.psi, root_psi) and sol.b == root_b
        assert sol.mu == discrete_energy(problem.with_b(root_b), root_psi)
        assert sol.newton_steps == 1 + steps and sol.iterations == 0
        assert sol.energy_trace == (energy, sol.mu)

    @pytest.mark.parametrize("bracket", [nls.DEFAULT_BRACKET, WIDE_BRACKET])
    def test_continued_root_solves_no_upper_end(self, monkeypatch, bracket):
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        without_first_attempt(monkeypatch)
        lam, sol, solved = solved_states(problem, cfg, bracket)
        lo, hi = bracket
        assert solved == ["predicted", lo, "root"]
        assert lo < lam < hi and sol.b == lam and abs(sol.mu - lam) < 1e-14
        # the work totals are the lower end's and the continued root's
        lower = ground_state(problem.with_b(lo), cfg)
        root = nls._newton_state(problem.with_b(lo), cfg, lower.psi, bracket)
        assert np.array_equal(sol.psi, root.psi) and sol.mu == root.mu
        assert sol.newton_steps == lower.newton_steps + root.newton_steps
        assert sol.iterations == lower.iterations + root.iterations == 0

    @pytest.mark.parametrize("failure", ["raises", "outside", "off_tolerance"])
    def test_first_attempt_that_fails_falls_back(self, monkeypatch, failure):
        # a first attempt that raises, or whose root lies outside the
        # bracket or has |mu - b| = 2 _F_TOL, is not returned: the lower end
        # and the root continued from it are solved from init as they are
        # where no first attempt runs
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        init = randomized_initial_guess(problem.grid, 9, 0)
        lo, hi = nls.DEFAULT_BRACKET
        predicted_root = nls._predicted_root

        def failed(problem, cfg, init, bracket):
            if failure == "raises":
                raise ConvergenceError("forced failure")
            root = predicted_root(problem, cfg, init, bracket)
            if failure == "outside":
                return replace(root, b=hi + 1e-3, mu=hi + 1e-3)
            return replace(root, mu=root.b + 2.0 * nls._F_TOL)

        monkeypatch.setattr(nls, "_predicted_root", failed)
        with recorded_solves() as solved:
            lam, sol = self_consistent_lambda(problem, cfg, init=init)
        assert solved == ["predicted", lo, "root"]
        lower = ground_state(problem.with_b(lo), cfg, init=init)
        root = nls._newton_state(problem.with_b(lo), cfg, lower.psi, (lo, hi))
        assert lam == sol.b == root.b and sol.mu == root.mu
        assert np.array_equal(sol.psi, root.psi)
        assert sol.newton_steps == lower.newton_steps + root.newton_steps
        assert sol.energy_trace == (lower.energy_trace[0], root.mu)

    def test_first_attempt_that_fails_on_its_own_falls_back(self, monkeypatch):
        # the start sweep's quartic on +-16 at 128 points from the default
        # start, where the fixed-b step at b = -3 leaves the range of
        # floats; the lower end and the root continued from it give the
        # root, bit for bit as where the first attempt is made to fail, and
        # the lambda of the sweep's committed baseline
        problem, cfg = sweep_case(POTENTIALS["quartic"], 16.0, 128)
        lo, hi = nls.DEFAULT_BRACKET
        with pytest.raises(ConvergenceError, match="^Newton in ln u left the range of floats$"):
            nls._predicted_root(problem.with_b(lo), cfg, None, (lo, hi))
        with recorded_solves() as solved:
            lam, sol = self_consistent_lambda(problem, cfg)
        assert solved == ["predicted", lo, "root"]
        assert abs(sol.mu - lam) < 1e-14
        sweep = pathlib.Path(__file__).resolve().parent / "golden" / "nls_start_sweep.json"
        baseline = json.loads(sweep.read_text())["lambda"]["quartic +-16 n=128 start=default"]
        assert abs(lam - baseline) <= 1e-14
        without_first_attempt(monkeypatch)
        assert self_consistent_lambda(problem, cfg)[0] == lam

    def test_predicted_state_that_underflows_fails_the_first_attempt(self):
        # the start sweep's double well x^4/4 - x^2 on +-12 at 512 points
        # from randomized_initial_guess(grid, 7, 2): the fixed-b step at
        # b = -3 grows the state to a norm of 1.8e4 with an entry of 3.6e-321,
        # which normalizing takes to zero.  The first attempt fails there,
        # before a step divides by it, and the upper end names the failure:
        # F < 0 at both ends
        problem, cfg = sweep_case(lambda x: 0.25 * x**4 - x * x, 12.0, 512)
        init = randomized_initial_guess(problem.grid, 7, 2)
        lo, hi = nls.DEFAULT_BRACKET
        with pytest.raises(ConvergenceError, match="^the predicted state underflowed to zero$"):
            nls._predicted_root(problem.with_b(lo), cfg, init, (lo, hi))
        no_sign_change = r"^no sign change on \[-3\.0, -0\.5\]"
        with recorded_solves() as solved, pytest.raises(BracketError, match=no_sign_change):
            self_consistent_lambda(problem, cfg, init=init)
        assert solved == ["predicted", lo, "root", hi]

    def test_free_b_attempt_that_leaves_the_bracket_by_far_stops(self, monkeypatch):
        # the root, at b = -1.34, lies past the bracket (-3, -2.5): a free-b
        # attempt raises on the step that first takes b past hi + 0.25,
        # half the bracket's width, where with a wider bracket it goes on
        # to the root
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        lo, hi = -3.0, -2.5
        start = ground_state(problem.with_b(lo), cfg).psi
        stepped = []  # b after each free-b step
        log_step = nls._log_step

        def recorded(problem, u, b, m, free_b):
            out = log_step(problem, u, b, m, free_b)
            stepped.append(b + out[2])
            return out

        monkeypatch.setattr(nls, "_log_step", recorded)
        left = (r"^free-b Newton left the bracket \[-3\.0, -2\.5\] by more than half its width: "
                r"b = (\S+)$")
        with pytest.raises(ConvergenceError, match=left) as raised:
            nls._newton(problem.with_b(lo), start, (lo, hi), cfg, nls._log_step)
        assert float(re.match(left, str(raised.value))[1]) == stepped[-1] > hi + 0.25
        assert all(lo - 0.25 <= b <= hi + 0.25 for b in stepped[:-1])
        early = len(stepped)
        stepped.clear()
        _, b, steps, _ = nls._newton(problem.with_b(lo), start, (lo, 0.0), cfg, nls._log_step)
        assert abs(b - GOLDEN_LAMBDA0) < 1e-3 and steps == len(stepped) > early

        # the self-consistent solve: every free-b attempt, the first one and
        # the three of the continuation, stops so, and the upper end names
        # the failure
        failures = []
        monkeypatch.setattr(nls, "_log_step", log_step)
        wrap_attempts(monkeypatch, failures_into(failures), failures_into(failures))
        no_sign_change = r"^no sign change on \[-3\.0, -2\.5\]"
        with recorded_solves() as solved, pytest.raises(BracketError, match=no_sign_change):
            self_consistent_lambda(problem, cfg, bracket=(lo, hi))
        assert solved == ["predicted", lo, "root", hi]
        assert len(failures) == 4 and all(re.match(left, failure) for failure in failures)

    def test_upper_end_within_F_TOL_is_the_root_where_the_continuation_fails(self, monkeypatch):
        # F(lambda*) = -2.2e-16 here, of the same sign as F(-3): the upper
        # end is returned before the sign change is checked
        problem = harmonic_problem(96, half_width=8.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        lam, _ = self_consistent_lambda(problem, cfg)
        newton_state = nls._newton_state

        def failed_continuation(problem, cfg, init, bracket=None):
            if bracket is not None:
                raise ConvergenceError("forced failure")
            return newton_state(problem, cfg, init)

        monkeypatch.setattr(nls, "_newton_state", failed_continuation)
        without_first_attempt(monkeypatch)
        got, sol, solved = solved_states(problem, cfg, (-3.0, lam))
        assert solved == ["predicted", -3.0, "root", lam]
        assert got == sol.b == lam and abs(sol.mu - lam) < 1e-6
        lower = ground_state(problem.with_b(-3.0), cfg)
        upper = ground_state(problem.with_b(lam), cfg, init=lower.psi)
        assert np.array_equal(sol.psi, upper.psi)
        assert sol.newton_steps == lower.newton_steps + upper.newton_steps

    def test_bracket_without_a_root_raises_after_the_continuation(self):
        # the root lies past the upper end, at b = -1.34, so the first
        # attempt and the continuation fail and the upper end is solved: F
        # has no sign change on the bracket
        problem = harmonic_problem(256, half_width=12.0)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        with recorded_solves() as solved, pytest.raises(BracketError,
                                                        match=r"^no sign change on \[-3\.0, -2\.0\]"):
            self_consistent_lambda(problem, cfg, bracket=(-3.0, -2.0))
        assert solved == ["predicted", -3.0, "root", -2.0]

    def test_free_b_failure_raises(self, monkeypatch):
        # a failed continuation inside a bracket with a sign change: the
        # upper end is solved, and the error names the continuation's start
        wrap_attempts(monkeypatch, free_b_failure, free_b_failure)
        with recorded_solves() as solved, pytest.raises(
                ConvergenceError, match=r"^free-b Newton solve from b = -3\.0 failed: forced failure$"
        ) as raised:
            self_consistent_lambda(harmonic_problem(256, half_width=12.0), FlowConfig(step=5e-3))
        assert solved == ["predicted", -3.0, "root", -0.5]
        assert str(raised.value.__cause__) == "forced failure"

    @pytest.mark.parametrize("rule", ["log", "plain"])
    def test_root_outside_the_bracket_raises(self, monkeypatch, rule):
        # with the first attempt made to fail, the attempt that makes the
        # continued root, Newton in ln u or, with ln u made to fail, the
        # plain attempt from the start state, ends past the upper end:
        # _newton_state checks the bracket once, after the chain, and
        # raises; self_consistent_lambda then solves the upper end and
        # raises, as F changes sign on the bracket
        roots = []

        def shifted_root(attempt):
            def shifted(problem, psi, bracket, cfg):
                psi, b, steps, flow_norm = attempt(problem, psi, bracket, cfg)
                if bracket is not None:
                    roots.append(b)
                    b += 3.0
                return psi, b, steps, flow_norm
            return shifted

        without_first_attempt(monkeypatch)
        wrappers = wrap_attempts(monkeypatch, log=free_b_failure)
        wrappers[rule] = shifted_root
        problem = harmonic_problem(192, half_width=8.0)
        cfg = FlowConfig(step=2e-3, tol_flow=1e-8)
        lo, hi = nls.DEFAULT_BRACKET
        outside = r"root b = (\S+) is outside the bracket \[-3\.0, -0\.5\]$"
        start = ground_state(problem.with_b(lo), cfg).psi
        with pytest.raises(ConvergenceError, match=f"^{outside}") as raised:
            nls._newton_state(problem.with_b(lo), cfg, start, (lo, hi))
        (root,) = roots
        assert lo < root < hi and float(re.search(outside, str(raised.value))[1]) == root + 3.0
        with recorded_solves() as solved, pytest.raises(
                ConvergenceError, match=rf"^free-b Newton solve from b = -3\.0 failed: {outside}"):
            self_consistent_lambda(problem, cfg)
        assert solved == ["predicted", lo, "root", hi]
        assert roots == [root, root]

    def test_root_off_the_tolerance_raises(self, monkeypatch):
        # no state passes a zero tolerance: the first attempt's root and the
        # continued root are not returned, and the upper end, solved to name
        # the failure, is not either
        monkeypatch.setattr(nls, "_F_TOL", 0.0)
        with recorded_solves() as solved, pytest.raises(
                ConvergenceError, match=r"^free-b Newton solve from b = -3\.0 failed: "
                                        r"root b = \S+ has \|mu - b\| = \S+$"):
            self_consistent_lambda(harmonic_problem(192, half_width=8.0),
                                   FlowConfig(step=2e-3, tol_flow=1e-8))
        assert solved == ["predicted", -3.0, "root", -0.5]

    def test_log_attempts_that_fail_fall_back_to_the_plain_chain(self, monkeypatch, bracket_roots):
        # on the wide bracket, with the first attempt and the continuation's
        # Newton in ln u made to fail, the plain chain from the same start,
        # the lower end's state, gives the root, with no loose phase
        problem, cfg = stable_problem("harmonic", 512)
        log_attempts, plain_roots = [], []

        def failing_free_b_log(attempt):
            def recorded_attempt(problem, psi, bracket, cfg):
                log_attempts.append((problem.b, bracket is not None))
                return free_b_failure(attempt)(problem, psi, bracket, cfg)
            return recorded_attempt

        def recorded_newton(attempt):
            def recorded_attempt(problem, psi, bracket, cfg):
                out = attempt(problem, psi, bracket, cfg)
                plain_roots.append(out[1] if bracket else None)
                return out
            return recorded_attempt

        without_first_attempt(monkeypatch)
        wrap_attempts(monkeypatch, failing_free_b_log, recorded_newton)
        lam, sol = self_consistent_lambda(problem, cfg, bracket=WIDE_BRACKET)
        assert log_attempts == [(-6.0, False), (-6.0, True)]
        assert plain_roots == [lam]
        assert sol.iterations == 0 and abs(sol.mu - lam) < 1e-14
        assert abs(lam - bracket_roots["harmonic", 512][0][0]) <= 1e-12

    def test_modified_step_keeps_the_cone(self, monkeypatch, bracket_roots):
        # from the converged b = -6 state the plain free-b step cuts the
        # tails below zero; the step in ln u for those entries keeps them
        # positive, and Newton goes on to the root
        problem, cfg = stable_problem("harmonic", 512)
        start = ground_state(problem.with_b(-6.0), cfg)
        u = start.psi[1:-1]
        new, d_u, _, may_stop = nls._newton_step(problem, u, -6.0, 0.0, True)
        assert np.any(u + d_u <= 0.0) and np.all(new > 0.0) and not may_stop
        steps = []
        newton_step = nls._newton_step

        def recorded(problem, u, b, m, free_b):
            out = newton_step(problem, u, b, m, free_b)
            steps.append(bool(np.any(u + out[1] <= 0.0)))
            return out

        monkeypatch.setattr(nls, "_newton_step", recorded)
        psi, b, count, _ = nls._newton(problem.with_b(-6.0), start.psi, WIDE_BRACKET, cfg,
                                       nls._newton_step)
        assert steps[0] and count == len(steps)
        assert np.all(psi[1:-1] > 0.0)
        assert abs(b - bracket_roots["harmonic", 512][0][0]) <= 1e-12

    def test_stop_on_a_step_that_cut_only_tails_below_the_floor(self, monkeypatch):
        # entries near 1e-60 shrink by a factor of e on every free-b step
        # here, while b has long converged: Newton may stop on such a step,
        # since every entry it cut is below the logarithm's floor
        problem, cfg = stable_problem("quartic", 128, half_width=20.0)
        init = randomized_initial_guess(problem.grid, 7, 0)
        cut_peaks = []
        newton_step = nls._newton_step

        def recorded(problem, u, b, m, free_b):
            out = newton_step(problem, u, b, m, free_b)
            d_u = out[1]
            if free_b:
                left = np.any(u + d_u <= 0.0)
                cut_peaks.append(float(np.max(u[d_u < -nls._CUT * u] ** 2)) if left else None)
            return out

        monkeypatch.setattr(nls, "_newton_step", recorded)
        lam, sol = self_consistent_lambda(problem, cfg, bracket=WIDE_BRACKET, init=init)
        assert abs(sol.mu - lam) < 1e-14
        assert cut_peaks[-1] is not None and 0.0 < cut_peaks[-1] <= nls._EPS_LOG
        assert len(cut_peaks) < nls._NEWTON_CAP

    def test_newton_step_cap_raises(self, monkeypatch):
        # with a zero tolerance Newton never stops: the direct attempt and
        # the one after the loose phase both hit the cap, and ground_state
        # raises the second one's error
        problem = harmonic_problem(256, half_width=12.0, b=-1.3)
        cfg = TestFixedBNewton.CFG
        failures = []
        wrap_attempts(monkeypatch, plain=failures_into(failures))
        monkeypatch.setattr(nls, "_NEWTON_TOL", 0.0)
        capped = f"bordered Newton exceeded {nls._NEWTON_CAP} steps"
        with pytest.raises(ConvergenceError, match=f"^{capped}$"):
            ground_state(problem, cfg)
        assert failures == [capped] * 2

    def test_lower_end_that_does_not_verify_raises(self, monkeypatch):
        # at tol_flow 1e-13 the free-b root continued from the lower end
        # verifies once Newton steps past its first state that passes the
        # step test (flow norm 3.1e-13), and so does the first attempt's
        # root; the lower end itself stays at 3.1e-13, at the rounding scale
        # eps max(psi) / step = 3.4e-13, in every attempt, so with the first
        # attempt made to fail the self-consistent solve raises there,
        # giving both numbers; no full flow runs
        problem, cfg = stable_problem("quartic", 128, half_width=10.0)
        lo, hi = nls.DEFAULT_BRACKET
        tight = replace(cfg, tol_flow=1e-13)
        start = ground_state(problem.with_b(lo), cfg).psi
        flows = TestFixedBNewton.flow_calls(monkeypatch)
        root = nls._newton_state(problem.with_b(lo), tight, start, (lo, hi))
        assert lo < root.b < hi and abs(root.mu - root.b) < 1e-12
        assert root.flow_norm < 1e-13
        assert one_step_flow_norm(problem.with_b(root.b), root.psi, tight.step) < 1e-13
        lam, sol = self_consistent_lambda(problem, tight)
        assert abs(lam - root.b) <= 1e-14 and sol.flow_norm < 1e-13
        without_first_attempt(monkeypatch)
        with pytest.raises(ConvergenceError) as raised:
            self_consistent_lambda(problem, tight)
        floor = re.fullmatch(rf"bordered Newton exceeded {nls._NEWTON_CAP} steps; at b = -3\.0 "
                             r"the flow norm (\S+) is not below tol_flow 1e-13 "
                             r"\(eps\*max\(psi\)/step = (\S+)\)", str(raised.value))
        flow_norm, scale = (float(v) for v in floor.groups())
        assert flow_norm >= 1e-13 and 0.1 < flow_norm / scale < 10.0
        assert not flows


class TestUniquenessProbe:
    def test_requires_at_least_two_inits(self, coarse_cfg):
        with pytest.raises(ValidationError):
            uniqueness_probe(harmonic_problem(256), coarse_cfg, 1)

    def test_invalid_config_raises(self):
        # the seeded guesses are valid, so a ValidationError is the configuration's
        problem = harmonic_problem(192, half_width=8.0)
        with pytest.raises(ValidationError, match="stability heuristic"):
            uniqueness_probe(problem, FlowConfig(step=0.5, tol_flow=1e-8), 3)

    def test_linear_fixed_coefficient_runs_agree(self):
        # ground_state at b = 0 from three seeded random guesses
        problem = harmonic_problem(256, b=0.0)
        cfg = FlowConfig(step=8e-4, tol_flow=1e-9, seed=11)
        guesses = [randomized_initial_guess(problem.grid, cfg.seed, i) for i in range(3)]
        sols = [ground_state(problem, cfg, init=guess) for guess in guesses]
        mus = [sol.mu for sol in sols]
        assert max(mus) - min(mus) < 1e-6
        assert all(abs(mu - 0.5) < 1e-3 for mu in mus)
        h = problem.grid.spacing
        distances = [l2_distance(a.psi, b.psi, h) for i, a in enumerate(sols) for b in sols[i + 1:]]
        assert max(distances) < 1e-9

    def test_self_consistent_runs_agree(self):
        problem = harmonic_problem(48, half_width=8.0)
        cfg = FlowConfig(step=0.02, tol_flow=1e-9, seed=0)
        report = uniqueness_probe(problem, cfg, 2)
        assert not report.failures
        assert len(report.eigenvalues) == 2
        assert report.max_eigenvalue_spread <= 1e-12
        assert report.max_state_l2_distance <= 1e-9
        assert all(abs(lam - GOLDEN_LAMBDA0) < 5e-3 for lam in report.eigenvalues)
        # the largest pairwise gap is max - min bit for bit: rounding is monotone
        values = report.eigenvalues
        gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
        assert report.max_eigenvalue_spread == max(values) - min(values) == max(gaps)

    def test_bracket_failures_are_recorded(self):
        # with V = 2x^2, F > 0 at both ends of the default bracket: every
        # init fails, the probe returns
        grid = Grid1D(-8.0, 8.0, 48)
        problem = GridProblem(grid, 2.0 * grid.points() ** 2)
        cfg = FlowConfig(step=5e-3, tol_flow=1e-9)
        report = uniqueness_probe(problem, cfg, 2)
        assert [i for i, _ in report.failures] == [0, 1]
        assert all(msg.startswith("no sign change on [-3.0, -0.5]") for _, msg in report.failures)
        assert report.eigenvalues == ()
        assert report.max_eigenvalue_spread == report.max_state_l2_distance == 0.0

    def test_randomized_guesses_are_seeded(self):
        grid = Grid1D(-10.0, 10.0, 128)
        a = randomized_initial_guess(grid, 7, 0)
        b = randomized_initial_guess(grid, 7, 0)
        c = randomized_initial_guess(grid, 7, 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a > 0.0)


class TestValidationAndErrors:
    @pytest.mark.parametrize("field", ["step", "tol_flow"])
    def test_nan_config_rejected(self, field):
        with pytest.raises(ValidationError):
            FlowConfig(**{field: math.nan})

    def test_unstable_step_rejected(self):
        problem = harmonic_problem(512)
        with pytest.raises(ValidationError):
            gradient_flow_ground_state(problem, FlowConfig(step=1.0, tol_flow=1e-8))

    def test_step_past_the_grid_stability_bound(self):
        # max|V| = 1 on [-1, 1] passes the potential heuristic, but h = 0.01
        # bounds the step by 2 / (2 / h^2 + 1)
        problem = GridProblem.harmonic(Grid1D(-1.0, 1.0, 201))
        with pytest.raises(ValidationError,
                           match=r"^step 0\.001 is provably unstable .*need step < 1\.000e-04$"):
            ground_state(problem, FlowConfig(step=1e-3))

    def test_step_against_potential_heuristic(self):
        problem = harmonic_problem(64, half_width=10.0)
        with pytest.raises(ValidationError):
            gradient_flow_ground_state(problem, FlowConfig(step=0.05, tol_flow=1e-8))

    def test_convergence_cap(self, monkeypatch):
        problem = harmonic_problem(256)
        monkeypatch.setattr(nls, "_FLOW_CAP", 10)
        with pytest.raises(ConvergenceError, match=r"^flow did not reach tol 1e-13 in 10 iterations"):
            gradient_flow_ground_state(problem, FlowConfig(step=5e-4, tol_flow=1e-13))

    def test_potential_shape_mismatch(self):
        grid = Grid1D(-1.0, 1.0, 64)
        with pytest.raises(ValidationError):
            GridProblem(grid, np.zeros(65))

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

    def test_explicit_step_past_the_tails_loses_positivity(self):
        # the step passes both stability checks, but the first explicit
        # steps drive the quartic's tails negative
        grid = Grid1D(-12.0, 12.0, 2048)
        problem = GridProblem(grid, POTENTIALS["quartic"](grid.points()), -6.0)
        with pytest.raises(InstabilityError, match="lost positivity; use a smaller step"):
            gradient_flow_ground_state(problem, FlowConfig(step=1e-4, tol_flow=1e-8))

    def test_flow_tail_underflow_raises(self):
        # after about 30000 steps two tail entries underflow to exactly 0.0;
        # such a state is not positive, so it is not returned
        problem, cfg = stable_problem("double_well", 1024, half_width=20.0)
        with pytest.raises(InstabilityError, match="^flow iterate underflowed to zero$"):
            gradient_flow_ground_state(problem.with_b(-6.0), cfg)

    def test_flow_that_overflows_raises(self):
        # a b so large that the gradient overflows: with numpy's warnings
        # off, the iterate's norm is not finite and the flow raises
        problem = harmonic_problem(64, half_width=8.0, b=-1e306)
        with np.errstate(all="ignore"):
            with pytest.raises(InstabilityError, match="blew up"):
                gradient_flow_ground_state(problem, FlowConfig(step=1e-3))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
    def test_start_out_of_the_square_range_normalizes(self, scale):
        # squares that overflow or underflow: scaled by the largest entry
        # first, these starts are the all-ones start bit for bit
        problem = harmonic_problem(64, half_width=8.0, b=-1.0)
        cfg = FlowConfig(step=1e-3)
        sol = ground_state(problem, cfg, init=np.full(64, scale))
        assert_same_solution(sol, ground_state(problem, cfg, init=np.ones(64)))

    def test_warm_restart_converges_immediately(self, coarse_cfg):
        problem = harmonic_problem(512)
        first = gradient_flow_ground_state(problem, coarse_cfg)
        again = gradient_flow_ground_state(problem, coarse_cfg, init=first.psi)
        assert again.iterations <= 50
        assert abs(again.mu - first.mu) < 1e-10
