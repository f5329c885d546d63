"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from infoqm import (
    FlowConfig,
    Grid1D,
    GridProblem,
    MomentSpec1D,
    binomial_series_eval,
    energy_ordering_check,
    fit_multipliers_1d,
    gradient_flow_ground_state,
    gram_matrix,
    lambda_from_beta,
    moment_gradient_check,
    mu0_estimate,
    normalization_residual,
    psi_deriv,
    psi_eval,
    self_consistent_lambda,
    taylor2_coeffs,
    two_var_series_eval,
    uniqueness_probe,
)
from infoqm.cli import run

from conftest import GOLDEN_TABLE

INF = math.inf

# frozen quadrature oracle (8001 points on [-14, 14]) for the same-parity overlap
ORACLE_OVERLAP_02 = 0.1611868415688419


def check(num: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {description}")


def l2(grid: Grid1D, values: np.ndarray) -> float:
    return math.sqrt(grid.spacing * float(np.sum(values**2)))


def normalized_closed_form(state, grid: Grid1D) -> np.ndarray:
    v = psi_eval(state, grid.points())
    v = v.copy()
    v[0] = v[-1] = 0.0
    return v / l2(grid, v)


def test_criterion_1_table_reproduction(tmp_path, capsys):
    def body():
        out = tmp_path / "table.csv"
        start = time.perf_counter()
        code = run(["oscillator", "table", "--n-max", "7", "--digits", "12", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,k,alpha,beta,lambda,energy"
        assert len(lines) == 9
        for line in lines[1:]:
            n_s, _, alpha_s, beta_s, lam_s, energy_s = line.split(",")
            ref_alpha, ref_beta, ref_lam, ref_energy = GOLDEN_TABLE[int(n_s)]
            assert abs(float(alpha_s) - ref_alpha) <= 2e-5
            assert abs(float(beta_s) - ref_beta) <= 2e-5
            assert abs(float(lam_s) - ref_lam) <= 1e-4
            assert abs(float(energy_s) - ref_energy) <= 1e-4
        assert elapsed < 1.0, f"table took {elapsed:.2f}s"

    capsys.readouterr()
    with capsys.disabled():
        check(1, "table n=0..7 matches all 32 reference values (runtime < 1 s)", body)


def test_criterion_2_linear_limit(capsys):
    def body():
        assert lambda_from_beta(0.5) == 0.0
        grid = Grid1D(-12.0, 12.0, 2048)
        start = time.perf_counter()
        sol = gradient_flow_ground_state(
            GridProblem.harmonic(grid, b=0.0), FlowConfig(step=1e-4, tol_flow=1e-8)
        )
        elapsed = time.perf_counter() - start
        assert abs(sol.mu - 0.5) < 1e-3
        gauss = np.exp(-0.5 * grid.points() ** 2)
        gauss[0] = gauss[-1] = 0.0
        gauss /= l2(grid, gauss)
        assert l2(grid, sol.psi - gauss) < 1e-4
        assert elapsed < 10.0, f"linear flow took {elapsed:.2f}s"

    capsys.readouterr()
    with capsys.disabled():
        check(2, "linear limit: lambda(1/2)=0, b=0 flow gives mu=1/2 and a Gaussian", body)


def test_criterion_3_self_consistent_ground_state(states, capsys):
    def body():
        grid = Grid1D(-12.0, 12.0, 2048)
        problem = GridProblem.harmonic(grid)
        start = time.perf_counter()
        lam, sol = self_consistent_lambda(problem, FlowConfig(step=1e-4, tol_flow=1e-8))
        elapsed = time.perf_counter() - start
        assert abs(lam - GOLDEN_TABLE[0][2]) < 1e-3
        exact = normalized_closed_form(states[0], grid)
        assert l2(grid, sol.psi - exact) < 1e-3
        assert elapsed < 60.0, f"self-consistent solve took {elapsed:.2f}s"

    capsys.readouterr()
    with capsys.disabled():
        check(3, "self-consistent lambda within 1e-3 of the n=0 reference (runtime < 60 s)", body)


def test_criterion_4_residual_identity(states, capsys):
    def body():
        from infoqm import eigen_residual

        xs = np.linspace(-8.0, 8.0, 801)
        for s in states:
            psi = psi_eval(s, xs)
            shift = eigen_residual(s, xs) + 2.0 * s.k * s.beta * psi
            assert np.max(np.abs(shift)) <= 1e-6 * np.max(np.abs(psi))

    capsys.readouterr()
    with capsys.disabled():
        check(4, "residual identity r = -2 k beta psi pointwise for n=0..7", body)


def test_criterion_5_energy_identity(states, capsys):
    def body():
        grid = Grid1D(-14.0, 14.0, 8001)
        xs = grid.points()
        for s in states:
            dpsi = psi_deriv(s, xs)
            psi = psi_eval(s, xs)
            h_avg = float(np.trapezoid(0.5 * dpsi**2 + 0.5 * xs**2 * psi**2, dx=grid.spacing))
            assert abs(h_avg - (s.energy - 2.0 * s.k * s.beta)) < 1e-5
        s1 = states[1]
        assert abs((s1.energy - 2.0 * s1.beta) - 2.327813) < 1e-5

    capsys.readouterr()
    with capsys.disabled():
        check(5, "quadrature <H> equals E_n - 2 k beta_n within 1e-5 for n=0..7", body)


def test_criterion_6_maxent_recovery(capsys):
    def body():
        d, _ = fit_multipliers_1d(
            MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), tol=1e-12
        )
        mult = dict(d.multipliers)
        assert abs(mult[1] - 0.0) < 1e-8
        assert abs(mult[2] - 0.5) < 1e-8
        fits = [
            d,
            fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), tol=1e-12)[0],
            fit_multipliers_1d(MomentSpec1D((0.0, 2.0), ((1, 1.2),)), tol=1e-12)[0],
        ]
        for density in fits:
            assert normalization_residual(density) < 1e-12
            for order, _ in density.multipliers:
                if order == 0:
                    continue
                analytic, numeric = moment_gradient_check(density, order, 1e-5)
                assert abs(analytic - numeric) < 1e-6

    capsys.readouterr()
    with capsys.disabled():
        check(6, "Gaussian moments give (a1, a2) = (0, 1/2); normalized fits; dual gradient "
                 "identity holds", body)


def test_criterion_7_family_diagnostics(states, capsys):
    def body():
        g = gram_matrix(states)
        assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-8
        for m in range(8):
            for n in range(8):
                if (m + n) % 2 == 1:
                    assert abs(g[m, n]) < 1e-10
        assert abs(mu0_estimate(states[0], states[1])) < 1e-8
        assert energy_ordering_check(states) is True
        overlap = g[0, 2]
        # reported against the pre-built oracle; deliberately NOT asserted zero
        assert abs(overlap - ORACLE_OVERLAP_02) < 1e-6

    capsys.readouterr()
    with capsys.disabled():
        check(7, "gram diagonal/parity, mu0 = 0 for (0,1), ordering, overlap vs oracle", body)


def test_criterion_8_uniqueness_probe(capsys):
    def body():
        grid = Grid1D(-12.0, 12.0, 1024)
        problem = GridProblem.harmonic(grid)
        cfg = FlowConfig(step=2.5e-4, tol_flow=1e-9, seed=2024)
        report = uniqueness_probe(problem, cfg, 5)
        assert not report.failures
        assert report.max_eigenvalue_spread < 1e-6
        assert report.max_state_l2_distance < 1e-5

    capsys.readouterr()
    with capsys.disabled():
        check(8, "5 seeded self-consistent solves agree on lambda (1e-6) and psi (1e-5)", body)


def test_criterion_9_series_suite(capsys):
    def body():
        value, convergent = binomial_series_eval(1.0, -1.0, 0.5, 60)
        assert convergent
        assert abs(value - 1.0 / 1.5) < 1e-8
        _, convergent = binomial_series_eval(2.0, -1.0, 0.55, 60)
        assert not convergent  # |ax| = 1.1
        value, always = two_var_series_eval("exp_xy", 1.0, 1.0, 30)
        assert always
        assert abs(value - math.e) < 1e-9
        series = taylor2_coeffs(lambda x, y: math.exp(x * y), 4, 0.02)
        assert abs(series.coefficient(1, 1) - 1.0) < 1e-6
        assert abs(series.coefficient(2, 2) - 0.5) < 1e-6

    capsys.readouterr()
    with capsys.disabled():
        check(9, "binomial/exp series converge as flagged; taylor2 of exp(xy) correct", body)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def body():
        jobs = {
            "table.csv": ["oscillator", "table", "--n-max", "7"],
            "table.json": ["oscillator", "table", "--n-max", "7", "--format", "json"],
            "probe.csv": [
                "series", "probe", "--kind", "binomial", "--a", "1", "--k", "-1",
                "--x", "0.5", "--n-max", "40",
            ],
            "gram.csv": ["analyze", "gram", "--n-max", "4"],
            "sol.json": [
                "nls", "ground", "--domain", "-8", "8", "--grid", "192",
                "--b", "-1.0", "--tau", "2e-3", "--tol-flow", "1e-8",
            ],
        }
        for name, argv in jobs.items():
            first = tmp_path / f"run1_{name}"
            second = tmp_path / f"run2_{name}"
            assert run(argv + ["--out", str(first)]) == 0
            assert run(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), f"{name} not byte-stable"

    capsys.readouterr()
    with capsys.disabled():
        check(10, "repeated CLI runs with fixed flags and seed are byte-identical", body)
