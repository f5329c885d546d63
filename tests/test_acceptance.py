"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line; a passing line ends with each measured value
beside its bound.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

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
    """Run body, which returns its (name, value, bound) measures, and print
    the criterion's line, the measures on a passing one."""
    try:
        measures = body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {description}")
        raise
    shown = "; ".join(f"{name} {value:.3g} (bound {bound:g})" for name, value, bound in measures)
    print(f"ACCEPTANCE {num:02d} PASS - {description}; measured: {shown}")


def measured(name: str, values, bound: float, strict: bool = True) -> tuple:
    """(name, value, bound), with value the largest of values (one number or
    a list of them), once value < bound holds, or value <= bound where not
    strict.  np.max keeps a NaN wherever it stands, so a NaN fails the bound;
    Python's max would drop one that is not first."""
    value = float(np.max(values))
    assert value < bound if strict else value <= bound, f"{name} {value!r}, bound {bound!r}"
    return name, value, bound


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
        widths, spectra = [], []
        for line in lines[1:]:
            n_s, _, alpha_s, beta_s, lam_s, energy_s = line.split(",")
            ref_alpha, ref_beta, ref_lam, ref_energy = GOLDEN_TABLE[int(n_s)]
            widths += [abs(float(alpha_s) - ref_alpha), abs(float(beta_s) - ref_beta)]
            spectra += [abs(float(lam_s) - ref_lam), abs(float(energy_s) - ref_energy)]
        return [measured("alpha/beta deviation", widths, 2e-5, strict=False),
                measured("lambda/energy deviation", spectra, 1e-4, strict=False),
                measured("seconds", elapsed, 1.0)]

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
        gauss = np.exp(-0.5 * grid.points() ** 2)
        gauss[0] = gauss[-1] = 0.0
        gauss /= l2(grid, gauss)
        return [measured("|mu - 1/2|", abs(sol.mu - 0.5), 1e-3),
                measured("l2(psi - Gaussian)", l2(grid, sol.psi - gauss), 1e-4),
                measured("seconds", elapsed, 10.0)]

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
        exact = normalized_closed_form(states[0], grid)
        return [measured("|lambda - reference|", abs(lam - GOLDEN_TABLE[0][2]), 1e-3),
                measured("l2(psi - closed form)", l2(grid, sol.psi - exact), 1e-3),
                measured("seconds", elapsed, 60.0)]

    capsys.readouterr()
    with capsys.disabled():
        check(3, "self-consistent lambda within 1e-3 of the n=0 reference (runtime < 60 s)", body)


def test_criterion_4_residual_identity(states, capsys):
    def body():
        from infoqm import eigen_residual

        xs = np.linspace(-8.0, 8.0, 801)
        ratios = []
        for s in states:
            psi = psi_eval(s, xs)
            shift = eigen_residual(s, xs) + 2.0 * s.k * s.beta * psi
            assert np.max(np.abs(shift)) <= 1e-6 * np.max(np.abs(psi))
            ratios.append(np.max(np.abs(shift)) / np.max(np.abs(psi)))
        return [("max|r + 2 k beta psi| / max|psi|", float(np.max(ratios)), 1e-6)]

    capsys.readouterr()
    with capsys.disabled():
        check(4, "residual identity r = -2 k beta psi pointwise for n=0..7", body)


def test_criterion_5_energy_identity(states, capsys):
    def body():
        grid = Grid1D(-14.0, 14.0, 8001)
        xs = grid.points()
        gaps = []
        for s in states:
            dpsi = psi_deriv(s, xs)
            psi = psi_eval(s, xs)
            h_avg = float(np.trapezoid(0.5 * dpsi**2 + 0.5 * xs**2 * psi**2, dx=grid.spacing))
            gaps.append(abs(h_avg - (s.energy - 2.0 * s.k * s.beta)))
        s1 = states[1]
        return [measured("|<H> - (E - 2 k beta)|", gaps, 1e-5),
                measured("|E_1 - 2 beta_1 - 2.327813|",
                         abs((s1.energy - 2.0 * s1.beta) - 2.327813), 1e-5)]

    capsys.readouterr()
    with capsys.disabled():
        check(5, "quadrature <H> equals E_n - 2 k beta_n within 1e-5 for n=0..7", body)


def test_criterion_6_maxent_recovery(capsys):
    def body():
        d, _ = fit_multipliers_1d(
            MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0))), tol=1e-12
        )
        mult = dict(d.multipliers)
        measures = [measured("|a1|", abs(mult[1] - 0.0), 1e-8),
                    measured("|a2 - 1/2|", abs(mult[2] - 0.5), 1e-8)]
        residuals, gaps = [], []
        fits = [
            d,
            fit_multipliers_1d(MomentSpec1D((-1.0, 1.0), ((2, 0.2),)), tol=1e-12)[0],
            fit_multipliers_1d(MomentSpec1D((0.0, 2.0), ((1, 1.2),)), tol=1e-12)[0],
        ]
        for density in fits:
            residuals.append(normalization_residual(density))
            for order, _ in density.multipliers:
                if order == 0:
                    continue
                analytic, numeric = moment_gradient_check(density, order, 1e-5)
                gaps.append(abs(analytic - numeric))
        return measures + [measured("normalization residual", residuals, 1e-12),
                           measured("dual gradient gap", gaps, 1e-6)]

    capsys.readouterr()
    with capsys.disabled():
        check(6, "Gaussian moments give (a1, a2) = (0, 1/2); normalized fits; dual gradient "
                 "identity holds", body)


def test_criterion_7_family_diagnostics(states, capsys):
    def body():
        g = gram_matrix(states)
        odd = [abs(g[m, n]) for m in range(8) for n in range(8) if (m + n) % 2 == 1]
        measures = [measured("|diag - 1|", np.abs(np.diag(g) - 1.0), 1e-8),
                    measured("odd-parity overlap", odd, 1e-10),
                    measured("|mu0|", abs(mu0_estimate(states[0], states[1])), 1e-8)]
        assert energy_ordering_check(states) is True
        overlap = g[0, 2]
        # reported against the pre-built oracle; deliberately NOT asserted zero
        return measures + [measured("|overlap02 - oracle|", abs(overlap - ORACLE_OVERLAP_02),
                                    1e-6)]

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
        return [measured("lambda spread", report.max_eigenvalue_spread, 1e-6),
                measured("psi l2 distance", report.max_state_l2_distance, 1e-5)]

    capsys.readouterr()
    with capsys.disabled():
        check(8, "5 seeded self-consistent solves agree on lambda (1e-6) and psi (1e-5)", body)


def test_criterion_9_series_suite(capsys):
    def body():
        value, convergent = binomial_series_eval(1.0, -1.0, 0.5, 60)
        assert convergent
        measures = [measured("binomial error", abs(value - 1.0 / 1.5), 1e-8)]
        _, convergent = binomial_series_eval(2.0, -1.0, 0.55, 60)
        assert not convergent  # |ax| = 1.1
        value, always = two_var_series_eval("exp_xy", 1.0, 1.0, 30)
        assert always
        measures.append(measured("exp_xy error", abs(value - math.e), 1e-9))
        series = taylor2_coeffs(lambda x, y: math.exp(x * y), 4, 0.02)
        return measures + [
            measured("taylor2 (1, 1) error", abs(series.coefficient(1, 1) - 1.0), 1e-6),
            measured("taylor2 (2, 2) error", abs(series.coefficient(2, 2) - 0.5), 1e-6)]

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
        differing = []
        for name, argv in jobs.items():
            first = tmp_path / f"run1_{name}"
            second = tmp_path / f"run2_{name}"
            assert run(argv + ["--out", str(first)]) == 0
            assert run(argv + ["--out", str(second)]) == 0
            if first.read_bytes() != second.read_bytes():
                differing.append(name)
        assert not differing, f"{differing} not byte-stable"
        return [("outputs that differ between runs", len(differing), 0)]

    capsys.readouterr()
    with capsys.disabled():
        check(10, "repeated CLI runs with fixed flags and seed are byte-identical", body)


def test_measured_fails_on_a_nan_in_any_position():
    """A NaN among a criterion's values fails its bound, strict or not,
    wherever it stands; Python's max([0.0, nan]) would read 0.0."""
    assert measured("gap", [0.0, 1e-9], 1e-6) == ("gap", 1e-9, 1e-6)
    assert measured("gap", [1e-6, 0.0], 1e-6, strict=False) == ("gap", 1e-6, 1e-6)
    for values in ([0.0, math.nan], [0.0, 0.0, math.nan], [math.nan, 0.0], math.nan):
        with pytest.raises(AssertionError):
            measured("gap", values, 1e-6)
        with pytest.raises(AssertionError):
            measured("gap", values, 1e-6, strict=False)
