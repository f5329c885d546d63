"""Workload job lists, generated from a seed, and the checks on every output.

A job is one call into the program: a CLI invocation through
``infoqm.cli.run`` or a library call with no subcommand.  ``call`` is the
timed part; ``check`` is untimed and either returns the bytes that must
repeat exactly when the job runs again in the same run, or raises
``ProgramFailure`` (the program reported a typed error) or ``CheckFailed``
(the program's output is wrong).

Every input the program sees (moment specs, projection targets,
``--resume`` states, ``b`` values, flag values) is drawn from
``random.Random(f"{workload}/{seed}")`` and written to files before the
first pass.  Draws are stratified so that each seed covers the same
ranges; the seed moves points inside each stratum.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from infoqm import cli, maxent, nls
from infoqm.errors import InfoqmError
from infoqm.numerics import Grid1D

WORKLOADS = ("closed_form", "nls_lambda", "nls_fixed_b")

# latency group of each CLI subcommand -> end-to-end metric name
SUBCOMMAND_METRICS = {
    "oscillator_table": "oscillator_table_s",
    "analyze_gram": "analyze_gram_s",
    "analyze_project": "analyze_project_s",
    "maxent_fit": "maxent_fit_s",
    "series_probe": "series_probe_s",
    "nls_ground": "nls_ground_s",
}
LIBRARY_KINDS = ("fit_2d", "functionals", "probe")

# the published n = 0..7 values (alpha, beta, lambda, energy) and the
# acceptance tolerances on each column
GOLDEN_TABLE = {
    0: (0.561903, 0.165957, -1.34046, 0.836186),
    1: (0.8846183, 0.182575, -1.18673, 2.69296),
    2: (1.483947, 0.265717, -0.675132, 3.01642),
    3: (2.374767, 0.271151, -0.650844, 4.71831),
    4: (3.3791495, 0.312319, -0.488143, 5.00752),
    5: (4.5328009, 0.309387, -0.498664, 6.76468),
    6: (5.7558755, 0.334322, -0.413460, 7.03368),
    7: (7.07846158, 0.330258, -0.426725, 8.81483),
}
GOLDEN_TOL = (2e-5, 2e-5, 1e-4, 1e-4)
LAMBDA_STAR = -1.34046

# shifted unit-variance quartic base density exp(-c x^4): E Z^4 / (E Z^2)^2
QUARTIC_KURTOSIS = 0.25 / (math.gamma(0.75) / math.gamma(0.25)) ** 2
# mean strata of the unit-sd shifted-quartic (1,2,3,4) specs.  The last one
# lies past 18 sd, where the 1-D Newton fit is known to fail (ROADMAP
# item 3).  Strata are narrow and avoid the 12-18 sd edge, so that the
# Newton work and the number of failing fits hardly depend on the seed.
QUARTIC_STRATA = ((1.0, 3.0), (3.0, 4.0), (5.0, 6.0), (9.0, 10.0), (19.0, 21.0))


class CheckFailed(Exception):
    """The program returned an output that is wrong."""


class ProgramFailure(Exception):
    """The program reported a typed failure (non-zero exit or InfoqmError)."""


@dataclass
class Job:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bytes]
    out: Path | None = None  # CLI output file, removed before each call


def _require(cond: bool, label: str, what: str) -> None:
    if not cond:
        raise CheckFailed(f"{label}: {what}")


# ---------------------------------------------------------------------------
# CLI jobs


def _cli_job(kind: str, label: str, argv: list[str], out: Path, validate) -> Job:
    argv = argv + ["--out", str(out)]

    def call():
        return cli.run(argv)

    def check(code):
        if code in (2, 3):
            raise ProgramFailure(f"{label}: exit {code}")
        _require(code == 0, label, f"unexpected exit code {code}")
        _require(out.exists(), label, "no output file")
        data = out.read_bytes()
        validate(data.decode("utf-8"), label)
        return data

    return Job(kind, label, call, check, out)


def _golden_row(label: str, n: int, alpha: float, beta: float, lam: float, en: float) -> None:
    for got, ref, tol in zip((alpha, beta, lam, en), GOLDEN_TABLE[n], GOLDEN_TOL):
        _require(abs(got - ref) <= tol, label, f"row n={n}: {got} vs reference {ref}")


def _table_validator(n_max: int, fmt: str):
    def validate(text: str, label: str) -> None:
        if fmt == "json":
            rows = [(r["n"], r["k"], r["alpha"], r["beta"], r["lambda"], r["energy"])
                    for r in json.loads(text)["rows"]]
        else:
            lines = text.strip().split("\n")
            _require(lines[0] == "n,k,alpha,beta,lambda,energy", label, "bad CSV header")
            rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        _require([int(r[0]) for r in rows] == list(range(n_max + 1)), label, "wrong rows")
        for n, k, alpha, beta, lam, en in rows:
            n = int(n)
            _require(int(k) == n % 2, label, f"parity index of row {n}")
            _require(2 * alpha > 1 and lam < 0 and beta > 0, label, f"row {n} off the branch")
            if n in GOLDEN_TABLE:
                _golden_row(label, n, alpha, beta, lam, en)

    return validate


def _gram_validator(n_max: int):
    def validate(text: str, label: str) -> None:
        lines = text.strip().split("\n")
        g = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        _require(g.shape == (n_max + 1, n_max + 1), label, f"gram shape {g.shape}")
        _require(np.max(np.abs(np.diag(g) - 1.0)) < 1e-8, label, "gram diagonal is not 1")
        odd = (np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)) % 2) == 1
        _require(np.max(np.abs(g[odd]), initial=0.0) < 1e-10, label, "opposite parity overlap")
        _require(np.array_equal(g, g.T), label, "gram matrix not symmetric")

    return validate


def _project_validator(orders: tuple[int, ...], state_n: int | None):
    def validate(text: str, label: str) -> None:
        doc = json.loads(text)
        res = doc["residuals"]
        _require(tuple(doc["orders"]) == orders, label, "orders echoed wrong")
        _require(len(res) == len(orders) == len(doc["condition_numbers"]), label, "lengths")
        _require(len(doc["coefficients"]) == max(orders), label, "coefficient count")
        _require(all(math.isfinite(r) and r >= 0 for r in res), label, "bad residual")
        _require(all(b <= a + 1e-9 for a, b in zip(res, res[1:])), label, "residual grew")
        _require(all(c >= 1.0 - 1e-9 for c in doc["condition_numbers"]), label, "condition < 1")
        if state_n is not None:
            # the target is basis member n: exact once the order reaches n + 1
            for m, r in zip(orders, res):
                if m > state_n:
                    _require(r < 1e-6, label, f"member target residual {r} at order {m}")
            _require(abs(doc["coefficients"][state_n] - 1.0) < 1e-6, label, "member coefficient")

    return validate


def _series_validator(n_max: int, exact: float, rel: float):
    def validate(text: str, label: str) -> None:
        rows = text.strip().split("\n")[1:]
        _require(len(rows) == n_max + 1, label, "row count")
        _require(float(rows[0].split(",")[1]) == 1.0, label, "first partial sum is not 1")
        last = float(rows[-1].split(",")[1])
        _require(abs(last - exact) <= rel * abs(exact), label, f"sum {last} vs {exact}")

    return validate


def _recomputed_moments(doc: dict, orders) -> tuple[float, list[float]]:
    """Normalization and moments of a fitted density by an independent
    20001-point trapezoid rule over its fit window."""
    lo, hi = doc["diagnostics"]["window"]
    xs = np.linspace(lo, hi, 20001)
    expo = np.zeros_like(xs)
    for order, value in doc["multipliers"]:
        expo += value * xs**order
    rho = np.exp(-expo)
    norm = float(np.trapezoid(rho, xs))
    return norm, [float(np.trapezoid(rho * xs**o, xs)) / norm for o in orders]


def _fit_validator(spec: dict, tol: float, gaussian: tuple[float, float] | None):
    orders = [m["order"] for m in spec["moments"]]
    targets = [m["value"] for m in spec["moments"]]

    def validate(text: str, label: str) -> None:
        doc = json.loads(text)
        _require(doc["diagnostics"]["max_moment_residual"] <= tol, label, "residual above --tol")
        norm, moments = _recomputed_moments(doc, orders)
        _require(abs(norm - 1.0) < 1e-7, label, f"normalization {norm}")
        for o, got, want in zip(orders, moments, targets):
            _require(abs(got - want) <= 1e-6 * max(1.0, abs(want)), label, f"moment {o}: {got}")
        if gaussian is not None:
            mean, sd = gaussian
            mult = dict((o, v) for o, v in doc["multipliers"])
            _require(abs(mult[1] + mean / sd**2) < 1e-6, label, "Gaussian a_1")
            _require(abs(mult[2] - 0.5 / sd**2) < 1e-6, label, "Gaussian a_2")

    return validate


def _nls_validator(grid: Grid1D, b: float | None, tol_flow: float, lam_tol: float):
    def validate(text: str, label: str) -> None:
        doc = json.loads(text)
        psi = np.asarray(doc["psi"], dtype=float)
        h = grid.spacing
        _require(psi.shape == (grid.n_points,), label, "psi length")
        _require(psi[0] == 0.0 and psi[-1] == 0.0, label, "boundary not pinned")
        _require(bool(np.all(psi[1:-1] > 0.0)), label, "interior not positive")
        _require(abs(h * float(psi @ psi) - 1.0) < 1e-9, label, "norm is not 1")
        _require(doc["diagnostics"]["flow_norm"] < tol_flow, label, "flow norm above tol")
        coef = doc["b"]
        lap = np.zeros_like(psi)
        lap[1:-1] = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (h * h)
        x = grid.points()
        dens = psi * psi
        logd = np.log(np.maximum(dens, 1e-100))
        mu = h * float(psi @ (-0.5 * lap + 0.5 * x * x * psi)) - coef * h * float(dens @ logd)
        _require(abs(mu - doc["mu"]) < 1e-7 * max(1.0, abs(mu)), label, f"mu {doc['mu']} vs {mu}")
        if b is None:
            _require(doc["lambda"] == coef, label, "lambda differs from b")
            _require(abs(doc["mu"] - coef) < 1e-6, label, "mu(b) != b")
            _require(abs(coef - LAMBDA_STAR) < lam_tol, label, f"lambda {coef}")
        else:
            _require(doc["lambda"] is None and coef == b, label, "fixed b not echoed")

    return validate


# ---------------------------------------------------------------------------
# library jobs


def _library_job(kind: str, label: str, fn: Callable[[], object], validate) -> Job:
    def call():
        try:
            return fn()
        except InfoqmError as exc:
            return exc

    def check(result):
        if isinstance(result, InfoqmError):
            raise ProgramFailure(f"{label}: {type(result).__name__}: {result}")
        return validate(result, label)

    return Job(kind, label, call, check)


def _simpson(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(lo, hi, n)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return xs, w * (xs[1] - xs[0]) / 3.0


def _fit_2d_job(label: str, spec: maxent.MomentSpec2D, tol: float) -> Job:
    def validate(result, label):
        density, diag = result
        _require(diag.max_moment_residual <= tol, label, "2-D residual above tol")
        (a1, b1), (a2, b2) = spec.support
        xs, wx = _simpson(a1, b1, 401)
        ys, wy = _simpson(a2, b2, 401)
        xs, ys, weights = xs[:, None], ys[None, :], np.outer(wx, wy)
        expo = sum(v * xs**i * ys**j for i, j, v in density.multipliers)
        rho = np.exp(-expo)

        def integral(f):
            return float(np.sum(weights * f))

        norm = integral(rho)
        _require(abs(norm - 1.0) < 1e-5, label, f"2-D normalization {norm}")
        for i, j, want in spec.constraints:
            got = integral(rho * xs**i * ys**j)
            _require(abs(got - want) < 1e-5 * max(1.0, abs(want)), label, f"moment ({i},{j})")
        return repr(density.multipliers).encode()

    return _library_job("fit_2d", label, lambda: maxent.fit_multipliers_2d(spec, tol=tol), validate)


def _functionals_job(label: str, fits: list[tuple[Path, dict[int, float], float]]) -> Job:
    """information / modified_information on the densities fitted earlier
    in the pass (fits that failed left no file and are skipped).

    For a fit rho = exp(-sum_i a_i x^i) with moments m_i, <ln rho> is
    exactly -(a_0 + sum_i a_i m_i); the moments match within the fit's
    tol, which bounds the check's slack.
    """

    def fn():
        values = []
        for path, moments, tol in fits:
            if not path.exists():
                continue
            d = maxent.density_from_json(path.read_text(encoding="utf-8"))
            mult = dict(d.multipliers)
            exact = -(mult[0] + sum(mult[o] * m for o, m in moments.items()))
            slack = 1e-8 + tol * sum(abs(mult[o]) for o in moments)
            values.append((maxent.information(d), maxent.modified_information(d), exact, slack))
            if math.isfinite(d.support[0]) and math.isfinite(d.support[1]):
                lo, hi = d.support
                factored = maxent.ExpFamilyDensity1D(
                    d.multipliers, d.support,
                    maxent.EndpointFactors(zeros=((lo, 1.5),), singularities=((hi, 0.4),)),
                )
                values.append((None, maxent.modified_information(factored), None, None))
        return values

    def validate(values, label):
        _require(bool(values), label, "no fitted density to evaluate")
        for info, modified, exact, slack in values:
            _require(math.isfinite(modified), label, "modified information not finite")
            if info is not None:
                _require(info == modified, label, "trivial factors must reduce exactly")
                _require(abs(info - exact) <= slack, label, f"information {info} vs {exact}")
        return repr(values).encode()

    return _library_job("functionals", label, fn, validate)


def _probe_job(label: str, case: "GridCase", n_inits: int, seed: int) -> Job:
    problem = nls.GridProblem.harmonic(case.grid)
    cfg = nls.FlowConfig(step=case.tau, tol_flow=1e-9, seed=seed)

    def validate(report, label):
        _require(not report.failures, label, f"probe failures {report.failures}")
        _require(len(report.eigenvalues) == n_inits, label, "eigenvalue count")
        _require(report.max_eigenvalue_spread < 1e-6, label, "eigenvalue spread")
        _require(report.max_state_l2_distance < 1e-5, label, "state spread")
        _require(all(abs(v - LAMBDA_STAR) < case.lam_tol for v in report.eigenvalues),
                 label, "lambda")
        return repr((report.eigenvalues, report.max_state_l2_distance)).encode()

    return _library_job(
        "probe", label, lambda: nls.uniqueness_probe(problem, cfg, n_inits), validate
    )


# ---------------------------------------------------------------------------
# input generation


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return path


def _moment_doc(support, moments: dict[int, float]) -> dict:
    bound = [("inf" if v > 0 else "-inf") if math.isinf(v) else v for v in support]
    return {"support": bound,
            "moments": [{"order": o, "value": v} for o, v in sorted(moments.items())]}


def _quartic_moments(mean: float, sd: float) -> dict[int, float]:
    """Raw moments 1..4 of mean + sd * Z, Z the unit-variance quartic base."""
    v = sd * sd
    return {1: mean, 2: mean**2 + v, 3: mean**3 + 3 * mean * v,
            4: mean**4 + 6 * mean**2 * v + QUARTIC_KURTOSIS * v * v}


def _gaussian_moments(mean: float, sd: float) -> dict[int, float]:
    return {1: mean, 2: mean * mean + sd * sd}


def _resume_state(path: Path, grid: Grid1D, rng: random.Random) -> Path:
    """A positive smooth random state on the grid, as a --resume document."""
    x = grid.points()
    width = grid.x_max - grid.x_min
    center = rng.uniform(-0.1, 0.1) * width
    s = width / 8.0 * rng.uniform(0.6, 1.4)
    psi = np.exp(-((x - center) ** 2) / (2.0 * s * s))
    phase = np.pi * (x - grid.x_min) / width
    for j in range(1, 6):
        psi *= 1.0 + rng.uniform(-0.08, 0.08) * np.cos(j * phase)
    return _write_json(path, {"psi": [round(float(v), 15) for v in psi]})


class JobList:
    """Collects the jobs of one workload and writes their inputs."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.inp = workdir / "in"
        self.out = workdir / "out"
        self.inp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.rng = rng
        self.jobs: list[Job] = []
        self.fits: list[tuple[Path, dict[int, float], float]] = []

    def add(self, job: Job) -> None:
        self.jobs.append(job)

    def table(self, label: str, n_max: int, fmt: str) -> None:
        argv = ["oscillator", "table", "--n-max", str(n_max), "--format", fmt, "--digits", "12"]
        self.add(_cli_job("oscillator_table", label, argv, self.out / f"{label}.{fmt}",
                          _table_validator(n_max, fmt)))

    def gram(self, label: str, n_max: int) -> None:
        self.add(_cli_job("analyze_gram", label, ["analyze", "gram", "--n-max", str(n_max)],
                          self.out / f"{label}.csv", _gram_validator(n_max)))

    def project(self, label: str, target: dict, orders: tuple[int, ...]) -> None:
        path = _write_json(self.inp / f"{label}.json", target)
        argv = ["analyze", "project", "--target", str(path),
                "--orders", ",".join(map(str, orders))]
        state_n = int(target["n"]) if target["kind"] == "state" else None
        self.add(_cli_job("analyze_project", label, argv, self.out / f"{label}.json",
                          _project_validator(orders, state_n)))

    def series(self, label: str, kind: str) -> None:
        rng = self.rng
        if kind == "binomial":
            a, k = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.5)
            x = rng.choice((-1, 1)) * rng.uniform(0.2, 0.6) / a
            argv = ["--kind", "binomial", "--a", repr(a), "--k", repr(k), "--x", repr(x)]
            n_max, exact, rel = 60, (1.0 + a * x) ** k, 1e-8
        else:
            x, y = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            argv = ["--kind", "exp-xy", "--x", repr(x), "--y", repr(y)]
            n_max, exact, rel = 30, math.exp(x * y), 1e-10
        self.add(_cli_job("series_probe", label,
                          ["series", "probe", *argv, "--n-max", str(n_max)],
                          self.out / f"{label}.csv", _series_validator(n_max, exact, rel)))

    def fit(self, label: str, support, moments: dict[int, float], tol: float | None,
            gaussian: tuple[float, float] | None = None, init: str | None = None) -> None:
        spec = _moment_doc(support, moments)
        path = _write_json(self.inp / f"{label}.json", spec)
        argv = ["maxent", "fit", "--spec", str(path)]
        if tol is not None:
            argv += ["--tol", repr(tol)]
        if init is not None:
            argv += ["--init", str(self.out / f"{init}.json")]
        out = self.out / f"{label}.json"
        tol = 1e-10 if tol is None else tol  # the CLI's default
        self.add(_cli_job("maxent_fit", label, argv, out, _fit_validator(spec, tol, gaussian)))
        self.fits.append((out, moments, tol))

    def gaussian_fit(self, label: str) -> tuple[float, float]:
        mean, sd = self.rng.uniform(-3.0, 3.0), self.rng.uniform(0.5, 2.0)
        self.fit(label, (-math.inf, math.inf), _gaussian_moments(mean, sd), None,
                 gaussian=(mean, sd))
        return mean, sd

    def fit_2d(self, label: str, quartic: bool) -> None:
        # narrow draws keep the Newton iterations, and so the slowest jobs
        # of closed_form, nearly the same for every seed
        rng = self.rng
        half = rng.uniform(2.9, 3.1)
        v1, v2 = rng.uniform(0.7, 0.8), rng.uniform(0.7, 0.8)
        if quartic:
            c = rng.uniform(2.6, 2.7)
            cons = ((2, 0, v1), (0, 2, v2), (4, 0, c * v1 * v1), (0, 4, c * v2 * v2))
        else:
            m1, m2 = rng.uniform(0.15, 0.25), rng.uniform(-0.25, -0.15)
            cov = rng.uniform(0.25, 0.3) * math.sqrt(v1 * v2)
            cons = ((1, 0, m1), (0, 1, m2), (2, 0, v1 + m1 * m1), (0, 2, v2 + m2 * m2),
                    (1, 1, cov + m1 * m2))
        spec = maxent.MomentSpec2D(((-half, half), (-half, half)), cons)
        self.add(_fit_2d_job(label, spec, 1e-9))

    def functionals(self, label: str) -> None:
        self.add(_functionals_job(label, list(self.fits)))

    def nls_ground(self, label: str, case: "GridCase", tol_flow: float,
                   b: float | None, resume: Path | None) -> Path:
        grid = case.grid
        argv = ["nls", "ground", "--domain", repr(grid.x_min), repr(grid.x_max),
                "--grid", str(grid.n_points), "--tau", repr(case.tau),
                "--tol-flow", repr(tol_flow)]
        argv += ["--lambda-solve"] if b is None else ["--b", repr(b)]
        if resume is not None:
            argv += ["--resume", str(resume)]
        out = self.out / f"{label}.json"
        self.add(_cli_job("nls_ground", label, argv, out,
                          _nls_validator(grid, b, tol_flow, case.lam_tol)))
        return out

    def probe(self, label: str, case: "GridCase", n_inits: int) -> None:
        self.add(_probe_job(label, case, n_inits, self.rng.randrange(1 << 31)))


@dataclass(frozen=True)
class GridCase:
    """A flow grid, a stable step for it, and the distance from the
    closed-form lambda its discretization error allows."""

    grid: Grid1D
    tau: float
    lam_tol: float


# the grid used wherever a workload only needs the nls layer present
TINY = GridCase(Grid1D(-8.0, 8.0, 48), 0.02, 5e-3)
LAMBDA_CASE = GridCase(Grid1D(-12.0, 12.0, 512), 1.5e-3, 1e-3)
PROBE_CASE = GridCase(Grid1D(-12.0, 12.0, 256), 5e-3, 1e-3)
FIXED_B_CASE = GridCase(Grid1D(-12.0, 12.0, 2048), 1.2e-4, 1e-3)


def small_jobs(b: JobList, prefix: str, kinds: set[str] | None = None) -> None:
    """One small job of each kind, in dependency order (fits before the
    functionals that read them).  ``kinds`` limits the set."""
    rng = b.rng

    def want(kind):
        return kinds is None or kind in kinds

    if want("oscillator_table"):
        b.table(f"{prefix}table", 7, "csv")
    if want("analyze_gram"):
        b.gram(f"{prefix}gram", 4)
    if want("analyze_project"):
        b.project(f"{prefix}project", {"kind": "state", "n": rng.randrange(4)}, (1, 2, 4, 6))
    if want("series_probe"):
        b.series(f"{prefix}series", "binomial")
    if want("maxent_fit"):
        b.gaussian_fit(f"{prefix}fit")
    if want("fit_2d"):
        b.fit_2d(f"{prefix}fit2d", quartic=False)
    if want("functionals"):
        b.functionals(f"{prefix}functionals")
    if want("nls_ground"):
        b.nls_ground(f"{prefix}nls", TINY, 1e-8, round(rng.uniform(-1.55, -1.45), 6), None)
    if want("probe"):
        b.probe(f"{prefix}probe", TINY, 2)


def _closed_form(b: JobList, smoke: bool) -> None:
    rng = b.rng
    b.table("table20_csv", 20, "csv")
    b.table("table20_json", 20, "json")
    b.table("table_csv", rng.randint(7, 14), "csv")
    b.gram("gram7", 7)
    orders = (1, 2, 3, 4, 6, 8)
    for i, n in enumerate(rng.sample(range(8), 2)):
        b.project(f"project_state{i}", {"kind": "state", "n": n}, orders)
    for i, power in enumerate(rng.sample(range(5), 2)):
        target = {"kind": "gauss_power", "power": power, "scale": round(rng.uniform(0.6, 1.6), 6)}
        b.project(f"project_gauss{i}", target, orders)
    for i, kind in enumerate(("binomial", "binomial", "exp-xy", "exp-xy")):
        b.series(f"series{i}", kind)
    # Nine easy fits of about the same cost (seven cold Gaussian fits and
    # two one-moment bounded fits) make up the lower half of the 17 fits,
    # so that maxent_fit_s, their median, is one of them for every seed.
    # Quartic fits slow down less than the rest of the program when the
    # machine is contended, so the speed normalization over-corrects them
    # (README.md); as the median they would make maxent_fit_s drift.
    # A warm start refits a nearby spec from the previous fit's output.
    mean, sd = b.gaussian_fit("fit_gauss0")
    mean, sd = mean + 0.1 * sd, 1.05 * sd
    b.fit("fit_gauss0_warm", (-math.inf, math.inf), _gaussian_moments(mean, sd), None,
          gaussian=(mean, sd), init="fit_gauss0")
    for i in range(1, 7):
        b.gaussian_fit(f"fit_gauss{i}")
    for i in range(3):
        lo, width = rng.uniform(-2.0, 2.0), rng.uniform(1.0, 3.0)
        if i != 1:
            moments = {1: lo + width * rng.uniform(0.3, 0.7)}
        else:
            c = lo + width * rng.uniform(0.4, 0.6)
            moments = {1: c, 2: c * c + width * width * rng.uniform(0.03, 0.07)}
        b.fit(f"fit_bounded{i}", (lo, lo + width), moments, 1e-10)
    for i, (z_lo, z_hi) in enumerate(QUARTIC_STRATA):
        # negative means cost seven to ten times more per Newton iteration;
        # a fixed sign per stratum keeps that cost the same for every seed
        mean = (-1 if i == 0 else 1) * rng.uniform(z_lo, z_hi)
        b.fit(f"fit_quartic{i}", (-math.inf, math.inf), _quartic_moments(mean, 1.0), 1e-8)
        if i == 0:
            shifted = _quartic_moments(mean + 0.1, 1.05)
            b.fit("fit_quartic0_warm", (-math.inf, math.inf), shifted, 1e-8, init="fit_quartic0")
    b.fit_2d("fit2d_gauss", quartic=False)
    b.fit_2d("fit2d_quartic", quartic=True)
    b.functionals("functionals")


def _nls_lambda(b: JobList, smoke: bool) -> None:
    # two jobs of about 2 s each: a job's latency is the median of its runs,
    # and shorter passes give each job more runs in a run
    case = TINY if smoke else LAMBDA_CASE
    for i in range(2):
        resume = _resume_state(b.inp / f"resume{i}.json", case.grid, b.rng)
        b.nls_ground(f"lambda{i}", case, 1e-8, None, resume)
    b.probe("probe", TINY if smoke else PROBE_CASE, 2)


def _nls_fixed_b(b: JobList, smoke: bool) -> None:
    case = TINY if smoke else FIXED_B_CASE
    lo, hi = nls.DEFAULT_BRACKET
    # A cold start at a b in the second quarter of the bracket, then a warm
    # start from its output at a b in the third quarter: two jobs of 1.5 to
    # 2 s, so that each gets several runs in a run.  Flow steps grow steeply
    # with b, so each b stays within 3% of its quarter's width of the centre,
    # which keeps the steps of a job within 1% across seeds.
    cold_b, warm_b = (round(lo + (hi - lo) * (q + 0.5 + b.rng.uniform(-0.03, 0.03)) / 4, 6)
                      for q in (1, 2))
    cold = b.nls_ground("fixed_cold", case, 1e-6, cold_b, None)
    b.nls_ground("fixed_warm", case, 1e-6, warm_b, cold)


# workload -> (own jobs, whether its own jobs take seconds each)
_OWN = {
    "closed_form": (_closed_form, False),
    "nls_lambda": (_nls_lambda, True),
    "nls_fixed_b": (_nls_fixed_b, True),
}


def build(workload: str, seed: int, workdir: Path, smoke: bool) -> tuple[list[Job], list[Job]]:
    """(warm-up jobs, pass jobs) of a workload.

    A pass is the workload's own jobs plus one small job of every kind it
    lacks, so that every subcommand and every layer is timed on every
    workload.  Where the own jobs take seconds each, the small CLI jobs
    run three times after each of them, so that they get tens of runs,
    spread through the whole run.  The warm-up is one small job of every
    kind, run once before timing so that lazy imports and first-call
    costs are paid.
    """
    rng = random.Random(f"{workload}/{seed}")
    warm = JobList(workdir / "warmup", rng)
    small_jobs(warm, "warm_")
    main = JobList(workdir / "pass", rng)
    own_jobs, long_jobs = _OWN[workload]
    own_jobs(main, smoke)
    own = list(main.jobs)
    missing = set(SUBCOMMAND_METRICS) | set(LIBRARY_KINDS)
    small_jobs(main, "small_", missing - {job.kind for job in own})
    small = main.jobs[len(own):]
    if not long_jobs:
        return warm.jobs, own + small
    cli_small = [job for job in small if job.kind in SUBCOMMAND_METRICS]
    lib_small = [job for job in small if job.kind not in SUBCOMMAND_METRICS]
    jobs = []
    for job in own:
        jobs += [job, *cli_small, *cli_small, *cli_small]
    return warm.jobs, jobs + lib_small
