"""Command-line front end.

One binary with subcommands; every output file is byte-stable for fixed
flags and seed, and is accompanied by a ``<out>.manifest.json`` sidecar
recording the tool version, the argv echo, wall time, and warnings.
Exit codes: 0 success, 2 invalid input, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .analysis import DEFAULT_ANALYSIS_GRID, BasisSet, completeness_projection, gram_matrix
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    IllConditionedError,
    InfeasibleMomentsError,
    InfoqmError,
    NotFoundError,
    NumericError,
    StructureError,
    ValidationError,
)
from .maxent import (
    density_from_json,
    density_to_json,
    fit_multipliers_1d,
    moment_spec_from_json,
)
from .nls import DEFAULT_BRACKET, FlowConfig, GridProblem, ground_state, self_consistent_lambda
from .numerics import Grid1D
from .oscillator import psi_eval, solve_state, table
from .series import binomial_series_eval, two_var_series_eval

_EXIT_INVALID = 2
_EXIT_NO_CONVERGENCE = 3

_INVALID_INPUT_ERRORS = (
    ValidationError,
    DomainError,
    BracketError,
    InfeasibleMomentsError,
    NumericError,
    OSError,
)
_CONVERGENCE_ERRORS = (ConvergenceError, StructureError, NotFoundError, IllConditionedError)


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _json_ready(obj, digits: int = 12):
    """Round floats to a fixed significant-digit budget for byte stability."""
    if isinstance(obj, dict):
        return {k: _json_ready(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v, digits) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(float(v), digits) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return float(f"{v:.{digits}g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _dump_json(doc) -> str:
    return json.dumps(_json_ready(doc), sort_keys=True, indent=1) + "\n"


def _read_document(path: str, flag: str, parse):
    """parse(doc) of the JSON document at path; a malformed one raises ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(json.loads(text))
    except InfoqmError:
        raise
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed {flag} document: {exc!r}") from exc


def _positive_int(text: str) -> int:
    """The value of a --digits flag: a decimal integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="infoqm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"infoqm {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)

    osc = sub.add_parser("oscillator", help="closed-form oscillator states")
    osc_sub = osc.add_subparsers(dest="command", required=True)
    osc_table = osc_sub.add_parser("table", help="solve states n = 0..n_max")
    osc_table.add_argument("--n-max", type=int, required=True)
    osc_table.add_argument("--format", choices=("csv", "json"), default="csv")
    osc_table.add_argument("--digits", type=_positive_int, default=6)
    osc_table.add_argument("--out")

    mx = sub.add_parser("maxent", help="maximum-entropy density fitting")
    mx_sub = mx.add_subparsers(dest="command", required=True)
    mx_fit = mx_sub.add_parser("fit", help="fit multipliers to a moment spec")
    mx_fit.add_argument("--spec", required=True, help="moment spec JSON file")
    mx_fit.add_argument("--tol", type=float, default=1e-10)
    mx_fit.add_argument("--init", help="previously fitted density JSON to warm-start from")
    mx_fit.add_argument("--out")

    ser = sub.add_parser("series", help="series convergence probes")
    ser_sub = ser.add_subparsers(dest="command", required=True)
    probe = ser_sub.add_parser("probe", help="partial sums and Cauchy differences")
    probe.add_argument("--kind", choices=("binomial", "binomial-xy", "exp-xy"), required=True)
    probe.add_argument("--a", type=float, default=1.0)
    probe.add_argument("--k", type=float, default=-1.0)
    probe.add_argument("--x", type=float, required=True)
    probe.add_argument("--y", type=float, default=0.0)
    probe.add_argument("--n-max", type=int, required=True)
    probe.add_argument("--digits", type=_positive_int, default=12)
    probe.add_argument("--out")

    nls = sub.add_parser("nls", help="grid ground-state solver")
    nls_sub = nls.add_subparsers(dest="command", required=True)
    ground = nls_sub.add_parser("ground", help="nodeless ground state")
    ground.add_argument("--domain", type=float, nargs=2, metavar=("XMIN", "XMAX"), required=True)
    ground.add_argument("--grid", type=int, required=True, help="number of grid points")
    ground.add_argument("--b", type=float, default=0.0, help="fixed nonlinearity coefficient")
    ground.add_argument("--lambda-solve", action="store_true", help="solve mu(b) = b for b")
    ground.add_argument("--bracket", type=float, nargs=2, default=DEFAULT_BRACKET)
    ground.add_argument("--tau", type=float, default=1e-4)
    ground.add_argument("--tol-flow", type=float, default=1e-8)
    ground.add_argument("--max-iters", type=int, default=400_000)
    ground.add_argument("--resume", help="previous solution JSON to warm-start from")
    ground.add_argument("--seed", type=int, default=0)
    ground.add_argument("--out")

    an_grid = DEFAULT_ANALYSIS_GRID
    an = sub.add_parser("analyze", help="family diagnostics")
    an_sub = an.add_subparsers(dest="command", required=True)
    gram = an_sub.add_parser("gram", help="gram matrix of the state family")
    gram.add_argument("--n-max", type=int, required=True)
    gram.add_argument("--domain", type=float, nargs=2, default=(an_grid.x_min, an_grid.x_max))
    gram.add_argument("--points", type=int, default=an_grid.n_points)
    gram.add_argument("--digits", type=_positive_int, default=12)
    gram.add_argument("--out")
    proj = an_sub.add_parser("project", help="completeness projection of a target")
    proj.add_argument("--target", required=True, help="target spec JSON file")
    proj.add_argument("--orders", required=True, help="comma-separated truncation orders")
    proj.add_argument("--n-max", type=int, default=7)
    proj.add_argument("--domain", type=float, nargs=2, default=(an_grid.x_min, an_grid.x_max))
    proj.add_argument("--points", type=int, default=an_grid.n_points)
    proj.add_argument("--out")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: each returns the payload text


def _cmd_oscillator_table(args) -> str:
    states = table(args.n_max)
    if args.format == "json":
        doc = {
            "rows": [
                {
                    "n": s.n,
                    "k": s.k,
                    "alpha": s.alpha,
                    "beta": s.beta,
                    "lambda": s.lam,
                    "energy": s.energy,
                }
                for s in states
            ]
        }
        return _dump_json(doc)
    lines = ["n,k,alpha,beta,lambda,energy"]
    for s in states:
        lines.append(
            f"{s.n},{s.k},{_fmt(s.alpha, args.digits)},{_fmt(s.beta, args.digits)},"
            f"{_fmt(s.lam, args.digits)},{_fmt(s.energy, args.digits)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_maxent_fit(args) -> str:
    spec = _read_document(args.spec, "--spec", moment_spec_from_json)
    init = None
    if args.init:
        by_order = dict(_read_document(args.init, "--init", density_from_json).multipliers)
        init = np.array([by_order.get(o, 0.0) for o in spec.orders])
    density, diag = fit_multipliers_1d(spec, init=init, tol=args.tol)
    return _dump_json(density_to_json(density, diag))


def _cmd_series_probe(args) -> str:
    if args.n_max < 0:
        raise ValidationError("--n-max must be nonnegative")
    sums = []
    for n in range(args.n_max + 1):
        if args.kind == "binomial":
            value, _ = binomial_series_eval(args.a, args.k, args.x, n)
        elif args.kind == "binomial-xy":
            value, _ = two_var_series_eval("binomial_xy", args.x, args.y, n, k=args.k)
        else:
            value, _ = two_var_series_eval("exp_xy", args.x, args.y, n)
        sums.append((n, value))
    lines = ["N,partial_sum,cauchy_diff"]
    prev = None
    for n, value in sums:
        diff = "" if prev is None else _fmt(abs(value - prev), args.digits)
        lines.append(f"{n},{_fmt(value, args.digits)},{diff}")
        prev = value
    return "\n".join(lines) + "\n"


def _cmd_nls_ground(args) -> str:
    grid = Grid1D(args.domain[0], args.domain[1], args.grid)
    problem = GridProblem.harmonic(grid, b=args.b)
    cfg = FlowConfig(
        step=args.tau, tol_flow=args.tol_flow, max_iters=args.max_iters, seed=args.seed
    )
    init = None
    if args.resume:
        init = _read_document(args.resume, "--resume", lambda doc: np.asarray(doc["psi"], float))
        if init.shape != (grid.n_points,):
            raise ValidationError("--resume state does not match the requested grid")
    if args.lambda_solve:
        lam, sol = self_consistent_lambda(
            problem, cfg, bracket=tuple(args.bracket), init=init
        )
        lam_out: float | None = lam
    else:
        sol = ground_state(problem, cfg, init=init)
        lam_out = None
    doc = {
        "lambda": lam_out,
        "mu": sol.mu,
        "b": sol.b,
        "iterations": sol.iterations,
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n_points": grid.n_points},
        "psi": sol.psi,
        "diagnostics": {
            "flow_norm": sol.flow_norm,
            "newton_steps": sol.newton_steps,
            "path": "newton" if sol.newton_steps else "flow",
            "energy_initial": sol.energy_trace[0],
            "energy_final": sol.energy_trace[-1],
            "seed": args.seed,
            "tau": args.tau,
            "tol_flow": args.tol_flow,
        },
    }
    return _dump_json(doc)


def _analysis_grid(args) -> Grid1D:
    return Grid1D(args.domain[0], args.domain[1], args.points)


def _cmd_analyze_gram(args) -> str:
    basis = BasisSet.from_states(table(args.n_max), _analysis_grid(args))
    report = gram_matrix(basis)
    header = "n," + ",".join(str(n) for n in range(args.n_max + 1))
    lines = [header]
    for i in range(args.n_max + 1):
        row = ",".join(_fmt(report.matrix[i, j], args.digits) for j in range(args.n_max + 1))
        lines.append(f"{i},{row}")
    return "\n".join(lines) + "\n"


def _target_from_spec(doc, grid: Grid1D):
    kind = doc.get("kind")
    xs = grid.points()
    if kind == "state":
        state = solve_state(int(doc["n"]))
        return psi_eval(state, xs), f"state n={state.n}"
    if kind == "gauss_power":
        power = int(doc.get("power", 0))
        scale = float(doc.get("scale", 1.0))
        if scale <= 0:
            raise ValidationError("gauss_power scale must be positive")
        return xs**power * np.exp(-(xs * xs) / (2.0 * scale * scale)), f"gauss_power p={power}"
    raise ValidationError(f"unknown target kind {kind!r}; use 'state' or 'gauss_power'")


def _cmd_analyze_project(args) -> str:
    try:
        orders = tuple(int(tok) for tok in args.orders.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"--orders must be comma-separated integers: {exc}") from exc
    grid = _analysis_grid(args)
    target, label = _read_document(
        args.target, "--target", lambda doc: _target_from_spec(doc, grid)
    )
    basis = BasisSet.from_states(table(args.n_max), grid)
    report = completeness_projection(target, basis, orders, target_label=label)
    return _dump_json(
        {
            "target": report.target_label,
            "orders": list(report.orders),
            "residuals": list(report.residuals),
            "condition_numbers": list(report.condition_numbers),
            "coefficients": list(report.coefficients),
        }
    )


_DISPATCH = {
    ("oscillator", "table"): _cmd_oscillator_table,
    ("maxent", "fit"): _cmd_maxent_fit,
    ("series", "probe"): _cmd_series_probe,
    ("nls", "ground"): _cmd_nls_ground,
    ("analyze", "gram"): _cmd_analyze_gram,
    ("analyze", "project"): _cmd_analyze_project,
}


def _write_output(payload: str, out_path: str | None, manifest: dict) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    with open(out_path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, write output; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else _EXIT_INVALID
    start = time.perf_counter()
    try:
        payload = _DISPATCH[(args.group, args.command)](args)
        manifest = {
            "tool": "infoqm",
            "version": __version__,
            "argv": list(argv),
            "wall_time_s": round(time.perf_counter() - start, 6),
            "warnings": [],
        }
        _write_output(payload, getattr(args, "out", None), manifest)
    except _INVALID_INPUT_ERRORS as exc:
        print(f"infoqm: error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except _CONVERGENCE_ERRORS as exc:
        print(f"infoqm: error: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
