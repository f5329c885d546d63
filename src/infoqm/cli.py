"""Command-line front end.

One binary with subcommands; every output file is byte-stable for fixed
flags and seed, and is accompanied by a ``<out>.manifest.json`` sidecar
recording the tool version, the argv echo, wall time, and warnings.
A command line that does not parse is reported by the subcommand's
parser.  Exit codes: 0 success, 2 invalid input, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .analysis import GaussPower, completeness_projection, gram_matrix
from .errors import InfoqmError, ValidationError
from .maxent import (
    _MALFORMED,
    _malformed,
    density_from_json,
    density_to_json,
    fit_multipliers_1d,
    moment_spec_from_json,
)
from .nls import (_AGMON_DISTANCE, DEFAULT_BRACKET, FlowConfig, GridProblem, ground_state,
                  self_consistent_lambda)
from .numerics import Grid1D, _as_int
from .oscillator import solve_state, table
from .series import MAX_SERIES_TERMS, partial_sums

_EXIT_INVALID = 2
_EXIT_NO_CONVERGENCE = 3


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _csv(header: str, lines) -> str:
    """CSV text: the header line, each of lines, and a trailing newline."""
    return "\n".join((header, *lines)) + "\n"


# the oscillator table's columns, in order: its CSV header and JSON row keys
_TABLE_FIELDS = ("n", "k", "alpha", "beta", "lambda", "energy")


_JSON_STRING = json.encoder.encode_basestring_ascii
_MIN_NORMAL = sys.float_info.min


class _Exact(float):
    """A float that _dump_json writes at full precision, by float.__repr__."""


def _json_float(value: float) -> str:
    """value rounded to 12 significant digits for byte stability; an
    infinity or NaN is written as the string of its str."""
    if math.isfinite(value):
        return float.__repr__(float(f"{value:.12g}"))
    return _JSON_STRING(str(value))


def _json_floats(values) -> list[str]:
    """_json_float of each entry of a 1-D float array, byte for byte, from
    one %-format call.  Where the 12-digit %g string of a normal float is
    positional with a "." or has a negative exponent, it is already the
    repr of the float it rounds to: that float has at most 12 significant
    digits, fewer than the 15 every decimal keeps through a double, and
    repr writes it in the same form.  Only an entry whose %g string can be
    otherwise goes through _json_float: a zero, a subnormal, an infinity
    or a NaN, one of size at least 1e11 (an "e+" form from 1e12 on; repr
    is positional below 1e16), and one of size at least 0.5 within 1e-11
    of its size of an integer (12 digits that may round to an integer,
    which needs its ".0")."""
    array = np.asarray(values, dtype=float)
    if not array.size:
        return []
    floats = array.tolist()
    texts = (("%.12g," * len(floats))[:-1] % tuple(floats)).split(",")
    size = np.abs(array)
    # an infinity and a NaN, special anyway, read 0 here: no invalid operation
    below = np.where(size < 1e11, size, 0.0)
    near_integer = np.abs(below - np.rint(below)) <= 1e-11 * below
    # a NaN fails every comparison, so the first term takes it
    special = ~(size >= _MIN_NORMAL) | (size >= 1e11) | (size >= 0.5) & near_integer
    for i in special.nonzero()[0].tolist():
        texts[i] = _json_float(floats[i])
    return texts


def _json_text(obj, newline: str) -> str:
    """obj as JSON text, each nested entry on its own line one space further
    in than ``newline`` (a line break and obj's own indent)."""
    if isinstance(obj, str):
        return _JSON_STRING(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float.__repr__(obj) if isinstance(obj, _Exact) else _json_float(float(obj))
    inner = newline + " "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        entries = [f"{_JSON_STRING(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(entries) + newline + "}"
    if isinstance(obj, np.ndarray):
        entries = _json_floats(obj)
    elif isinstance(obj, (list, tuple)):
        entries = [_json_text(v, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    text = ("," + inner).join(entries)
    return "[" + inner + text + newline + "]" if text else "[]"


def _dump_json(doc) -> str:
    """The text of a JSON file: keys (all strings) sorted, one space of
    indent per level, every float rounded to 12 significant digits but an
    _Exact one, which keeps its repr (an infinity or NaN written as the
    string "inf", "-inf" or "nan"), a tuple or 1-D array written as a list
    of its entries, a numpy scalar as its Python value; json.dumps(...,
    sort_keys=True, indent=1) of that, plus a newline, byte for byte."""
    return _json_text(doc, "\n") + "\n"


def _read_document(path: str, flag: str, parse):
    """parse(doc) of the JSON document at path; a malformed one raises ValidationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(json.loads(data.decode("utf-8")))
    except InfoqmError:
        raise
    except _MALFORMED as exc:
        raise _malformed(flag, exc) from exc


# 17 significant digits round-trip every double; more only spell out its
# binary expansion
_MAX_DIGITS = 17
# a negative number, in exponent form too, or a negative infinity or NaN
# as float() spells them, so each reaches the number rule; argparse's own
# pattern, ^-\d+$|^-\d*\.\d+$, reads -1e-3 and -inf as options
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:inf|infinity|nan))$")


def _digits(text: str) -> int:
    """The value of a --digits flag: a decimal integer from 1 to 17."""
    if not text.isdecimal() or not 1 <= int(text) <= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [1, {_MAX_DIGITS}], got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every _NEGATIVE_NUMBER as a value, not
    an option; add_parser makes each subparser of this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The infoqm parser, and its leaf parsers keyed by (group, command)."""
    parser = _Parser(prog="infoqm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"infoqm {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)

    osc = sub.add_parser("oscillator", help="closed-form oscillator states")
    osc_sub = osc.add_subparsers(dest="command", required=True)
    osc_table = osc_sub.add_parser("table", help="solve states n = 0..n_max")
    osc_table.add_argument("--n-max", type=int, required=True)
    osc_table.add_argument("--format", choices=("csv", "json"), default="csv")
    osc_table.add_argument("--digits", type=_digits, default=6)
    osc_table.add_argument("--out")
    osc_table.set_defaults(handler=_cmd_oscillator_table)

    mx = sub.add_parser("maxent", help="maximum-entropy density fitting")
    mx_sub = mx.add_subparsers(dest="command", required=True)
    mx_fit = mx_sub.add_parser("fit", help="fit multipliers to a moment spec")
    mx_fit.add_argument("--spec", required=True, help="moment spec JSON file")
    mx_fit.add_argument("--tol", type=float, default=1e-10)
    mx_fit.add_argument("--init", help="previously fitted density JSON to warm-start from")
    mx_fit.add_argument("--out")
    mx_fit.set_defaults(handler=_cmd_maxent_fit)

    ser = sub.add_parser("series", help="series convergence probes")
    ser_sub = ser.add_subparsers(dest="command", required=True)
    probe = ser_sub.add_parser("probe", help="partial sums and Cauchy differences")
    probe.add_argument("--kind", choices=("binomial", "binomial-xy", "exp-xy"), required=True)
    probe.add_argument("--a", type=float, default=1.0)
    probe.add_argument("--k", type=float, default=-1.0)
    probe.add_argument("--x", type=float, required=True)
    probe.add_argument("--y", type=float, default=0.0)
    probe.add_argument("--n-max", type=int, required=True)
    probe.add_argument("--digits", type=_digits, default=12)
    probe.add_argument("--out")
    probe.set_defaults(handler=_cmd_series_probe)

    nls = sub.add_parser("nls", help="grid ground-state solver")
    nls_sub = nls.add_subparsers(dest="command", required=True)
    ground = nls_sub.add_parser("ground", help="nodeless ground state")
    ground.add_argument("--domain", type=float, nargs=2, metavar=("XMIN", "XMAX"), required=True)
    ground.add_argument("--grid", type=int, required=True, help="number of grid points")
    b_or_root = ground.add_mutually_exclusive_group()
    b_or_root.add_argument("--b", type=float, default=0.0, help="fixed nonlinearity coefficient")
    b_or_root.add_argument("--lambda-solve", action="store_true", help="solve mu(b) = b for b")
    ground.add_argument("--bracket", type=float, nargs=2, default=DEFAULT_BRACKET)
    ground.add_argument("--tau", type=float, default=1e-4)
    ground.add_argument("--tol-flow", type=float, default=1e-8)
    ground.add_argument("--resume", help="previous solution JSON to warm-start from")
    ground.add_argument("--out")
    ground.set_defaults(handler=_cmd_nls_ground)

    an = sub.add_parser("analyze", help="family diagnostics")
    an_sub = an.add_subparsers(dest="command", required=True)
    gram = an_sub.add_parser("gram", help="gram matrix of the state family")
    gram.add_argument("--n-max", type=int, required=True)
    gram.add_argument("--digits", type=_digits, default=12)
    gram.add_argument("--out")
    gram.set_defaults(handler=_cmd_analyze_gram)
    proj = an_sub.add_parser("project", help="completeness projection of a target")
    proj.add_argument("--target", required=True, help="target spec JSON file")
    proj.add_argument("--orders", required=True, help="comma-separated truncation orders")
    proj.add_argument("--n-max", type=int, default=7)
    proj.add_argument("--out")
    proj.set_defaults(handler=_cmd_analyze_project)

    groups = {"oscillator": osc_sub, "maxent": mx_sub, "series": ser_sub, "nls": nls_sub,
              "analyze": an_sub}
    leaves = {(group, command): leaf for group, action in groups.items()
              for command, leaf in action.choices.items()}
    return parser, leaves


# ---------------------------------------------------------------------------
# subcommand bodies: each returns the payload text


def _cmd_oscillator_table(args) -> str:
    states = table(args.n_max)
    if args.format == "json":
        return _dump_json({"rows": [
            dict(zip(_TABLE_FIELDS, (s.n, s.k, s.alpha, s.beta, s.lam, s.energy)))
            for s in states]})
    d = args.digits
    return _csv(",".join(_TABLE_FIELDS), [
        f"{s.n},{s.k},{_fmt(s.alpha, d)},{_fmt(s.beta, d)},{_fmt(s.lam, d)},{_fmt(s.energy, d)}"
        for s in states])


def _cmd_maxent_fit(args) -> str:
    spec = _read_document(args.spec, "--spec", moment_spec_from_json)
    init = None
    if args.init:
        by_order = dict(_read_document(args.init, "--init", density_from_json).multipliers)
        init = np.array([by_order.get(o, 0.0) for o in spec.orders])
    density, diag = fit_multipliers_1d(spec, init=init, tol=args.tol)
    # the multipliers at full precision, so that the document read back meets its fit
    exact = [[o, _Exact(v)] for o, v in density.multipliers]
    return _dump_json({**density_to_json(density, diag), "multipliers": exact})


def _cmd_series_probe(args) -> str:
    n_max = _as_int(args.n_max, "--n-max", 0, MAX_SERIES_TERMS)
    kind = args.kind.replace("-", "_")
    sums, _ = partial_sums(kind, args.x, n_max, a=args.a,
                           k=None if kind == "exp_xy" else args.k, y=args.y)
    d = args.digits
    return _csv("N,partial_sum,cauchy_diff", [
        f"{n},{_fmt(value, d)},{'' if n == 0 else _fmt(abs(value - sums[n - 1]), d)}"
        for n, value in enumerate(sums)])


def _cmd_nls_ground(args) -> str:
    grid = Grid1D(args.domain[0], args.domain[1], args.grid)
    problem = GridProblem.harmonic(grid, b=args.b)
    cfg = FlowConfig(step=args.tau, tol_flow=args.tol_flow)
    init = None
    if args.resume:
        init = _read_document(args.resume, "--resume", lambda doc: doc["psi"])
    if args.lambda_solve:
        lam, sol = self_consistent_lambda(
            problem, cfg, bracket=tuple(args.bracket), init=init
        )
        lam_out: float | None = lam
    else:
        sol = ground_state(problem, cfg, init=init)
        lam_out = None
    if sol.kept is not None:
        args.warnings.append(f"the solve ran on x in [{sol.kept[0]:.12g}, {sol.kept[1]:.12g}], the "
                             f"points within Agmon distance {_AGMON_DISTANCE:g} of the allowed "
                             "region; psi is written as 0 outside it")
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
            "energy_initial": sol.energy_trace[0],
            "energy_final": sol.energy_trace[-1],
            "tau": args.tau,
            "tol_flow": args.tol_flow,
        },
    }
    return _dump_json(doc)


def _cmd_analyze_gram(args) -> str:
    gram = gram_matrix(table(args.n_max)).tolist()
    return _csv("n," + ",".join(str(n) for n in range(args.n_max + 1)), [
        f"{i}," + ",".join(_fmt(v, args.digits) for v in row) for i, row in enumerate(gram)])


def _target_from_spec(doc):
    """(target, label) of a projection target document."""
    kind = doc.get("kind")
    if kind == "state":
        state = solve_state(doc["n"])
        return state, f"state n={state.n}"
    if kind == "gauss_power":
        target = GaussPower(doc.get("power", 0), doc.get("scale", 1.0))
        return target, f"gauss_power p={target.power}"
    raise ValidationError(f"unknown target kind {kind!r}; use 'state' or 'gauss_power'")


def _cmd_analyze_project(args) -> str:
    try:
        orders = tuple(int(tok) for tok in args.orders.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"--orders must be comma-separated integers: {exc}") from exc
    target, label = _read_document(args.target, "--target", _target_from_spec)
    report = completeness_projection(target, table(args.n_max), orders)
    # a dataclass's __dict__ holds its fields; asdict, which copies every entry, is slower
    return _dump_json({"target": label, **vars(report)})


def _write_output(payload: str, out_path: str | None, manifest: dict) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    with open(out_path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json(manifest))


# built once per process; parse_args keeps no state between calls
_PARSER, _LEAF_PARSERS = _build_parser()


def run(argv: list[str]) -> int:
    """Parse argv, run the subcommand's handler, write output; returns the exit code.

    A RuntimeError of the package (an iteration that did not converge, a
    feature not found in range, ...) exits 3; every other InfoqmError (the
    ValueError and ArithmeticError kinds) and every OSError exits 2.
    """
    # a subcommand's own parser reads its flags in a third of the time the
    # nested parse takes, into the same namespace; any other argv (no
    # subcommand, --help, --version) goes to the whole parser
    leaf = _LEAF_PARSERS.get(tuple(argv[:2]))
    try:
        if leaf is None:
            args = _PARSER.parse_args(argv)
        else:
            args = leaf.parse_args(argv[2:], argparse.Namespace(group=argv[0], command=argv[1]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else _EXIT_INVALID
    start = time.perf_counter()
    args.warnings = []  # a handler appends what the manifest warns of
    try:
        payload = args.handler(args)
        manifest = {
            "tool": "infoqm",
            "version": __version__,
            "argv": list(argv),
            "wall_time_s": round(time.perf_counter() - start, 6),
            "warnings": args.warnings,
        }
        _write_output(payload, args.out, manifest)
    except (InfoqmError, OSError) as exc:
        print(f"infoqm: error: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE if isinstance(exc, RuntimeError) else _EXIT_INVALID
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
