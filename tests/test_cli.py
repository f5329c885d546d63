import argparse
import contextlib
import errno
import inspect
import io
import json
import math
import os
import pathlib
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoqm import (
    ConvergenceError,
    binomial_series_eval,
    cli,
    errors,
    nls,
    series,
    table,
    two_var_series_eval,
)
from infoqm.cli import run

from conftest import GOLDEN_TABLE, leggauss_moment

# outputs frozen under earlier width solves: the 12-digit csv and the json before
# plain bisection, the 17-digit csv under it
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOscillatorTable:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_captured(capsys, ["oscillator", "table", "--n-max", "7"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,alpha,beta,lambda,energy"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[3]) == pytest.approx(GOLDEN_TABLE[0][1], abs=1e-5)

    def test_json_format(self, capsys):
        code, out, _ = run_captured(
            capsys, ["oscillator", "table", "--n-max", "2", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["rows"][1]["lambda"] == pytest.approx(GOLDEN_TABLE[1][2], abs=1e-4)

    @pytest.mark.parametrize("n_max", ["-1", "21"])
    @pytest.mark.parametrize("command", ["table", "gram", "project"])
    def test_n_max_out_of_range_rejected(self, tmp_path, capsys, command, n_max):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "state", "n": 3}))
        argv = {
            "table": ["oscillator", "table"],
            "gram": ["analyze", "gram"],
            "project": ["analyze", "project", "--target", str(target), "--orders", "2"],
        }[command]
        code, _, err = run_captured(capsys, argv + ["--n-max", n_max])
        assert code == 2
        assert "error" in err and "n_max must be in [0, 20]" in err

    def test_unknown_flag(self, tmp_path, capsys):
        code, _, _ = run_captured(capsys, ["oscillator", "table", "--n-max", "3", "--bogus"])
        assert code == 2
        # no subcommand takes --seed
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"support": [0.0, 1.0], "moments": []}))
        code, _, _ = run_captured(capsys, ["maxent", "fit", "--spec", str(spec), "--seed", "1"])
        assert code == 2
        assert run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])[0] == 0
        nls_ground = ["nls", "ground", "--domain", "-5", "5", "--grid", "64"]
        code, _, _ = run_captured(capsys, nls_ground + ["--seed", "1"])
        assert code == 2
        # the logarithm floor is fixed
        code, _, _ = run_captured(capsys, nls_ground + ["--eps-log", "1e-50"])
        assert code == 2
        # nls ground runs no full flow, so no flag caps its steps
        code, _, _ = run_captured(capsys, nls_ground + ["--max-iters", "20"])
        assert code == 2
        # analyze integrates over the whole line; no flag sets a grid
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "state", "n": 3}))
        project = ["analyze", "project", "--target", str(target), "--orders", "2"]
        for argv in (
            ["analyze", "gram", "--n-max", "3", "--domain", "-14", "14"],
            ["analyze", "gram", "--n-max", "3", "--points", "8001"],
            project + ["--domain", "-14", "14"],
            project + ["--points", "8001"],
        ):
            code, _, err = run_captured(capsys, argv)
            assert code == 2
            assert "unrecognized arguments" in err

    @pytest.mark.parametrize("digits", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["oscillator", "table", "--n-max", "2"],
            ["series", "probe", "--kind", "binomial", "--x", "0.5", "--n-max", "3"],
            ["analyze", "gram", "--n-max", "2"],
        ],
        ids=["table", "probe", "gram"],
    )
    def test_digits_below_one_rejected(self, capsys, argv, digits):
        code, out, err = run_captured(capsys, argv + ["--digits", digits])
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.rstrip("\n").split("\n")[-1].endswith(
            f"error: argument --digits: must be a positive integer, got '{digits}'"
        )

    def test_digits_flag(self, capsys):
        code, out, _ = run_captured(
            capsys, ["oscillator", "table", "--n-max", "0", "--digits", "3"]
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "0,0,0.562,0.166,-1.34,0.836"

    def test_out_file_and_manifest(self, tmp_path, capsys):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_captured(
            capsys, ["oscillator", "table", "--n-max", "1", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.read_text().startswith("n,k,alpha,beta")
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["tool"] == "infoqm"
        assert "--n-max" in manifest["argv"]
        assert "wall_time_s" in manifest


JUNK = bytes(range(256)) * 40  # 10 KB, longer than any output below


class TestOutputFiles:
    """An existing --out and its manifest are overwritten whole."""

    PROBE = ["series", "probe", "--kind", "binomial", "--x", "0.9", "--n-max", "40"]

    def test_overwrite_keeps_the_file_and_cuts_the_old_tail(self, tmp_path, capsys):
        fresh = tmp_path / "fresh" / "probe.csv"
        fresh.parent.mkdir()
        assert run(self.PROBE + ["--out", str(fresh)]) == 0
        out = tmp_path / "probe.csv"
        manifest = tmp_path / "probe.csv.manifest.json"
        for path in (out, manifest):
            path.write_bytes(JUNK)
        inodes = [path.stat().st_ino for path in (out, manifest)]
        argv = self.PROBE + ["--digits", "12", "--out", str(out)]
        assert run(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == fresh.read_bytes()
        text = manifest.read_text(encoding="utf-8")
        assert json.loads(text)["argv"] == argv
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
        assert [path.stat().st_ino for path in (out, manifest)] == inodes

    def test_read_only_out_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "probe.csv"
        out.write_bytes(JUNK)
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            # a superuser writes past the mode bits: refuse the write as the
            # kernel refuses it to everyone else
            def open_as_user(path, mode="r", *args, **kwargs):
                if path == str(out) and mode != "r":
                    raise PermissionError(errno.EACCES, "Permission denied", path)
                return open(path, mode, *args, **kwargs)

            monkeypatch.setattr(cli, "open", open_as_user, raising=False)
        code, out_text, err = run_captured(capsys, self.PROBE + ["--out", str(out)])
        assert (code, out_text) == (2, "")
        assert err.startswith("infoqm: error: ") and "Permission denied" in err
        assert out.read_bytes() == JUNK


def json_ready(obj):
    """The rounding rule the JSON writer applies, as a copy for json.dumps:
    floats to 12 significant digits, an infinity or NaN as its str, tuples
    and 1-D arrays as lists, numpy integers as ints."""
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(float(v)) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return float(f"{v:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


# zeros of both signs, integral floats, the range where repr and .12g disagree
# on the notation, a small value written with an exponent, and non-finite values
JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.0**53, 1e-5, math.inf, -math.inf, math.nan]),
    st.integers(-10**6, 10**6).map(float),
    st.floats(1e12, 1e16, exclude_max=True),
)
# every bit pattern, every decade from the subnormals to the overflow, and
# the subnormals alone, where the shortest repr can be shorter than 12 digits
ARRAY_FLOATS = st.one_of(
    JSON_FLOATS,
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(-323, 307)),
    st.floats(-sys.float_info.min, sys.float_info.min),
)
INT64 = st.integers(-(2**63), 2**63 - 1)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    JSON_FLOATS,
    st.text(),
    INT64.map(np.int64),
    st.integers(0, 255).map(np.uint8),
    JSON_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.lists(JSON_FLOATS, max_size=6).map(np.array),
    st.lists(INT64, max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestDeterminism:
    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    # every branch of the writer on every run, not only when drawn
    @example({"a": [True, False, None], "b": {}, "c": np.array([1.0, math.inf, math.nan])})
    def test_writer_is_json_dumps_of_the_rounded_document(self, doc):
        assert cli._dump_json(doc) == json.dumps(json_ready(doc), sort_keys=True, indent=1) + "\n"

    @settings(max_examples=500, deadline=None)
    @given(st.lists(ARRAY_FLOATS, max_size=20))
    @example([0.0, -0.0, 999999999999.5, -999999999999.5, 1e12, 1e16, 9.9999999999995e-5,
              1e-5, 123.0, 5e-324, -2.5e-320, sys.float_info.min,
              math.nextafter(sys.float_info.min, 0.0), 2.2250738585e-308, sys.float_info.max,
              math.inf, -math.inf, math.nan])
    # the edges of the entries that skip _json_float: a zero, the subnormals,
    # 12 digits that round to an integer, 1e11, and %g's switch to "e-"
    @example([-0.0, 5e-324, sys.float_info.min, 0.9999999999996, 999999999999.5, 1e11,
              1e16, 12.0, 9.99999999999995e-05, math.nan, math.inf, -math.inf])
    def test_array_entries_are_the_rounded_reprs(self, values):
        # the fast path keeps the %g string only where it equals the old
        # formula's text: the repr of the float rounded to 12 digits
        expected = [float.__repr__(float(f"{v:.12g}")) if math.isfinite(v) else cli._json_float(v)
                    for v in values]
        assert cli._json_floats(values) == expected
        assert cli._json_floats(np.array(values, dtype=float)) == expected

    @pytest.mark.parametrize("value", [np.bool_(True), {1.0}, 1j, b"x"],
                             ids=["numpy bool", "set", "complex", "bytes"])
    def test_writer_rejects_what_json_dumps_rejects(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(json_ready({"x": [value]}))
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._dump_json({"x": [value]})

    def test_table_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert run(["oscillator", "table", "--n-max", "7", "--out", str(p)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "flags,golden",
        [
            (["--digits", "12"], "oscillator_table_n20_digits12.csv"),
            (["--format", "json"], "oscillator_table_n20.json"),
            # 17 significant digits round-trip every double: each width bit for bit
            (["--digits", "17"], "oscillator_table_n20_digits17.csv"),
        ],
        ids=["csv", "json", "csv17"],
    )
    def test_table_bytes_pinned(self, tmp_path, capsys, flags, golden):
        out = tmp_path / golden
        assert run(["oscillator", "table", "--n-max", "20", *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()

    def test_series_probe_bytes_pinned(self, capsys):
        code, out, _ = run_captured(
            capsys,
            ["series", "probe", "--kind", "binomial", "--a", "1", "--k", "-1", "--x", "0.9",
             "--n-max", "200"],
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "series_probe_binomial_n200.csv").read_text(encoding="utf-8")

    def test_nls_json_byte_identical(self, tmp_path, capsys):
        argv = [
            "nls", "ground", "--domain", "-8", "8", "--grid", "192",
            "--b", "-1.0", "--tau", "2e-3", "--tol-flow", "1e-8",
        ]
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert run(argv + ["--out", str(p)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nls_lambda_json_byte_identical(self, tmp_path, capsys):
        argv = [
            "nls", "ground", "--domain", "-8", "8", "--grid", "192",
            "--lambda-solve", "--tau", "2e-3", "--tol-flow", "1e-8",
        ]
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert run(argv + ["--out", str(p)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["diagnostics"]["newton_steps"] > 0


class TestMaxentFit:
    def test_gaussian_fit(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "support": ["-inf", "inf"],
                    "moments": [{"order": 1, "value": 0.0}, {"order": 2, "value": 1.0}],
                }
            )
        )
        code, out, _ = run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])
        assert code == 0
        doc = json.loads(out)
        mult = {o: v for o, v in doc["multipliers"]}
        assert mult[2] == pytest.approx(0.5, abs=1e-8)
        assert mult[0] == pytest.approx(math.log(math.sqrt(2 * math.pi)), abs=1e-8)

    def test_round_trip_via_init(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"support": [-1.0, 1.0], "moments": [{"order": 2, "value": 0.2}]})
        )
        first = tmp_path / "fit.json"
        assert run(["maxent", "fit", "--spec", str(spec), "--out", str(first)]) == 0
        code, out, _ = run_captured(
            capsys, ["maxent", "fit", "--spec", str(spec), "--init", str(first)]
        )
        assert code == 0
        redone = json.loads(out)
        original = json.loads(first.read_text())
        assert dict(map(tuple, redone["multipliers"]))[2] == pytest.approx(
            dict(map(tuple, original["multipliers"]))[2], abs=1e-9
        )

    @pytest.mark.parametrize("side", [14.0, 16.0, 18.0])
    def test_density_rising_toward_finite_ends(self, tmp_path, capsys, side, leggauss_4000):
        # kurtosis 3.05 on [-side, side]: the written multipliers, a negative
        # x^4 one among them, hold every moment on numpy's 4000-node rule
        spec = tmp_path / "spec.json"
        moments = [{"order": 2, "value": 1.0}, {"order": 4, "value": 3.05}]
        spec.write_text(json.dumps({"support": [-side, side], "moments": moments}))
        code, out, _ = run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])
        assert code == 0
        multipliers = json.loads(out)["multipliers"]
        for order, target in ((0, 1.0), (2, 1.0), (4, 3.05)):
            assert abs(leggauss_moment(multipliers, side, order, leggauss_4000) - target) <= 1e-9

    def test_infeasible_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"support": [-1.0, 1.0], "moments": [{"order": 2, "value": 1.5}]})
        )
        code, _, err = run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])
        assert code == 2
        assert "moment" in err

    def test_support_whose_powers_overflow(self, tmp_path, capsys):
        # 1e80**4 overflows a float: the screen reads it as an infinite end,
        # and the fit then fails with a typed error, exit 2, not a traceback
        spec = tmp_path / "spec.json"
        moments = [{"order": 2, "value": 1.0}, {"order": 4, "value": 3.0}]
        spec.write_text(json.dumps({"support": [-1e80, 1e80], "moments": moments}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])
        assert (code, out) == (2, "")
        assert err.startswith("infoqm: error: ") and err.count("\n") == 1

    def test_missing_spec_file(self, capsys):
        code, _, _ = run_captured(capsys, ["maxent", "fit", "--spec", "/no/such/file.json"])
        assert code == 2


# the library's partial sum S_n for each probe kind, from (a, k, x, y, n)
LIBRARY_SUM = {
    "binomial": lambda a, k, x, y, n: binomial_series_eval(a, k, x, n)[0],
    "binomial-xy": lambda a, k, x, y, n: two_var_series_eval("binomial_xy", x, y, n, k=k)[0],
    "exp-xy": lambda a, k, x, y, n: two_var_series_eval("exp_xy", x, y, n)[0],
}


class TestSeriesProbe:
    def test_csv_columns(self, capsys):
        code, out, _ = run_captured(
            capsys,
            ["series", "probe", "--kind", "binomial", "--a", "1", "--k", "-1",
             "--x", "0.5", "--n-max", "10"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,partial_sum,cauchy_diff"
        assert len(lines) == 12
        assert lines[1].endswith(",")  # no previous sum at N=0
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(2.0 / 3.0, abs=1e-3)

    @pytest.mark.parametrize(
        "flags, limit",
        [
            (["--kind", "exp-xy", "--x", "1", "--y", "1", "--n-max", "30"], math.e),
            (
                ["--kind", "binomial-xy", "--x", "0.5", "--y", "0.7", "--k", "1.5",
                 "--n-max", "40"],
                1.35**1.5,
            ),
        ],
        ids=["exp-xy", "binomial-xy"],
    )
    def test_exp_xy(self, capsys, flags, limit):
        code, out, _ = run_captured(capsys, ["series", "probe", *flags])
        assert code == 0
        final = out.strip().split("\n")[-1].split(",")
        assert float(final[1]) == pytest.approx(limit, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(LIBRARY_SUM)),
        a=st.floats(-3.0, 3.0),
        k=st.floats(-5.0, 5.0),
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
        n_max=st.integers(0, 40),
    )
    def test_rows_are_the_library_sums(self, kind, a, k, x, y, n_max):
        # 17 significant digits print every double exactly
        argv = ["series", "probe", "--kind", kind, f"--a={a!r}", f"--k={k!r}", f"--x={x!r}",
                f"--y={y!r}", "--n-max", str(n_max), "--digits", "17"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        rows = [row.split(",") for row in out.getvalue().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(n_max + 1))
        prev = None
        for n, (_, printed, diff) in enumerate(rows):
            value = LIBRARY_SUM[kind](a, k, x, y, n)
            assert float(printed).hex() == value.hex()
            assert diff == ("" if prev is None else f"{abs(value - prev):.17g}")
            prev = value

    @pytest.mark.parametrize("n_max", [0, 1, 40, 200])
    def test_one_series_call_per_probe(self, capsys, monkeypatch, n_max):
        calls = []

        def spy(fn):
            def counted(*args, **kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs)
                calls.append((fn.__name__, bound.arguments["n_terms"]))
                return fn(*args, **kwargs)
            return counted

        # every function of the series module that the CLI holds, whatever its name
        for name, fn in vars(series).items():
            if (inspect.isfunction(fn) and fn.__module__ == series.__name__
                    and getattr(cli, name, None) is fn):
                monkeypatch.setattr(cli, name, spy(fn))
        code, out, _ = run_captured(
            capsys, ["series", "probe", "--kind", "binomial", "--x", "0.5", "--n-max", str(n_max)]
        )
        assert code == 0 and out.count("\n") == n_max + 2
        assert calls == [("partial_sums", n_max)]

    def test_n_max_above_the_term_cap_rejected(self, capsys):
        code, out, err = run_captured(
            capsys, ["series", "probe", "--kind", "binomial", "--x", "0.5", "--n-max", "201"]
        )
        assert (code, out) == (2, "")
        assert err == "infoqm: error: --n-max must be in [0, 200], got 201\n"


FIXED_B_LINEAR = ["nls", "ground", "--domain", "-10", "10", "--grid", "256",
                  "--b", "0", "--tau", "8e-4", "--tol-flow", "1e-9"]


class TestNlsGround:
    def test_fixed_b_linear(self, capsys):
        code, out, _ = run_captured(capsys, FIXED_B_LINEAR)
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] is None
        assert doc["mu"] == pytest.approx(0.5, abs=2e-3)
        assert len(doc["psi"]) == 256
        assert doc["diagnostics"]["flow_norm"] < 1e-8
        assert doc["diagnostics"]["newton_steps"] > 0

    def test_fixed_b_newton_failure_exits_3(self, capsys, monkeypatch):
        # no full flow runs after failed Newton solves, in ln u and plain:
        # the run exits 3
        def fail(*args, **kwargs):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr(nls, "_newton", fail)
        code, out, err = run_captured(capsys, FIXED_B_LINEAR)
        assert (code, out) == (3, "")
        assert err == "infoqm: error: forced failure\n"

    def test_lambda_solve_coarse(self, capsys):
        code, out, _ = run_captured(
            capsys,
            ["nls", "ground", "--domain", "-10", "10", "--grid", "256",
             "--lambda-solve", "--tau", "8e-4", "--tol-flow", "1e-9"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(GOLDEN_TABLE[0][2], abs=2e-2)
        assert abs(doc["mu"] - doc["lambda"]) < 1e-6
        assert doc["diagnostics"]["newton_steps"] > 0

    def test_lambda_energy_initial_is_that_of_the_start_state(self, tmp_path, capsys):
        # the energy of the --resume state at the lower bracket end, as the
        # fixed-b document at that b reads it, not the lower end's mu
        start = tmp_path / "start.json"
        grid = ["nls", "ground", "--domain", "-10", "10", "--grid", "256",
                "--tau", "8e-4", "--tol-flow", "1e-9"]
        assert run(grid + ["--b", "-1.0", "--out", str(start)]) == 0
        docs = []
        for flags in (["--lambda-solve", "--bracket", "-3", "-0.5"], ["--b", "-3"]):
            code, out, _ = run_captured(capsys, grid + flags + ["--resume", str(start)])
            assert code == 0
            docs.append(json.loads(out))
        lam_doc, lo_doc = docs
        assert lam_doc["lambda"] is not None and lo_doc["lambda"] is None
        initial = lam_doc["diagnostics"]["energy_initial"]
        assert initial == lo_doc["diagnostics"]["energy_initial"]
        assert initial != lo_doc["mu"]

    def test_resume_round_trip(self, tmp_path, capsys):
        argv = [
            "nls", "ground", "--domain", "-10", "10", "--grid", "256",
            "--b", "-1.3", "--tau", "8e-4", "--tol-flow", "1e-9",
        ]
        first = tmp_path / "sol.json"
        assert run(argv + ["--out", str(first)]) == 0
        code, out, _ = run_captured(capsys, argv + ["--resume", str(first)])
        assert code == 0
        resumed = json.loads(out)
        original = json.loads(first.read_text())
        assert resumed["mu"] == pytest.approx(original["mu"], abs=1e-9)
        assert resumed["iterations"] <= 50

    def test_ragged_resume_document_is_one_short_error_line(self, tmp_path, capsys):
        # the offending entry, a list of 2048 floats, is shown abbreviated
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"psi": [[1.0] * 2048, [1.0]]}))
        code, out, err = run_captured(
            capsys, ["nls", "ground", "--domain", "-10", "10", "--grid", "2048",
                     "--tau", "5e-5", "--resume", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("infoqm: error: init entry must be a number, got [1.0, 1.0")
        assert err.count("\n") == 1 and len(err) < 120

    def test_convergence_failure_exit_code(self, capsys):
        code, _, err = run_captured(
            capsys,
            ["nls", "ground", "--domain", "-10", "10", "--grid", "256",
             "--tau", "8e-4", "--tol-flow", "1e-13"],
        )
        # rounding alone keeps every Newton state's flow norm above 1e-13
        assert code == 3
        assert re.fullmatch(r"infoqm: error: bordered Newton exceeded 50 steps; at b = 0\.0 the "
                            r"flow norm \S+ is not below tol_flow 1e-13 "
                            r"\(eps\*max\(psi\)/step = \S+\)\n", err)

    def test_free_b_root_failure_exit_code(self, capsys, monkeypatch):
        # the free-b Newton solve is the one root path: where it fails, in
        # ln u and plain, the lambda solve exits 3 with no output
        newton = nls._newton

        def free_b_failure(problem, psi, free_b, cfg, step):
            if free_b:
                raise ConvergenceError("forced failure")
            return newton(problem, psi, free_b, cfg, step)

        monkeypatch.setattr(nls, "_newton", free_b_failure)
        code, out, err = run_captured(
            capsys,
            ["nls", "ground", "--domain", "-10", "10", "--grid", "256",
             "--lambda-solve", "--tau", "8e-4", "--tol-flow", "1e-9"],
        )
        assert code == 3 and out == ""
        assert err.startswith("infoqm: error: free-b Newton solve from b = ")
        assert err.rstrip().endswith("failed: forced failure")

    def test_too_few_grid_points_rejected(self, capsys):
        code, _, err = run_captured(
            capsys, ["nls", "ground", "--domain", "-10", "10", "--grid", "2"]
        )
        assert code == 2
        assert "error" in err and "at least 3 grid points" in err

    def test_unwritable_out_path(self, capsys):
        code, _, _ = run_captured(
            capsys,
            ["nls", "ground", "--domain", "-10", "10", "--grid", "128",
             "--b", "0", "--tau", "8e-4", "--tol-flow", "1e-7",
             "--out", "/no/such/dir/sol.json"],
        )
        assert code == 2


class TestAnalyze:
    def test_gram_csv(self, tmp_path, capsys):
        out_file = tmp_path / "gram.csv"
        code, _, _ = run_captured(
            capsys, ["analyze", "gram", "--n-max", "3", "--out", str(out_file)]
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "n,0,1,2,3"
        assert len(lines) == 5
        diag = float(lines[1].split(",")[1])
        assert diag == pytest.approx(1.0, abs=1e-8)

    def test_project_state_target(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "state", "n": 3}))
        code, out, _ = run_captured(
            capsys,
            ["analyze", "project", "--target", str(target), "--orders", "2,4", "--n-max", "7"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["orders"] == [2, 4]
        assert doc["residuals"][1] <= 1e-8

    def test_project_gauss_power_target(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gauss_power", "power": 1, "scale": 1.0}))
        code, out, _ = run_captured(
            capsys,
            ["analyze", "project", "--target", str(target), "--orders", "2,4,8"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["residuals"][-1] == pytest.approx(0.0055379, abs=1e-6)

    def test_gram_n20_is_the_golden_table(self, capsys):
        # the exact overlaps, byte for byte: every opposite-parity entry prints 0
        code, out, _ = run_captured(capsys, ["analyze", "gram", "--n-max", "20"])
        assert code == 0
        assert out == (GOLDEN_DIR / "analyze_gram_n20.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("spec, golden", [
        ({"kind": "state", "n": 5}, "analyze_project_state_n5.json"),
        ({"kind": "gauss_power", "power": 2, "scale": 1.1},
         "analyze_project_gauss_power_p2_s1.1.json"),
    ], ids=["state", "gauss_power"])
    def test_project_is_the_golden_document(self, tmp_path, capsys, spec, golden):
        # orders 1..8 on n <= 7, byte for byte; written before the overlap
        # kernel gathered its rules and Hermite rows
        target = tmp_path / "target.json"
        target.write_text(json.dumps(spec))
        code, out, _ = run_captured(capsys, ["analyze", "project", "--target", str(target),
                                             "--orders", "1,2,3,4,5,6,7,8"])
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("scale", [3.0, 5.0])
    def test_wide_target_takes_the_whole_line(self, tmp_path, capsys, scale):
        # x^4 exp(-x^2 / (2 s^2)) reaches far past +-14 at these scales.  The
        # residuals are sqrt(|t|^2 - c.b) from closed forms: psi_n expanded
        # in powers of x, and the integral of x^k exp(-c x^2) is
        # Gamma((k + 1)/2) c^(-(k + 1)/2) for even k
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"kind": "gauss_power", "power": 4, "scale": scale}))
        out_file = tmp_path / "proj.json"
        code, _, _ = run_captured(capsys, ["analyze", "project", "--target", str(path),
                                           "--orders", "2,4,8", "--out", str(out_file)])
        assert code == 0

        def moment(k, c):
            return math.gamma((k + 1) / 2) * c ** (-(k + 1) / 2) if k % 2 == 0 else 0.0

        states = table(7)
        # psi_n = exp(-alpha) sum_j coeffs[n][j] x^j exp(-beta x^2)
        coeffs = [np.polynomial.hermite.herm2poly([0] * s.n + [1])
                  * np.sqrt(2.0 * s.beta) ** np.arange(s.n + 1) * math.exp(-s.alpha)
                  for s in states]
        gram = np.array([[sum(a * b * moment(i + j, u.beta + v.beta)
                              for i, a in enumerate(cu) for j, b in enumerate(cv))
                          for v, cv in zip(states, coeffs)] for u, cu in zip(states, coeffs)])
        overlaps = np.array([sum(a * moment(i + 4, u.beta + 0.5 / scale**2)
                                 for i, a in enumerate(cu)) for u, cu in zip(states, coeffs)])
        norm2 = math.gamma(4.5) * scale**9
        expected = []
        for m in (2, 4, 8):
            c = np.linalg.solve(gram[:m, :m], overlaps[:m])
            expected.append(math.sqrt(norm2 - c @ overlaps[:m]))
        doc = json.loads(out_file.read_text())
        assert doc["residuals"] == pytest.approx(expected, rel=1e-10)
        manifest = json.loads((tmp_path / "proj.json.manifest.json").read_text())
        assert manifest["warnings"] == []

    def test_project_unknown_kind(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "mystery"}))
        code, _, _ = run_captured(
            capsys, ["analyze", "project", "--target", str(target), "--orders", "2"]
        )
        assert code == 2


class TestEntryPoints:
    def test_version(self, capsys):
        assert run(["--version"]) == 0

    def test_no_subcommand(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("argv, code", [(["oscillator", "table", "--n-max", "1"], 0),
                                            (["oscillator", "table", "--n-max", "21"], 2)])
    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr("sys.argv", ["infoqm"] + argv)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code

    def test_run_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [
            run(argv)
            for argv in (
                ["oscillator", "table", "--n-max", "1"],
                ["oscillator", "table", "--n-max", "x"],
                ["analyze", "gram", "--n-max", "1"],
                ["--version"],
            )
        ]
        capsys.readouterr()
        assert codes == [0, 2, 0, 0]
        assert built == []

    def test_each_subcommand_parses_without_the_whole_parser(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(VALID_SPEC))
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "state", "n": 1}))
        subcommands = [
            ["oscillator", "table", "--n-max", "1"],
            ["maxent", "fit", "--spec", str(spec)],
            ["series", "probe", "--kind", "binomial", "--x", "0.5", "--n-max", "3"],
            ["nls", "ground", "--domain", "-5", "5", "--grid", "64"],
            ["analyze", "gram", "--n-max", "1"],
            ["analyze", "project", "--target", str(target), "--orders", "2"],
        ]
        assert sorted(cli._LEAF_PARSERS) == sorted(tuple(argv[:2]) for argv in subcommands)
        expected = [vars(cli._PARSER.parse_args(argv)) for argv in subcommands]
        parsed = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(parser, *args, **kwargs):
            namespace = parse_args(parser, *args, **kwargs)
            parsed.append(vars(namespace))
            return namespace

        def whole_parser(*args, **kwargs):
            raise AssertionError("the whole parser parsed a subcommand")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        monkeypatch.setattr(cli._PARSER, "parse_args", whole_parser)
        for argv in subcommands:
            assert run(argv) == 0, argv
        capsys.readouterr()
        # the same namespace, handler included, as the nested parse gives
        assert parsed == expected

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], 0), (["--help"], 0), ([], 2), (["oscillator"], 2), (["nope"], 2),
         (["oscillator", "nope"], 2), (["oscillator", "--help"], 0)],
    )
    def test_argv_without_a_subcommand_goes_to_the_whole_parser(self, capsys, monkeypatch,
                                                                 argv, code):
        calls = []
        parse_args = cli._PARSER.parse_args

        def spy(args):
            calls.append(args)
            return parse_args(args)

        monkeypatch.setattr(cli._PARSER, "parse_args", spy)
        assert run(argv) == code
        assert calls == [argv]
        out, err = capsys.readouterr()
        assert (out if code == 0 else err).startswith(("usage: infoqm", "infoqm "))

    def test_bad_flag_is_reported_by_the_subcommand_parser(self, capsys):
        code, out, err = run_captured(capsys, ["analyze", "gram", "--n-max", "3", "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: infoqm analyze gram [-h]")
        assert err.endswith("infoqm analyze gram: error: unrecognized arguments: --bogus\n")

    def test_failed_runs_leave_the_next_run_unchanged(self, capsys):
        good = ["oscillator", "table", "--n-max", "2"]
        first = run_captured(capsys, good)
        assert first[0] == 0
        # a parse that fails after --digits was read, then a handler that raises
        code, out, _ = run_captured(capsys, good + ["--digits", "3", "--format", "xml"])
        assert (code, out) == (2, "")
        code, out, _ = run_captured(capsys, ["oscillator", "table", "--n-max", "21"])
        assert (code, out) == (2, "")
        assert run_captured(capsys, good) == first


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the ValueError and ArithmeticError kinds are invalid input, the
# RuntimeError kinds a run that did not finish
EXIT_CODES = {
    errors.ValidationError: 2,
    errors.BracketError: 2,
    errors.InfeasibleMomentsError: 2,
    errors.NumericError: 2,
    errors.ConvergenceError: 3,
    errors.InstabilityError: 3,
    errors.IllConditionedError: 3,
}


def test_exit_code_table_lists_every_error():
    assert set(_subclasses(errors.InfoqmError)) == set(EXIT_CODES)


@pytest.mark.parametrize(
    "error, expected", EXIT_CODES.items(), ids=[e.__name__ for e in EXIT_CODES]
)
def test_error_exit_code(capsys, monkeypatch, error, expected):
    def fail(n_max):
        raise error("forced failure")

    monkeypatch.setattr(cli, "table", fail)
    code, out, err = run_captured(capsys, ["oscillator", "table", "--n-max", "1"])
    assert code == expected
    assert out == ""
    assert err == "infoqm: error: forced failure\n"


VALID_SPEC = {"support": [0.0, 1.0], "moments": []}


def document_argv(tmp_path, flag, path):
    """A command line that reads path as its flag document."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(VALID_SPEC))
    return {
        "--resume": ["nls", "ground", "--domain", "-10", "10", "--grid", "64", "--resume"],
        "--init": ["maxent", "fit", "--spec", str(spec), "--init"],
        "--target": ["analyze", "project", "--orders", "2", "--target"],
        "--spec": ["maxent", "fit", "--spec"],
    }[flag] + [str(path)]


@pytest.mark.parametrize(
    "flag, doc",
    [
        ("--resume", {"mu": 0.5}),
        ("--resume", {"psi": "abc"}),
        ("--init", {"multipliers": [[1, 0.0]]}),
        ("--init", [1, 2]),
        ("--target", {"kind": "state"}),
        ("--target", {"kind": "state", "n": "two"}),
        ("--target", [1, 2]),
        ("--spec", {"support": [0.0, 1.0], "moments": [{"order": "x", "value": 1.0}]}),
        ("--spec", {"support": [0.0, 1.0], "moments": [{"order": 1, "value": "abc"}]}),
        ("--target", {"kind": "gauss_power", "power": 1, "scale": 0}),
        ("--resume", {"psi": [0.0, 1.0, 0.0]}),
        # integer fields hold integers; a bool or a fraction is not truncated
        ("--spec", {"support": [0.0, 1.0], "moments": [{"order": 2.5, "value": 0.3}]}),
        ("--spec", {"support": [0.0, 1.0], "moments": [{"order": True, "value": 0.5}]}),
        ("--init", {"support": [0.0, 1.0], "multipliers": [[0, 0.0], [2.5, 1.0]]}),
        ("--target", {"kind": "state", "n": 2.9}),
        ("--target", {"kind": "gauss_power", "power": 1.5}),
        # json reads the bare NaN literal; a NaN scale is not positive
        ("--target", {"kind": "gauss_power", "power": 1, "scale": math.nan}),
        # a real field holds a number: not a bool, not a string
        ("--spec", {"support": [0.0, 2.0], "moments": [{"order": 1, "value": True}]}),
        ("--spec", {"support": [0.0, 1.0], "moments": [{"order": 1, "value": "0.9"}]}),
        ("--spec", {"support": [False, 2], "moments": [{"order": 1, "value": 0.9}]}),
        ("--target", {"kind": "gauss_power", "power": 1, "scale": True}),
        ("--resume", {"psi": [0.0] + [True] * 62 + [0.0]}),
        # a power is at least 0: x^-1 is infinite at the node x = 0
        ("--target", {"kind": "gauss_power", "power": -1}),
        # a power beyond the Hermite range; a squared norm that underflows
        ("--target", {"kind": "gauss_power", "power": 300}),
        ("--target", {"kind": "gauss_power", "power": 2, "scale": 1e-300}),
        # a power beyond the Hermite range, whose squared norm also overflows
        ("--target", {"kind": "gauss_power", "power": 200, "scale": 3}),
    ],
)
def test_malformed_document_rejected(tmp_path, capsys, flag, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_captured(capsys, document_argv(tmp_path, flag, path))
    assert code == 2
    assert out == ""
    assert err.startswith("infoqm: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--spec", "--init", "--resume", "--target"])
@pytest.mark.parametrize(
    "data, detail",
    [
        (b'{"kind": "state", "n": 1}\xff' + JUNK, "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200000 + b"]" * 200000, "RecursionError("),
    ],
    ids=["not-utf8", "nested-too-deep"],
)
def test_unreadable_document_exits_2(tmp_path, capsys, flag, data, detail):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = run_captured(capsys, document_argv(tmp_path, flag, path))
    assert (code, out) == (2, "")
    assert err.startswith(f"infoqm: error: malformed {flag} document: {detail}")
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "project", "--target", "target.json", "--orders", "2,x"],
        ["series", "probe", "--kind", "binomial", "--x", "0.5", "--n-max", "-1"],
        ["maxent", "fit", "--spec", "spec.json", "--tol", "nan"],
        ["nls", "ground", "--domain", "-8", "8", "--grid", "192", "--tau", "nan"],
        ["nls", "ground", "--domain", "-8", "8", "--grid", "192", "--tol-flow", "nan"],
        ["series", "probe", "--kind", "binomial", "--x", "nan", "--n-max", "3"],
        ["series", "probe", "--kind", "binomial", "--x", "inf", "--n-max", "3"],
        ["series", "probe", "--kind", "binomial", "--x", "0.5", "--k", "nan", "--n-max", "3"],
        ["series", "probe", "--kind", "binomial", "--x", "0.5", "--a", "inf", "--n-max", "3"],
        ["series", "probe", "--kind", "exp-xy", "--x", "0.5", "--y", "nan", "--n-max", "3"],
        ["maxent", "fit", "--spec", "spec.json", "--tol", "inf"],
        ["nls", "ground", "--domain", "-8", "8", "--grid", "192", "--tol-flow", "inf"],
        ["series", "probe", "--kind", "exp-xy", "--x", "1e200", "--y", "1e200", "--n-max", "3"],
        ["series", "probe", "--kind", "binomial-xy", "--x", "1e200", "--y", "1e200",
         "--n-max", "3"],
        ["series", "probe", "--kind", "binomial", "--a", "1e150", "--x", "1e150",
         "--k", "0.5", "--n-max", "3"],
        ["series", "probe", "--kind", "exp-xy", "--x", "1e100", "--y=-1e100", "--n-max", "3"],
    ],
    ids=[
        "orders-not-integers", "negative-n-max", "nan-tol", "nan-tau", "nan-tol-flow",
        "nan-x", "inf-x", "nan-k", "inf-a", "nan-y", "inf-tol", "inf-tol-flow",
        "overflowing-xy-exp", "overflowing-xy-binomial",
        "overflowing-sum-binomial", "overflowing-sum-exp",
    ],
)
def test_invalid_argument_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "target.json").write_text(json.dumps({"kind": "state", "n": 3}))
    (tmp_path / "spec.json").write_text(
        json.dumps({"support": ["-inf", "inf"], "moments": [{"order": 2, "value": 1.0}]})
    )
    code, out, err = run_captured(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("infoqm: error: ") and err.count("\n") == 1
