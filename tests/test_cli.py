import json
import math

import pytest

from infoqm import ConvergenceError, nls
from infoqm.cli import run

from conftest import GOLDEN_TABLE


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
        # --seed exists only on nls ground
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"support": [0.0, 1.0], "moments": []}))
        code, _, _ = run_captured(capsys, ["maxent", "fit", "--spec", str(spec), "--seed", "1"])
        assert code == 2
        assert run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])[0] == 0
        # the logarithm floor is fixed
        code, _, _ = run_captured(
            capsys, ["nls", "ground", "--domain", "-5", "5", "--grid", "64", "--eps-log", "1e-50"]
        )
        assert code == 2

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


class TestDeterminism:
    def test_table_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert run(["oscillator", "table", "--n-max", "7", "--out", str(p)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nls_json_byte_identical(self, tmp_path, capsys):
        argv = [
            "nls", "ground", "--domain", "-8", "8", "--grid", "192",
            "--b", "-1.0", "--tau", "2e-3", "--tol-flow", "1e-8", "--seed", "7",
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
        assert json.loads(paths[0].read_text())["diagnostics"]["path"] == "newton"


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

    def test_infeasible_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"support": [-1.0, 1.0], "moments": [{"order": 2, "value": 1.5}]})
        )
        code, _, err = run_captured(capsys, ["maxent", "fit", "--spec", str(spec)])
        assert code == 2
        assert "moment" in err

    def test_missing_spec_file(self, capsys):
        code, _, _ = run_captured(capsys, ["maxent", "fit", "--spec", "/no/such/file.json"])
        assert code == 2


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

    def test_exp_xy(self, capsys):
        code, out, _ = run_captured(
            capsys,
            ["series", "probe", "--kind", "exp-xy", "--x", "1", "--y", "1", "--n-max", "30"],
        )
        assert code == 0
        final = out.strip().split("\n")[-1].split(",")
        assert float(final[1]) == pytest.approx(math.e, abs=1e-9)


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
        assert doc["diagnostics"]["path"] == "newton"
        assert doc["diagnostics"]["newton_steps"] > 0

    def test_fixed_b_flow_fallback(self, capsys, monkeypatch):
        _, newton_out, _ = run_captured(capsys, FIXED_B_LINEAR)

        def fail(*args, **kwargs):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr(nls, "_bordered_newton", fail)
        code, out, _ = run_captured(capsys, FIXED_B_LINEAR)
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["path"] == "flow"
        assert doc["diagnostics"]["newton_steps"] == 0
        assert doc["diagnostics"]["flow_norm"] < 1e-9
        assert abs(doc["mu"] - json.loads(newton_out)["mu"]) <= 1e-8

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
        assert doc["diagnostics"]["path"] == "newton"
        assert doc["diagnostics"]["newton_steps"] > 0

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

    def test_convergence_failure_exit_code(self, capsys):
        code, _, err = run_captured(
            capsys,
            ["nls", "ground", "--domain", "-10", "10", "--grid", "256",
             "--tau", "8e-4", "--tol-flow", "1e-13", "--max-iters", "20"],
        )
        assert code == 3
        assert "error" in err

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


VALID_SPEC = {"support": [0.0, 1.0], "moments": []}


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
    ],
)
def test_malformed_document_rejected(tmp_path, capsys, flag, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(VALID_SPEC))
    argv = {
        "--resume": ["nls", "ground", "--domain", "-10", "10", "--grid", "64", "--resume"],
        "--init": ["maxent", "fit", "--spec", str(spec), "--init"],
        "--target": ["analyze", "project", "--orders", "2", "--target"],
        "--spec": ["maxent", "fit", "--spec"],
    }[flag]
    code, out, err = run_captured(capsys, argv + [str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("infoqm: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
