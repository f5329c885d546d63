"""The committed BENCH_*.json benchmark records parse and hold, for every
run, the result fields that perfbench/run.py prints,
scripts/bench_record.py tells how a checkout was made, and
scripts/bench_outputs.py digests the same job outputs on every run."""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_has_results(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["runs"]
    for run in doc["runs"]:
        assert isinstance(run["correct"], bool)
        # the measured checkout's commit, or null where it was not a git
        # work tree, as a `git archive` is not
        commit = run["environment"]["git_commit"]
        assert commit is None or re.fullmatch(r"[0-9a-f]{40}", commit), commit
        # how scripts/bench_record.py found the checkout, where it recorded
        # that: HEAD and a dirty tree are null together, outside a work tree
        if "checkout" in run:
            state = run["checkout"]
            assert set(state) == {"git_dir", "head", "dirty"}, state
            assert isinstance(state["git_dir"], bool)
            assert state["head"] is None or re.fullmatch(r"[0-9a-f]{40}", state["head"]), state
            assert state["dirty"] in (None, False, True)
            assert (state["head"] is None) == (state["dirty"] is None), state
        assert run["metrics"]
        for name, metric in run["metrics"].items():
            assert math.isfinite(metric["value"]), name


def test_checkout_state_tells_a_clone_from_an_archive(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    archive = tmp_path / "archive"
    archive.mkdir()
    assert bench_record.checkout_state(archive) == {"git_dir": False, "head": None, "dirty": None}
    clone = tmp_path / "clone"
    git = ["git", "-C", str(clone), "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    subprocess.run(["git", "init", "-q", str(clone)], check=True)
    (clone / "a.py").write_text("x = 1\n", encoding="utf-8")
    subprocess.run(git + ["add", "a.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "a"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    assert bench_record.checkout_state(clone) == {"git_dir": True, "head": head, "dirty": False}
    (clone / "a.py").write_text("x = 2\n", encoding="utf-8")
    assert bench_record.checkout_state(clone) == {"git_dir": True, "head": head, "dirty": True}
    # a directory inside a work tree is not a checkout of it
    (clone / "sub").mkdir()
    assert bench_record.checkout_state(clone / "sub")["head"] is None


def test_output_digest_repeats(monkeypatch):
    # the script puts src/ and perfbench/ on sys.path and turns off
    # bytecode writing; monkeypatch restores both after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("bench_outputs", ROOT / "scripts" / "bench_outputs.py")
    bench_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_outputs)
    workloads = bench_outputs.bench_jobs.WORKLOADS
    # each run builds its jobs in a new temporary directory
    first, second = ([bench_outputs.digest(w, 3, smoke=True) for w in workloads] for _ in range(2))
    assert first == second
    for workload, line in zip(workloads, first):
        assert re.fullmatch(rf"{workload} 3 [1-9][0-9]* [0-9a-f]{{64}}", line), line
