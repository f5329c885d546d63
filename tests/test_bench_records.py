"""The committed BENCH_*.json benchmark records parse and hold, for every
run, the result fields that perfbench/run.py prints."""

import json
import math
import re
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


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
        assert run["metrics"]
        for name, metric in run["metrics"].items():
            assert math.isfinite(metric["value"]), name
