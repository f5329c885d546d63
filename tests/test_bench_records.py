"""The committed BENCH_*.json benchmark records parse and hold, for every
run, the result fields that perfbench/run.py prints."""

import json
import math
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
        assert run["metrics"]
        for name, metric in run["metrics"].items():
            assert math.isfinite(metric["value"]), name
