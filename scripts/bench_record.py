"""Record end-to-end benchmark runs of one or more checkouts as a BENCH file.

    python3 scripts/bench_record.py --out BENCH_8_nls_fixed_b.json \\
        --workload nls_fixed_b --seed 1 --seconds 30 \\
        parent=/path/to/parent-checkout change=.

Each LABEL=CHECKOUT runs ``perfbench/run.py --trace 0`` from the root of
that source checkout, one after another in the order given, and keeps the
three lines it prints.  The file holds one entry per run under ``runs``:
its ``label``, ``environment`` and ``details``, and the result's
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run_checkout(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    env, details, result = (json.loads(line) for line in proc.stdout.splitlines()[-3:])
    return {**env, **details, **result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("runs", nargs="+", metavar="LABEL=CHECKOUT")
    args = parser.parse_args(argv)

    runs = []
    for spec in args.runs:
        label, sep, checkout = spec.partition("=")
        if not sep or not label or not checkout:
            parser.error(f"expected LABEL=CHECKOUT, got {spec!r}")
        record = run_checkout(Path(checkout), args.workload, args.seed, args.seconds)
        runs.append({"label": label, **record})
    args.out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
