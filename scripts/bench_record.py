"""Record end-to-end benchmark runs of one or more checkouts as a BENCH file.

    python3 scripts/bench_record.py --out BENCH_8_nls_fixed_b.json \\
        --workload nls_fixed_b --seed 1 --seconds 30 \\
        parent=/path/to/parent-checkout change=.

Each LABEL=CHECKOUT runs ``perfbench/run.py --trace 0`` from the root of
that source checkout, one after another in the order given, and keeps the
three lines it prints.  The file holds one entry per run under ``runs``:
its ``label``, ``environment`` and ``details``, the result's
``correct``, ``attempted``, ``failed`` and ``metrics``, and ``checkout``,
how the checkout was made, taken before the run: ``git_dir``, whether
``CHECKOUT/.git`` exists (a clone has it, a ``git archive`` does not);
``head``, its ``git rev-parse HEAD``; and ``dirty``, whether its
``git status --porcelain`` lists anything (edits not yet committed).
``head`` and ``dirty`` are null where CHECKOUT is not the top of a git
work tree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def checkout_state(checkout: Path) -> dict:
    """How checkout was made: its .git, HEAD and whether its tree is dirty."""
    head = dirty = None
    top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    if top.returncode == 0 and Path(top.stdout.split()[0]).resolve() == checkout.resolve():
        head = top.stdout.split()[1]
        status = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                                capture_output=True, text=True, check=True)
        dirty = bool(status.stdout.strip())
    return {"git_dir": (checkout / ".git").exists(), "head": head, "dirty": dirty}


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
        state = checkout_state(Path(checkout))
        record = run_checkout(Path(checkout), args.workload, args.seed, args.seconds)
        runs.append({"label": label, "checkout": state, **record})
    args.out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
