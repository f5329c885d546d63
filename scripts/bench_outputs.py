#!/usr/bin/env python3
"""Digest of every benchmark job's output, to show that a change keeps them.

    python scripts/bench_outputs.py [--seeds 1 2 3 11]

For each workload of ``perfbench/bench_jobs.WORKLOADS`` and each seed, the
script builds the job lists in a temporary directory and runs every
warm-up and pass job once, in order, removing a CLI job's output file
first.  Each run adds to one SHA-256 digest: the data file a CLI job
wrote, the ``repr`` of a library job's result, or, where the call or the
job's check raised, the error's type and text; a CLI job also adds what it
wrote to standard error.  The temporary directory's path reads as
``WORKDIR`` in every text, so the digest does not depend on it.  The
script prints one ``workload seed jobs sha256`` line per pair; compare two
checkouts by running each one's copy of this script and ``diff``-ing the
lines.  It imports ``perfbench`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_jobs  # noqa: E402


def digest(workload: str, seed: int, smoke: bool = False) -> str:
    """The ``workload seed jobs sha256`` line of one workload at one seed."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        warm, jobs = bench_jobs.build(workload, seed, Path(tmp), smoke)
        for job in warm + jobs:
            if job.out is not None and job.out.exists():
                job.out.unlink()
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    result = job.call()
                job.check(result)
            except Exception as exc:  # a typed failure, a failed check or an untyped error
                piece = f"{type(exc).__name__}: {exc}".encode()
            else:
                piece = job.out.read_bytes() if job.out is not None else repr(result).encode()
            text = f"{job.label}\n{stderr.getvalue()}".encode() + piece
            text = text.replace(tmp.encode(), b"WORKDIR")
            sha.update(b"%d\n" % len(text) + text)
    return f"{workload} {seed} {len(warm) + len(jobs)} {sha.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 11])
    args = parser.parse_args(argv)
    for workload in bench_jobs.WORKLOADS:
        for seed in args.seeds:
            print(digest(workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
