#!/usr/bin/env python3
"""Start sweep of the NLS ground-state solvers, with every warning an error.

Runs ground_state at seven fixed b and self_consistent_lambda on the
default bracket over 108 starts: domains +-8, +-12, +-16 and +-20 at 128,
512 and 1024 points, the potentials x^2/2, x^4/4 and x^4/4 - x^2, the step
min(0.9 / (2/h^2 + max V), 0.9 / max V) at tol_flow 1e-8, and the default
start and randomized_initial_guess(grid, 7, k) for k = 1, 2.  For each
mode it prints the cases, how many solved, the failures by error type,
and, over all cases and over those that solved, the tridiagonal solves
(nls._thomas calls) and the cases that ran semi-implicit loose steps.

    python scripts/nls_start_sweep.py [--save FILE] [--against FILE]

--save writes each case's mu (fixed b) or lambda, or its error type, as
JSON; --against reads such a file, written by another tree, and prints
the largest difference over the cases both solved and every case that
solved there and fails here.  Exits 1 on an error that is not one of the
package's own, or where a case that solved there fails here.
"""

import argparse
import json
import pathlib
import sys
import warnings

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from infoqm import (  # noqa: E402
    FlowConfig, Grid1D, GridProblem, ground_state, nls, self_consistent_lambda,
)
from infoqm.errors import InfoqmError  # noqa: E402

HALF_WIDTHS = (8.0, 12.0, 16.0, 20.0)
POINTS = (128, 512, 1024)
POTENTIALS = {
    "harmonic": lambda x: 0.5 * x * x,
    "quartic": lambda x: 0.25 * x**4,
    "double_well": lambda x: 0.25 * x**4 - x * x,
}
STARTS = (None, 1, 2)
FIXED_B = (0.0, -1e-8, -1e-3, -0.5, -1.5, -3.0, 0.5)


def count_work(work: dict[str, int]) -> None:
    """Wrap nls._thomas and nls._semi_implicit_step so that each call adds
    to work's "thomas" or "loose"."""
    thomas, loose_step = nls._thomas, nls._semi_implicit_step

    def counted_thomas(*args):
        work["thomas"] += 1
        return thomas(*args)

    def counted_loose_step(*args):
        work["loose"] += 1
        return loose_step(*args)

    nls._thomas, nls._semi_implicit_step = counted_thomas, counted_loose_step


def cases(mode: str):
    """(key, solve) for every case of the mode."""
    for half_width in HALF_WIDTHS:
        for n_points in POINTS:
            grid = Grid1D(-half_width, half_width, n_points)
            h = grid.spacing
            for name, potential in POTENTIALS.items():
                v = potential(grid.points())
                v_max = float(np.max(v))
                cfg = FlowConfig(step=min(0.9 / (2.0 / (h * h) + v_max), 0.9 / v_max),
                                 tol_flow=1e-8)
                problem = GridProblem(grid, v)
                for k in STARTS:
                    init = None if k is None else nls.randomized_initial_guess(grid, 7, k)
                    key = f"{name} +-{half_width:g} n={n_points} start={k or 'default'}"
                    if mode == "lambda":
                        yield key, lambda p=problem, c=cfg, i=init: self_consistent_lambda(
                            p, c, init=i)[0]
                        continue
                    for b in FIXED_B:
                        yield f"{key} b={b:g}", lambda p=problem.with_b(b), c=cfg, i=init: (
                            ground_state(p, c, init=i).mu)


def sweep(mode: str, calls: dict[str, int]) -> tuple[dict[str, float | str], dict[str, int],
                                                    list[str]]:
    """(results, work, untyped): each case's value or error type, the
    summed work counts over all cases and over those that solved, and the
    cases that raised an error not of the package's own.  ``calls`` is the
    dict that count_work adds to."""
    work = dict.fromkeys(("thomas", "loose", "loose_cases", "ok_thomas", "ok_loose_cases"), 0)
    results: dict[str, float | str] = {}
    untyped = []
    for key, solve in cases(mode):
        calls.update(thomas=0, loose=0)
        try:
            results[key] = solve()
        except InfoqmError as exc:
            results[key] = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - any other error fails the sweep
            results[key] = type(exc).__name__
            untyped.append(f"{key}: {type(exc).__name__}: {exc}")
        ok = isinstance(results[key], float)
        work["thomas"] += calls["thomas"]
        work["loose"] += calls["loose"]
        work["loose_cases"] += calls["loose"] > 0
        work["ok_thomas"] += ok * calls["thomas"]
        work["ok_loose_cases"] += ok and calls["loose"] > 0
    return results, work, untyped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path)
    args = parser.parse_args()
    warnings.simplefilter("error")
    saved, other = {}, json.loads(args.against.read_text()) if args.against else {}
    status = 0
    calls = {"thomas": 0, "loose": 0}
    count_work(calls)
    for mode in ("fixed_b", "lambda"):
        results, work, untyped = sweep(mode, calls)
        saved[mode] = results
        ok = [key for key, value in results.items() if isinstance(value, float)]
        failures: dict[str, int] = {}
        for value in results.values():
            if isinstance(value, str):
                failures[value] = failures.get(value, 0) + 1
        print(f"{mode}: {len(results)} cases, {len(ok)} ok, failures {failures}")
        print(f"  all cases: _thomas calls {work['thomas']}, loose steps {work['loose']} "
              f"in {work['loose_cases']} cases")
        print(f"  ok cases: _thomas calls {work['ok_thomas']}, "
              f"loose phase in {work['ok_loose_cases']} cases")
        for line in untyped:
            print(f"  untyped error: {line}")
        status |= bool(untyped)
        if mode in other:
            theirs = other[mode]
            both = [key for key in ok if isinstance(theirs.get(key), float)]
            lost = [key for key, value in theirs.items()
                    if isinstance(value, float) and not isinstance(results.get(key), float)]
            diff = max((abs(results[key] - theirs[key]) for key in both), default=0.0)
            print(f"  against {args.against}: {len(both)} solved by both, "
                  f"max difference {diff:.2e}, {len(lost)} solved there fail here")
            for key in lost:
                print(f"  lost: {key}: {results.get(key)}")
            status |= bool(lost)
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
