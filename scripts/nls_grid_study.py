#!/usr/bin/env python3
"""Grid-refinement study of the self-consistent nonlinear coefficient.

Solves mu(b) = b for the quadratic potential at increasing resolutions,
warm-starting each level from the previous one, and prints the lambda
estimates with their successive differences, their errors against the
closed-form n = 0 multiplier, and the work of each level's solve (the
first attempt's fixed-b step and root, or where that attempt fails the
lower bracket end and the root continued from it): its
semi-implicit loose-phase steps, its bordered Newton steps, and its
tridiagonal solves (calls of nls._thomas, counted by a wrapper): one a
loose step or a Newton step in ln u or plain at a fixed b, two a plain
free-b Newton step.  The last column
is the median wall time of one of those calls, in microseconds: the
one-solve layer's cost at each grid size, printed and not checked.
"""

import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from infoqm import (  # noqa: E402
    FlowConfig, Grid1D, GridProblem, nls, self_consistent_lambda, solve_state,
)

HALF_WIDTH = 16.0
LEVELS = (512, 1024, 2048, 4096)


def stable_step(grid: Grid1D) -> float:
    h = grid.spacing
    return 0.9 / (2.0 / (h * h) + 0.5 * HALF_WIDTH**2)


def count_thomas(work: dict[str, int], seconds: list[float]) -> None:
    """Wrap nls._thomas so that each call adds to work's calls and appends
    its wall time to seconds."""
    thomas = nls._thomas

    def counted(diag, off, rhs):
        work["calls"] += 1
        start = time.perf_counter()
        solution = thomas(diag, off, rhs)
        seconds.append(time.perf_counter() - start)
        return solution

    nls._thomas = counted


def main() -> None:
    closed_form = solve_state(0).lam
    work = {"calls": 0}
    seconds: list[float] = []
    count_thomas(work, seconds)
    previous = None
    prev_grid = None
    prev_lambda = None
    print(f"{'points':>7} {'step':>10} {'lambda':>14} {'delta_prev':>12} {'vs_closed':>10} "
          f"{'iterations':>10} {'newton_steps':>12} {'thomas':>6} {'us/call':>7}")
    for n in LEVELS:
        grid = Grid1D(-HALF_WIDTH, HALF_WIDTH, n)
        problem = GridProblem.harmonic(grid)
        cfg = FlowConfig(step=stable_step(grid), tol_flow=1e-8)
        work["calls"] = 0
        seconds.clear()
        if previous is None:
            lam, sol = self_consistent_lambda(problem, cfg)
        else:
            init = np.interp(grid.points(), prev_grid.points(), previous)
            init[init <= 0] = 1e-12
            lam, sol = self_consistent_lambda(
                problem, cfg, bracket=(prev_lambda - 0.003, prev_lambda + 0.003), init=init
            )
        delta = "" if prev_lambda is None else f"{abs(lam - prev_lambda):.3e}"
        print(f"{n:>7} {cfg.step:>10.2e} {lam:>14.8f} {delta:>12} "
              f"{abs(lam - closed_form):>10.2e} {sol.iterations:>10} {sol.newton_steps:>12} "
              f"{work['calls']:>6} {1e6 * statistics.median(seconds):>7.0f}")
        previous, prev_grid, prev_lambda = sol.psi, grid, lam


if __name__ == "__main__":
    main()
