#!/usr/bin/env python3
"""High-resolution quadrature oracle for the state-family overlaps and the
completeness-projection residuals of x*exp(-x^2/2), and a check of the
nested levels the ``analyze`` subcommands integrate on.

Uses the closed-form states but its own dense trapezoid grids (8001 and
16001 points on [-14, 14]), independent of the analysis module's code
path.  The printed constants are frozen into tests/test_analysis.py.

For the n_max 7 and 20 Gram matrices, and for the gauss_power targets of
powers 0-4 at scales 0.3, 0.6, 1.6 and 3 projected on n <= 7, it prints
the level of the analysis grid each one settles at and its distance from
a 16001-point trapezoid: the largest difference of a Gram entry, or of a
residual or coefficient of the projection.  It exits 1 where a settled
level (one below the full grid) is more than 1e-12 off.

    python scripts/oracle_overlaps.py
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from infoqm import completeness_projection, psi_eval, solve_state, table  # noqa: E402
from infoqm.analysis import _settled_level  # noqa: E402

DENSE_POINTS = 16001
ORDERS = tuple(range(1, 9))
LEVEL_BOUND = 1e-12


def overlaps(n_points: int) -> dict:
    xs = np.linspace(-14.0, 14.0, n_points)
    states = [solve_state(n) for n in range(8)]
    members = [psi_eval(s, xs) for s in states]
    out = {}
    for m, n in ((0, 2), (1, 3), (0, 1)):
        out[(m, n)] = float(np.trapezoid(members[m] * members[n], xs))
    return out


def projection_residuals(n_points: int) -> dict:
    xs = np.linspace(-14.0, 14.0, n_points)
    states = [solve_state(n) for n in range(8)]
    members = np.array([psi_eval(s, xs) for s in states])
    target = xs * np.exp(-0.5 * xs * xs)
    t2 = float(np.trapezoid(target * target, xs))
    out = {}
    for order in (2, 4, 8):
        a = members[:order]
        gram = np.array(
            [[np.trapezoid(a[i] * a[j], xs) for j in range(order)] for i in range(order)]
        )
        b = np.array([np.trapezoid(a[i] * target, xs) for i in range(order)])
        c = np.linalg.solve(gram, b)
        r2 = t2 - 2.0 * float(c @ b) + float(c @ gram @ c)
        out[order] = math.sqrt(max(r2, 0.0))
    return out


def dense_projection(target, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(residuals, coefficients) of the least-squares projection of target on
    the states n <= n_max over ORDERS, on a 16001-point trapezoid."""
    xs = np.linspace(-14.0, 14.0, DENSE_POINTS)
    members = np.array([psi_eval(s, xs) for s in table(n_max)])
    ts = target(xs)
    residuals, c = [], None
    for order in ORDERS:
        a = members[:order]
        gram = np.array([[np.trapezoid(u * v, xs) for v in a] for u in a])
        c = np.linalg.solve(gram, [np.trapezoid(u * ts, xs) for u in a])
        diff = ts - c @ a
        residuals.append(math.sqrt(np.trapezoid(diff * diff, xs)))
    return np.array(residuals), c


def check_levels() -> int:
    """Print the settled level and dense-grid distance of each Gram and
    target; the number of settled levels more than LEVEL_BOUND off."""
    xs = np.linspace(-14.0, 14.0, DENSE_POINTS)
    failures = 0

    def report(what: str, level, settled: bool, distance: float) -> None:
        nonlocal failures
        bad = settled and not distance <= LEVEL_BOUND
        failures += bad
        where = f"settles at {level.n_points:5d} points" if settled else "unsettled, 8001 points"
        print(f"  {what:26s} {where}, {distance:.1e} off the 16001-point trapezoid"
              + ("  FAIL" if bad else ""))

    print(f"nested levels (a settled level may be {LEVEL_BOUND:.0e} off):")
    for n_max in (7, 20):
        basis, _, gram, settled = _settled_level(table(n_max))
        members = np.array([psi_eval(s, xs) for s in table(n_max)])
        dense = np.array([[np.trapezoid(u * v, xs) for v in members] for u in members])
        report(f"gram n_max {n_max}", basis.grid, settled, float(np.max(np.abs(gram - dense))))
    for scale in (0.3, 0.6, 1.6, 3.0):
        for power in range(5):
            def target(x, power=power, scale=scale):
                return x**power * np.exp(-(x * x) / (2.0 * scale * scale))

            basis, samples, _, settled = _settled_level(table(7), target)
            got = completeness_projection(samples, basis, ORDERS)
            residuals, coefficients = dense_projection(target, 7)
            distance = max(np.max(np.abs(np.array(got.residuals) - residuals)),
                           np.max(np.abs(np.array(got.coefficients) - coefficients)))
            report(f"gauss_power p={power} s={scale}", basis.grid, settled, float(distance))
    return failures


def main() -> int:
    for pts in (8001, 16001):
        vals = overlaps(pts)
        print(f"overlaps at {pts} points:")
        for pair, v in vals.items():
            print(f"  <psi{pair[0]}, psi{pair[1]}> = {v!r}")
    print("projection residuals of x*exp(-x^2/2) at 16001 points:")
    for order, r in projection_residuals(16001).items():
        print(f"  order {order}: {r!r}")
    failures = check_levels()
    if failures:
        print(f"{failures} settled level(s) more than {LEVEL_BOUND:.0e} off")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
