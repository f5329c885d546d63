#!/usr/bin/env python3
"""Brute-force oracle for the symmetric-interval moment fit.

Finds the quadratic multiplier a2 with <x^2> = 0.2 on [-1, 1] by plain
bisection over a2 with 100001-point composite Simpson quadrature.
Deliberately independent of the package's Newton fitter and quadrature;
needs numpy only.  The printed value is frozen into tests/test_maxent.py
as ORACLE_A2_SYMMETRIC (copied here as FROZEN_A2); the script exits 1
where its a2 is off that value by more than FROZEN_BOUND.

    python scripts/oracle_maxent_bisection.py
"""

import sys

import numpy as np

TARGET = 0.2
FROZEN_A2 = 1.8742066309485939
FROZEN_BOUND = 1e-12
XS = np.linspace(-1.0, 1.0, 100001)
# composite Simpson weights h/3 * (1, 4, 2, 4, ..., 2, 4, 1) on the odd point count
SIMPSON = np.ones(XS.size)
SIMPSON[1:-1:2] = 4.0
SIMPSON[2:-1:2] = 2.0
SIMPSON *= (XS[1] - XS[0]) / 3.0


def second_moment(a2: float) -> float:
    w = SIMPSON * np.exp(-a2 * XS**2)
    return float(w @ XS**2) / float(w.sum())


def main() -> int:
    lo, hi = 0.0, 50.0
    assert second_moment(lo) > TARGET > second_moment(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if second_moment(mid) > TARGET:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    a2 = 0.5 * (lo + hi)
    print(f"a2 for <x^2> = {TARGET} on [-1, 1]: {a2!r}")
    print(f"residual: {second_moment(a2) - TARGET:.3e}")
    distance = abs(a2 - FROZEN_A2)
    bad = not distance <= FROZEN_BOUND
    print(f"distance from the frozen {FROZEN_A2!r}: {distance:.1e} (bound {FROZEN_BOUND:.0e})"
          + ("  FAIL" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
