#!/usr/bin/env python3
"""Independent moment recheck of 2-D maxent fits.

    python scripts/oracle_maxent_2d.py

Fits, at tol 1e-9, the 2-D specs drawn like the benchmark's ``fit_2d``
jobs (seeds 1-3: a correlated Gaussian with given means and a
platykurtic quartic, on a square of half-side 2.9-3.1), the narrow
symmetric specs on [-3, 3]^2 at sd 0.5, 0.2, 0.1 and 0.05 with kurtosis
3 and 2.65, one spec whose 12 sd window cuts the rectangle, and five
leptokurtic specs whose density rises toward the x edges of rectangles
up to 16 sd wide.  Each fit's moments are recomputed with numpy's own
Gauss-Legendre rules, 1000 nodes per axis over the whole rectangle,
which share no code with the package's quadrature.  (A 4001^2 Simpson
sum is off by up to 3.3e-7 on the leptokurtic specs.)  Every spec has a
fit, the platykurtic sd 0.05 one included.  Prints one line per spec and
exits 1 if a fit raises or any moment misses its target by more than
1e-8.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infoqm import ConvergenceError, MomentSpec2D, fit_multipliers_2d  # noqa: E402

TOL = 1e-9
LIMIT = 1e-8
NODES = 1000


def bench_like(seed: int):
    """The two fit_2d specs of one seed, drawn as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    specs = []
    for quartic in (False, True):
        half = rng.uniform(2.9, 3.1)
        v1, v2 = rng.uniform(0.7, 0.8), rng.uniform(0.7, 0.8)
        if quartic:
            c = rng.uniform(2.6, 2.7)
            cons = ((2, 0, v1), (0, 2, v2), (4, 0, c * v1 * v1), (0, 4, c * v2 * v2))
        else:
            m1, m2 = rng.uniform(0.15, 0.25), rng.uniform(-0.25, -0.15)
            cov = rng.uniform(0.25, 0.3) * math.sqrt(v1 * v2)
            cons = ((1, 0, m1), (0, 1, m2), (2, 0, v1 + m1 * m1), (0, 2, v2 + m2 * m2),
                    (1, 1, cov + m1 * m2))
        label = f"seed {seed} {'quartic' if quartic else 'gaussian'}"
        specs.append((label, MomentSpec2D(((-half, half), (-half, half)), cons)))
    return specs


def narrow(sd: float, kurtosis: float):
    v = sd * sd
    cons = ((2, 0, v), (0, 2, v), (4, 0, kurtosis * v * v), (0, 4, kurtosis * v * v))
    return f"sd {sd} kurtosis {kurtosis}", MomentSpec2D(((-3.0, 3.0), (-3.0, 3.0)), cons)


def moments(support, multipliers) -> np.ndarray:
    """<x^i y^j>, i, j <= 4, of exp(-sum v x^i y^j) on NODES^2 Gauss nodes."""
    t, w = np.polynomial.legendre.leggauss(NODES)
    (xs, wx), (ys, wy) = ((0.5 * (lo + hi) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * w)
                          for lo, hi in support)
    rho = np.exp(-sum(v * xs[:, None] ** i * ys**j for i, j, v in multipliers))
    px = np.array([xs**k for k in range(5)])
    py = np.array([ys**k for k in range(5)])
    table = (px * wx) @ rho @ (py * wy).T
    return table / table[0, 0]


def main() -> int:
    specs = [spec for seed in (1, 2, 3) for spec in bench_like(seed)]
    specs += [narrow(sd, k) for sd in (0.5, 0.2, 0.1, 0.05) for k in (3.0, 2.65)]
    specs.append(("12 sd window cut", MomentSpec2D(((-14.0, 14.0), (-3.0, 3.0)),
                                                    ((2, 0, 1.0), (4, 0, 3.05), (0, 2, 1.0)))))
    for half, m40 in ((12.5, 3.2), (14.0, 3.2), (16.0, 3.2), (14.0, 3.5), (14.0, 4.0)):
        specs.append((f"x side {half} m40 {m40}", MomentSpec2D(
            ((-half, half), (-3.0, 3.0)), ((2, 0, 1.0), (4, 0, m40), (0, 2, 1.0)))))
    failures = 0
    for label, spec in specs:
        try:
            density, diag = fit_multipliers_2d(spec, tol=TOL)
        except ConvergenceError as exc:
            print(f"{label:24s} FAIL ConvergenceError: {exc}")
            failures += 1
            continue
        table = moments(spec.support, density.multipliers)
        worst = max(abs(table[i, j] - v) for i, j, v in spec.constraints)
        ok = worst <= LIMIT
        failures += not ok
        print(f"{label:24s} iterations {diag.iterations:3d}  fit residual "
              f"{diag.max_moment_residual:.1e}  reference residual {worst:.1e}  "
              f"{'ok' if ok else 'FAIL'}")
    print(f"{len(specs) - failures}/{len(specs)} specs as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
