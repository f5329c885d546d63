#!/usr/bin/env python3
"""Independent moment recheck of 1-D maxent fits.

    python scripts/oracle_maxent_1d.py

Fits the unit-sd quartic of the benchmark's ``fit_quartic`` jobs (raw
moments 1-4 of mean + Z, Z the unit-variance exp(-x^4) base) at tol 1e-8
for means -12.5 to 12.5 in steps of 0.5; 66 seeded bounded specs drawn
like the benchmark's ``fit_bounded`` jobs (60 with a mean and a second
moment, 6 with a mean only) at tol 1e-10; narrow densities on
[-100, 100]; kurtosis 30 on [-20, 20] and kurtosis 3.05 on +-14, +-16 and
+-18, whose densities rise toward the ends; half-line specs; a mean of
0.01 on [0, 1000]; two warm starts of the unit Gaussian from the
Gaussians of mean -1 and of sd 0.5; and orders 1, 3 and 4 of
exp(-((x - 0.5) / 0.1)^4 / 12), whose fitted exponent has a second well
near -1.62.  Each fit's normalization and moments are recomputed from
its multipliers with numpy's own Gauss-Legendre rules (``leggauss``),
200 panels of 24 nodes on the fit's window and on each finite piece of
the support beyond it, which share no code with the package's
quadrature; where the support is infinite, the recheck covers the fit's
window.  They are recomputed once more on ``reference_rule``, the nodes
of every functional of the density, and the fit's window is compared
with the density's own ``maxent._window``.  Prints one line per spec
(iterations, fit residual, window, both recheck residuals, the window's
offset) and exits 1 if a spec raises, a recheck misses its bound
(|integral - 1| and every |<x^i> - t_i| at most 10 tol max(1, |t_i|))
or the window's ends are off its own by more than 1e-9 of the span of
the reference nodes: the window where an end of the support is infinite,
the support where it is finite.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infoqm import MomentSpec1D, fit_multipliers_1d, maxent  # noqa: E402

INF = math.inf
PANELS = 200
ORDER = 24
# <x^4> of the unit-variance base exp(-c x^4), as in perfbench/bench_jobs.py
QUARTIC_KURTOSIS = 0.25 / (math.gamma(0.75) / math.gamma(0.25)) ** 2
# <z^2> of exp(-z^4 / 12), whose <z^4> is 3
WELL_VARIANCE = math.sqrt(12.0) * math.gamma(0.75) / math.gamma(0.25)


def quartic(mean: float):
    """Raw moments 1..4 of mean + Z, Z the unit-variance quartic base."""
    return ((1, mean), (2, mean**2 + 1.0), (3, mean**3 + 3.0 * mean),
            (4, mean**4 + 6.0 * mean**2 + QUARTIC_KURTOSIS))


def bench_like(seed: int):
    """A bounded spec drawn as the benchmark draws its fit_bounded jobs:
    a mean only for every eleventh seed, else a mean and a second moment."""
    rng = np.random.default_rng(seed)
    lo, width = rng.uniform(-2.0, 2.0), rng.uniform(1.0, 3.0)
    if seed % 11 == 0:
        cons = ((1, lo + width * rng.uniform(0.3, 0.7)),)
    else:
        c = lo + width * rng.uniform(0.4, 0.6)
        cons = ((1, c), (2, c * c + width * width * rng.uniform(0.03, 0.07)))
    return f"bounded seed {seed}", MomentSpec1D((lo, lo + width), cons), 1e-10, None


def specs():
    out = [(f"quartic mean {0.5 * i:+.1f}", MomentSpec1D((-INF, INF), quartic(0.5 * i)), 1e-8,
            None) for i in range(-25, 26)]
    out += [bench_like(seed) for seed in range(1, 67)]
    for cons in (((2, 0.1),), ((1, 0.5), (2, 0.26)), ((4, 1e-3),)):
        out.append((f"[-100, 100] {cons}", MomentSpec1D((-100.0, 100.0), cons), 1e-10, None))
    out.append(("kurtosis 30 on +-20", MomentSpec1D((-20.0, 20.0), ((2, 1.0), (4, 30.0))),
                1e-10, None))
    for side in (14.0, 16.0, 18.0):
        out.append((f"kurtosis 3.05 on +-{side:g}",
                    MomentSpec1D((-side, side), ((2, 1.0), (4, 3.05))), 1e-10, None))
    out += [("half line mean 1", MomentSpec1D((0.0, INF), ((1, 1.0), (2, 1.5))), 1e-12, None),
            ("half line mean -1", MomentSpec1D((-INF, 0.0), ((1, -1.0), (2, 1.5))), 1e-12, None),
            ("half line mean 20", MomentSpec1D((0.0, INF), ((1, 20.0), (2, 401.0))), 1e-10, None),
            ("mean 0.01 on [0, 1000]", MomentSpec1D((0.0, 1000.0), ((1, 0.01),)), 1e-12, None)]
    gaussian = MomentSpec1D((-INF, INF), ((1, 0.0), (2, 1.0)))
    out += [("warm start mean -1", gaussian, 1e-10, np.array([1.0, 0.5])),
            ("warm start sd 0.5", gaussian, 1e-10, np.array([0.0, 2.0]))]
    mean, v2, v4 = 0.5, 0.01 * WELL_VARIANCE, 3e-4
    well = ((1, mean), (3, mean**3 + 3.0 * mean * v2), (4, mean**4 + 6.0 * mean**2 * v2 + v4))
    out.append(("second well, orders 1 3 4", MomentSpec1D((-INF, INF), well), 1e-10, None))
    return out


def recheck_rule(support, window):
    """Composite leggauss nodes and weights: PANELS panels of ORDER nodes
    on the window and on each finite piece of the support beyond it."""
    t, w = np.polynomial.legendre.leggauss(ORDER)
    lo = support[0] if math.isfinite(support[0]) else window[0]
    hi = support[1] if math.isfinite(support[1]) else window[1]
    nodes, weights = [], []
    for a, b in ((lo, window[0]), tuple(window), (window[1], hi)):
        if b > a:
            edges = np.linspace(a, b, PANELS + 1)
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            nodes.append((mid[:, None] + half[:, None] * t).ravel())
            weights.append((half[:, None] * w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def recheck(spec, density, xs, w) -> float:
    """The worst of |integral - 1| and |<x^i> - t_i| / max(1, |t_i|) on the
    nodes xs and weights w."""
    rho = np.exp(-sum(v * xs**order for order, v in density.multipliers))
    worst = abs(float(w @ rho) - 1.0)
    for order, target in spec.constraints:
        worst = max(worst, abs(float(w @ (rho * xs**order)) - target) / max(1.0, abs(target)))
    return worst


def main() -> int:
    all_specs = specs()
    failures = 0
    for label, spec, tol, init in all_specs:
        try:
            density, diag = fit_multipliers_1d(spec, init=init, tol=tol)
        except Exception as exc:  # every spec here has a fit
            print(f"{label:34s} FAIL {type(exc).__name__}: {exc}")
            failures += 1
            continue
        worst = recheck(spec, density, *recheck_rule(spec.support, diag.window))
        xs, w = maxent.reference_rule(density)
        reference = recheck(spec, density, xs, w)
        own = maxent._window(density.support, density.multipliers)
        off = max(abs(a - b) for a, b in zip(diag.window, own)) / (xs[-1] - xs[0])
        ok = max(worst, reference) <= 10.0 * tol and off <= 1e-9
        failures += not ok
        print(f"{label:34s} iterations {diag.iterations:3d}  fit residual "
              f"{diag.max_moment_residual:.1e}  window [{diag.window[0]:.6g}, "
              f"{diag.window[1]:.6g}]  recheck {worst:.1e}  reference {reference:.1e}  "
              f"own window off {off:.1e}  {'ok' if ok else 'FAIL'}")
    print(f"{len(all_specs) - failures}/{len(all_specs)} specs as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
