#!/usr/bin/env python3
"""Whole-line oracle for the exact overlaps of the ``analysis`` module.

Checks ``gram_matrix`` (n_max 7 and 20) and ``completeness_projection`` of
the gauss_power targets x^p exp(-x^2 / (2 s^2)), powers 0-4 at scales 0.3,
0.6, 1.6, 3 and 5, projected on n <= 7 at orders 1-8, against references
that share no code with the module's Gauss-Hermite kernel:

- a dense trapezoid of psi_eval samples on [-60, 60], where every state and
  target is below 1e-20 of its peak, so the cut is below rounding; the
  trapezoid converges geometrically on these smooth, Gaussian-decaying
  integrands (Trefethen & Weideman, SIAM Review 56, 385, 2014), and the
  residual there is the sampled norm of target - sum c_i psi_i;
- the closed form |t| = sqrt(Gamma(p + 1/2) s^(2p + 1)).

Gram entries are compared absolutely (the diagonal is 1), and residuals,
coefficients and norms relative to |t|.  It also prints the overlaps and the
residuals of x exp(-x^2 / 2) frozen into tests/test_analysis.py, each with
its distance from the frozen value (and <psi0, psi1> with its distance from
0, its value by parity).  It exits 1 where a distance from a reference is
above BOUND or one from a frozen value above FROZEN_BOUND.

    python scripts/oracle_overlaps.py
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from infoqm import GaussPower, completeness_projection, gram_matrix, psi_eval, table  # noqa: E402

XS = np.linspace(-60.0, 60.0, 24001)
ORDERS = tuple(range(1, 9))
POWERS = range(5)
SCALES = (0.3, 0.6, 1.6, 3.0, 5.0)
BOUND = 1e-12
# the values tests/test_analysis.py freezes, from denser trapezoids on [-14, 14]
FROZEN_OVERLAPS = {(0, 2): 0.1611868415688419, (1, 3): 0.2322275352000255, (0, 1): 0.0}
FROZEN_RESIDUALS = {2: 0.5208961282519861, 4: 0.07481959286000289, 8: 0.0055379007164926735}
FROZEN_BOUND = 1e-14


def dense_gram(members: np.ndarray) -> np.ndarray:
    return np.array([[np.trapezoid(u * v, XS) for v in members] for u in members])


def dense_projection(ts: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residuals, coefficients) of the least-squares projection of the
    samples ts on the sampled members over ORDERS, the coefficients of the
    last order."""
    gram = dense_gram(members)
    b = np.array([np.trapezoid(u * ts, XS) for u in members])
    residuals, c = [], None
    for order in ORDERS:
        c = np.linalg.solve(gram[:order, :order], b[:order])
        diff = ts - c @ members[:order]
        residuals.append(math.sqrt(np.trapezoid(diff * diff, XS)))
    return np.array(residuals), c


def main() -> int:
    failures = 0

    def report(what: str, distance: float, bound: float = BOUND) -> None:
        nonlocal failures
        bad = not distance <= bound
        failures += bad
        print(f"  {what:28s} {distance:.1e}" + ("  FAIL" if bad else ""))

    members = np.array([psi_eval(s, XS) for s in table(20)])
    print("values frozen into tests/test_analysis.py, dense trapezoid, and their distance "
          f"from the frozen value (bound {FROZEN_BOUND:.0e}):")
    for (m, n), frozen in FROZEN_OVERLAPS.items():
        value = float(np.trapezoid(members[m] * members[n], XS))
        print(f"  <psi{m}, psi{n}> = {value!r}")
        report(f"<psi{m}, psi{n}>", abs(value - frozen), FROZEN_BOUND)
    residuals, _ = dense_projection(XS * np.exp(-0.5 * XS * XS), members[:8])
    for order, frozen in FROZEN_RESIDUALS.items():
        value = float(residuals[order - 1])
        print(f"  residual of x exp(-x^2/2) at order {order}: {value!r}")
        report(f"residual at order {order}", abs(value - frozen), FROZEN_BOUND)

    print(f"distance of the exact kernel from the references (bound {BOUND:.0e}):")
    for n_max in (7, 20):
        exact = gram_matrix(table(n_max))
        dense = dense_gram(members[: n_max + 1])
        report(f"gram n_max {n_max}", float(np.max(np.abs(exact - dense))))
    for scale in SCALES:
        for power in POWERS:
            target = GaussPower(power, scale)
            norm = math.sqrt(math.gamma(power + 0.5) * scale ** (2 * power + 1))
            got = completeness_projection(target, table(7), ORDERS)
            ts = XS**power * np.exp(-XS * XS / (2.0 * scale * scale))
            residuals, coefficients = dense_projection(ts, members[:8])
            distance = max(np.max(np.abs(np.array(got.residuals) - residuals)),
                           np.max(np.abs(np.array(got.coefficients) - coefficients)),
                           abs(math.sqrt(gram_matrix([target])[0, 0]) - norm))
            report(f"gauss_power p={power} s={scale}", float(distance) / norm)
    if failures:
        print(f"{failures} distance(s) above their bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
