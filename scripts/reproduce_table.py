#!/usr/bin/env python3
"""Solve the closed-form oscillator family and compare against the
six-figure reference values the solver is expected to reproduce."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from infoqm import alpha_from_beta, energy, lambda_from_beta, table  # noqa: E402

REFERENCE = {
    0: (0.561903, 0.165957, -1.34046, 0.836186),
    1: (0.8846183, 0.182575, -1.18673, 2.69296),
    2: (1.483947, 0.265717, -0.675132, 3.01642),
    3: (2.374767, 0.271151, -0.650844, 4.71831),
    4: (3.3791495, 0.312319, -0.488143, 5.00752),
    5: (4.5328009, 0.309387, -0.498664, 6.76468),
    6: (5.7558755, 0.334322, -0.413460, 7.03368),
    7: (7.07846158, 0.330258, -0.426725, 8.81483),
}


def main() -> int:
    rows = table(7)
    print(f"{'n':>2} {'k':>2} {'alpha':>12} {'beta':>12} {'lambda':>12} {'energy':>12}"
          f" {'d_alpha':>9} {'d_beta':>9} {'d_lambda':>9} {'d_energy':>9}")
    worst = 0.0
    for row in rows:
        ra, rb, rl, re = REFERENCE[row.n]
        deltas = (abs(row.alpha - ra), abs(row.beta - rb), abs(row.lam - rl), abs(row.energy - re))
        worst = max(worst, *deltas)
        print(f"{row.n:>2} {row.k:>2} {row.alpha:12.7f} {row.beta:12.7f} "
              f"{row.lam:12.7f} {row.energy:12.7f} "
              f"{deltas[0]:9.2e} {deltas[1]:9.2e} {deltas[2]:9.2e} {deltas[3]:9.2e}")
    print(f"\nworst absolute deviation: {worst:.2e}")
    # each row's scalars are those of the closed-form relations at its width
    related = all(
        row.alpha == alpha_from_beta(row.n, row.beta)
        and row.lam == lambda_from_beta(row.beta)
        and row.energy == energy(row.n, row.alpha, row.lam)
        for row in rows
    )
    print(f"alpha, lambda and energy of every row equal the relations at its beta: {related}")
    ok = related and all(
        abs(row.alpha - REFERENCE[row.n][0]) <= 2e-5
        and abs(row.beta - REFERENCE[row.n][1]) <= 2e-5
        and abs(row.lam - REFERENCE[row.n][2]) <= 1e-4
        and abs(row.energy - REFERENCE[row.n][3]) <= 1e-4
        for row in rows
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
