#!/usr/bin/env python3
"""Spectral oracle for the self-consistent coefficient of the grid NLS solve.

    python scripts/oracle_nls_spectral.py

Solves -psi''/2 + V psi = b (1 + ln psi^2) psi with unit norm and
psi(-12) = psi(12) = 0 for b, by sine collocation (Trefethen, Spectral
Methods in MATLAB, SIAM 2000, ch. 7) on the N - 1 interior points of
[-12, 12] and a bordered Newton solve in (u, b) with numpy's dense
solver, continued in the potential from x^2/2, whose ground state is a
closed-form Gaussian.  The logarithm is floored at u^2 = 1e-100, as in
the grid solver.  Shares no code with the package: numpy only.

Prints, for V = x^2/2, x^4/4 and (x^2 - 4)^2/8, b at N = 64 and 128 and
their difference; for x^2/2 also the closed form of the Gaussian ground
state, b = (a^2 - 1) / (2a) where a^2 = (a^2 - 1) (1 + ln(a / pi) / 2).
Exits 1 if N = 64 and 128 differ by more than 1e-10 for any potential or
the harmonic b misses its closed form by more than 1e-12.
"""

from __future__ import annotations

import math
import sys

import numpy as np

HALF_WIDTH = 12.0
EPS_LOG = 1e-100
HOMOTOPY_STAGES = 8
NEWTON_CAP = 60
POTENTIALS = {
    "x^2/2": lambda x: 0.5 * x * x,
    "x^4/4": lambda x: 0.25 * x**4,
    "(x^2-4)^2/8": lambda x: (x * x - 4.0) ** 2 / 8.0,
}


def harmonic_closed_form() -> tuple[float, float]:
    """(a, b) of the Gaussian ground state exp(-a x^2 / 2) for V = x^2/2,
    by bisection on a in (0, 1), where b < 0."""
    def residual(a):
        return (a * a - 1.0) * (1.0 + 0.5 * math.log(a / math.pi)) - a * a

    lo, hi = 0.05, 0.999
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (residual(mid) > 0.0) == (residual(lo) > 0.0):
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return a, (a * a - 1.0) / (2.0 * a)


def spectral_lambda(potential, n: int, half_width: float = HALF_WIDTH) -> float:
    """b with mu(b) = b for the potential, on n - 1 sine modes.

    Newton starts from the harmonic closed form and follows the potential
    (1 - t) x^2/2 + t V from t = 0 to 1 in HOMOTOPY_STAGES stages, each
    solved to a relative step of 1e-13 before the next begins."""
    h = 2.0 * half_width / n
    j = np.arange(1, n)
    x = -half_width + h * j
    sines = np.sin(np.outer(j, j) * (math.pi / n))
    # -psi''/2 on the interior values: S diag(k^2 pi^2 / (2 L)^2 / 2) S^-1, S^-1 = (2/n) S
    wave = (j * math.pi / (2.0 * half_width)) ** 2
    kinetic = (sines * (0.5 * wave)) @ sines * (2.0 / n)
    a, b = harmonic_closed_form()
    u = np.exp(-0.5 * a * x * x)
    u /= math.sqrt(h * float(u @ u))
    harmonic, target = 0.5 * x * x, potential(x)
    for t in np.linspace(0.0, 1.0, HOMOTOPY_STAGES + 1):
        v = (1.0 - t) * harmonic + t * target
        for _ in range(NEWTON_CAP):
            dens = u * u
            log_d = np.log(np.maximum(dens, EPS_LOG))
            resid = np.append(kinetic @ u + v * u - b * (1.0 + log_d) * u,
                              h * float(dens.sum()) - 1.0)
            jac = np.zeros((n, n))
            jac[:-1, :-1] = kinetic + np.diag(v - b * (1.0 + log_d + 2.0 * (dens > EPS_LOG)))
            jac[:-1, -1] = -(1.0 + log_d) * u
            jac[-1, :-1] = 2.0 * h * u
            step = np.linalg.solve(jac, -resid)
            u += step[:-1]
            b += step[-1]
            if (np.max(np.abs(step[:-1])) <= 1e-13 * np.max(np.abs(u))
                    and abs(step[-1]) <= 1e-13 * abs(b)):
                break
        else:
            raise RuntimeError(f"spectral Newton did not converge at n = {n}, t = {t}")
    return b


def main() -> int:
    ok = True
    _, exact = harmonic_closed_form()
    print(f"{'potential':>12} {'b (N=64)':>20} {'b (N=128)':>20} {'difference':>11}")
    for name, potential in POTENTIALS.items():
        b64, b128 = spectral_lambda(potential, 64), spectral_lambda(potential, 128)
        ok &= abs(b64 - b128) <= 1e-10
        print(f"{name:>12} {b64:>20.15f} {b128:>20.15f} {abs(b64 - b128):>11.2e}")
        if name == "x^2/2":
            ok &= abs(b128 - exact) <= 1e-12
            print(f"{'closed form':>12} {exact:>20.15f} {'':>20} {abs(b128 - exact):>11.2e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
