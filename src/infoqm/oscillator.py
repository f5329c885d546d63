"""Closed-form Hermite-Gaussian branch of the logarithmic nonlinear
eigenproblem for the quadratic potential V(x) = x^2/2.

Each state is psi_n(x) = H_n(sqrt(2 beta_n) x) exp(-alpha_n - beta_n x^2)
with the four scalars (alpha_n, beta_n, lambda_n, E_n) tied together by

    exp(2 alpha) = 2^n n! sqrt(pi) / sqrt(2 beta)      (normalization)
    beta^2 = (2 alpha - 1) / (8 (n + k + alpha))       (width closure)
    lambda = (4 beta^2 - 1) / (4 beta)                 (x^2-coefficient match)
    E = lambda (1 - 2 alpha - (2n + 1)/2)              (state energy)

with parity index k = n mod 2.  Solving the width closure per n fixes the
whole state; beta = 1/2 is the linear-oscillator limit where lambda = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, NumericError
from .numerics import (MAX_HERMITE_ORDER, _as_array, _as_finite, _as_int, _as_positive,
                       _hermite_rows, find_root, hermite_eval)

MAX_QUANTUM_NUMBER = 20
# the largest n whose normalization constant 2^n n! sqrt(pi) is a finite double
_MAX_NORM_N = 150

BETA_SCAN_LO = 1e-4
BETA_SCAN_HI = 2.0


@dataclass(frozen=True)
class OscillatorState:
    """One solved (or reference) state of the closed-form family.

    ``lam`` is the multiplier of the logarithmic term and ``energy`` the
    state energy.  Solver output additionally satisfies 2*alpha > 1 and
    lam < 0; reference states built by hand (e.g. the linear limit
    beta = 1/2) are allowed to sit outside those bounds.
    """

    n: int
    k: int
    alpha: float
    beta: float
    lam: float
    energy: float

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "quantum number", 0))
        object.__setattr__(self, "k", _as_int(self.k, "parity index", 0, 1))
        object.__setattr__(self, "beta", _as_positive(self.beta, "beta"))
        for name in ("alpha", "lam", "energy"):
            object.__setattr__(self, name, _as_finite(getattr(self, name), name))


def _norm_constant(n: int) -> float:
    """2^n n! sqrt(pi), the factor of exp(2 alpha) that depends on n alone."""
    if n > _MAX_NORM_N:
        raise NumericError(f"n = {n} overflows 2^n n! sqrt(pi) (largest n is {_MAX_NORM_N})")
    return 2.0**n * math.factorial(n) * math.sqrt(math.pi)


def _closure_residual(norm: float, nk: int, beta: float) -> float:
    # beta_closure_residual of norm = 2^n n! sqrt(pi) and nk = n + k, which
    # solve_state forms once per state and then evaluates about 15 times
    a = 0.5 * math.log(norm / math.sqrt(2.0 * beta))
    return 8.0 * beta * beta * (nk + a) - (2.0 * a - 1.0)


def _finite(value: float, what: str, n: int, beta: float) -> float:
    """value, or NumericError naming n and beta if it is not finite."""
    if not math.isfinite(value):
        raise NumericError(f"{what} is not finite at n = {n}, beta = {beta!r}")
    return value


def alpha_from_beta(n: int, beta: float) -> float:
    """Log-normalization alpha = (1/2) ln(2^n n! sqrt(pi) / sqrt(2 beta)).

    Raises NumericError when alpha is not finite: the quotient overflows
    for n near 150 or beta near 0."""
    n = _as_int(n, "n", 0)
    norm = _norm_constant(n)
    beta = _as_positive(beta, "beta")
    return _finite(0.5 * math.log(norm / math.sqrt(2.0 * beta)), "alpha", n, beta)


def beta_closure_residual(n: int, k: int, beta: float) -> float:
    """g(beta) = 8 beta^2 (n + k + alpha(beta)) - (2 alpha(beta) - 1).

    A root of g is the width of state n; g carries the same sign
    information as the closure relation cleared of denominators.  Raises
    NumericError when g is not finite, as alpha_from_beta does.
    """
    n = _as_int(n, "n", 0)
    k = _as_int(k, "parity index", 0, 1)
    norm = _norm_constant(n)
    beta = _as_positive(beta, "beta")
    return _finite(_closure_residual(norm, n + k, beta), "closure residual", n, beta)


def lambda_from_beta(beta: float) -> float:
    """Multiplier lambda = (4 beta^2 - 1) / (4 beta); zero at beta = 1/2."""
    beta = _as_positive(beta, "beta")
    return (4.0 * beta * beta - 1.0) / (4.0 * beta)


def energy(n: int, alpha: float, lam: float) -> float:
    """State energy E = lam * (1 - 2 alpha - (2n + 1)/2)."""
    n = _as_int(n, "n", 0)
    alpha, lam = _as_finite(alpha, "alpha"), _as_finite(lam, "lam")
    return lam * (1.0 - 2.0 * alpha - (2.0 * n + 1.0) / 2.0)


def _admissible_beta_cap(norm: float) -> float:
    # Largest beta with 2*alpha(beta) > 1, i.e. sqrt(2 beta) < 2^n n! sqrt(pi)/e
    # for norm = 2^n n! sqrt(pi).  Restricting the bracket to this range keeps
    # the closure's right side positive and excludes a spurious large-beta
    # sign change at n = 0.
    return min(BETA_SCAN_HI, 0.5 * (norm / math.e) ** 2)


def solve_state(n: int) -> OscillatorState:
    """Solve the width closure for quantum number n and fill in the state.

    The parity index is k = n mod 2.  find_root narrows beta to adjacent
    doubles on the admissible range (2*alpha > 1), where the closure
    residual g has exactly one root: g'(beta) = 16 beta (n + k + alpha)
    - 2 beta + 1/(2 beta) > 0 there, since n + k + alpha > 1/2.  The
    computed g changes sign once among the doubles near each root, so
    the width is the one plain bisection would give, bit for bit.  Every
    solved state has 2*alpha - 1 > 0.12 and lambda < -0.27.
    """
    n = _as_int(n, "n", 0, MAX_QUANTUM_NUMBER, DomainError)
    k = n % 2
    norm = _norm_constant(n)
    beta = find_root(partial(_closure_residual, norm, n + k), BETA_SCAN_LO,
                     _admissible_beta_cap(norm))
    alpha = alpha_from_beta(n, beta)
    lam = lambda_from_beta(beta)
    return OscillatorState(n, k, alpha, beta, lam, energy(n, alpha, lam))


def table(n_max: int) -> list[OscillatorState]:
    """States n = 0..n_max, the table's rows, each from an independent solve."""
    n_max = _as_int(n_max, "n_max", 0, MAX_QUANTUM_NUMBER, DomainError)
    return [solve_state(n) for n in range(n_max + 1)]


def psi_eval(state: OscillatorState, x):
    """psi(x) = H_n(sqrt(2 beta) x) exp(-alpha - beta x^2)."""
    x = _as_array(x, "x")
    u = math.sqrt(2.0 * state.beta) * x
    out = hermite_eval(state.n, u) * np.exp(-state.alpha - state.beta * x * x)
    return out if out.ndim else float(out)


def psi_deriv(state: OscillatorState, x):
    """First derivative of psi, via H_n' = 2n H_{n-1}: H_{n-1} and H_n from
    one _hermite_rows call on two rows (at n = 0 the order -1 row reads 1,
    times 2n = 0)."""
    x = _as_array(x, "x")
    n = _as_int(state.n, "hermite order", 0, MAX_HERMITE_ORDER, DomainError)
    s = math.sqrt(2.0 * state.beta)
    u = s * x
    g = np.exp(-state.alpha - state.beta * x * x)
    h_prev, h = _hermite_rows(np.array([n - 1, n]), np.stack((u, u)))
    out = (s * (2.0 * n * h_prev) - 2.0 * state.beta * x * h) * g
    return out if out.ndim else float(out)


def psi_second_derivative(state: OscillatorState, x):
    """Second derivative of psi, analytic: the Hermite equation
    H_n'' = 2u H_n' - 2n H_n gives psi'' = (4 beta^2 x^2 - 2 beta (2n + 1)) psi."""
    x = _as_array(x, "x")
    b = state.beta
    out = (4.0 * b * b * x * x - 2.0 * b * (2.0 * state.n + 1.0)) * psi_eval(state, x)
    return out if out.ndim else float(out)


def eigen_residual(state: OscillatorState, x):
    """Residual of the nonlinear eigen-equation at x.

    r(x) = -psi''/2 + (x^2/2) psi - lam (1 + ln(psi^2/Z^2)) psi, with Z
    the Hermite factor of the state, so the log equals
    -2 alpha - 2 beta x^2 everywhere, including at nodes.
    """
    x = _as_array(x, "x")
    psi = psi_eval(state, x)
    d2 = psi_second_derivative(state, x)
    log_ratio = -2.0 * state.alpha - 2.0 * state.beta * x * x
    out = -0.5 * d2 + 0.5 * x * x * psi - state.lam * (1.0 + log_ratio) * psi
    return out if out.ndim else float(out)


def state_information(state: OscillatorState) -> float:
    """Average of ln(psi^2/Z^2) in the state: -2 alpha - (2n + 1)/2.

    Closed form of the quadrature average, since 2 beta <x^2> = n + 1/2
    for a Hermite-Gaussian state.
    """
    return -2.0 * state.alpha - (2.0 * state.n + 1.0) / 2.0
