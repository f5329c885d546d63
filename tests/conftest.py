import pathlib
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

# allow running the suite from a fresh checkout without installing
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from infoqm import solve_state  # noqa: E402

# polynomial coefficients for the bit-for-bit root and window tests: zeros
# of both signs, and values of both signs across 1e-6..1e6
SIGNED_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)),
)


def reference_hermite(n: int, u: np.ndarray) -> np.ndarray:
    """H_n(u) by the physicists' recurrence H_{m+1} = 2u H_m - 2m H_{m-1},
    run from H_0 = 1 and H_1 = 2u as hermite_eval ran it on its own, before
    it became the one-row case of numerics._hermite_rows: the bit-for-bit
    reference of that recurrence."""
    h_prev = np.ones_like(u)
    if n == 0:
        return h_prev
    h = 2.0 * u
    for m in range(1, n):
        h_prev, h = h, 2.0 * u * h - 2.0 * m * h_prev
    return h


# Hermite arguments for the bit-for-bit tests: a span wide enough that H_64
# is large but finite, then both zeros, +-1e-300 and the smallest subnormal
HERMITE_POINTS = np.concatenate(
    (np.linspace(-30.0, 30.0, 2801), [0.0, -0.0, 1e-300, -1e-300, 5e-324]))


@pytest.fixture(scope="session")
def states():
    """Solved closed-form states n = 0..7, shared across the suite."""
    return [solve_state(n) for n in range(8)]


# the published six-figure reference values the solver must reproduce
GOLDEN_TABLE = {
    0: (0.561903, 0.165957, -1.34046, 0.836186),
    1: (0.8846183, 0.182575, -1.18673, 2.69296),
    2: (1.483947, 0.265717, -0.675132, 3.01642),
    3: (2.374767, 0.271151, -0.650844, 4.71831),
    4: (3.3791495, 0.312319, -0.488143, 5.00752),
    5: (4.5328009, 0.309387, -0.498664, 6.76468),
    6: (5.7558755, 0.334322, -0.413460, 7.03368),
    7: (7.07846158, 0.330258, -0.426725, 8.81483),
}


@pytest.fixture(scope="session")
def leggauss_4000():
    """numpy's own 4000-node Gauss-Legendre rule on [-1, 1], an integration
    reference that shares no code with the package's quadrature."""
    return np.polynomial.legendre.leggauss(4000)


def leggauss_moment(multipliers, side, order, rule):
    """<x^order> of exp(-sum a_i x^i), a_0 included, on [-side, side] by
    numpy's Gauss-Legendre rule (nodes, weights) on [-1, 1]."""
    xs, w = rule
    x = side * xs
    return side * float(w @ (np.exp(-sum(v * x**o for o, v in multipliers)) * x**order))
