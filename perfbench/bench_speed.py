"""The machine's speed while a job runs, sampled from inside the process.

The reference box is a 2-vCPU guest on a shared host.  Other tenants'
threads share the physical cores behind its vCPUs, so the speed of this
process's thread swings by up to 1.6x within tens of milliseconds, and
the share of slow stretches drifts over minutes.  A job of a few seconds
can therefore take 40% longer in one run than in the next, with nothing
changed in the program; CPU time shows the same swing as wall time.

``SpeedSampler`` runs a fixed reference kernel (scalar Python arithmetic,
function calls and dict lookups: the interpreter work that dominates most
of the program's jobs) from a timer signal every ``PERIOD_S`` while it is
active, and records how long the kernel took each time.  The
speed factor of a stretch of time is the mean kernel time of the samples
taken in it over ``KERNEL_REF_S``, the kernel's median time on the
reference box.  A job's normalized latency is its wall time, less the time
the sampler itself took inside the job, divided by the factor of the
stretch the job ran in: its latency at the reference box's usual speed.
The kernel is part of the benchmark, not of the program, so a change to
the program moves the job time and leaves the factor alone.  Jobs whose
time goes mostly into large-array numpy work (the quartic maxent fits)
slow down less than the kernel under contention, so for them the factor
over-corrects (see README.md).
"""

from __future__ import annotations

import math
import signal
import time
from array import array

PERIOD_S = 0.005
# fewest samples a factor is taken over; a short job borrows the nearest
# samples around it, which fall within the same slow or fast stretch
MIN_SAMPLES = 4
# median kernel time on the reference box (2 vCPUs, Python 3.11)
KERNEL_REF_S = 33e-6


def _step(x: float, table: dict) -> float:
    return x * table["r"] * (1.0 - x)


def kernel() -> float:
    """The reference work: about 33 us of interpreter-bound Python."""
    x, s, table = 0.37, 0.0, {"r": 3.9}
    for _ in range(120):
        x = _step(x, table)
        s += math.sqrt(x + 1.0)
    return s


class SpeedSampler:
    """Samples the kernel's time from SIGALRM while used as a context
    manager.  One per process; the main thread only."""

    def __init__(self) -> None:
        self.cost = array("d")  # kernel seconds of each sample
        self.spent = 0.0  # seconds spent in the handler, in total
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.cost.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """(samples so far, handler seconds so far), taken around a job."""
        return len(self.cost), self.spent

    def factor(self, first: int, last: int) -> float:
        """Speed factor over samples ``first`` to ``last`` (exclusive),
        widened to the ``MIN_SAMPLES`` nearest when there are fewer."""
        n = len(self.cost)
        if n == 0:
            raise RuntimeError("the speed sampler took no samples")
        while last - first < min(MIN_SAMPLES, n):
            first, last = max(0, first - 1), min(n, last + 1)
        return math.fsum(self.cost[first:last]) / (last - first) / KERNEL_REF_S
