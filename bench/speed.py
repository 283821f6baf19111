"""Machine-speed reference for scaling measured times.

Shared hosts run other work: on a shared 2-vCPU virtual machine the same
fixed computation took up to 25% longer from one ten-second stretch to the
next.  A run therefore times
a fixed reference kernel every ``EVERY_S`` seconds, between ops, and scales
each measured time by ``NOMINAL_S / reference time nearby``.  Scaled times
read as times on a machine where the kernel takes ``NOMINAL_S``.  The cli
workload uses a child interpreter importing numpy as its reference
(``PROCESS_NOMINAL_S``, sampled every ``PROCESS_EVERY_S``).  A change
to the package leaves the kernel alone, so it moves scaled times exactly as
it moves raw ones.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 1e-3  # the reference kernel's time on the nominal machine
EVERY_S = 0.05  # at most one reference sample per this much wall time
# Whole CLI processes track the start of a child interpreter better than
# the in-process kernel, so the cli workload samples that instead.
PROCESS_NOMINAL_S = 0.2
PROCESS_EVERY_S = 1.0
NEIGHBOURS = 5  # a time's reference is the median of this many nearest samples


def reference_kernel() -> int:
    """Fixed work in the package's mix: integer loops, Fraction arithmetic,
    a dict keyed by tuples and small dense solves.  Never change it: its time
    is the unit every scaled time is expressed in."""
    acc = 0
    for i in range(1200):
        acc += (i * i) % 7
    table = {}
    for i in range(120):
        table[(i, i + 1)] = Fraction(i + 1, i + 2) * Fraction(3, 7)
    a = np.linspace(0.1, 1.0, 16).reshape(4, 4)
    for _ in range(8):
        a = np.abs(np.linalg.solve(a + 4.0 * np.eye(4), a)) + 0.1
    return acc + len(table)


def start_python_with_numpy() -> None:
    """The reference for whole CLI processes: a child interpreter that
    imports numpy and exits."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)


class SpeedProbe:
    """Reference samples taken along a run, and the scale they imply."""

    def __init__(self, kernel=reference_kernel, nominal_s: float = NOMINAL_S, every_s: float = EVERY_S):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.every_s = every_s
        kernel()  # the first call pays for lazy set-up; not a sample
        self.times = []
        self.durations = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the reference kernel, unless one was timed within ``every_s``."""
        start = perf_counter()
        if force or start - self._last >= self.every_s:
            self.kernel()
            self.times.append(start)
            self.durations.append(perf_counter() - start)
            self._last = start

    def reference_s(self) -> float:
        return float(np.median(self.durations))

    def scale(self, at) -> np.ndarray:
        """``nominal_s`` over the median of the ``NEIGHBOURS`` samples
        nearest each time in ``at``."""
        durations = np.asarray(self.durations)
        count = len(durations)
        first = np.clip(np.arange(count) - NEIGHBOURS // 2, 0, max(count - NEIGHBOURS, 0))
        local = np.array([np.median(durations[i : i + NEIGHBOURS]) for i in first])
        nearest = np.clip(np.searchsorted(self.times, np.asarray(at, dtype=float)), 0, count - 1)
        return self.nominal_s / local[nearest]
