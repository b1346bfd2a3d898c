"""Host speed probe: a fixed kernel timed between requests.

On a shared 2-core host (Xeon, 2026) the same request ran up to 1.5x
slower for seconds to minutes at a time, whatever the program did, and the
raw end-to-end times of ten runs spread by 10% to 44% of their median,
beyond the largest bound a metric may have.  A run therefore times a fixed
kernel that does not use canonform every SAMPLE_EVERY_S seconds between
requests, and scales each time it reports by KERNEL_REF_MS over the kernel
times just before and after it: times are reported at the speed at which
the kernel takes KERNEL_REF_MS.  The kernel runs in the benchmark's
process, on the core the requests use (a kernel timed in a helper process
tracked the drift worse), with the garbage collector off, so the size of
the program's heap does not change its time.  Its working set is a few
kilobytes, so a change that slows the program by polluting caches is
divided out only for the microseconds the kernel takes to refill them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

KERNEL_REF_MS = 6.0
SAMPLE_EVERY_S = 0.1


def kernel() -> float:
    """Seconds for fixed interpreter work like the program's: Fraction
    arithmetic, dict updates and small complex numpy solves."""
    import numpy as np
    from fractions import Fraction
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k, k * k + 1) * Fraction(3, 7)
    a = np.eye(5, dtype=complex) + 0.1
    b = np.ones(5, dtype=complex)
    for _ in range(150):
        np.linalg.solve(a, b)
    d: dict = {}
    for k in range(10000):
        d[k % 97] = d.get(k % 97, 0) + k
    return time.perf_counter() - t0


def timed_kernel() -> float:
    """kernel() with the garbage collector off."""
    gc.disable()
    try:
        return kernel()
    finally:
        gc.enable()


class Speed:
    """Kernel samples taken through a run, as (end time, seconds)."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        self.kernel_s.append(timed_kernel())
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor from raw seconds at time t to seconds at reference speed."""
        i = bisect.bisect(self.times, t)
        near = self.kernel_s[max(i - 1, 0):i + 1]
        return KERNEL_REF_MS / (1000 * statistics.fmean(near))
