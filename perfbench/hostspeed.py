"""Host speed, sampled by timing a fixed reference kernel between steps.

The host this benchmark was tuned on alternates between fast phases and
phases 1.5-2.5x slower.  Each phase lasts from seconds to minutes, and a
loop of plain numpy code outside densedml slows by the same factor, so the
phases come from the host, not from the code under test.  Every timing the
benchmark reports is therefore scaled to a reference host speed:

    t_reported = t_measured * REF_KERNEL_MS / kernel_ms(t)

where kernel_ms(t) interpolates, at the middle of the timed interval, the
median time of KERNEL_REPS runs of the kernel sampled at most PERIOD_NS
apart.  REF_KERNEL_MS is the kernel's time in a fast phase of the reference
sandbox (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6), so reported times
read as milliseconds on that sandbox when it is uncontended.  The kernel
mixes a Python loop of small numpy calls with one 64x64x16 broadcast, like a
training step.  The time spent sampling is kept out of every timed interval.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_KERNEL_MS = 0.37
KERNEL_REPS = 10
PERIOD_NS = 50_000_000


class HostSpeed:
    def __init__(self):
        self._x = np.random.default_rng(0).random((64, 16))
        self._times = []  # ns at the middle of each sample
        self._kernel_ms = []

    def _kernel(self):
        x = self._x
        total = 0.0
        for row in x:
            total += float(np.cumsum(row)[-1])
        diff = x[:, None, :] - x[None, :, :]
        return total + float(np.sqrt((diff * diff).sum(-1)).sum())

    def sample(self):
        runs = []
        start = time.perf_counter_ns()
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter_ns()
            self._kernel()
            runs.append(time.perf_counter_ns() - t0)
        self._times.append((start + time.perf_counter_ns()) // 2)
        self._kernel_ms.append(statistics.median(runs) / 1e6)

    def due(self, now_ns):
        return not self._times or now_ns - self._times[-1] >= PERIOD_NS

    def kernel_ms_median(self):
        return statistics.median(self._kernel_ms)

    def factor(self, start_ns, end_ns):
        """REF_KERNEL_MS / kernel_ms at the middle of each interval; arrays or scalars."""
        mid = (np.asarray(start_ns, dtype=np.float64) + np.asarray(end_ns, dtype=np.float64)) / 2
        return REF_KERNEL_MS / np.interp(mid, self._times, self._kernel_ms)
