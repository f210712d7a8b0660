"""A fixed kernel, timed beside each operation, that measures the host's speed at that moment.

The benchmark runs on a few cores of a shared host, whose speed drifts by
10-30% over minutes. Two sets of runs of the same code then disagree on wall
times by more than any useful bound. The kernel here slows with the host, so
an operation's seconds divided by the kernel's seconds, measured right after
it, stays nearly the same while the host drifts. The kernel does not use
specscan, so no change to the program can change it.

It mixes the kinds of work the pipeline does: a BLAS product (the detectors'
covariance), a partition (band quantiles), elementwise arithmetic and a count
of a comparison (stretch and thresholds), and an interpreted loop (the
Python-level code). It runs in the measuring process, on as many threads as
the operation runs scenes in parallel, and on the main thread when that is
one: host slowdowns differ between CPUs, and the kernel has to meet the ones
the operation met. Its arrays take about 8 MB per thread, below what an
operation leaves allocated, so they do not raise the process's peak RSS. They
are allocated and written before the timer starts, so no page fault is timed,
and one measurement is the median of a few passes, so one interrupted pass
does not decide it.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_SPECTRA_SHAPE = (48, 16384)
_VALUES = 1 << 19
_KTH = (_VALUES // 50, _VALUES * 49 // 50)
_LOOP = 30000
_PRODUCTS = 3
_STRETCHES = 4
PASSES = 5


class _Arrays:
    """One thread's inputs and output buffers, all written once so their pages exist."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.spectra = rng.random(_SPECTRA_SHAPE, dtype=np.float32)
        self.values = rng.random(_VALUES, dtype=np.float32)
        self.work = self.values.copy()
        self.flags = np.ones(_VALUES, dtype=bool)
        self.gram = np.ones((_SPECTRA_SHAPE[0], _SPECTRA_SHAPE[0]), dtype=np.float32)

    def kernel(self) -> int:
        for _ in range(_PRODUCTS):
            np.matmul(self.spectra, self.spectra.T, out=self.gram)
        np.copyto(self.work, self.values)
        self.work.partition(_KTH)
        low = self.work[_KTH[0]]
        total = 0
        for _ in range(_STRETCHES):
            np.subtract(self.values, low, out=self.work)
            np.multiply(self.work, np.float32(1.5), out=self.work)
            np.clip(self.work, 0.0, 1.0, out=self.work)
            np.greater(self.work, 0.5, out=self.flags)
            total += int(np.count_nonzero(self.flags))
        for i in range(_LOOP):
            total += i & 7
        return total


def kernel_seconds(threads: int = 1) -> float:
    """Median over PASSES of the wall seconds for `threads` copies of the kernel run at once."""
    arrays = [_Arrays() for _ in range(threads)]
    passes = []
    if threads == 1:
        for _ in range(PASSES):
            start = time.perf_counter()
            arrays[0].kernel()
            passes.append(time.perf_counter() - start)
        return statistics.median(passes)
    with ThreadPoolExecutor(threads) as pool:
        for _ in range(PASSES):
            start = time.perf_counter()
            for future in [pool.submit(a.kernel) for a in arrays]:
                future.result()
            passes.append(time.perf_counter() - start)
    return statistics.median(passes)
