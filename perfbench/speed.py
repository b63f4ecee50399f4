"""A reference kernel that measures how fast the host runs right now.

On a shared host the speed one process gets drifts by a third or more
for minutes at a time, as other tenants come and go.  Two runs of the
same code then differ by more than a change worth catching.  So a run
times a fixed reference kernel between requests, and scales each
timing by

    REF_S / median time of the kernel samples nearest to it,

taking the NEAREST samples around a request or a set-up (half before
it, half after), and every sample taken during the passes for a pass.

A scaled timing reads as seconds on a machine where the kernel takes
``REF_S``.  The kernel is written here and calls nothing in latdim, so a
change to latdim moves a scaled timing exactly as much as the raw one.
It multiplies stacks of small complex matrices, as latdim's regular
representations do, and solves small Hermitian eigenproblems.  Of the
kernels tried -- Python dictionary and set work, small and large
eigensolves, memory streaming, batched products -- this mix followed
the drift of latdim's requests most closely; the pure-Python kernels
drift about twice as much as latdim does.  Runs print the raw timings
and the scales on their information line.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS, one BLAS thread) at its usual speed.
REF_S = 0.025
# Least time between two samples taken between requests.
EVERY_S = 0.5
# Samples that scale one request: half before it, half after.
NEAREST = 16

_rng = np.random.default_rng(12345)
_STACK = _rng.normal(size=(64, 24, 24)) + 1j * _rng.normal(size=(64, 24, 24))
_HERM = _STACK[0] @ _STACK[0].conj().T
_SMALL = _STACK[1, :6, :6]


def kernel() -> float:
    """Fixed work; the return value keeps it from being skipped."""
    pairs = np.einsum("gij,gjk->gik", _STACK, _STACK)
    outer = np.einsum("gij,hjk->ghik", _STACK[:16], _STACK[:16])
    total = float(np.abs(pairs).sum() + np.abs(outer).sum())
    for _ in range(40):
        k = np.kron(_SMALL, _SMALL)
        total += float(np.linalg.eigvalsh(_HERM)[-1] + np.abs(k @ k.conj().T).sum())
    return total


class SpeedProbe:
    """Kernel samples taken over a run, and the scales they give."""

    def __init__(self) -> None:
        kernel()  # the first call loads LAPACK; not a sample
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._last = float("-inf")

    def sample(self) -> float:
        """Time the kernel once; returns the time spent."""
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)
        self._last = t1
        return t1 - t0

    def maybe_sample(self) -> float:
        """Sample if EVERY_S has passed since the last sample; returns the time spent."""
        if perf_counter() - self._last < EVERY_S:
            return 0.0
        return self.sample()

    def scale(self, since: int) -> float:
        """REF_S over the median of the samples from index ``since`` on."""
        return REF_S / statistics.median(self.samples[since:])

    def scale_at(self, t0: float, t1: float) -> float:
        """REF_S over the median of the samples nearest before t0 and after t1."""
        before = bisect.bisect_right(self.times, t0)
        after = bisect.bisect_left(self.times, t1, lo=before)
        half = NEAREST // 2
        near = self.samples[max(0, before - half):before] + self.samples[after:after + half]
        return REF_S / statistics.median(near)
