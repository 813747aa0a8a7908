"""Host-speed calibration for the end-to-end timings.

On a shared host the same op can take twice as long from one minute to the
next, because other tenants contend for the core, its caches and memory
bandwidth. A fixed calibration kernel runs just before and just after each
timed op. The op's seconds are scaled by REFERENCE_S over the kernel's mean
time, which turns them into seconds on a host running the kernel in
REFERENCE_S. The kernel mixes what the workloads spend their time on:
interpreter bytecode, small numpy dispatches, a float32 matmul, a
gather-scatter and a streaming copy.
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's time on an uncontended core of the machine the benchmark was
# written on, so normalized figures read close to that machine's quiet speed.
REFERENCE_S = 0.008


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256), dtype=np.float32)
        self._big = np.ones(2_000_000, dtype=np.float32)
        self._idx = rng.integers(0, self._big.size, 200_000)

    def seconds(self) -> float:
        """Run the kernel once and return its wall time."""
        t0 = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        x = np.ones(64)
        for _ in range(500):
            x = x * 1.0001
        for _ in range(3):
            self._a @ self._a
        np.add.at(self._big, self._idx[:20_000], 1.0)
        self._big[self._idx] += 1.0
        self._big.copy()
        return time.perf_counter() - t0
