"""The machine's speed, read off a fixed reference kernel timed between ops.

The benchmark runs on shared machines whose cores slow down and speed up
by as much as half for seconds at a time, as other tenants come and go.
Every timing the benchmark reports is therefore scaled to one nominal
speed: a latency ``t`` measured while the kernel below took ``r`` seconds
is reported as ``t * NOMINAL_S / r``.  The kernel does interpreted Python
and small numpy calls, the mix rmflab's own code is made of, on data of
its own, so a change to rmflab cannot change the kernel's time.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# the kernel's time at the nominal speed: about its time on a 2.1 GHz Xeon
# vCPU of a shared two-vCPU virtual machine in its slower phases, so scaled
# times read close to the unscaled ones there
NOMINAL_S = 0.003

# least op time between two readings of the kernel
INTERVAL_S = 0.25

# readings on each side of an op whose median gives the speed it ran at:
# a phase of the machine lasts seconds, a single reading can be off
SPAN = 3

# runs of the kernel per reading; the fastest counts, because the first run
# after an op finds the caches filled with the op's data
RUNS = 3

_VEC = np.linspace(-1.0, 1.0, 64)
_LABELS = np.arange(512) % 37
_WEIGHTS = np.linspace(0.0, 1.0, 512)


def kernel() -> float:
    """A fixed amount of work that depends on nothing rmflab does."""
    counts: dict[int, int] = {}
    s = 0
    for i in range(5000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        s += (i * 7) % 13
    x = float(s)
    for i in range(200):
        x += float(np.dot(_VEC, _VEC[::-1]) + np.sum(np.abs(_VEC - i)))
        x += float(np.bincount(_LABELS, weights=_WEIGHTS)[i % 37])
    return x


def reading() -> float:
    """Seconds the kernel takes now, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(RUNS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Readings of the kernel taken between ops, and the ops' raw latencies.

    ``after_op`` is called after every timed op; it reads the kernel once
    at least ``INTERVAL_S`` of op time has passed since the last reading.
    An op is scaled by the median of the ``SPAN`` readings before it and
    the ``SPAN`` after it.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.readings: list[tuple[int, float]] = [(0, reading())]  # (ops before it, seconds)
        self._since = 0.0

    def after_op(self, latency: float) -> None:
        self.raw.append(latency)
        self._since += latency
        if self._since >= INTERVAL_S:
            self.close()

    def close(self) -> None:
        """Read the kernel now, unless it was read right after the last op."""
        if self.readings[-1][0] < len(self.raw):
            self.readings.append((len(self.raw), reading()))
        self._since = 0.0

    def scaled(self) -> list[float]:
        """The latencies so far, at the nominal speed."""
        self.close()
        seconds = [r for _, r in self.readings]
        out = []
        r = 0  # the last reading before op i
        for i, latency in enumerate(self.raw):
            while self.readings[r + 1][0] <= i:
                r += 1
            speed = statistics.median(seconds[max(0, r + 1 - SPAN):r + 1 + SPAN])
            out.append(latency * NOMINAL_S / speed)
        return out
