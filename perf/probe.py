"""A fixed reference computation that measures how fast the host runs now.

The benchmark shares its machine with other tenants, and their load
changes how fast this process runs from one second to the next, by up
to 2.5x (measured on a 2-vCPU VM: a pure-Python loop, NumPy kernels and
whole FACT audits all slowed together, by different amounts).  CPU time
slows with wall time, so neither can tell a slower program from a busier
host.

``probe()`` times a mix of the kinds of work the workloads do:
interpreter arithmetic, object and dict churn, many small NumPy calls,
a bootstrap-style gather/argsort/cumsum over 10k values, and one larger
sort.  The harness runs it right before and right after every op and
divides the op's time by the op's *host speed*, the mean of the two
probe times over ``NOMINAL_S``: the metrics are in seconds of a host on
which the probe takes ``NOMINAL_S``.

The probe never runs inside an op.  Ticks sampled during an op ran 15
to 50% slower than between ops, because the op had evicted their data
from the caches, so their speed would depend on the op's memory
footprint: a change that shrank it would look like a faster host and
hide its own gain.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The probe's duration on an unloaded host of the reference machine
#: (Xeon at 2.1 GHz, Python 3.11, NumPy 2.4).
NOMINAL_S = 0.017


class _Point:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_SMALL = np.random.default_rng(1).random(64)
_MID = np.random.default_rng(2).random(10_000)
_BIG = np.random.default_rng(3).random(200_000)


def _interpreter() -> int:
    total = 0
    for i in range(50_000):
        total += i * i
    return total


def _objects() -> int:
    table = {}
    for i in range(10_000):
        table[i % 97] = (_Point(i).value, str(i))
    return len(table)


def _small_arrays() -> float:
    values = _SMALL
    for _ in range(1_000):
        values = np.add(values, 1.0) * 0.5
    return float(values[0])


def _resample() -> float:
    rng = np.random.default_rng(4)
    total = 0.0
    for _ in range(10):
        sample = _MID[rng.integers(0, _MID.size, _MID.size)]
        order = np.argsort(sample, kind="stable")
        total += float(np.cumsum(sample[order])[-1])
    return total


def _sort() -> float:
    return float(np.sort(_BIG)[-1])


def probe() -> float:
    """Seconds the reference mix takes now (collector paused meanwhile)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter()
        _objects()
        _small_arrays()
        _resample()
        _sort()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
