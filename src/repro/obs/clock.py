"""Clocks for the telemetry layer.

Telemetry wants timestamps; reproducibility wants determinism.  The
resolution is an injectable clock: the default :class:`TickClock` hands
out consecutive integer ticks, so a traced run produces byte-identical
telemetry every time, while deployments swap in :class:`WallClock` to
get real timestamps without touching any instrumentation.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now() -> float`` method."""

    def now(self) -> float:  # pragma: no cover - protocol stub
        ...


class TickClock:
    """Deterministic clock: every call to :meth:`now` is the next tick.

    Spans timed with a tick clock have *logical* durations (how many
    clock reads happened inside them), which is exactly what tests need
    to stay byte-reproducible.
    """

    def __init__(self, start: int = 0, step: int = 1):
        self._tick = int(start)
        self._step = int(step)
        self._lock = threading.Lock()

    def now(self) -> float:
        # Locked: concurrent readers (store counters, engine workers)
        # must never observe the same tick or skip one.
        with self._lock:
            tick = self._tick
            self._tick += self._step
        return float(tick)

    def advance(self, n: int) -> range:
        """Hand out the next ``n`` ticks at once.

        A pool task read its own tick clock from zero; on adoption its
        tick ``i`` becomes the returned range's ``i``-th.
        """
        with self._lock:
            first = self._tick
            self._tick += n * self._step
            return range(first, self._tick, self._step)


class WallClock:
    """Real wall-clock time (seconds since the Unix epoch)."""

    def now(self) -> float:
        return time.time()
