"""Load drivers for the serve workloads.

``open_loop`` sends each request when it falls due, whether or not
earlier ones have been answered (independent users, not waiting
clients).  A request's latency runs from its *due* time, so a stall in
the server, the interpreter lock or the generator itself is charged to
every request that fell due during it; the generator's own lateness is
reported separately so a late generator cannot hide.

``burst_phase`` measures capacity: each burst of requests arrives at
once, as a backlog, and the server clears it before the next arrives.
Sending the next burst only after the last has drained keeps the
batches the server forms a function of the requests alone; bursts sent
back to back merge at timing-dependent points and change how much work
the server does from run to run.
"""

from __future__ import annotations

import contextlib
import ctypes
import time
from typing import Callable, Sequence

import numpy as np


def poisson_schedule(rate: float, duration: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the phase start) of a Poisson process."""
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected + 6 * expected ** 0.5 + 16))
    due = np.cumsum(gaps)
    return due[due < duration]


def burst_sizes(n_requests: int, mean_burst: int,
                rng: np.random.Generator) -> list[int]:
    """Geometric burst sizes (mean ``mean_burst``) summing to ``n_requests``.

    The sizes are the geometric distribution's quantiles at evenly
    spaced levels, in a seed-shuffled order.  Every seed gets the same
    multiset of sizes, so the work of a burst phase (one coalesced
    release per group per burst) does not swing with the seed.
    """
    count = max(1, round(n_requests / mean_burst))
    levels = (np.arange(count) + 0.5) / count
    sizes = np.ceil(np.log1p(-levels) / np.log1p(-1.0 / mean_burst))
    sizes = np.maximum(1, np.floor(sizes * n_requests / sizes.sum())).astype(int)
    sizes[-1] += n_requests - sizes.sum()  # the largest burst takes the rest
    return [int(size) for size in rng.permutation(sizes)]


#: ``prctl`` options that read and set the calling thread's timer slack.
_PR_SET_TIMERSLACK, _PR_GET_TIMERSLACK = 29, 30


@contextlib.contextmanager
def punctual_sleeps():
    """Shrink this thread's timer slack to 1 ns while the block runs.

    Linux lets a sleep overrun by the thread's timer slack (50 µs by
    default) so it can batch wake-ups.  At 2,000 requests a second that
    overrun was half of a cache hit's measured latency, and it belongs
    to the generator, not to the server.  Only the calling thread
    changes: threads the server started earlier keep their own slack.
    Elsewhere than Linux this does nothing.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        previous = prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)
    except (OSError, AttributeError):
        previous = -1
    if previous < 0:
        yield
        return
    prctl(_PR_SET_TIMERSLACK, 1, 0, 0, 0)
    try:
        yield
    finally:
        prctl(_PR_SET_TIMERSLACK, previous, 0, 0, 0)


def open_loop(submit: Callable, requests: Sequence, due: Sequence[float], *,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep,
              tick: Callable[[], None] | None = None):
    """Submit ``requests[i]`` once ``due[i]`` seconds have passed.

    Returns ``(sent, pending)``: the offset from the phase start at
    which each ``submit`` call began, and what each call returned.  A
    request's latency is ``sent - due`` (the generator's lateness) plus
    the server-side duration of its reply.
    """
    n = len(requests)
    sent = [0.0] * n
    pending: list = [None] * n
    with punctual_sleeps():
        start = clock()
        index = 0
        while index < n:
            now = clock() - start
            wait = due[index] - now
            if wait > 0:
                sleep(wait)
                continue
            sent[index] = now
            pending[index] = submit(requests[index])
            index += 1
            if tick is not None:
                tick()
    return sent, pending


def burst_phase(server, requests: Sequence, sizes: Sequence[int],
                sink: Callable[[list], None]) -> float:
    """Send ``requests`` in bursts of ``sizes``, draining after each.

    Returns the seconds the server was busy: for each burst, from its
    first request's submission to its last completion (the longest
    server-side duration in the burst).  ``sink`` receives each burst's
    replies in request order, so no reply outlives its burst.
    """
    busy = 0.0
    offset = 0
    for size in sizes:
        pending = server.submit_many(requests[offset:offset + size])
        offset += size
        server.drain()
        results = [item.result() for item in pending]
        busy += max(result.duration or 0.0 for result in results)
        sink(results)
    return busy
