import ctypes
import time

import numpy as np
import pytest

from openloop import (
    _PR_GET_TIMERSLACK,
    burst_phase,
    burst_sizes,
    open_loop,
    poisson_schedule,
    punctual_sleeps,
)


class Reply:
    def __init__(self, duration, value=None):
        self.duration = duration
        self.value = value

    def result(self):
        return self


def test_a_stall_is_charged_to_every_request_due_during_it():
    due = [index * 0.005 for index in range(40)]
    stalled = 4

    def submit(request):
        # The server blocks the generator for 50 ms on one request.
        if request == stalled:
            time.sleep(0.050)
        return Reply(0.001)

    sent, replies = open_loop(submit, list(range(len(due))), due)
    latency = [s - d + reply.duration for s, d, reply in zip(sent, due, replies)]
    stall_end = sent[stalled] + 0.050
    during = [i for i, d in enumerate(due) if sent[stalled] < d < stall_end]
    assert len(during) >= 8
    for index in during:
        assert latency[index] >= stall_end - due[index]
    # Nothing is ever sent early.
    assert all(s >= d for s, d in zip(sent, due))


def test_punctual_sleeps_restore_the_thread_timer_slack():
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        pytest.skip("no prctl on this platform")
    before = prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)
    if before < 0:
        pytest.skip("timer slack is not readable here")
    with punctual_sleeps():
        assert prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0) == 1
    assert prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0) == before


def test_schedules_are_seeded():
    first = poisson_schedule(300.0, 2.0, np.random.default_rng(1))
    again = poisson_schedule(300.0, 2.0, np.random.default_rng(1))
    assert np.array_equal(first, again)
    assert 450 < len(first) < 750 and np.all(np.diff(first) > 0)
    assert first[-1] < 2.0


def test_burst_sizes_keep_their_multiset_across_seeds():
    sizes = burst_sizes(3000, 256, np.random.default_rng(2))
    assert sum(sizes) == 3000 and min(sizes) >= 1
    assert sizes == burst_sizes(3000, 256, np.random.default_rng(2))
    other = burst_sizes(3000, 256, np.random.default_rng(3))
    assert sorted(other) == sorted(sizes) and other != sizes
    # Geometric: many small bursts, a few large ones.
    assert len(sizes) == 12 and max(sizes) > 3 * np.median(sizes)
    assert burst_sizes(5, 256, np.random.default_rng(0)) == [5]


class BurstServer:
    """Answers each request with a fixed duration; refuses overlap."""

    def __init__(self):
        self.outstanding = 0
        self.bursts = []

    def submit_many(self, requests):
        assert self.outstanding == 0, "a burst arrived before the last drained"
        self.outstanding = len(requests)
        self.bursts.append(list(requests))
        return [Reply(0.001 * (1 + request % 3), value=request)
                for request in requests]

    def drain(self):
        self.outstanding = 0


def test_burst_phase_drains_each_burst_and_sums_busy_time():
    server = BurstServer()
    seen = []
    busy = burst_phase(server, list(range(10)), [4, 1, 5],
                       lambda results: seen.append([r.value for r in results]))
    assert server.bursts == [[0, 1, 2, 3], [4], [5, 6, 7, 8, 9]]
    assert seen == server.bursts
    # Each burst is busy until its slowest reply.
    assert abs(busy - (0.003 + 0.002 + 0.003)) < 1e-12
