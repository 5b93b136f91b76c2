"""``repro.parallel`` — deterministic fan-out for the resampling hot paths.

The paper's Q2 and Q4 demand that every headline number travel with
bootstrap intervals, multiple-testing scans, and Shapley/permutation
explanations — embarrassingly parallel workloads that historically ran
as sequential Python loops.  This package gives the whole toolkit one
sanctioned way to go wide without surrendering reproducibility:

* :class:`ParallelExecutor` / :func:`pmap` — chunked fan-out, inline
  at ``n_jobs=1`` and over that many threads otherwise, with chunks
  collected in order on every schedule, worker-side error capture that
  re-raises the lowest failing task with its context, and
  :mod:`repro.obs` task/chunk/error counters.  Every resampling helper
  calls it whatever ``n_jobs`` is, so at every setting a worker's error
  arrives the same way and the map records its counters.
* :func:`spawn_seeds` / :func:`spawn_rngs` — per-task RNG streams via
  ``np.random.SeedSequence.spawn``, so randomness is attached to the
  *task*, never to the worker that happens to run it.

The determinism contract: every parallelised API in this toolkit draws
all of its randomness **up front** from the caller's generator (in the
same order the serial code always did) and assembles results **by task
index**, so outputs are bit-identical for any ``n_jobs`` —
``n_jobs=4`` is purely a wall-clock statement.

``n_jobs`` resolution: an explicit integer wins; ``None`` defers to the
``REPRO_N_JOBS`` environment variable (the CI matrix exercises the
parallel path this way) and finally defaults to ``1``; ``-1`` means
"all cores".
"""

from __future__ import annotations

from repro.parallel.executor import (
    ParallelExecutor,
    ParallelTaskError,
    pmap,
    resolve_n_jobs,
)
from repro.parallel.rng import spawn_rngs, spawn_seeds

__all__ = [
    "ParallelExecutor",
    "ParallelTaskError",
    "pmap",
    "resolve_n_jobs",
    "spawn_rngs",
    "spawn_seeds",
]
