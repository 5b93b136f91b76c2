"""Chunked, *ordered* fan-out: inline, or over a thread pool.

The design constraints, in priority order:

1. **Determinism** — results come back in task order regardless of
   completion order, and nothing about the output may depend on
   ``n_jobs``.  The executor therefore never touches randomness;
   callers pre-draw it (see :mod:`repro.parallel.rng`).
2. **Diagnosability** — a worker failure is captured *at the worker*
   with the failing task's index and repr, then re-raised on the
   coordinator as :class:`ParallelTaskError` chaining the original
   exception, so a crash deep inside resample 731 of 1000 names
   resample 731.  Chunk outcomes are collected in chunk order on every
   schedule, so when several tasks fail the lowest one is reported,
   whatever finished first.

``n_jobs`` alone picks the schedule: ``1`` (or a single chunk) runs
inline, more runs that many threads — zero pickling, and the hot work
(NumPy reductions, model ``predict`` calls) releases the GIL.  Inline
and pooled maps feed one collection loop and record the same counters,
so a worker's error arrives the same way at every ``n_jobs``, and a
thread chunk's spans are adopted in chunk order, so they do too.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.exceptions import DataError, ReproError

#: Environment variable consulted when ``n_jobs`` is ``None``; the CI
#: matrix sets it to 2 so every push exercises the parallel path.
N_JOBS_ENV = "REPRO_N_JOBS"


class ParallelTaskError(ReproError):
    """A worker task failed; carries the task's context to the caller."""

    def __init__(self, message: str, *, task_index: int, task_repr: str,
                 chunk_index: int, worker_traceback: str):
        super().__init__(message)
        self.task_index = task_index
        self.task_repr = task_repr
        self.chunk_index = chunk_index
        self.worker_traceback = worker_traceback


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Turn the user-facing ``n_jobs`` knob into a concrete worker count.

    ``None`` defers to ``$REPRO_N_JOBS`` and then to ``1`` (the serial
    default every API keeps); ``-1`` means "all cores".
    """
    if n_jobs is None:
        raw = os.environ.get(N_JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise DataError(
                f"${N_JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise DataError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


@dataclass
class _ChunkFailure:
    """Worker-side capture of one failed task."""

    task_offset: int
    task_repr: str
    error_type: str
    error_message: str
    worker_traceback: str
    exception: Exception


def _invoke(thunk: Callable):
    """Call one zero-argument task."""
    return thunk()


def _run_chunk(fn: Callable, tasks: Sequence) -> list | _ChunkFailure:
    """Run one chunk in the worker; capture the first failure with context.

    Returning (rather than raising) the failure lets the coordinator
    raise the lowest failing task's error in chunk order, whichever
    chunk failed first.
    """
    results = []
    for offset, task in enumerate(tasks):
        try:
            results.append(fn(task))
        except Exception as error:  # noqa: BLE001 — re-raised with context
            try:
                task_repr = repr(task)[:120]
            except Exception:  # pragma: no cover — hostile __repr__
                task_repr = f"<{type(task).__qualname__}>"
            return _ChunkFailure(
                task_offset=offset,
                task_repr=task_repr,
                error_type=type(error).__qualname__,
                error_message=str(error),
                worker_traceback=traceback.format_exc(),
                exception=error,
            )
    return results


def _scoped(pool: ThreadPoolExecutor, fn: Callable, chunks, tracer):
    """Pooled chunk outcomes, each chunk's span scope adopted in order.

    The trace is then what the same map records inline.
    """
    scopes = [tracer.scope() for _ in chunks]
    futures = [pool.submit(scope.run, _run_chunk, fn, chunk_tasks)
               for scope, (_, chunk_tasks) in zip(scopes, chunks)]
    for scope, future in zip(scopes, futures):
        outcome = future.result()
        tracer.adopt(scope)
        yield outcome


class ParallelExecutor:
    """Deterministic chunked map, inline or over a thread pool.

    Parameters
    ----------
    n_jobs:
        Worker threads; ``None`` consults ``$REPRO_N_JOBS`` then
        defaults to 1, ``-1`` uses every core.  ``1`` runs inline.
    chunk_size:
        Tasks per dispatch unit.  Default: enough chunks for ~4 waves
        per worker, so stragglers can rebalance.
    name:
        Prefix for telemetry metric names.
    """

    def __init__(self, n_jobs: int | None = None,
                 chunk_size: int | None = None, name: str = "parallel"):
        self.n_jobs = resolve_n_jobs(n_jobs)
        if chunk_size is not None and chunk_size < 1:
            raise DataError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.name = name

    # -- public API ---------------------------------------------------------

    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply ``fn`` to every task; results in task order, always.

        Tasks are grouped into chunks and chunk outcomes are collected
        in chunk order, inline or from the pool — completion order never
        leaks into the output, and when several tasks fail the lowest
        failing task's :class:`ParallelTaskError` is raised.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        chunks = self._chunk(tasks)
        telemetry = obs.get()
        if telemetry is not None:
            telemetry.metrics.counter(f"{self.name}.tasks").inc(len(tasks))
            telemetry.metrics.counter(f"{self.name}.chunks").inc(len(chunks))
        collector = telemetry.collector if telemetry is not None else None
        profiled_key = None
        if collector is not None:
            profiled_key = ("pool", self.name)
            fn = collector.wrap(profiled_key, fn)
        try:
            if self.n_jobs == 1 or len(chunks) == 1:
                return self._collect(
                    (_run_chunk(fn, chunk_tasks) for _, chunk_tasks in chunks),
                    chunks, telemetry,
                )
            return self._map_pool(fn, chunks, telemetry)
        finally:
            if profiled_key is not None:
                self._record_profile(telemetry, collector, profiled_key)

    def call(self, thunks: Iterable[Callable]) -> list:
        """Run zero-argument callables concurrently; results in order.

        The heterogeneous sibling of :meth:`map`: each task carries its
        own closure, which is how :class:`repro.engine.Executor`
        computes the cache misses of one plan level on its threads.
        """
        return self.map(_invoke, list(thunks))

    # -- internals ----------------------------------------------------------

    def _chunk(self, tasks: list) -> list[tuple[int, list]]:
        """(start_index, tasks) chunks of roughly ``chunk_size`` each."""
        size = self.chunk_size
        if size is None:
            size = max(1, len(tasks) // (self.n_jobs * 4) or 1)
        return [
            (start, tasks[start:start + size])
            for start in range(0, len(tasks), size)
        ]

    def _map_pool(self, fn, chunks, telemetry) -> list:
        with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
            if telemetry is not None:
                outcomes = _scoped(pool, fn, chunks, telemetry.tracer)
            else:
                futures = [pool.submit(_run_chunk, fn, chunk_tasks)
                           for _, chunk_tasks in chunks]
                outcomes = (future.result() for future in futures)
            try:
                return self._collect(outcomes, chunks, telemetry)
            finally:
                # After a failure, chunks that have not started never run.
                pool.shutdown(cancel_futures=True)

    def _collect(self, outcomes: Iterable, chunks, telemetry) -> list:
        """Concatenate chunk outcomes in chunk order; raise the first failure.

        Both schedules deliver outcomes in chunk order, so the failure
        raised is the lowest failing task's whatever finished first.
        """
        results: list = []
        for chunk_index, ((start, _), outcome) in enumerate(
            zip(chunks, outcomes)
        ):
            if isinstance(outcome, _ChunkFailure):
                self._raise(outcome, start, chunk_index, telemetry)
            results.extend(outcome)
        return results

    def _record_profile(self, telemetry, collector, key) -> None:
        """Fold the map's merged task samples into pool-level counters.

        Recorded on the coordinator after the map finishes, so worker
        threads never touch the metrics registry; the counters
        accumulate across maps, giving the profiler one wall/CPU total
        per pool name.
        """
        sample = collector.pop(key)
        if sample is None or sample.count == 0:
            return
        telemetry.metrics.counter(
            f"{self.name}.profile.wall_s"
        ).inc(sample.wall_s)
        telemetry.metrics.counter(
            f"{self.name}.profile.cpu_s"
        ).inc(sample.cpu_s)
        if sample.alloc_peak_kb is not None:
            telemetry.metrics.gauge(
                f"{self.name}.profile.alloc_peak_kb"
            ).set(sample.alloc_peak_kb)

    def _raise(self, failure: _ChunkFailure, chunk_start: int,
               chunk_index: int, telemetry) -> None:
        if telemetry is not None:
            telemetry.metrics.counter(f"{self.name}.errors").inc()
        task_index = chunk_start + failure.task_offset
        message = (
            f"task {task_index} ({failure.task_repr}) in chunk "
            f"{chunk_index} failed with {failure.error_type}: "
            f"{failure.error_message}"
        )
        raise ParallelTaskError(
            message,
            task_index=task_index,
            task_repr=failure.task_repr,
            chunk_index=chunk_index,
            worker_traceback=failure.worker_traceback,
        ) from failure.exception


def pmap(fn: Callable, tasks: Iterable, n_jobs: int | None = None,
         chunk_size: int | None = None, name: str = "parallel") -> list:
    """One-shot :meth:`ParallelExecutor.map` with the default knobs."""
    executor = ParallelExecutor(n_jobs=n_jobs, chunk_size=chunk_size,
                                name=name)
    return executor.map(fn, tasks)
