"""The serving lifecycle: one owner per request, submission to resolution.

This module is the serving front end's engine room.  A
:class:`Dispatcher` takes each request from :meth:`Dispatcher.submit` to
its resolved future.  A single asyncio event loop (on its own daemon
thread) owns admission, planning, cache lookup, and **coalescing**:
requests that miss the answer cache are grouped by
:attr:`~repro.serve.planner.QueryPlan.group_key` — same table version,
same mechanism, same clipping bounds — and wait up to
``batch_window_ms`` for company.  A flushed group executes on the
worker pool as *one* vectorized noisy release: the data-plane work
(scan, clip, bin counts, candidate utilities) happens once per group in
:func:`~repro.confidentiality.queries.group_stats`, then each member
draws its own noise through
:func:`~repro.confidentiality.queries.member_release` — the same two
kernels every ``dp_*`` function runs — from its own deterministic
stream, and is charged its own two-phase budget reservation.

Determinism contract: a released answer is a pure function of the
server seed, the plan fingerprint, and the per-fingerprint release
ordinal — *never* of batching, worker count, or arrival interleaving.
That is what makes batched and unbatched serving byte-identical under a
fixed seed (pinned by ``tests/test_serve_async.py``).

Exit-path invariant: every member leaves through exactly one
:meth:`Dispatcher._resolve` call, on every path — queue shed, cache
replay, follower replay, deadline shed, budget rejection, execution
error, or success — which runs, in order: admission → record → future
→ slot → flight.  It gives back the admission slot, so the admission
controller's in-flight count always returns to zero; records the
result before the future resolves, so a caller holding its answer
finds it in ``stats()`` and the telemetry; releases the queue slot; and
settles the flight the member leads.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.queries import group_stats, member_release
from repro.exceptions import DataError, PrivacyBudgetError, ReproError
from repro.obs.metrics import Histogram
from repro.serve.admission import REASON_OVERLOAD
from repro.serve.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED_BUDGET,
    STATUS_REJECTED_INVALID,
    STATUS_REJECTED_OVERLOAD,
    STATUS_REJECTED_RATE,
    STATUS_REJECTED_VERSION,
    SUPPORTED_VERSIONS,
    QueryRequest,
    QueryResult,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.admission import AdmissionController
    from repro.serve.budget import BudgetManager
    from repro.serve.cache import AnswerCache
    from repro.serve.config import ServeConfig
    from repro.serve.planner import QueryPlan, QueryPlanner


@dataclass
class _Member:
    """One submitted request's journey through the dispatch loop."""

    request: QueryRequest | dict
    future: Future
    start: float                      # time.perf_counter() at submission
    started: object = None            # obs clock tick (or None)
    telemetry: object = None          # obs handle captured at submission
    tenant: str = ""
    plan: "QueryPlan | None" = None
    admitted: bool = False
    leads: bool = False               # opened its fingerprint's flight
    deadline_s: float | None = None   # absolute perf_counter() deadline


class Dispatcher:
    """The one owner of a request, from :meth:`submit` to its resolution.

    All batching state (``_groups``, ``_flights``, the flush timer) is
    touched only from the loop thread, so it needs no locks; the
    outstanding-request counter is the one cross-thread structure,
    guarded by a condition variable that also backs :meth:`drain` and
    the bounded-queue backpressure check.
    """

    def __init__(self, config: "ServeConfig", planner: "QueryPlanner",
                 budget: "BudgetManager", cache: "AnswerCache | None",
                 admission: "AdmissionController | None"):
        self._config = config
        self._planner = planner
        self._budget = budget
        self._cache = cache
        self._admission = admission
        self._window_s = config.batch_window_ms / 1000.0
        self._pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_lock = threading.Lock()
        self._cond = threading.Condition()
        self._outstanding = 0
        # Loop-thread-only state:
        self._groups: dict[tuple, list[_Member]] = {}
        self._flights: dict[object, list[_Member]] = {}
        self._timer: asyncio.TimerHandle | None = None
        # Deterministic releases: each execution's generator is keyed by
        # (server seed, per-fingerprint release ordinal, fingerprint
        # words), never by arrival order — see _release_rng.
        self._seed_entropy = int(config.seed)
        self._rng_lock = threading.Lock()
        self._release_ordinals: dict[str, int] = {}
        self._stats_lock = threading.Lock()
        self._status_counts: dict[str, int] = {}
        self._batch_stats = {
            "batches": 0, "batched_queries": 0, "largest_batch": 0,
            "coalesced": 0, "shed_deadline": 0, "shed_queue": 0,
        }
        # Always-on latency distribution (independent of repro.obs):
        # stats()["latency"] exports p50/p90/p95/p99 in the same
        # profile shape the bench harness and profiler report.
        self._latency = Histogram("serve.query.duration",
                                  quantiles=(0.50, 0.90, 0.95, 0.99))

    # -- lifecycle ----------------------------------------------------------

    def ensure_started(self) -> None:
        if self._started.is_set():
            return
        with self._start_lock:
            if self._started.is_set():
                return
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-loop", daemon=True
            )
            self._thread.start()
            self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def stop(self) -> None:
        """Stop the loop, then wait for the worker pool to finish."""
        with self._start_lock:
            if self._started.is_set() and self._loop is not None:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=10.0)
        self._pool.shutdown(wait=True)

    @property
    def outstanding(self) -> int:
        """Requests submitted and not yet resolved."""
        with self._cond:
            return self._outstanding

    def drain(self, timeout: float | None = None) -> None:
        """Flush pending batch windows and wait until nothing is in flight."""
        if self._started.is_set() and self._loop is not None:
            self._loop.call_soon_threadsafe(self._force_flush)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DataError(
                            f"drain timed out with {self._outstanding} "
                            "request(s) outstanding"
                        )
                # Re-flush periodically: a failed leader's followers are
                # redispatched into fresh batch windows mid-drain.
                self._cond.wait(timeout=min(
                    0.05 if remaining is None else remaining,
                    max(self._window_s, 0.005),
                ))
                if self._outstanding > 0 and self._loop is not None:
                    self._loop.call_soon_threadsafe(self._force_flush)

    # -- submission (any thread → loop thread) ------------------------------

    def submit(self, requests: Iterable) -> list[Future]:
        """Take a queue slot per request and hand the chunk to the loop.

        A request that finds the bounded queue (``max_queue_depth``
        submitted and unresolved requests) full is shed here with
        ``STATUS_REJECTED_OVERLOAD``; the rest cross to the loop thread
        in one wakeup.
        """
        telemetry = obs.get()
        depth = self._config.max_queue_depth
        futures: list[Future] = []
        slotted: list[_Member] = []
        for request in requests:
            member = _Member(request=request, future=Future(),
                             start=time.perf_counter(),
                             started=(None if telemetry is None
                                      else telemetry.clock.now()),
                             telemetry=telemetry)
            futures.append(member.future)
            with self._cond:
                has_slot = self._outstanding < depth
                if has_slot:
                    self._outstanding += 1
            if has_slot:
                slotted.append(member)
                continue
            self._note(shed_queue=1)
            self._resolve(member, self._reject(
                member, STATUS_REJECTED_OVERLOAD,
                f"queue depth {depth} exceeded",
            ), slot=False)
        if slotted:
            self.ensure_started()
            self._loop.call_soon_threadsafe(self._admit_many, slotted)
        return futures

    # -- loop-thread admission and routing ----------------------------------

    def _admit_many(self, members: list[_Member]) -> None:
        for member in members:
            self._guard(member, self._admit)

    def _guard(self, member: _Member, step) -> None:
        """Run one loop step for ``member``; a failure resolves it instead."""
        try:
            step(member)
        except ReproError as error:
            self._resolve(member, self._reject(
                member, STATUS_REJECTED_INVALID, str(error)
            ))
        except Exception as error:  # the loop must never leak an exception
            self._resolve(member, self._reject(
                member, STATUS_ERROR, f"{type(error).__name__}: {error}"
            ))

    def _admit(self, member: _Member) -> None:
        request = member.request
        if isinstance(request, dict):
            request = member.request = QueryRequest.from_dict(request)
        if request.version not in SUPPORTED_VERSIONS:
            self._resolve(member, self._reject(
                member, STATUS_REJECTED_VERSION,
                f"unsupported protocol version {request.version!r}; "
                f"supported: {list(SUPPORTED_VERSIONS)}",
            ))
            return
        member.tenant = str(request.tenant)
        if self._admission is not None:
            reason = self._admission.try_admit(member.tenant)
            if reason is not None:
                status = (STATUS_REJECTED_OVERLOAD
                          if reason == REASON_OVERLOAD
                          else STATUS_REJECTED_RATE)
                self._resolve(member, self._reject(
                    member, status, f"admission refused: {reason}"
                ))
                return
            member.admitted = True
        member.plan = self._planner.plan(request)
        self._ensure_tenant(member.tenant)
        deadline_ms = (request.deadline_ms
                       if request.deadline_ms is not None
                       else self._config.default_deadline_ms)
        if deadline_ms is not None:
            member.deadline_s = member.start + deadline_ms / 1000.0
        self._route(member)

    def _ensure_tenant(self, tenant: str) -> None:
        if tenant in self._budget:
            return
        epsilon = self._config.default_epsilon_budget
        if epsilon is None:
            raise DataError(
                f"unknown tenant {tenant!r} (no default budget configured)"
            )
        try:
            self._budget.register(tenant, PrivacyAccountant(
                epsilon, self._config.default_delta_budget
            ))
        except DataError:
            # Two submissions raced the auto-registration; either wins.
            if tenant not in self._budget:
                raise

    def _route(self, member: _Member) -> None:
        """Replay the cached answer, join an open flight, or lead a new one."""
        if self._cache is not None:
            answer = self._cache.get(member.plan.fingerprint,
                                     tenant=member.tenant)
            if answer is not None:
                # Free post-processing: a replay charges no ε.
                self._resolve(member, self._answer(
                    member, STATUS_OK, value=answer.replay(), cached=True
                ))
                return
            key = self._flight_key(member)
            followers = self._flights.get(key)
            if followers is not None:
                # A release with this exact fingerprint is already
                # pending or executing: coalesce and replay it.
                followers.append(member)
                self._note(coalesced=1)
                return
            self._flights[key] = []
            member.leads = True
        self._enqueue(member)

    def _flight_key(self, member: _Member) -> object:
        if self._cache.scope == "tenant":
            return (member.tenant, member.plan.fingerprint)
        return member.plan.fingerprint

    def _settle_flight(self, key: object, result: QueryResult) -> None:
        """Hand a leader's outcome to the followers of its flight."""
        for follower in self._flights.pop(key, ()):
            if result.ok:
                value = result.value
                self._resolve(follower, self._answer(
                    follower, STATUS_OK, cached=True,
                    value=dict(value) if isinstance(value, dict) else value,
                ))
            else:
                # The leader failed (shed, broke, or errored): the first
                # follower leads a fresh release, the rest join it.
                self._guard(follower, self._route)

    # -- batch windows ------------------------------------------------------

    def _enqueue(self, member: _Member) -> None:
        key = member.plan.group_key
        group = self._groups.setdefault(key, [])
        group.append(member)
        if self._window_s == 0.0 or len(group) >= self._config.max_batch:
            del self._groups[key]
            self._dispatch_group(group)
            return
        if self._timer is None:
            self._timer = self._loop.call_later(
                self._window_s, self._flush_timer
            )

    def _flush_timer(self) -> None:
        self._timer = None
        self._flush_all()

    def _force_flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._flush_all()

    def _flush_all(self) -> None:
        groups = list(self._groups.values())
        self._groups.clear()
        for group in groups:
            self._dispatch_group(group)

    def _dispatch_group(self, group: list[_Member]) -> None:
        self._note(batches=1, batched_queries=len(group),
                   largest_batch=len(group))
        try:
            self._pool.submit(self._execute_group, group)
        except RuntimeError as error:  # pool shut down mid-flight
            for member in group:
                self._resolve(member, self._reject(
                    member, STATUS_ERROR, f"RuntimeError: {error}"
                ))

    # -- worker-thread execution --------------------------------------------

    def _execute_group(self, group: list[_Member]) -> None:
        payers: list[tuple[_Member, object]] = []
        for member in group:
            plan = member.plan
            try:
                now = time.perf_counter()
                if member.deadline_s is not None and now > member.deadline_s:
                    self._note(shed_deadline=1)
                    self._resolve(member, self._reject(
                        member, STATUS_REJECTED_OVERLOAD,
                        "deadline exceeded after "
                        f"{(now - member.start) * 1000.0:.1f} ms",
                    ))
                    continue
                try:
                    reservation = self._budget.reserve(
                        member.tenant, plan.epsilon, plan.delta
                    )
                except PrivacyBudgetError as error:
                    self._resolve(member, self._answer(
                        member, STATUS_REJECTED_BUDGET, detail=str(error)
                    ))
                    continue
                payers.append((member, reservation))
            except Exception as error:
                self._resolve(member, self._reject(
                    member, STATUS_ERROR, f"{type(error).__name__}: {error}"
                ))
        if not payers:
            return

        try:
            values = self._execute_batch([m.plan for m, _ in payers])
        except Exception as error:
            status, detail = (
                (STATUS_REJECTED_INVALID, str(error))
                if isinstance(error, ReproError)
                else (STATUS_ERROR, f"{type(error).__name__}: {error}")
            )
            for member, reservation in payers:
                self._budget.rollback(reservation)
                self._resolve(member, self._reject(member, status, detail))
            return

        for (member, reservation), value in zip(payers, values):
            plan = member.plan
            try:
                self._budget.commit(reservation, label=f"serve.{plan.kind}")
            except PrivacyBudgetError as error:
                # Out-of-band spending beat us to the ledger between
                # reserve and commit; the answer is discarded unreleased.
                self._budget.rollback(reservation)
                self._resolve(member, self._answer(
                    member, STATUS_REJECTED_BUDGET, detail=str(error)
                ))
                continue
            if self._cache is not None:
                self._cache.put(plan.fingerprint, value, plan.epsilon,
                                tenant=member.tenant)
            self._resolve(member, self._answer(
                member, STATUS_OK, value=value, epsilon_charged=plan.epsilon
            ))

    def _execute_batch(self, plans: list["QueryPlan"]) -> list:
        """One coalesced group's answers: shared statistics, own noise.

        The plans share a group key, so the statistics are computed once;
        each member draws from its own deterministic stream.  Nothing is
        memoised here — *answer* replay is the answer cache's job.
        """
        rngs = [self._release_rng(plan.fingerprint) for plan in plans]
        if self._config.backend_latency_s:
            time.sleep(self._config.backend_latency_s)
        template = plans[0]
        table = self._planner.table(template.table)
        stats = group_stats(template, table.n_rows if template.kind == "count"
                            else table.column(template.column))
        return [member_release(stats, plan, rng)
                for plan, rng in zip(plans, rngs)]

    def _release_rng(self, fingerprint: str) -> np.random.Generator:
        """The deterministic noise stream for one release execution.

        Keyed by (server seed, per-fingerprint release ordinal, the
        fingerprint itself) — a pure function of *what* is being
        released and *how many times* it has been released, never of
        batching, worker count, or arrival interleaving.  With the
        answer cache on, a fingerprint executes once (ordinal 0), which
        is what makes batched and serial serving byte-identical.
        """
        with self._rng_lock:
            ordinal = self._release_ordinals.get(fingerprint, 0)
            self._release_ordinals[fingerprint] = ordinal + 1
        words = [int(fingerprint[i:i + 8], 16)
                 for i in range(0, len(fingerprint), 8)]
        return np.random.default_rng(
            np.random.SeedSequence([self._seed_entropy, ordinal, *words])
        )

    # -- results and resolution (the one exit point) -------------------------

    @staticmethod
    def _answer(member: _Member, status: str, **fields) -> QueryResult:
        """A planned member's result, with its tenant, fingerprint and id."""
        return QueryResult(
            tenant=member.tenant, status=status,
            fingerprint=member.plan.fingerprint,
            request_id=member.request.request_id, **fields,
        )

    @staticmethod
    def _reject(member: _Member, status: str, detail: str) -> QueryResult:
        """A rejection naming whatever tenant and request id it can find.

        A dict request that failed to parse has no ``QueryRequest``, so
        both fall back to the dict's keys.
        """
        request = member.request
        tenant = getattr(request, "tenant", None)
        if tenant is None and isinstance(request, dict):
            tenant = request.get("tenant")
        request_id = getattr(request, "request_id", None)
        if request_id is None and isinstance(request, dict):
            request_id = request.get("request_id")
        return QueryResult(
            tenant=str(tenant or "<unknown>"), status=status, detail=detail,
            request_id=request_id,
        )

    def _resolve(self, member: _Member, result: QueryResult, *,
                 slot: bool = True) -> None:
        """Admission → record → future → slot → flight, once per member.

        ``slot=False`` is the shed at submission, which never took one.
        """
        if member.admitted:
            member.admitted = False
            self._admission.release(member.tenant)
        result.duration = time.perf_counter() - member.start
        self._record(member, result)
        member.future.set_result(result)
        if slot:
            with self._cond:
                self._outstanding -= 1
                if self._outstanding <= 0:
                    self._cond.notify_all()
        if member.leads:
            self._loop.call_soon_threadsafe(
                self._settle_flight, self._flight_key(member), result
            )

    # -- counters and telemetry ---------------------------------------------

    def _note(self, **counts) -> None:
        """Bump batching/backpressure counters (``largest_batch`` is a max)."""
        with self._stats_lock:
            for name, amount in counts.items():
                if name == "largest_batch":
                    if amount > self._batch_stats["largest_batch"]:
                        self._batch_stats["largest_batch"] = amount
                else:
                    self._batch_stats[name] += amount

    def _record(self, member: _Member, result: QueryResult) -> None:
        with self._stats_lock:
            self._status_counts[result.status] = (
                self._status_counts.get(result.status, 0) + 1
            )
            self._latency.observe(result.duration)
        telemetry = member.telemetry
        if telemetry is None:
            return
        kind = getattr(member.request, "kind", None)
        if kind is None and isinstance(member.request, dict):
            kind = member.request.get("kind")
        end = telemetry.clock.now()
        telemetry.tracer.record_span(
            "serve.query", member.started, end,
            tenant=result.tenant, kind=str(kind), status=result.status,
            cached=result.cached, epsilon_charged=result.epsilon_charged,
        )
        telemetry.metrics.counter("serve.requests",
                                  status=result.status).inc()
        if self._cache is not None and result.ok:
            name = "serve.cache.hits" if result.cached else "serve.cache.misses"
            telemetry.metrics.counter(name).inc()
        telemetry.metrics.histogram("serve.query.duration").observe(
            result.duration
        )
        if result.tenant in self._budget:
            telemetry.metrics.gauge(
                "serve.budget.epsilon_remaining", tenant=result.tenant
            ).set(self._budget.remaining(result.tenant))

    def stats(self) -> dict[str, object]:
        """Statuses, latency percentiles, batching counters, outstanding."""
        with self._stats_lock:
            statuses = dict(self._status_counts)
            batching = dict(self._batch_stats)
            latency = (self._latency.summary()
                       if self._latency.count else None)
        return {
            "statuses": statuses,
            "latency": latency,
            "batching": batching,
            "outstanding": self.outstanding,
        }
