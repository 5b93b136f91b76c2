"""The multi-tenant DP query server.

``QueryServer`` turns the one-shot ``dp_*`` query library into an
operational surface: tables and tenants are registered once, then
requests flow through a fixed pipeline —

    admission → plan → cache lookup → **coalesce** → budget reserve
              → vectorized execute → budget commit → cache insert

with the invariants the tests pin down:

* **no exception escapes the serving loop** — every failure mode is a
  structured :class:`~repro.serve.protocol.QueryResult` status;
* **a rejected query never burns budget** — charges are speculative
  (:class:`~repro.serve.budget.BudgetManager`) until the answer exists;
* **a repeated query costs nothing** — cache replays are free
  post-processing and charge ε exactly zero;
* **batching is invisible in the answers** — a release is a pure
  function of (seed, plan fingerprint, release ordinal), so batched and
  unbatched serving are byte-identical under a fixed seed, and every
  coalesced member is charged individually through the same two-phase
  reserve/commit as a serial query.

Architecture: submissions land on an asyncio dispatch loop
(:class:`~repro.serve.batching.Dispatcher`, one daemon thread) that
admits, plans, answers cache hits inline, and coalesces cache misses by
:attr:`~repro.serve.planner.QueryPlan.group_key`; flushed groups
execute on a bounded ``ThreadPoolExecutor``, which computes each
group's data-plane statistics once
(:func:`~repro.confidentiality.queries.group_stats`) while each member
draws its own noise (:func:`~repro.confidentiality.queries.member_release`)
— the two kernels every ``dp_*`` function runs.  Backpressure is
explicit: a bounded outstanding-request queue sheds at submission and
per-request deadlines shed at execution, both with
``STATUS_REJECTED_OVERLOAD`` and zero ε.

The public surface is :meth:`submit` / :meth:`submit_many` /
:meth:`drain`; :meth:`query` and :meth:`submit_batch` are thin
synchronous wrappers kept for PR2-era callers, and a
:class:`PendingResult` serves sync (``.result()``) and async
(``await``) consumers alike.  Configuration lives in one validated
:class:`~repro.serve.config.ServeConfig`; the constructor takes no
per-setting kwargs.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro import obs
from repro.obs.metrics import Histogram
from repro.confidentiality.accountant import PrivacyAccountant
from repro.data.table import Table
from repro.exceptions import DataError
from repro.serve.admission import AdmissionController
from repro.serve.batching import Dispatcher, _Member
from repro.serve.budget import BudgetManager
from repro.serve.cache import AnswerCache
from repro.serve.config import ServeConfig
from repro.serve.planner import QueryPlanner
from repro.serve.protocol import (
    STATUS_REJECTED_OVERLOAD,
    QueryRequest,
    QueryResult,
)


class PendingResult:
    """One submitted query's eventual :class:`QueryResult`.

    Sync callers block on :meth:`result`; async callers ``await`` it
    directly (the future is bridged onto the running event loop).  The
    server resolves it on every path — success, rejection, shed — so it
    always completes and never raises a serving error.
    """

    __slots__ = ("_future",)

    def __init__(self, future: Future):
        self._future = future

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the answer is served (or ``timeout`` expires)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """Has the result been resolved yet?"""
        return self._future.done()

    def add_done_callback(self, fn) -> None:
        """Call ``fn(pending)`` once the result resolves."""
        self._future.add_done_callback(lambda _future: fn(self))

    def __await__(self):
        return asyncio.wrap_future(self._future).__await__()


class QueryServer:
    """Async-batched, budget-aware, cache-accelerated DP query serving."""

    def __init__(self, config: ServeConfig | None = None, *,
                 admission: AdmissionController | None = None,
                 store=None):
        """Build a server from one validated :class:`ServeConfig`.

        ``admission`` injects a pre-built controller (tests drive its
        clock); otherwise one is derived from the config's
        ``rate_limit`` / ``max_inflight`` when either is set.  ``store``
        (an :class:`~repro.store.ArtifactStore`) makes table
        re-registration invalidate the old rows' ``table:<fingerprint>``
        artifacts via the planner's schema registry.
        """
        if config is None:
            config = ServeConfig()
        self.config = config

        self.planner = QueryPlanner(store=store)
        self.budget = BudgetManager()
        if config.cache:
            self.cache: AnswerCache | None = AnswerCache(
                max_entries=config.cache_entries, scope=config.cache_scope
            )
        else:
            self.cache = None
        if admission is not None:
            self.admission: AdmissionController | None = admission
        elif config.rate_limit is not None or config.max_inflight is not None:
            self.admission = AdmissionController(
                rate_limit=config.rate_limit,
                window_s=config.rate_window_s,
                max_inflight=config.max_inflight,
            )
        else:
            self.admission = None

        self._pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._closed = False
        # Deterministic releases: each execution's generator is keyed by
        # (server seed, per-fingerprint release ordinal, fingerprint
        # words), never by arrival order — see _release_rng.
        self._seed_entropy = int(config.seed)
        self._rng_lock = threading.Lock()
        self._release_ordinals: dict[str, int] = {}
        self._obs_lock = threading.Lock()
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
        self._dispatcher = Dispatcher(self)

    # -- registration -------------------------------------------------------

    def register_table(self, name: str, table: Table) -> "QueryServer":
        """Make ``table`` servable as ``name`` (chainable)."""
        self.planner.register_table(name, table)
        return self

    def register_dataset(self, dataset) -> "QueryServer":
        """Make every member table of a relational dataset servable."""
        self.planner.register_dataset(dataset)
        return self

    def register_tenant(self, tenant: str,
                        epsilon_budget: float | None = None,
                        delta_budget: float = 0.0,
                        accountant: PrivacyAccountant | None = None,
                        ) -> PrivacyAccountant:
        """Give ``tenant`` a budget — an existing accountant or a fresh one."""
        if accountant is None:
            if epsilon_budget is None:
                raise DataError(
                    "register_tenant needs epsilon_budget or an accountant"
                )
            accountant = PrivacyAccountant(epsilon_budget, delta_budget)
        return self.budget.register(tenant, accountant)

    # -- submission: the public surface -------------------------------------

    def submit(self, request: QueryRequest | dict) -> PendingResult:
        """Enqueue one request; returns immediately with a :class:`PendingResult`.

        When the bounded queue (``config.max_queue_depth`` admitted and
        unresolved requests) is full, the request is shed *here* with
        ``STATUS_REJECTED_OVERLOAD`` — the pending result resolves
        instantly and no ε is spent.
        """
        return self._submit_chunk([request])[0]

    def submit_many(self, requests) -> list[PendingResult]:
        """Enqueue a batch in one dispatcher wakeup, preserving order.

        This is the throughput path: the whole chunk crosses the thread
        boundary once, and compatible queries coalesce into vectorized
        releases on the loop.
        """
        return self._submit_chunk(list(requests))

    def drain(self, timeout: float | None = None) -> None:
        """Flush open batch windows and block until nothing is in flight."""
        self._dispatcher.drain(timeout)

    # -- thin synchronous wrappers (the PR2-era surface) ---------------------

    def query(self, request: QueryRequest | dict) -> QueryResult:
        """Serve one request synchronously (never raises a serving error).

        Wrapper: ``submit(request).result()``.
        """
        return self._submit_chunk([request])[0].result()

    def submit_batch(self, requests) -> list[QueryResult]:
        """Serve a batch, preserving request order.

        Wrapper: ``[p.result() for p in submit_many(requests)]``.
        """
        return [pending.result() for pending in self.submit_many(requests)]

    def close(self) -> None:
        """Drain in-flight work, stop the loop, refuse further submissions."""
        if self._closed:
            return
        self._closed = True
        try:
            self._dispatcher.drain()
        finally:
            self._dispatcher.stop()
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _submit_chunk(self, requests: list) -> list[PendingResult]:
        if self._closed:
            raise DataError("server is closed")
        telemetry = obs.get()
        pending: list[PendingResult] = []
        members: list[_Member] = []
        for request in requests:
            future: Future = Future()
            member = _Member(
                request=request, future=future,
                arrival=time.monotonic(), wall_start=time.perf_counter(),
                started=self._tick(telemetry), telemetry=telemetry,
            )
            pending.append(PendingResult(future))
            if not self._dispatcher.try_reserve_slot():
                self._note(shed_queue=1)
                result = self._rejection(
                    request, STATUS_REJECTED_OVERLOAD,
                    f"queue depth {self.config.max_queue_depth} exceeded",
                )
                result.duration = time.perf_counter() - member.wall_start
                future.set_result(result)
                self._record_member(member, result)
                continue
            members.append(member)
        if members:
            self._dispatcher.enqueue(members)
        return pending

    # -- tenancy -------------------------------------------------------------

    def _ensure_tenant(self, tenant: str) -> None:
        if tenant in self.budget:
            return
        if self.config.default_epsilon_budget is None:
            raise DataError(
                f"unknown tenant {tenant!r} (no default budget configured)"
            )
        try:
            self.register_tenant(
                tenant,
                self.config.default_epsilon_budget,
                self.config.default_delta_budget,
            )
        except DataError:
            # Two submissions raced the auto-registration; either wins.
            if tenant not in self.budget:
                raise

    # -- execution ----------------------------------------------------------

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

    # -- rejection / telemetry ----------------------------------------------

    def _rejection(self, request, status: str, detail: str) -> QueryResult:
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

    def _tick(self, telemetry) -> float | None:
        if telemetry is None:
            return None
        with self._obs_lock:
            return telemetry.clock.now()

    def _note(self, **counts) -> None:
        """Bump batching/backpressure counters (``largest_batch`` is a max)."""
        with self._stats_lock:
            for name, amount in counts.items():
                if name == "largest_batch":
                    if amount > self._batch_stats["largest_batch"]:
                        self._batch_stats["largest_batch"] = amount
                else:
                    self._batch_stats[name] += amount

    def _record_member(self, member: _Member, result: QueryResult) -> None:
        self._record(member.telemetry, member.request, result, member.started)

    def _record(self, telemetry, request, result: QueryResult,
                started: float | None) -> None:
        with self._stats_lock:
            self._status_counts[result.status] = (
                self._status_counts.get(result.status, 0) + 1
            )
            if result.duration is not None:
                self._latency.observe(result.duration)
        if telemetry is None:
            return
        kind = getattr(request, "kind", None)
        if kind is None and isinstance(request, dict):
            kind = request.get("kind")
        with self._obs_lock:
            end = telemetry.clock.now()
            telemetry.tracer.record_span(
                "serve.query", started, end,
                tenant=result.tenant, kind=str(kind), status=result.status,
                cached=result.cached, epsilon_charged=result.epsilon_charged,
            )
            telemetry.metrics.counter("serve.requests",
                                      status=result.status).inc()
            if self.cache is not None and result.ok:
                name = "serve.cache.hits" if result.cached else "serve.cache.misses"
                telemetry.metrics.counter(name).inc()
            if result.duration is not None:
                telemetry.metrics.histogram("serve.query.duration").observe(
                    result.duration
                )
            if result.tenant in self.budget:
                telemetry.metrics.gauge(
                    "serve.budget.epsilon_remaining", tenant=result.tenant
                ).set(self.budget.remaining(result.tenant))

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Serving counters: statuses, latency, batching, cache, budgets."""
        with self._stats_lock:
            statuses = dict(self._status_counts)
            batching = dict(self._batch_stats)
            latency = (self._latency.summary()
                       if self._latency.count else None)
        tenants = {
            tenant: {
                "epsilon_spent": self.budget.accountant(tenant).epsilon_spent,
                "epsilon_remaining": self.budget.remaining(tenant),
                "ledger_entries": len(self.budget.accountant(tenant).ledger),
            }
            for tenant in self.budget.tenants
        }
        return {
            "statuses": statuses,
            "latency": latency,
            "batching": batching,
            "outstanding": self._dispatcher.outstanding,
            "cache": self.cache.stats() if self.cache is not None else None,
            "tenants": tenants,
        }
