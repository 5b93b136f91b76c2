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

Architecture: the server builds the components (planner, budgets,
answer cache, admission) and owns table and tenant registration; one
:class:`~repro.serve.batching.Dispatcher` owns each request's lifecycle
from submission to its resolved future.  Submissions land on an asyncio
dispatch loop (one daemon thread) that admits, plans, answers cache
hits inline, and coalesces cache misses by
:attr:`~repro.serve.planner.QueryPlan.group_key`; flushed groups
execute on a bounded ``ThreadPoolExecutor``, which computes each
group's data-plane statistics once
(:func:`~repro.confidentiality.queries.group_stats`) while each member
draws its own noise (:func:`~repro.confidentiality.queries.member_release`)
— the two kernels every ``dp_*`` function runs.  Backpressure is
explicit: a bounded outstanding-request queue sheds at submission and
per-request deadlines shed at execution, both with
``STATUS_REJECTED_OVERLOAD`` and zero ε.  A request is recorded in
:meth:`QueryServer.stats` and the telemetry before its result resolves.

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
from concurrent.futures import Future

from repro.confidentiality.accountant import PrivacyAccountant
from repro.data.table import Table
from repro.exceptions import DataError
from repro.serve.admission import AdmissionController
from repro.serve.batching import Dispatcher
from repro.serve.budget import BudgetManager
from repro.serve.cache import AnswerCache
from repro.serve.config import ServeConfig
from repro.serve.planner import QueryPlanner
from repro.serve.protocol import QueryRequest, QueryResult


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

        self._closed = False
        self._dispatcher = Dispatcher(config, self.planner, self.budget,
                                      self.cache, self.admission)

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

        When the bounded queue (``config.max_queue_depth`` submitted and
        unresolved requests) is full, the request is shed *here* with
        ``STATUS_REJECTED_OVERLOAD`` — the pending result resolves
        instantly and no ε is spent.
        """
        return self.submit_many([request])[0]

    def submit_many(self, requests) -> list[PendingResult]:
        """Enqueue a batch in one dispatcher wakeup, preserving order.

        This is the throughput path: the whole chunk crosses the thread
        boundary once, and compatible queries coalesce into vectorized
        releases on the loop.
        """
        if self._closed:
            raise DataError("server is closed")
        return [PendingResult(future)
                for future in self._dispatcher.submit(requests)]

    def drain(self, timeout: float | None = None) -> None:
        """Flush open batch windows and block until nothing is in flight."""
        self._dispatcher.drain(timeout)

    # -- thin synchronous wrappers (the PR2-era surface) ---------------------

    def query(self, request: QueryRequest | dict) -> QueryResult:
        """Serve one request synchronously (never raises a serving error).

        Wrapper: ``submit(request).result()``.
        """
        return self.submit(request).result()

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

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Serving counters: statuses, latency, batching, cache, budgets."""
        tenants = {
            tenant: {
                "epsilon_spent": self.budget.accountant(tenant).epsilon_spent,
                "epsilon_remaining": self.budget.remaining(tenant),
                "ledger_entries": len(self.budget.accountant(tenant).ledger),
            }
            for tenant in self.budget.tenants
        }
        return {
            **self._dispatcher.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "tenants": tenants,
        }
