"""The async batched dispatch loop.

This module is the serving front end's engine room.  A single asyncio
event loop (on its own daemon thread) owns admission, planning, cache
lookup, and **coalescing**: requests that miss the answer cache are
grouped by :attr:`~repro.serve.planner.QueryPlan.group_key` — same
table version, same mechanism, same clipping bounds — and wait up to
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

Exit-path invariant: every member that takes an admission slot releases
it through exactly one resolution call, on every path — cache replay,
follower replay, deadline shed, budget rejection, execution error, or
success — so the admission controller's in-flight count always returns
to zero.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.confidentiality.queries import group_stats, member_release
from repro.exceptions import DataError, PrivacyBudgetError, ReproError
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
    from repro.serve.planner import QueryPlan
    from repro.serve.server import QueryServer


# -- dispatch ----------------------------------------------------------------

@dataclass
class _Member:
    """One submitted request's journey through the dispatch loop."""

    request: QueryRequest | dict
    future: Future
    arrival: float                    # time.monotonic() at submission
    wall_start: float                 # time.perf_counter() at submission
    started: object = None            # obs clock tick (or None)
    telemetry: object = None          # obs handle captured at submission
    tenant: str = ""
    plan: "QueryPlan | None" = None
    admitted: bool = False
    deadline_s: float | None = None   # absolute monotonic deadline


class Dispatcher:
    """The asyncio front end: admission, coalescing, flush, resolution.

    All batching state (``_groups``, ``_flights``, the flush timer) is
    touched only from the loop thread, so it needs no locks; the
    outstanding-request counter is the one cross-thread structure,
    guarded by a condition variable that also backs :meth:`drain` and
    the bounded-queue backpressure check.
    """

    def __init__(self, server: "QueryServer"):
        self._server = server
        self._config = server.config
        self._window_s = server.config.batch_window_ms / 1000.0
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
        with self._start_lock:
            if not self._started.is_set() or self._loop is None:
                return
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)

    # -- backpressure accounting --------------------------------------------

    def try_reserve_slot(self) -> bool:
        """Take one bounded-queue slot, or refuse (shed at submission)."""
        with self._cond:
            if self._outstanding >= self._config.max_queue_depth:
                return False
            self._outstanding += 1
            return True

    def _release_slot(self) -> None:
        with self._cond:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._cond.notify_all()

    @property
    def outstanding(self) -> int:
        """Requests admitted to the queue and not yet resolved."""
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

    def enqueue(self, members: list[_Member]) -> None:
        """Hand submitted members to the loop (one wakeup per chunk)."""
        self.ensure_started()
        self._loop.call_soon_threadsafe(self._admit_many, members)

    # -- loop-thread admission ----------------------------------------------

    def _admit_many(self, members: list[_Member]) -> None:
        for member in members:
            self._admit(member)

    def _admit(self, member: _Member) -> None:
        server = self._server
        try:
            request = member.request
            if isinstance(request, dict):
                request = QueryRequest.from_dict(request)
                member.request = request
            if request.version not in SUPPORTED_VERSIONS:
                self._resolve(member, server._rejection(
                    request, STATUS_REJECTED_VERSION,
                    f"unsupported protocol version {request.version!r}; "
                    f"supported: {list(SUPPORTED_VERSIONS)}",
                ))
                return
            tenant = str(request.tenant)
            member.tenant = tenant
            if server.admission is not None:
                reason = server.admission.try_admit(tenant)
                if reason is not None:
                    status = (STATUS_REJECTED_OVERLOAD
                              if reason == REASON_OVERLOAD
                              else STATUS_REJECTED_RATE)
                    self._resolve(member, server._rejection(
                        request, status, f"admission refused: {reason}"
                    ))
                    return
                member.admitted = True
            plan = server.planner.plan(request)
            member.plan = plan
            server._ensure_tenant(tenant)
            deadline_ms = (request.deadline_ms
                           if request.deadline_ms is not None
                           else self._config.default_deadline_ms)
            if deadline_ms is not None:
                member.deadline_s = member.arrival + deadline_ms / 1000.0
            if server.cache is not None:
                answer = server.cache.get(plan.fingerprint, tenant=tenant)
                if answer is not None:
                    # Early cache-replay exit: free post-processing —
                    # and _resolve still gives back the admission slot.
                    self._resolve(member, QueryResult(
                        tenant=tenant, status=STATUS_OK,
                        value=answer.replay(), epsilon_charged=0.0,
                        cached=True, fingerprint=plan.fingerprint,
                        request_id=request.request_id,
                    ))
                    return
                flight_key = self._flight_key(member)
                followers = self._flights.get(flight_key)
                if followers is not None:
                    # A release with this exact fingerprint is already
                    # pending or executing: coalesce and replay it.
                    followers.append(member)
                    server._note(coalesced=1)
                    return
                self._flights[flight_key] = []
            self._enqueue_member(member)
        except ReproError as error:
            self._resolve(member, server._rejection(
                member.request, STATUS_REJECTED_INVALID, str(error)
            ))
        except Exception as error:  # the loop must never leak an exception
            self._resolve(member, server._rejection(
                member.request, STATUS_ERROR,
                f"{type(error).__name__}: {error}",
            ))

    def _flight_key(self, member: _Member) -> object:
        if self._server.cache is not None and \
                self._server.cache.scope == "tenant":
            return (member.tenant, member.plan.fingerprint)
        return member.plan.fingerprint

    def _enqueue_member(self, member: _Member) -> None:
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
        self._server._note(batches=1, batched_queries=len(group),
                           largest_batch=len(group))
        try:
            self._server._pool.submit(self._execute_group, group)
        except RuntimeError as error:  # pool shut down mid-flight
            for member in group:
                self._abandon(member, STATUS_ERROR,
                              f"RuntimeError: {error}")

    # -- worker-thread execution --------------------------------------------

    def _execute_group(self, group: list[_Member]) -> None:
        server = self._server
        payers: list[tuple[_Member, object]] = []
        for member in group:
            plan = member.plan
            try:
                now = time.monotonic()
                if member.deadline_s is not None and now > member.deadline_s:
                    server._note(shed_deadline=1)
                    self._finish_release(member, server._rejection(
                        member.request, STATUS_REJECTED_OVERLOAD,
                        "deadline exceeded after "
                        f"{(now - member.arrival) * 1000.0:.1f} ms",
                    ))
                    continue
                try:
                    reservation = server.budget.reserve(
                        member.tenant, plan.epsilon, plan.delta
                    )
                except PrivacyBudgetError as error:
                    self._finish_release(member, QueryResult(
                        tenant=member.tenant, status=STATUS_REJECTED_BUDGET,
                        detail=str(error), fingerprint=plan.fingerprint,
                        request_id=member.request.request_id,
                    ))
                    continue
                payers.append((member, reservation))
            except Exception as error:
                self._finish_release(member, server._rejection(
                    member.request, STATUS_ERROR,
                    f"{type(error).__name__}: {error}",
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
                server.budget.rollback(reservation)
                self._finish_release(member, server._rejection(
                    member.request, status, detail
                ))
            return

        for (member, reservation), value in zip(payers, values):
            plan = member.plan
            try:
                server.budget.commit(reservation,
                                     label=f"serve.{plan.kind}")
            except PrivacyBudgetError as error:
                # Out-of-band spending beat us to the ledger between
                # reserve and commit; the answer is discarded unreleased.
                server.budget.rollback(reservation)
                self._finish_release(member, QueryResult(
                    tenant=member.tenant, status=STATUS_REJECTED_BUDGET,
                    detail=str(error), fingerprint=plan.fingerprint,
                    request_id=member.request.request_id,
                ))
                continue
            if server.cache is not None:
                server.cache.put(plan.fingerprint, value, plan.epsilon,
                                 tenant=member.tenant)
            self._finish_release(member, QueryResult(
                tenant=member.tenant, status=STATUS_OK, value=value,
                epsilon_charged=plan.epsilon, cached=False,
                fingerprint=plan.fingerprint,
                request_id=member.request.request_id,
            ), value=value)

    def _execute_batch(self, plans: list["QueryPlan"]) -> list:
        """One coalesced group's answers: shared statistics, own noise.

        The plans share a group key, so the statistics are computed once;
        each member draws from its own deterministic stream.  Nothing is
        memoised here — *answer* replay is the answer cache's job.
        """
        server = self._server
        rngs = [server._release_rng(plan.fingerprint) for plan in plans]
        if self._config.backend_latency_s:
            time.sleep(self._config.backend_latency_s)
        template = plans[0]
        table = server.planner.table(template.table)
        stats = group_stats(template, table.n_rows if template.kind == "count"
                            else table.column(template.column))
        return [member_release(stats, plan, rng)
                for plan, rng in zip(plans, rngs)]

    def _finish_release(self, member: _Member, result: QueryResult,
                        value: object = None) -> None:
        """Resolve a payer and settle its coalesced followers."""
        self._resolve(member, result)
        if self._server.cache is None:
            return
        flight_key = self._flight_key(member)
        self._loop.call_soon_threadsafe(
            self._settle_flight, flight_key, member.plan,
            result.status == STATUS_OK, value,
        )

    def _settle_flight(self, flight_key: object, plan, ok: bool,
                       value: object) -> None:
        followers = self._flights.pop(flight_key, None)
        if not followers:
            return
        if ok:
            for follower in followers:
                copied = dict(value) if isinstance(value, dict) else value
                self._resolve(follower, QueryResult(
                    tenant=follower.tenant, status=STATUS_OK, value=copied,
                    epsilon_charged=0.0, cached=True,
                    fingerprint=plan.fingerprint,
                    request_id=follower.request.request_id,
                ))
            return
        # The leader failed (shed, broke, or errored): the first
        # follower leads a fresh release, the rest re-coalesce onto it.
        for follower in followers:
            self._readmit(follower)

    def _readmit(self, member: _Member) -> None:
        server = self._server
        try:
            plan = member.plan
            answer = server.cache.get(plan.fingerprint, tenant=member.tenant)
            if answer is not None:
                self._resolve(member, QueryResult(
                    tenant=member.tenant, status=STATUS_OK,
                    value=answer.replay(), epsilon_charged=0.0, cached=True,
                    fingerprint=plan.fingerprint,
                    request_id=member.request.request_id,
                ))
                return
            flight_key = self._flight_key(member)
            followers = self._flights.get(flight_key)
            if followers is not None:
                followers.append(member)
                return
            self._flights[flight_key] = []
            self._enqueue_member(member)
        except Exception as error:
            self._resolve(member, server._rejection(
                member.request, STATUS_ERROR,
                f"{type(error).__name__}: {error}",
            ))

    # -- resolution (the one exit point) -------------------------------------

    def _resolve(self, member: _Member, result: QueryResult) -> None:
        server = self._server
        if member.admitted:
            member.admitted = False
            server.admission.release(member.tenant)
        result.duration = time.perf_counter() - member.wall_start
        member.future.set_result(result)
        self._release_slot()
        server._record_member(member, result)

    def _abandon(self, member: _Member, status: str, detail: str) -> None:
        self._resolve(member, self._server._rejection(
            member.request, status, detail
        ))
