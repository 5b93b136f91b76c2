"""Tests for the async batched serving front end.

The high-order bits, in order of importance:

* **Batching is invisible in the answers** — the same workload served
  with every combination of batch window {off, 1 ms, 10 ms} and worker
  count {1, 4} yields byte-identical values and identical per-tenant
  ε-ledgers under a fixed seed.
* **The vectorized release kernels are the ``dp_*`` functions** — same
  generator in, same noisy answer out, for all five query kinds.
* **Backpressure is structured** — bounded-queue shedding and deadline
  shedding reject with ``STATUS_REJECTED_OVERLOAD``, charge zero ε, and
  the admission controller's in-flight count returns to zero on *every*
  exit path (the PR's regression fix).
* **The protocol is versioned** — unknown versions are structured
  rejections; the JSONL wire format is backward-compatible.
* **ServeConfig is the one surface** — validated and fingerprintable.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.queries import (
    dp_count,
    dp_histogram,
    dp_mean,
    dp_quantile,
    dp_sum,
)
from repro.data.schema import Schema, categorical, numeric
from repro.data.table import Table
from repro.exceptions import DataError
from repro.serve import (
    PROTOCOL_VERSION,
    STATUS_OK,
    STATUS_REJECTED_OVERLOAD,
    STATUS_REJECTED_VERSION,
    AdmissionController,
    PendingResult,
    QueryRequest,
    QueryResult,
    QueryServer,
    ServeConfig,
)
from repro.serve.batching import group_stats, member_release
from repro.serve.loadgen import bursts, zipf_workload


@pytest.fixture
def table():
    rng = np.random.default_rng(7)
    n = 400
    schema = Schema([
        numeric("income"),
        numeric("age"),
        categorical("city"),
    ])
    return Table(schema, {
        "income": rng.uniform(0.0, 100.0, n),
        "age": rng.uniform(18.0, 80.0, n),
        "city": rng.choice(["north", "south", "east"], size=n),
    })


def make_server(table, config=None, **config_kwargs):
    if config is None:
        config_kwargs.setdefault("workers", 1)
        config_kwargs.setdefault("seed", 7)
        config = ServeConfig(**config_kwargs)
    server = QueryServer(config)
    server.register_table("t", table)
    return server


def workload(n=120, seed=3):
    """A deduplication-friendly mixed-kind workload over fixture columns."""
    rng = np.random.default_rng(seed)
    shapes = [
        dict(kind="count", epsilon=0.01),
        dict(kind="count", epsilon=0.02),
        dict(kind="mean", column="income", lower=0.0, upper=100.0,
             epsilon=0.05),
        dict(kind="mean", column="age", lower=18.0, upper=80.0,
             epsilon=0.03),
        dict(kind="sum", column="income", lower=0.0, upper=100.0,
             epsilon=0.04),
        dict(kind="quantile", column="age", q=0.5, lower=18.0, upper=80.0,
             epsilon=0.06),
        dict(kind="histogram", column="city",
             bins=("north", "south", "east"), epsilon=0.02),
    ]
    tenants = ["a", "b", "c"]
    return [
        QueryRequest(tenant=tenants[int(rng.integers(len(tenants)))],
                     **shapes[int(rng.integers(len(shapes)))])
        for _ in range(n)
    ]


def ledgers(server):
    """Per-tenant (spent, sorted entries): order-insensitive across workers."""
    return {
        tenant: (
            round(server.budget.accountant(tenant).epsilon_spent, 12),
            sorted((e.epsilon, e.delta, e.label)
                   for e in server.budget.accountant(tenant).ledger),
        )
        for tenant in sorted(server.budget.tenants)
    }


# -- batched vs serial equivalence -----------------------------------------


def run_workload(table, *, batch_window_ms, workers):
    config = ServeConfig(workers=workers, seed=7,
                         batch_window_ms=batch_window_ms,
                         default_epsilon_budget=100.0)
    with make_server(table, config) as server:
        results = server.submit_batch(workload())
    return [r.value for r in results], ledgers(server), results


@pytest.mark.parametrize("batch_window_ms", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("workers", [1, 4])
def test_batched_equals_serial(table, batch_window_ms, workers):
    base_values, base_ledgers, base_results = run_workload(
        table, batch_window_ms=0.0, workers=1
    )
    values, tenant_ledgers, results = run_workload(
        table, batch_window_ms=batch_window_ms, workers=workers
    )
    assert values == base_values                 # byte-identical answers
    assert tenant_ledgers == base_ledgers        # identical ε-accounting
    assert all(r.ok for r in results)
    # The same release is charged exactly once regardless of batching.
    charged = [r for r in results if r.epsilon_charged > 0]
    base_charged = [r for r in base_results if r.epsilon_charged > 0]
    assert len(charged) == len(base_charged)


def test_zipf_workload_deterministic(table):
    first = zipf_workload(50, n_tenants=4, n_shapes=8, seed=5, table="t")
    second = zipf_workload(50, n_tenants=4, n_shapes=8, seed=5, table="t")
    assert first == second
    chunks = bursts(first, mean_burst=8, seed=5)
    assert [len(c) for c in chunks] == [len(c) for c in
                                        bursts(second, mean_burst=8, seed=5)]
    assert sum(len(c) for c in chunks) == len(first)


# -- the vectorized kernels replicate dp_* draw for draw -------------------


def _plan(server, **fields):
    return server.planner.plan(QueryRequest(tenant="a", **fields))


def test_group_kernels_match_dp_functions(table):
    server = make_server(table, default_epsilon_budget=10.0)
    scratch = lambda eps: PrivacyAccountant(eps + 1.0)  # noqa: E731
    cases = [
        (dict(kind="count", epsilon=0.1),
         lambda rng: dp_count(table.n_rows, 0.1, scratch(0.1), rng)),
        (dict(kind="sum", column="income", lower=0.0, upper=100.0,
              epsilon=0.2),
         lambda rng: dp_sum(table.column("income"), 0.0, 100.0, 0.2,
                            scratch(0.2), rng)),
        (dict(kind="mean", column="income", lower=0.0, upper=100.0,
              epsilon=0.2),
         lambda rng: dp_mean(table.column("income"), 0.0, 100.0, 0.2,
                             scratch(0.2), rng)),
        (dict(kind="quantile", column="age", q=0.5, lower=18.0, upper=80.0,
              epsilon=0.3),
         lambda rng: dp_quantile(table.column("age"), 0.5, 18.0, 80.0, 0.3,
                                 scratch(0.3), rng)),
        (dict(kind="histogram", column="city",
              bins=("east", "north", "south"), epsilon=0.1),
         lambda rng: dp_histogram(table.column("city"),
                                  ["east", "north", "south"], 0.1,
                                  scratch(0.1), rng)),
    ]
    for fields, reference in cases:
        plan = _plan(server, **fields)
        stats = group_stats(plan, table)
        mine = member_release(stats, plan, np.random.default_rng(99))
        expected = reference(np.random.default_rng(99))
        assert mine == expected, fields["kind"]
    server.close()


def test_release_rng_is_order_independent(table):
    """Noise depends on (seed, fingerprint, ordinal) — not arrival order."""
    r1 = QueryRequest(tenant="a", kind="count", epsilon=0.1)
    r2 = QueryRequest(tenant="a", kind="mean", column="income",
                      lower=0.0, upper=100.0, epsilon=0.1)
    with make_server(table, default_epsilon_budget=10.0) as forward:
        a1 = forward.query(r1).value
        a2 = forward.query(r2).value
    with make_server(table, default_epsilon_budget=10.0) as backward:
        b2 = backward.query(r2).value
        b1 = backward.query(r1).value
    assert a1 == b1
    assert a2 == b2


# -- backpressure -----------------------------------------------------------


def test_bounded_queue_sheds_at_submission(table):
    config = ServeConfig(workers=1, seed=7, max_queue_depth=2,
                         backend_latency_s=0.05,
                         default_epsilon_budget=100.0, cache=False)
    with make_server(table, config) as server:
        requests = [QueryRequest(tenant="a", kind="count",
                                 epsilon=0.01 + i * 0.001)
                    for i in range(10)]
        results = [p.result() for p in server.submit_many(requests)]
    shed = [r for r in results if r.status == STATUS_REJECTED_OVERLOAD]
    assert shed, "expected bounded-queue shedding"
    assert all("queue depth" in r.detail for r in shed)
    assert all(r.epsilon_charged == 0.0 for r in shed)
    assert server.stats()["batching"]["shed_queue"] == len(shed)
    # Shed requests never reached the ledger.
    spent = server.budget.accountant("a").epsilon_spent
    ok = [r for r in results if r.ok]
    assert spent == pytest.approx(sum(r.epsilon_charged for r in ok))


def test_deadline_shedding(table):
    config = ServeConfig(workers=1, seed=7, backend_latency_s=0.05,
                         default_epsilon_budget=100.0, cache=False)
    with make_server(table, config) as server:
        # The first query occupies the only worker for 50 ms; the
        # expired one is shed when its group reaches execution.
        slow = server.submit(QueryRequest(tenant="a", kind="count",
                                          epsilon=0.01))
        doomed = server.submit(QueryRequest(tenant="a", kind="count",
                                            epsilon=0.02,
                                            deadline_ms=1.0))
        assert slow.result().ok
        late = doomed.result()
    assert late.status == STATUS_REJECTED_OVERLOAD
    assert "deadline" in late.detail
    assert late.epsilon_charged == 0.0
    assert server.stats()["batching"]["shed_deadline"] == 1
    assert server.budget.accountant("a").epsilon_spent == pytest.approx(0.01)


def test_default_deadline_from_config(table):
    config = ServeConfig(workers=1, seed=7, backend_latency_s=0.05,
                         default_deadline_ms=1.0,
                         default_epsilon_budget=100.0, cache=False)
    with make_server(table, config) as server:
        first = server.submit(QueryRequest(tenant="a", kind="count",
                                           epsilon=0.01,
                                           deadline_ms=10_000.0))
        second = server.submit(QueryRequest(tenant="a", kind="count",
                                            epsilon=0.02))
        assert first.result().ok           # explicit deadline overrides
        assert second.result().status == STATUS_REJECTED_OVERLOAD


# -- the inflight regression: every exit path releases admission ------------


def test_inflight_returns_to_zero_on_every_exit_path(table):
    admission = AdmissionController(max_inflight=8)
    config = ServeConfig(workers=2, seed=7, default_epsilon_budget=0.05)
    server = QueryServer(config, admission=admission)
    server.register_table("t", table)
    with server:
        count = QueryRequest(tenant="a", kind="count", epsilon=0.01)
        paths = [
            count,                                            # ok (miss)
            count,                                            # cache replay
            QueryRequest(tenant="a", kind="teleport",
                         epsilon=0.1),                        # invalid
            QueryRequest(tenant="a", kind="count",
                         epsilon=1.0),                        # budget reject
            QueryRequest(tenant="a", kind="count", epsilon=0.02,
                         version=99),                         # bad version
            QueryRequest(tenant="a", kind="count", epsilon=0.03,
                         deadline_ms=1e-6),                   # deadline shed
        ]
        results = server.submit_batch(paths)
        server.drain()
        assert admission.inflight == 0, (
            f"admission leaked; statuses: {[r.status for r in results]}"
        )
    assert results[0].ok and not results[0].cached
    assert results[1].ok and results[1].cached
    assert server.stats()["outstanding"] == 0


def test_coalesced_duplicates_release_admission(table):
    """Concurrent identical misses coalesce — every member releases."""
    admission = AdmissionController(max_inflight=64)
    config = ServeConfig(workers=4, seed=7, batch_window_ms=5.0,
                         backend_latency_s=0.01,
                         default_epsilon_budget=100.0)
    server = QueryServer(config, admission=admission)
    server.register_table("t", table)
    with server:
        request = QueryRequest(tenant="a", kind="count", epsilon=0.01)
        results = server.submit_batch([request] * 16)
    assert all(r.ok for r in results)
    assert sum(not r.cached for r in results) == 1   # one payer
    assert admission.inflight == 0
    assert server.stats()["batching"]["coalesced"] >= 1


# -- protocol versioning ----------------------------------------------------


def test_unknown_version_is_structured_rejection(table):
    with make_server(table, default_epsilon_budget=1.0) as server:
        result = server.query(QueryRequest(tenant="a", kind="count",
                                           epsilon=0.1, version=2))
    assert result.status == STATUS_REJECTED_VERSION
    assert "2" in result.detail
    assert result.epsilon_charged == 0.0


def test_wire_format_is_backward_compatible():
    # A pre-versioning record (no `version` key) parses as v1.
    old_wire = {"tenant": "a", "kind": "count", "epsilon": 0.1}
    request = QueryRequest.from_dict(old_wire)
    assert request.version == PROTOCOL_VERSION
    # v1 requests serialize without a version key — old readers see the
    # exact shape they always did.
    assert "version" not in request.to_dict()
    assert "deadline_ms" not in request.to_dict()
    # Non-default fields round-trip.
    timed = QueryRequest(tenant="a", kind="count", epsilon=0.1,
                         deadline_ms=25.0)
    assert QueryRequest.from_dict(timed.to_dict()) == timed
    # Results omit version at v1 too.
    assert "version" not in QueryResult(tenant="a",
                                        status=STATUS_OK).to_dict()


def test_versioned_request_over_jsonl(table):
    with make_server(table, default_epsilon_budget=1.0) as server:
        line = json.dumps({"tenant": "a", "kind": "count", "epsilon": 0.1,
                           "version": 1})
        ok = server.query(json.loads(line))
        bad = server.query({"tenant": "a", "kind": "count", "epsilon": 0.1,
                            "version": 3})
    assert ok.ok
    assert bad.status == STATUS_REJECTED_VERSION


# -- ServeConfig ------------------------------------------------------------


def test_config_validates():
    with pytest.raises(DataError):
        ServeConfig(workers=0)
    with pytest.raises(DataError):
        ServeConfig(batch_window_ms=-1.0)
    with pytest.raises(DataError):
        ServeConfig(max_queue_depth=0)
    with pytest.raises(DataError):
        ServeConfig(cache_scope="galactic")
    with pytest.raises(DataError):
        ServeConfig(default_deadline_ms=0.0)
    with pytest.raises(DataError):
        ServeConfig(rate_limit=0)


def test_config_is_fingerprintable_artifact():
    one = ServeConfig(workers=2, batch_window_ms=2.0)
    two = ServeConfig(workers=2, batch_window_ms=2.0)
    assert one.fingerprint() == two.fingerprint()
    assert one.fingerprint() != ServeConfig(workers=3).fingerprint()
    assert json.loads(one.to_json())["batch_window_ms"] == 2.0


def test_config_builds_admission(table):
    config = ServeConfig(workers=1, seed=7, rate_limit=2, rate_window_s=60.0,
                         default_epsilon_budget=10.0)
    with make_server(table, config) as server:
        assert server.admission is not None
        assert server.admission.rate_limit == 2
        statuses = [server.query(QueryRequest(tenant="a", kind="count",
                                              epsilon=0.01 + 0.001 * i)).status
                    for i in range(4)]
    assert statuses[:2] == [STATUS_OK, STATUS_OK]
    assert statuses[2] != STATUS_OK and statuses[3] != STATUS_OK


# -- the async/sync submission surface --------------------------------------


def test_submit_many_preserves_order(table):
    with make_server(table, default_epsilon_budget=100.0, workers=4,
                     batch_window_ms=2.0) as server:
        requests = [QueryRequest(tenant="a", kind="count",
                                 epsilon=0.01 + i * 0.001,
                                 request_id=f"r{i}")
                    for i in range(20)]
        pending = server.submit_many(requests)
        results = [p.result() for p in pending]
    assert [r.request_id for r in results] == [f"r{i}" for i in range(20)]
    assert all(r.ok for r in results)


def test_pending_result_is_awaitable(table):
    with make_server(table, default_epsilon_budget=10.0) as server:

        async def drive():
            pending = server.submit(QueryRequest(tenant="a", kind="count",
                                                 epsilon=0.1))
            assert isinstance(pending, PendingResult)
            return await pending

        result = asyncio.run(drive())
    assert result.ok


def test_pending_result_done_callback(table):
    with make_server(table, default_epsilon_budget=10.0) as server:
        seen = []
        pending = server.submit(QueryRequest(tenant="a", kind="count",
                                             epsilon=0.1))
        pending.add_done_callback(lambda p: seen.append(p.result().status))
        assert pending.result().ok
        server.drain()
    assert pending.done()
    assert seen == [STATUS_OK]


def test_drain_settles_open_batch_windows(table):
    with make_server(table, default_epsilon_budget=10.0, workers=2,
                     batch_window_ms=500.0) as server:
        pending = server.submit_many([
            QueryRequest(tenant="a", kind="count", epsilon=0.01),
            QueryRequest(tenant="a", kind="count", epsilon=0.02),
        ])
        server.drain(timeout=5.0)   # well before the 500 ms window
        assert all(p.done() for p in pending)
        assert all(p.result().ok for p in pending)
    assert server.stats()["outstanding"] == 0


def test_submit_after_close_raises(table):
    server = make_server(table, default_epsilon_budget=10.0)
    server.close()
    with pytest.raises(DataError):
        server.submit(QueryRequest(tenant="a", kind="count", epsilon=0.1))
    server.close()   # idempotent


def test_batching_coalesces_within_window(table):
    """Same group key + open window ⇒ one vectorized batch."""
    config = ServeConfig(workers=1, seed=7, batch_window_ms=50.0,
                         cache=False, default_epsilon_budget=100.0)
    with make_server(table, config) as server:
        # Distinct ε ⇒ distinct fingerprints (no coalescing via cache),
        # same group key ⇒ one batch.
        pending = server.submit_many([
            QueryRequest(tenant="a", kind="count", epsilon=0.01 + 0.001 * i)
            for i in range(8)
        ])
        results = [p.result() for p in pending]
    assert all(r.ok for r in results)
    batching = server.stats()["batching"]
    assert batching["largest_batch"] == 8
    assert batching["batches"] == 1
