"""Tests for the ``repro.serve`` query-serving layer.

The high-order bits: the cache's privacy property (identical queries →
identical released answer, charged exactly once), the budget manager's
speculative semantics (rejections never touch the ledger), admission
control, concurrency safety, and the never-raise serving loop.
"""

import json
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.confidentiality.accountant import PrivacyAccountant
from repro.data.io import write_csv
from repro.exceptions import DataError, PrivacyBudgetError
from repro.serve import (
    STATUS_OK,
    STATUS_REJECTED_BUDGET,
    STATUS_REJECTED_INVALID,
    STATUS_REJECTED_RATE,
    AdmissionController,
    AnswerCache,
    BudgetManager,
    QueryPlanner,
    QueryRequest,
    QueryServer,
    ServeConfig,
)


@pytest.fixture
def served_table(small_table):
    return small_table


def make_server(table, workers=1, admission=None, **config):
    server = QueryServer(ServeConfig(workers=workers, seed=7, **config),
                         admission=admission)
    server.register_table("t", table)
    return server


def mean_request(tenant="a", epsilon=0.1, **overrides):
    fields = dict(tenant=tenant, kind="mean", column="income",
                  lower=0.0, upper=100.0, epsilon=epsilon)
    fields.update(overrides)
    return QueryRequest(**fields)


# -- planner ---------------------------------------------------------------------

def test_planner_validates(served_table):
    planner = QueryPlanner()
    planner.register_table("t", served_table)
    bad_requests = [
        QueryRequest(tenant="a", kind="teleport", epsilon=0.1),
        QueryRequest(tenant="a", kind="mean", epsilon=0.1),  # no column
        QueryRequest(tenant="a", kind="mean", column="nope",
                     lower=0, upper=1, epsilon=0.1),
        QueryRequest(tenant="a", kind="mean", column="income", epsilon=0.1),
        QueryRequest(tenant="a", kind="mean", column="income",
                     lower=5, upper=5, epsilon=0.1),
        QueryRequest(tenant="a", kind="mean", column="city",
                     lower=0, upper=1, epsilon=0.1),  # categorical
        QueryRequest(tenant="a", kind="quantile", column="income",
                     lower=0, upper=1, epsilon=0.1),  # no q
        QueryRequest(tenant="a", kind="quantile", column="income",
                     lower=0, upper=1, q=1.5, epsilon=0.1),
        QueryRequest(tenant="a", kind="histogram", column="city", epsilon=0.1),
        QueryRequest(tenant="a", kind="count", epsilon=0.0),
        QueryRequest(tenant="a", kind="count", epsilon=-1.0),
        QueryRequest(tenant="a", kind="count", epsilon=0.1, table="other"),
    ]
    for request in bad_requests:
        with pytest.raises(DataError):
            planner.plan(request)


def test_planner_fingerprint_canonical(served_table):
    planner = QueryPlanner()
    planner.register_table("t", served_table)
    base = planner.plan(mean_request())
    # Same release, differently spelled: explicit table name, int bounds.
    same = planner.plan(mean_request(table="t", lower=0, upper=100))
    assert same.fingerprint == base.fingerprint
    # Different ε is a different release.
    other_eps = planner.plan(mean_request(epsilon=0.2))
    assert other_eps.fingerprint != base.fingerprint
    # Bins are order- and duplicate-insensitive.
    h1 = planner.plan(QueryRequest(tenant="a", kind="histogram", column="city",
                                   bins=("north", "south"), epsilon=0.1))
    h2 = planner.plan(QueryRequest(tenant="b", kind="histogram", column="city",
                                   bins=("south", "north", "south"),
                                   epsilon=0.1))
    assert h1.fingerprint == h2.fingerprint
    # Re-registering the table bumps the version and the fingerprint.
    planner.register_table("t", served_table)
    assert planner.plan(mean_request()).fingerprint != base.fingerprint
    assert planner.table_version("t") == 2


def test_planner_resolves_single_table(served_table):
    planner = QueryPlanner()
    with pytest.raises(DataError):
        planner.plan(mean_request())  # nothing registered
    planner.register_table("only", served_table)
    assert planner.plan(mean_request()).table == "only"
    planner.register_table("second", served_table)
    with pytest.raises(DataError):
        planner.plan(mean_request())  # ambiguous without a name


# -- budget manager --------------------------------------------------------------

def test_budget_manager_two_phase():
    manager = BudgetManager()
    manager.register("a", PrivacyAccountant(1.0))
    reservation = manager.reserve("a", 0.6)
    # Pending reservations block oversubscription...
    assert not manager.can_reserve("a", 0.6)
    with pytest.raises(PrivacyBudgetError):
        manager.reserve("a", 0.6)
    # ...but the ledger has not been charged yet.
    assert manager.accountant("a").epsilon_spent == 0.0
    assert manager.remaining("a") == pytest.approx(0.4)

    entry = manager.commit(reservation, label="q")
    assert entry.epsilon == pytest.approx(0.6)
    assert manager.accountant("a").epsilon_spent == pytest.approx(0.6)
    assert manager.pending_epsilon("a") == 0.0

    second = manager.reserve("a", 0.4)
    manager.rollback(second)
    assert manager.accountant("a").epsilon_spent == pytest.approx(0.6)
    assert manager.remaining("a") == pytest.approx(0.4)
    # Settled reservations cannot be settled again.
    with pytest.raises(DataError):
        manager.commit(reservation)
    with pytest.raises(DataError):
        manager.rollback(second)


def test_budget_manager_unknown_tenant():
    manager = BudgetManager()
    with pytest.raises(DataError):
        manager.reserve("ghost", 0.1)
    manager.register("a", PrivacyAccountant(1.0))
    with pytest.raises(DataError):
        manager.register("a", PrivacyAccountant(1.0))


# -- answer cache ----------------------------------------------------------------

def test_cache_lru_and_stats():
    cache = AnswerCache(max_entries=2)
    cache.put("f1", 1.0, 0.1)
    cache.put("f2", 2.0, 0.1)
    assert cache.get("f1").value == 1.0  # refreshes f1
    cache.put("f3", 3.0, 0.1)            # evicts f2 (least recent)
    assert cache.get("f2") is None
    assert cache.get("f3").value == 3.0
    assert len(cache) == 2
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 2 and stats["misses"] == 1


def test_cache_tenant_scope():
    cache = AnswerCache(scope="tenant")
    cache.put("f", 1.0, 0.1, tenant="a")
    assert cache.get("f", tenant="a").value == 1.0
    assert cache.get("f", tenant="b") is None


def test_cache_histogram_values_are_copied():
    cache = AnswerCache()
    cache.put("f", {"x": 1.0}, 0.1)
    replay = cache.get("f").replay()
    replay["x"] = 999.0
    assert cache.get("f").replay() == {"x": 1.0}


# -- admission -------------------------------------------------------------------

def test_admission_rate_limit_sliding_window():
    clock = [0.0]
    controller = AdmissionController(rate_limit=2, window_s=1.0,
                                     now_fn=lambda: clock[0])
    assert controller.try_admit("a") is None
    assert controller.try_admit("a") is None
    assert controller.try_admit("a") == "rate_limit"
    assert controller.try_admit("b") is None  # per-tenant windows
    clock[0] = 1.5  # window slides past the first admissions
    assert controller.try_admit("a") is None
    assert controller.rejections["rate_limit"] == 1


def test_admission_inflight_cap():
    controller = AdmissionController(max_inflight=1)
    assert controller.try_admit("a") is None
    assert controller.try_admit("b") == "overload"
    controller.release("a")
    assert controller.try_admit("b") is None
    controller.release("b")
    with pytest.raises(DataError):
        controller.release("b")


# -- server: the cache privacy property ------------------------------------------

def test_repeated_query_same_answer_charged_once(served_table):
    server = make_server(served_table)
    server.register_tenant("a", epsilon_budget=1.0)
    first = server.query(mean_request())
    repeats = [server.query(mean_request()) for _ in range(5)]
    assert first.ok and not first.cached
    assert first.epsilon_charged == pytest.approx(0.1)
    for repeat in repeats:
        assert repeat.ok and repeat.cached
        assert repeat.value == first.value  # byte-identical replay
        assert repeat.epsilon_charged == 0.0
    accountant = server.budget.accountant("a")
    # 6 submissions, exactly one ledger charge.
    assert accountant.epsilon_spent == pytest.approx(0.1)
    assert len(accountant.ledger) == 1
    server.close()


def test_cache_shared_across_tenants_by_default(served_table):
    server = make_server(served_table)
    server.register_tenant("a", epsilon_budget=1.0)
    server.register_tenant("b", epsilon_budget=1.0)
    first = server.query(mean_request(tenant="a"))
    second = server.query(mean_request(tenant="b"))
    assert second.cached and second.value == first.value
    assert server.budget.accountant("b").epsilon_spent == 0.0
    server.close()


def test_cache_off_pays_every_time(served_table):
    server = make_server(served_table, cache=False)
    server.register_tenant("a", epsilon_budget=1.0)
    first = server.query(mean_request())
    second = server.query(mean_request())
    assert not first.cached and not second.cached
    assert server.budget.accountant("a").epsilon_spent == pytest.approx(0.2)
    server.close()


def test_reregistering_table_invalidates_cache(served_table):
    server = make_server(served_table)
    server.register_tenant("a", epsilon_budget=1.0)
    server.query(mean_request())
    server.register_table("t", served_table)  # new version, new fingerprints
    refreshed = server.query(mean_request())
    assert not refreshed.cached
    assert server.budget.accountant("a").epsilon_spent == pytest.approx(0.2)
    server.close()


# -- server: structured rejections ----------------------------------------------

def test_budget_exhaustion_is_structured_and_free(served_table):
    server = make_server(served_table)
    server.register_tenant("poor", epsilon_budget=0.05)
    result = server.query(mean_request(tenant="poor", epsilon=0.1))
    assert result.status == STATUS_REJECTED_BUDGET
    assert result.value is None and result.epsilon_charged == 0.0
    assert "cannot afford" in result.detail
    accountant = server.budget.accountant("poor")
    assert accountant.epsilon_spent == 0.0
    assert len(accountant.ledger) == 0
    # The tenant can still afford a smaller query afterwards.
    ok = server.query(mean_request(tenant="poor", epsilon=0.05))
    assert ok.ok
    server.close()


def test_invalid_and_unknown_are_structured(served_table):
    server = make_server(served_table)
    server.register_tenant("a", epsilon_budget=1.0)
    bad_column = server.query(mean_request(column="nope"))
    assert bad_column.status == STATUS_REJECTED_INVALID
    unknown_tenant = server.query(mean_request(tenant="ghost"))
    assert unknown_tenant.status == STATUS_REJECTED_INVALID
    assert "ghost" in unknown_tenant.detail
    malformed = server.query({"kind": "count"})  # missing tenant/epsilon
    assert malformed.status == STATUS_REJECTED_INVALID
    server.close()


def test_rate_limited_requests_are_structured_and_free(served_table):
    clock = [0.0]
    admission = AdmissionController(rate_limit=2, window_s=1.0,
                                    now_fn=lambda: clock[0])
    server = make_server(served_table, admission=admission)
    server.register_tenant("a", epsilon_budget=10.0)
    results = [server.query(mean_request(epsilon=0.1 + 0.01 * i))
               for i in range(4)]
    statuses = [result.status for result in results]
    assert statuses == [STATUS_OK, STATUS_OK,
                        STATUS_REJECTED_RATE, STATUS_REJECTED_RATE]
    # Refused queries charged nothing.
    assert server.budget.accountant("a").epsilon_spent == pytest.approx(0.21)
    server.close()


def test_auto_registration_with_default_budget(served_table):
    server = make_server(served_table, default_epsilon_budget=0.5)
    result = server.query(mean_request(tenant="walk-in"))
    assert result.ok
    assert server.budget.remaining("walk-in") == pytest.approx(0.4)
    server.close()


# -- server: concurrency ---------------------------------------------------------

def test_concurrent_batch_respects_budget(served_table):
    # 40 *distinct* queries at ε=0.1 against a budget of 1.0: exactly 10
    # may commit, regardless of interleaving.
    server = make_server(served_table, workers=8, cache=False)
    server.register_tenant("a", epsilon_budget=1.0)
    requests = [mean_request(epsilon=0.1, lower=-float(i + 1))
                for i in range(40)]
    results = server.submit_batch(requests)
    ok = [r for r in results if r.ok]
    rejected = [r for r in results if r.status == STATUS_REJECTED_BUDGET]
    assert len(ok) == 10
    assert len(rejected) == 30
    accountant = server.budget.accountant("a")
    assert accountant.epsilon_spent == pytest.approx(1.0)
    assert len(accountant.ledger) == 10
    server.close()


def test_concurrent_duplicates_coalesce_to_one_charge(served_table):
    server = make_server(served_table, workers=8,
                         backend_latency_s=0.002)
    server.register_tenant("a", epsilon_budget=1.0)
    results = server.submit_batch([mean_request() for _ in range(16)])
    values = {result.value for result in results}
    assert all(result.ok for result in results)
    assert len(values) == 1  # everyone saw the same release
    accountant = server.budget.accountant("a")
    assert accountant.epsilon_spent == pytest.approx(0.1)
    assert len(accountant.ledger) == 1
    server.close()


def test_batch_preserves_request_order(served_table):
    server = make_server(served_table, workers=4)
    server.register_tenant("a", epsilon_budget=10.0)
    requests = [QueryRequest(tenant="a", kind="count", epsilon=0.01,
                             request_id=f"r{i}") for i in range(20)]
    results = server.submit_batch(requests)
    assert [result.request_id for result in results] == \
        [request.request_id for request in requests]
    server.close()


# -- server: telemetry -----------------------------------------------------------

def test_server_emits_telemetry(served_table):
    from repro import obs
    telemetry = obs.configure()
    try:
        server = make_server(served_table)
        server.register_tenant("a", epsilon_budget=1.0)
        server.query(mean_request())
        server.query(mean_request())
        server.query(mean_request(tenant="ghost"))
        spans = [span for span in telemetry.tracer.spans
                 if span.name == "serve.query"]
        assert len(spans) == 3
        assert all(span.finished for span in spans)
        assert spans[1].attributes["cached"] is True
        hits = telemetry.metrics.counter("serve.cache.hits")
        misses = telemetry.metrics.counter("serve.cache.misses")
        assert hits.value == 1 and misses.value == 1
        ok = telemetry.metrics.counter("serve.requests", status=STATUS_OK)
        invalid = telemetry.metrics.counter("serve.requests",
                                            status=STATUS_REJECTED_INVALID)
        assert ok.value == 2 and invalid.value == 1
        gauge = telemetry.metrics.gauge("serve.budget.epsilon_remaining",
                                        tenant="a")
        assert gauge.value == pytest.approx(0.9)
        server.close()
    finally:
        obs.reset()


# -- CLI -------------------------------------------------------------------------

def test_cli_serve_end_to_end(tmp_path, small_table, capsys):
    data_path = tmp_path / "data.csv"
    write_csv(small_table, data_path)
    queries = [
        {"tenant": "a", "kind": "count", "epsilon": 0.05},
        {"tenant": "a", "kind": "mean", "column": "income",
         "lower": 0, "upper": 100, "epsilon": 0.1},
        {"tenant": "a", "kind": "mean", "column": "income",
         "lower": 0, "upper": 100, "epsilon": 0.1},
        {"tenant": "b", "kind": "histogram", "column": "city",
         "bins": ["north", "south"], "epsilon": 0.1},
        {"tenant": "a", "kind": "mean", "column": "nope",
         "lower": 0, "upper": 1, "epsilon": 0.1},
    ]
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text(
        "\n".join(json.dumps(query) for query in queries) + "\n"
    )
    output_path = tmp_path / "responses.jsonl"
    code = cli_main([
        "serve", str(queries_path), "--data", str(data_path),
        "--workers", "1", "-o", str(output_path),
    ])
    assert code == 0
    responses = [json.loads(line)
                 for line in output_path.read_text().splitlines()]
    assert len(responses) == 5
    assert [r["status"] for r in responses] == \
        ["ok", "ok", "ok", "ok", "rejected_invalid"]
    assert responses[2]["cached"] is True
    assert responses[2]["value"] == responses[1]["value"]
    assert set(responses[3]["value"]) == {"north", "south"}
    summary = capsys.readouterr().err
    assert "served 5 queries" in summary
    assert "tenant a" in summary and "tenant b" in summary


def test_cli_serve_no_cache_flag(tmp_path, small_table):
    data_path = tmp_path / "data.csv"
    write_csv(small_table, data_path)
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text(
        json.dumps({"tenant": "a", "kind": "count", "epsilon": 0.1}) + "\n"
    )
    output_path = tmp_path / "out.jsonl"
    code = cli_main([
        "serve", str(queries_path), "--data", str(data_path),
        "--no-cache", "--workers", "1", "-o", str(output_path),
    ])
    assert code == 0
    assert json.loads(output_path.read_text())["status"] == "ok"
