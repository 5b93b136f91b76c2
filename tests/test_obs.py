"""Tests for the telemetry layer (repro.obs) and its instrumentation."""

import json

import numpy as np
import pytest

from repro import obs
from repro.confidentiality.accountant import PrivacyAccountant
from repro.data.synth import CreditScoringGenerator
from repro.exceptions import DataError
from repro.learn import LogisticRegression, TableClassifier
from repro.pipeline import (
    AuditLog,
    CleanStage,
    DecideStage,
    FairnessDriftMonitor,
    Pipeline,
    PredictStage,
    ReweighStage,
    TrainStage,
    ValidateSchemaStage,
    population_stability_index,
)


@pytest.fixture(autouse=True)
def _unconfigured_obs():
    """Every test starts and ends with telemetry off."""
    obs.reset()
    yield
    obs.reset()


# -- tracing -----------------------------------------------------------------


def test_span_nesting_and_attributes():
    tracer = obs.Tracer()
    with tracer.span("root", mode="test") as root:
        with tracer.span("child") as child:
            child.set_attribute("n_rows", 10)
        with tracer.span("sibling"):
            pass
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert root.attributes == {"mode": "test"}
    assert child.attributes == {"n_rows": 10}
    assert [s.name for s in tracer.children(root)] == ["child", "sibling"]
    assert tracer.root_spans() == [root]
    assert all(span.finished for span in tracer.spans)


def test_tick_clock_spans_are_deterministic():
    def run():
        tracer = obs.Tracer(obs.TickClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        return [(s.name, s.start, s.end) for s in tracer.spans]

    assert run() == run() == [("a", 0.0, 3.0), ("b", 1.0, 2.0)]


def test_span_decorator_and_error_attribute():
    tracer = obs.Tracer()

    @tracer.trace("work")
    def work(x):
        return x + 1

    assert work(1) == 2
    with pytest.raises(DataError):
        with tracer.span("failing"):
            raise DataError("boom")
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["work"].finished
    assert by_name["failing"].attributes["error"] == "DataError"
    assert by_name["failing"].finished


def test_end_span_closes_dangling_children():
    tracer = obs.Tracer()
    root = tracer.start_span("root")
    tracer.start_span("child")
    tracer.end_span(root)
    assert all(span.finished for span in tracer.spans)
    assert tracer.active_span is None


def test_safe_attribute_is_deterministic_for_objects():
    rendered = obs.safe_attribute(TableClassifier(LogisticRegression()))
    assert rendered == "<TableClassifier>"  # no memory address
    assert obs.safe_attribute([1, 2]) == "[1, 2]"
    assert obs.safe_attribute(3.5) == 3.5


# -- metrics -----------------------------------------------------------------


def test_counter_and_labels():
    registry = obs.MetricsRegistry()
    registry.counter("alarms", kind="drift").inc()
    registry.counter("alarms", kind="drift").inc(2)
    registry.counter("alarms", kind="bias").inc()
    assert registry.counter("alarms", kind="drift").value == 3.0
    assert registry.counter("alarms", kind="bias").value == 1.0
    assert len(registry) == 2
    with pytest.raises(DataError):
        registry.counter("alarms", kind="drift").inc(-1)
    with pytest.raises(DataError):
        registry.gauge("alarms", kind="drift")  # kind clash


def test_gauge_samples():
    registry = obs.MetricsRegistry(clock=obs.TickClock())
    gauge = registry.gauge("budget")
    gauge.set(1.0)
    gauge.set(0.5)
    gauge.inc(-0.25)
    assert gauge.value == 0.25
    assert [value for _, value in gauge.samples] == [1.0, 0.5, 0.25]
    assert [t for t, _ in gauge.samples] == [0.0, 1.0, 2.0]


def test_histogram_quantiles():
    histogram = obs.Histogram("latency", buckets=(1.0, 2.0, 5.0, 10.0))
    for value in (0.5, 0.7, 1.5, 1.6, 1.7, 3.0, 3.5, 4.0, 8.0, 40.0):
        histogram.observe(value)
    assert histogram.count == 10
    assert histogram.max == 40.0
    assert histogram.min == 0.5
    assert histogram.quantile(0.5) == 2.0  # 5th obs lands in the (1,2] bucket
    assert histogram.quantile(0.95) == 40.0  # overflow bucket → exact max
    assert histogram.quantile(1.0) == 40.0
    assert histogram.mean == pytest.approx(6.45)
    record = histogram.to_dict()
    assert record["bucket_counts"] == [2, 3, 3, 1, 1]
    assert record["p50"] == 2.0
    with pytest.raises(DataError):
        obs.Histogram("empty").quantile(0.5)


def test_histogram_quantile_capped_at_max():
    histogram = obs.Histogram("one", buckets=(100.0,))
    histogram.observe(3.0)
    assert histogram.quantile(0.5) == 3.0  # bound 100 capped to exact max


def test_histogram_single_occupied_bucket_interpolates():
    # All samples in one bucket: the bucket bound would be wildly wrong,
    # so quantiles interpolate between the exact min and max instead.
    histogram = obs.Histogram("one", buckets=(10.0,))
    histogram.observe(2.0)
    histogram.observe(4.0)
    assert histogram.quantile(0.0) == 2.0
    assert histogram.quantile(0.5) == 3.0
    assert histogram.quantile(1.0) == 4.0


def test_histogram_configurable_quantiles():
    histogram = obs.Histogram("latency", buckets=(1.0, 2.0, 5.0, 10.0),
                              quantiles=(0.5, 0.99))
    for value in (0.5, 0.7, 1.5, 1.6, 1.7, 3.0, 3.5, 4.0, 8.0, 40.0):
        histogram.observe(value)
    record = histogram.to_dict()
    assert record["p99"] == 40.0           # overflow bucket → exact max
    assert record["p50"] == 2.0
    assert record["p95"] == 40.0           # p50/p95 always present
    assert histogram.quantiles == (0.5, 0.99)
    with pytest.raises(DataError):
        obs.Histogram("bad", quantiles=(1.5,))


def test_quantile_key():
    assert obs.quantile_key(0.5) == "p50"
    assert obs.quantile_key(0.99) == "p99"
    assert obs.quantile_key(0.999) == "p99.9"


def test_histogram_summary():
    histogram = obs.Histogram("latency", quantiles=(0.5, 0.9, 0.99))
    summary = histogram.summary()
    assert summary["count"] == 0
    assert summary["mean"] is None and summary["p99"] is None
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == 10.0
    assert summary["mean"] == 2.5
    assert summary["min"] == 1.0 and summary["max"] == 4.0
    assert set(summary) >= {"p50", "p90", "p99"}


def test_serve_stats_expose_latency_percentiles():
    import numpy as np

    from repro.data.synth import CensusIncomeGenerator
    from repro.serve import QueryServer, ServeConfig

    rng = np.random.default_rng(0)
    server = QueryServer(ServeConfig(workers=1, seed=0))
    server.register_table("census", CensusIncomeGenerator().generate(200, rng))
    server.register_tenant("t", epsilon_budget=10.0)
    with server:
        server.submit_batch([
            {"tenant": "t", "kind": "count", "epsilon": 0.1},
            {"tenant": "t", "kind": "count", "epsilon": 0.1},
        ])
    latency = server.stats()["latency"]
    assert latency["count"] == 2
    assert latency["p50"] >= 0.0
    assert latency["max"] >= latency["min"]


# -- configure / no-op default ----------------------------------------------


def test_unconfigured_is_none_and_instrument_noops():
    assert obs.get() is None
    assert not obs.enabled()

    calls = []

    @obs.instrument("noop.fn")
    def fn():
        calls.append(1)
        return 7

    assert fn() == 7 and calls == [1]  # runs fine with telemetry off

    telemetry = obs.configure()
    assert obs.get() is telemetry and obs.enabled()
    assert fn() == 7
    assert telemetry.metrics.histogram("noop.fn.duration").count == 1
    obs.reset()
    assert obs.get() is None


def test_unconfigured_pipeline_output_identical(credit_tables):
    train, _ = credit_tables

    def build():
        return Pipeline([
            CleanStage(),
            TrainStage(TableClassifier(LogisticRegression())),
            PredictStage(),
        ])

    plain = build().run(train, np.random.default_rng(7))
    telemetry = obs.configure()
    traced = build().run(train, np.random.default_rng(7))
    obs.reset()
    # telemetry must not leak into the run's own outputs
    assert plain.context.audit.render() == traced.context.audit.render()
    assert np.array_equal(plain.table.column("score"),
                          traced.table.column("score"))
    assert len(telemetry.tracer.spans) > 0


# -- export ------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    telemetry = obs.configure()
    with telemetry.tracer.span("root", kind="test"):
        with telemetry.tracer.span("inner"):
            pass
    telemetry.metrics.counter("events").inc(3)
    telemetry.metrics.gauge("level").set(0.5)
    telemetry.metrics.histogram("size", buckets=(10.0,)).observe(4.0)
    audit = AuditLog()
    audit.record("tester", "did_thing", howmany=2)

    path = tmp_path / "run.jsonl"
    written = obs.write_telemetry(str(path), telemetry, audit=audit)
    records = obs.read_telemetry(str(path))
    assert len(records) == written
    kinds = {record["record"] for record in records}
    assert kinds == {"span", "metric", "gauge_sample", "audit"}

    spans = [r for r in records if r["record"] == "span"]
    assert {s["name"] for s in spans} == {"root", "inner"}
    inner = next(s for s in spans if s["name"] == "inner")
    root = next(s for s in spans if s["name"] == "root")
    assert inner["parent_id"] == root["span_id"]
    assert root["attributes"] == {"kind": "test"}

    audits = [r for r in records if r["record"] == "audit"]
    assert audits[0]["actor"] == "tester"
    assert audits[0]["detail"] == {"howmany": "2"}

    # timed records are sorted by t
    ts = [r["t"] for r in records if "t" in r]
    assert ts == sorted(ts)


def test_read_telemetry_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(DataError):
        obs.read_telemetry(str(path))
    path.write_text(json.dumps({"no": "record-key"}) + "\n")
    with pytest.raises(DataError):
        obs.read_telemetry(str(path))
    with pytest.raises(DataError):
        obs.read_telemetry(str(tmp_path / "missing.jsonl"))


# -- pipeline integration ----------------------------------------------------


def test_pipeline_run_emits_one_span_per_stage(tmp_path, credit_tables):
    train, _ = credit_tables
    path = tmp_path / "pipeline.jsonl"
    obs.configure(export_path=str(path))
    accountant = PrivacyAccountant(epsilon_budget=1.0)
    accountant.spend(0.25, label="release")
    stages = [
        ValidateSchemaStage(),
        CleanStage(),
        ReweighStage(),
        TrainStage(TableClassifier(LogisticRegression())),
        PredictStage(),
        DecideStage(),
    ]
    Pipeline(stages, accountant=accountant).run(
        train, np.random.default_rng(3)
    )

    records = obs.read_telemetry(str(path))
    spans = [r for r in records if r["record"] == "span"]
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1
    assert roots[0]["name"] == "pipeline.run"
    assert roots[0]["attributes"]["n_stages"] == len(stages)
    stage_spans = [s for s in spans if s["name"].startswith("stage:")]
    assert [s["name"] for s in stage_spans] == [
        f"stage:{stage.name}" for stage in stages
    ]
    for span in stage_spans:
        assert span["parent_id"] == roots[0]["span_id"]
        assert span["attributes"]["n_rows"] > 0
        assert span["attributes"]["n_rows_in"] > 0

    gauge_samples = [r for r in records if r["record"] == "gauge_sample"]
    assert any(r["name"] == "privacy.epsilon_spent" and r["value"] == 0.25
               for r in gauge_samples)
    assert any(r["name"] == "privacy.epsilon_remaining"
               for r in gauge_samples)
    # model fit/predict histograms rode along
    histograms = {r["name"] for r in records
                  if r["record"] == "metric" and r["kind"] == "histogram"}
    assert "table_classifier.fit.duration" in histograms
    assert "table_classifier.predict.duration" in histograms
    # the audit trail is merged into the same file
    assert any(r["record"] == "audit" and r["action"] == "run_finished"
               for r in records)


def test_monitor_alarm_counters_by_kind(rng):
    telemetry = obs.configure()
    monitor = FairnessDriftMonitor(
        rng.uniform(size=500), psi_threshold=0.1, min_accuracy=0.9
    )
    scores = rng.uniform(0.5, 1.0, size=200)
    group = np.array(["A"] * 100 + ["B"] * 100)
    monitor.observe(scores, group=group, y_true=np.zeros(200))
    monitor.observe(rng.uniform(size=200))

    assert telemetry.metrics.counter("monitor.batches").value == 2.0
    assert telemetry.metrics.counter(
        "monitor.alarms", kind="population_drift"
    ).value == 1.0
    assert telemetry.metrics.counter(
        "monitor.alarms", kind="accuracy_drift"
    ).value == 1.0
    assert telemetry.metrics.histogram("monitor.psi").count == 2


# -- satellite regressions ---------------------------------------------------


def test_psi_constant_reference_no_longer_silent():
    reference = np.full(100, 0.5)
    with pytest.warns(RuntimeWarning, match="near-.?constant"):
        psi = population_stability_index(reference, np.full(50, 0.9))
    assert psi > 0.25  # the drift is now visible
    with pytest.warns(RuntimeWarning):
        same = population_stability_index(reference, np.full(50, 0.5))
    assert same == 0.0  # identical point masses genuinely agree


def test_psi_healthy_reference_unchanged(rng):
    import warnings

    reference = rng.uniform(size=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = population_stability_index(reference, rng.uniform(size=400))
    assert psi < 0.1


def test_audit_log_to_dicts_and_jsonl(tmp_path):
    log = AuditLog()
    log.record("alice", "approved", amount=3)
    log.record("bob", "rejected")
    dicts = log.to_dicts()
    assert [d["sequence"] for d in dicts] == [0, 1]
    assert dicts[0]["detail"] == {"amount": "3"}
    assert dicts[0]["timestamp"] is None
    path = tmp_path / "audit.jsonl"
    assert log.to_jsonl(str(path)) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == dicts


def test_audit_log_with_clock_stamps_events():
    log = AuditLog(clock=obs.TickClock(start=100))
    event = log.record("deploy", "rollout")
    assert event.timestamp == 100.0
    assert "@100" in event.render()
    assert log.to_dicts()[0]["timestamp"] == 100.0
    # default stays timestamp-free (byte-reproducible)
    assert AuditLog().record("a", "b").timestamp is None


# -- CLI ---------------------------------------------------------------------


def test_cli_telemetry_renders_tree_and_metrics(tmp_path, capsys,
                                                credit_tables):
    from repro.cli import main

    train, _ = credit_tables
    path = tmp_path / "run.jsonl"
    obs.configure(export_path=str(path))
    Pipeline([
        CleanStage(), TrainStage(TableClassifier(LogisticRegression())),
    ]).run(train, np.random.default_rng(0))
    obs.reset()

    assert main(["telemetry", str(path)]) == 0
    out = capsys.readouterr().out
    assert "span tree:" in out
    assert "pipeline.run" in out
    assert "stage:clean" in out
    assert "table_classifier.fit.duration" in out
    assert "audit trail:" in out


def test_cli_telemetry_missing_file_is_an_error(tmp_path, capsys):
    from repro.cli import main

    assert main(["telemetry", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err
