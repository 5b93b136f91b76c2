"""Unit tests for the pipeline substrate: stages, runner, provenance, audit."""

import numpy as np
import pytest

from repro.data.schema import numeric
from repro.exceptions import DataError, ProvenanceError
from repro.learn import LogisticRegression, TableClassifier
from repro.pipeline import (
    AuditLog,
    CleanStage,
    DecideStage,
    FunctionStage,
    Pipeline,
    PredictStage,
    ProvenanceGraph,
    RedactStage,
    RepairStage,
    ReweighStage,
    TrainStage,
    ValidateSchemaStage,
)
from repro.store import table_fingerprint


def standard_pipeline(provenance="fingerprint"):
    return Pipeline([
        ValidateSchemaStage(),
        CleanStage(),
        TrainStage(TableClassifier(LogisticRegression())),
        PredictStage(),
        DecideStage(),
    ], provenance=provenance)


# -- provenance graph ----------------------------------------------------------

def test_fingerprint_is_content_sensitive(credit_tables):
    train, test = credit_tables
    assert table_fingerprint(train) == table_fingerprint(train)
    assert table_fingerprint(train) != table_fingerprint(test)


def test_fingerprint_detects_single_value_change(small_table):
    modified = small_table.with_column(
        small_table.schema["income"],
        [10.0, 20.0, 30.0, 40.0, 50.0, 61.0],
    )
    assert table_fingerprint(small_table) != table_fingerprint(modified)


def test_artifacts_differ_outside_any_row_sample(census_tables):
    # A 64-row sample of the 1,200-row table reads every 18th row (0,
    # 18, 36, …); rows 1 and 2 lie outside it, and editing either must
    # still give a different artefact.
    table, _ = census_tables
    hours = np.array(table.column("hours_per_week"))
    hours[1] += 1.0
    edited = table.with_column(table.schema["hours_per_week"], hours)
    zipcodes = np.array(table.column("zipcode"))
    zipcodes[2] = zipcodes[2] + "x"
    renamed = table.with_column(table.schema["zipcode"], zipcodes)
    graph = ProvenanceGraph()
    fingerprints = {
        graph.add_table(candidate).fingerprint
        for candidate in (table, edited, renamed)
    }
    assert len(fingerprints) == 3


def test_final_artifact_names_the_table_like_the_store(credit_tables, rng):
    train, _ = credit_tables
    result = standard_pipeline("fingerprint").run(train, rng)
    assert result.final_artifact.fingerprint == table_fingerprint(result.table)


def test_provenance_lineage(small_table):
    graph = ProvenanceGraph()
    raw = graph.add_table(small_table, "raw")
    cleaned = graph.add_table(small_table, "cleaned")
    model = graph.add_artifact("model", "fp1", "trained model")
    graph.record_step("clean", [raw], [cleaned], {"drop_nan": True})
    graph.record_step("train", [cleaned], [model], {"l2": 1.0})
    lineage = graph.lineage(model)
    assert [step.name for step in lineage] == ["clean", "train"]
    assert lineage[1].params_dict()["l2"] == "1.0"
    assert graph.n_artifacts == 3
    assert graph.n_steps == 2


def test_provenance_downstream(small_table):
    graph = ProvenanceGraph()
    raw = graph.add_table(small_table, "raw")
    derived = graph.add_table(small_table, "derived")
    report = graph.add_artifact("report", "fp", "fact report")
    graph.record_step("transform", [raw], [derived])
    graph.record_step("audit", [derived], [report])
    downstream = graph.downstream(raw)
    assert {artifact.kind for artifact in downstream} == {"table", "report"}


def test_provenance_unknown_artifact(small_table):
    graph = ProvenanceGraph()
    from repro.pipeline.provenance import Artifact

    ghost = Artifact("ghost_1", "table", "fp")
    with pytest.raises(ProvenanceError):
        graph.record_step("step", [ghost], [])
    with pytest.raises(ProvenanceError):
        graph.lineage(ghost)


def test_render_lineage(small_table):
    graph = ProvenanceGraph()
    raw = graph.add_table(small_table)
    out = graph.add_table(small_table)
    graph.record_step("clean", [raw], [out], {"clips": {}})
    text = graph.render_lineage(out)
    assert "clean" in text and "<-" in text


# -- audit log ------------------------------------------------------------------

def test_audit_log_sequencing():
    log = AuditLog()
    log.record("alice", "ingest", rows=100)
    log.record("bob", "train", model="lr")
    assert len(log) == 2
    events = list(log)
    assert events[0].sequence == 0
    assert events[1].actor == "bob"
    assert "rows=100" in events[0].render()


def test_audit_log_filtering():
    log = AuditLog()
    log.record("alice", "ingest")
    log.record("alice", "train")
    log.record("bob", "train")
    assert len(log.events(actor="alice")) == 2
    assert len(log.events(action="train")) == 2
    assert len(log.events(actor="bob", action="train")) == 1
    assert "train" in log.render(last=1)


# -- stages --------------------------------------------------------------------

def test_validate_schema_stage(credit_tables):
    train, _ = credit_tables
    pipeline = Pipeline([ValidateSchemaStage(required_columns=["income"])])
    result = pipeline.run(train, np.random.default_rng(0))
    assert result.table is train

    from repro.data.table import Table

    bare = Table.from_dict({"x": [1.0, 2.0]})
    with pytest.raises(DataError, match="TARGET"):
        pipeline.run(bare, np.random.default_rng(0))


def test_clean_stage_drops_nan_and_clips(rng):
    from repro.data.table import Table

    table = Table.from_dict({
        "x": [1.0, float("nan"), 100.0],
        "y": [0.0, 1.0, 1.0],
    })
    pipeline = Pipeline([CleanStage(clips={"x": (0.0, 10.0)})])
    result = pipeline.run(table, rng)
    assert result.table.n_rows == 2
    assert result.table["x"].max() == 10.0


def test_redact_stage_strips_oracles(credit_tables, rng):
    train, _ = credit_tables
    result = Pipeline([RedactStage()]).run(train, rng)
    assert "qualified" not in result.table


def test_repair_stage(credit_tables, rng):
    train, _ = credit_tables
    result = Pipeline([RepairStage(repair_level=1.0)]).run(train, rng)
    assert result.table.n_rows == train.n_rows


def test_train_predict_decide_flow(credit_tables, rng):
    train, _ = credit_tables
    result = standard_pipeline().run(train, rng)
    assert result.model is not None
    assert "score" in result.table
    assert "decision" in result.table
    decisions = result.table["decision"]
    assert set(np.unique(decisions)) <= {0.0, 1.0}


def test_reweigh_stage_feeds_training(credit_tables, rng):
    train, test = credit_tables
    plain = standard_pipeline().run(train, rng)
    fair = Pipeline([
        ValidateSchemaStage(), ReweighStage(),
        TrainStage(TableClassifier(LogisticRegression())),
    ]).run(train, rng)
    from repro.fairness import audit_model

    plain_di = audit_model(plain.model, test).disparate_impact_ratio
    fair_di = audit_model(fair.model, test).disparate_impact_ratio
    assert fair_di > plain_di


def test_predict_without_model_fails(credit_tables, rng):
    train, _ = credit_tables
    with pytest.raises(DataError, match="model"):
        Pipeline([PredictStage()]).run(train, rng)


def test_function_stage(credit_tables, rng):
    train, _ = credit_tables
    stage = FunctionStage(
        "halve", lambda table: table.take(range(table.n_rows // 2)), note="demo"
    )
    result = Pipeline([stage]).run(train, rng)
    assert result.table.n_rows == train.n_rows // 2
    assert stage.params() == {"note": "demo"}


# -- runner -----------------------------------------------------------------------

def test_pipeline_records_provenance(credit_tables, rng):
    train, _ = credit_tables
    result = standard_pipeline().run(train, rng)
    graph = result.context.provenance
    assert graph.n_steps == 5
    assert graph.n_artifacts == 6  # input + one per stage
    lineage = result.lineage()
    for stage_name in ("validate_schema", "clean", "train", "predict", "decide"):
        assert stage_name in lineage
    assert len(result.context.audit) == 7  # start + 5 stages + finish


def test_pipeline_provenance_off(credit_tables, rng):
    train, _ = credit_tables
    result = standard_pipeline(provenance="off").run(train, rng)
    assert result.context.provenance is None
    assert result.lineage() == "provenance disabled"


def test_pipeline_provenance_stage_mode(credit_tables, rng):
    train, _ = credit_tables
    result = standard_pipeline(provenance="stage").run(train, rng)
    assert result.final_artifact.fingerprint.startswith("shape:")


def test_pipeline_validation():
    with pytest.raises(DataError):
        Pipeline([])
    with pytest.raises(DataError):
        Pipeline([CleanStage()], provenance="maybe")


def test_pipeline_describe(credit_tables):
    pipeline = standard_pipeline()
    text = pipeline.describe()
    assert "1. validate_schema" in text
    assert "5. decide" in text


def test_impute_stage_fills_and_freezes_statistics(rng):
    from repro.data.table import Table
    from repro.pipeline import ImputeStage

    train_like = Table.from_dict({
        "x": [1.0, 3.0, float("nan")],
        "y": [0.0, 1.0, 1.0],
    })
    stage = ImputeStage()
    pipeline = Pipeline([stage])
    filled = pipeline.run(train_like, rng).table
    assert filled["x"][2] == 2.0
    # Second run through the SAME stage reuses the first run's statistics.
    fresh = Table.from_dict({
        "x": [float("nan"), 100.0],
        "y": [0.0, 1.0],
    }, schema=train_like.schema)
    refilled = stage.apply(fresh, None)
    assert refilled["x"][0] == 2.0
