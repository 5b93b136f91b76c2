"""Tests for ``repro.engine`` — the dataflow-plan runtime.

The contract under test is the one every runner now leans on: a plan's
results are *bit-identical* for every ``n_jobs``/backend/store
combination, malformed wiring fails loudly at construction time, and
caching/observability/provenance all flow through the single executor
code path.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import FACTAuditor
from repro.data.synth import CreditScoringGenerator
from repro.engine import Executor, Node, Plan, seed_identity
from repro.exceptions import DataError, PlanError
from repro.learn.linear import LogisticRegression
from repro.learn.table_model import TableClassifier
from repro.pipeline import ProvenanceGraph
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset()
    yield
    obs.reset()


def _merge(inputs, rng):
    return np.concatenate([inputs["left"], inputs["right"]])


def _make_plan(scale=1.0):
    """base -> (left, right) -> merge; left/right draw spawned noise."""

    def left(inputs, rng):
        return inputs["base"] * scale + rng.standard_normal(
            inputs["base"].shape
        )

    def right(inputs, rng):
        return inputs["base"] - rng.standard_normal(inputs["base"].shape)

    return Plan(
        [
            Node("left", left, inputs=("base",), rng="spawn",
                 params={"scale": scale}),
            Node("right", right, inputs=("base",), rng="spawn"),
            Node("merge", _merge, inputs=("left", "right")),
        ],
        inputs=("base",),
    )


BASE = np.arange(16, dtype=np.float64)


# -- plan validation ---------------------------------------------------------


def test_plan_rejects_duplicate_node_name():
    with pytest.raises(PlanError, match="duplicate node name 'a'"):
        Plan([Node("a", _merge), Node("a", _merge)])


def test_plan_rejects_unknown_dependency():
    with pytest.raises(PlanError, match="consumes 'ghost'"):
        Plan([Node("a", _merge, inputs=("ghost",))])


def test_plan_rejects_cycle():
    with pytest.raises(PlanError, match="cycle through: a, b"):
        Plan([
            Node("a", _merge, inputs=("b",)),
            Node("b", _merge, inputs=("a",)),
        ])


def test_plan_rejects_empty_and_non_node():
    with pytest.raises(PlanError, match="at least one node"):
        Plan([])
    with pytest.raises(PlanError, match="built from Node objects"):
        Plan(["not a node"])


def test_plan_rejects_input_name_clash():
    with pytest.raises(PlanError, match="collide"):
        Plan([Node("table", _merge)], inputs=("table",))


def test_node_rejects_bad_rng_mode_and_conflicting_identity():
    with pytest.raises(PlanError, match="rng must be one of"):
        Node("a", _merge, rng="fork")
    with pytest.raises(PlanError, match="key_parts or params, not both"):
        Node("a", _merge, params={"x": 1}, key_parts={"x": 1})


def test_plan_levels_follow_dependencies():
    plan = _make_plan()
    levels = plan.levels()
    assert [[n.name for n in level] for level in levels] == [
        ["left", "right"], ["merge"],
    ]
    assert [n.name for n in plan.nodes] == ["left", "right", "merge"]
    assert [n.name for n in plan.sinks] == ["merge"]
    assert "left" in plan and "ghost" not in plan
    assert len(plan) == 3
    assert "merge <- left, right" in plan.describe()


def test_plan_fingerprint_tracks_structure_not_params():
    assert _make_plan(1.0).fingerprint() == _make_plan(2.0).fingerprint()
    other = Plan([Node("solo", _merge)])
    assert other.fingerprint() != _make_plan().fingerprint()


# -- executor input validation ----------------------------------------------


def test_executor_validates_supplied_inputs():
    executor = Executor()
    with pytest.raises(PlanError, match="inputs not supplied"):
        executor.run(_make_plan(), {}, rng=np.random.default_rng(0))
    with pytest.raises(PlanError, match="unknown plan inputs"):
        executor.run(
            _make_plan(), {"base": BASE, "extra": 1},
            rng=np.random.default_rng(0),
        )


def test_spawn_rng_requires_generator():
    with pytest.raises(PlanError, match="rng='spawn'"):
        Executor().run(_make_plan(), {"base": BASE})


def test_plan_result_output_requires_single_sink():
    plan = Plan([Node("a", lambda i, r: 1), Node("b", lambda i, r: 2)])
    result = Executor().run(plan)
    assert result["a"] == 1 and result["b"] == 2
    assert "a" in result and "missing" not in result
    with pytest.raises(PlanError, match="2 sink nodes"):
        result.output
    with pytest.raises(PlanError, match="no result named"):
        result["missing"]


# -- determinism --------------------------------------------------------------


def test_results_byte_identical_across_n_jobs_backends_and_store():
    baseline = Executor(n_jobs=1, backend="serial").run(
        _make_plan(), {"base": BASE}, rng=np.random.default_rng(7)
    )
    reference = baseline.output.tobytes()
    for n_jobs in (1, 2, 4):
        for backend in ("serial", "thread"):
            for store in (None, ArtifactStore()):
                result = Executor(n_jobs=n_jobs, backend=backend).run(
                    _make_plan(), {"base": BASE},
                    rng=np.random.default_rng(7), store=store,
                )
                assert result.output.tobytes() == reference, (
                    f"n_jobs={n_jobs} backend={backend} "
                    f"store={'on' if store else 'off'}"
                )


def test_spawn_streams_are_isolated_between_nodes():
    # Changing one node's parameters must not shift its sibling's
    # stream: seeds are assigned positionally in plan order.
    base_run = Executor().run(
        _make_plan(1.0), {"base": BASE}, rng=np.random.default_rng(3)
    )
    scaled_run = Executor().run(
        _make_plan(5.0), {"base": BASE}, rng=np.random.default_rng(3)
    )
    assert (scaled_run["right"].tobytes() == base_run["right"].tobytes())
    assert (scaled_run["left"].tobytes() != base_run["left"].tobytes())


def test_plan_without_spawn_nodes_leaves_rng_untouched():
    plan = Plan([Node("a", lambda i, r: 42)])
    rng = np.random.default_rng(11)
    Executor().run(plan, rng=rng)
    untouched = np.random.default_rng(11)
    assert rng.standard_normal() == untouched.standard_normal()


def test_seed_identity_pins_the_child_stream():
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    seed_a = rng_a.bit_generator.seed_seq.spawn(1)[0]
    seed_b = rng_b.bit_generator.seed_seq.spawn(1)[0]
    assert seed_identity(seed_a) == seed_identity(seed_b)
    other = np.random.default_rng(2).bit_generator.seed_seq.spawn(1)[0]
    assert seed_identity(other) != seed_identity(seed_a)


# -- memoisation --------------------------------------------------------------


def test_incremental_recompute_through_store():
    store = ArtifactStore()
    rng = lambda: np.random.default_rng(7)  # noqa: E731

    cold = Executor().run(_make_plan(), {"base": BASE}, rng=rng(),
                          store=store)
    assert cold.statuses == {
        "left": "miss", "right": "miss", "merge": "miss",
    }
    warm = Executor().run(_make_plan(), {"base": BASE}, rng=rng(),
                          store=store)
    assert warm.statuses == {
        "left": "hit", "right": "hit", "merge": "hit",
    }
    assert warm.output.tobytes() == cold.output.tobytes()

    # One parameter changed: that node misses, its sibling replays, and
    # the downstream consumer recomputes because its input changed.
    changed = Executor().run(_make_plan(2.0), {"base": BASE}, rng=rng(),
                             store=store)
    assert changed.statuses == {
        "left": "miss", "right": "hit", "merge": "miss",
    }


def test_uncacheable_node_bypasses_the_store():
    store = ArtifactStore()
    plan = Plan([Node("noisy", lambda i, r: 99, cacheable=False)])
    for _ in range(2):
        result = Executor().run(plan, store=store)
        assert result.statuses == {"noisy": "uncacheable"}
    assert len(store) == 0


def test_lazy_key_params_never_evaluated_without_store():
    def poisoned_params():
        raise AssertionError("key params evaluated without a store")

    plan = Plan([Node("a", lambda i, r: 1, params=poisoned_params)])
    assert Executor().run(plan).output == 1
    with pytest.raises(AssertionError, match="evaluated without"):
        Executor().run(plan, store=ArtifactStore())


def test_key_parts_override_is_exact():
    from repro.store import fingerprint

    node = Node("q", key_parts={"table": "t", "epsilon": 1.0})
    assert node.key() == fingerprint(table="t", epsilon=1.0)


def test_representation_only_node_cannot_run():
    with pytest.raises(PlanError, match="representation-only"):
        Executor().run(Plan([Node("q", None)]))


# -- error propagation --------------------------------------------------------


def _boom(inputs, rng):
    raise DataError("section exploded")


def test_node_errors_propagate_unwrapped_inline_and_pooled():
    plan = Plan([
        Node("ok", lambda i, r: 1, cacheable=False),
        Node("bad", _boom, cacheable=False),
    ])
    with pytest.raises(DataError, match="section exploded"):
        Executor(n_jobs=1, backend="serial").run(plan)
    with pytest.raises(DataError, match="section exploded"):
        Executor(n_jobs=2, backend="thread").run(plan)


# -- observability ------------------------------------------------------------


def test_node_spans_carry_cache_attribute():
    telemetry = obs.configure()
    store = ArtifactStore()
    for _ in range(2):
        Executor(name="engine").run(
            _make_plan(), {"base": BASE},
            rng=np.random.default_rng(7), store=store,
        )
    spans = [r for r in telemetry.to_dicts() if r.get("record") == "span"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(
            span["attributes"].get("cache")
        )
    assert by_name["engine:left"] == ["miss", "hit"]
    assert by_name["engine:right"] == ["miss", "hit"]
    assert by_name["engine:merge"] == ["miss", "hit"]

    summary = obs.render_cache_summary(telemetry.to_dicts())
    assert "cache outcomes:" in summary
    assert "engine:merge" in summary


def test_cache_summary_empty_for_pre_engine_telemetry():
    telemetry = obs.configure()
    with telemetry.tracer.span("plain"):
        pass
    assert obs.render_cache_summary(telemetry.to_dicts()) == ""


def test_observe_false_silences_node_spans():
    telemetry = obs.configure()
    Executor(observe=False).run(Plan([Node("quiet", lambda i, r: 1)]))
    assert telemetry.tracer.spans == []


def test_annotate_adds_result_derived_attributes():
    telemetry = obs.configure()
    plan = Plan([
        Node("sized", lambda i, r: [1, 2, 3],
             annotate=lambda value, inputs: {"n_items": len(value)}),
    ])
    Executor(name="engine").run(plan)
    (span,) = telemetry.tracer.spans
    assert span.attributes["n_items"] == 3
    assert span.attributes["cache"] == "uncacheable"


# -- provenance ---------------------------------------------------------------


def test_executor_records_plan_lineage():
    graph = ProvenanceGraph()
    Executor().run(
        _make_plan(), {"base": BASE},
        rng=np.random.default_rng(5), provenance=graph,
    )
    assert graph.n_steps == 3            # one step per node
    assert graph.n_artifacts == 4        # plan input + three outputs
    nxg = graph.to_networkx()
    names = [data["node"].name for _, data in nxg.nodes(data=True)
             if data["bipartite"] == "step"]
    assert names == ["left", "right", "merge"]


# -- the auditor's pillar plan (RNG stream isolation regression) -------------


@pytest.fixture(scope="module")
def audit_subject():
    rng = np.random.default_rng(404)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train, test = generator.generate_pair(900, 400, rng)
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, test


def _audit(audit_subject, *, store=None, n_jobs=1, backend="serial", **kw):
    model, test = audit_subject
    auditor = FACTAuditor(n_bootstrap=40, n_jobs=n_jobs, backend=backend,
                          store=store, **kw)
    return auditor.audit(model, test, np.random.default_rng(11))


def test_audit_plan_has_four_concurrent_sections(audit_subject):
    # A plain table is the one-shard map/combine plan: one map node,
    # then the four pillar sections together on the next level.
    model, test = audit_subject
    plan = FACTAuditor().build_plan(model, test)
    maps, sections = plan.levels()
    assert [node.name for node in maps] == ["partial.shard0"]
    assert sorted(node.name for node in sections) == [
        "accuracy", "confidentiality", "fairness", "transparency",
    ]
    assert plan.node("accuracy").rng == "spawn"
    assert plan.node("transparency").rng == "spawn"


def test_audit_identical_with_and_without_store(audit_subject):
    bare = _audit(audit_subject)
    stored = _audit(audit_subject, store=ArtifactStore())
    assert bare.fingerprint() == stored.fingerprint()


def test_audit_byte_identical_across_n_jobs_and_backends(audit_subject):
    reference = _audit(audit_subject).fingerprint()
    for n_jobs, backend in ((2, "thread"), (4, "thread"), (2, "serial")):
        report = _audit(audit_subject, n_jobs=n_jobs, backend=backend)
        assert report.fingerprint() == reference, (
            f"n_jobs={n_jobs} backend={backend}"
        )


def test_audit_sections_isolated_from_each_other(audit_subject):
    # Deepening the surrogate must change only the transparency pillar:
    # the other sections' spawned streams and results stay bit-for-bit.
    base = _audit(audit_subject).to_dict()
    deeper = _audit(audit_subject, surrogate_depth=6).to_dict()
    assert deeper["fairness"] == base["fairness"]
    assert deeper["accuracy"] == base["accuracy"]
    assert deeper["confidentiality"] == base["confidentiality"]
