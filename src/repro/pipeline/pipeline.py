"""The FACT-instrumented pipeline runner (S9).

A :class:`Pipeline` threads a table through its stages while the
:class:`PipelineContext` records everything the four pillars later need:
every stage lands in the provenance graph with its parameters, every
action in the audit log, privacy spending in the accountant's ledger.
``provenance="off"`` runs the same stages bare — the contrast measured
by ablation A3 / experiment E10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.confidentiality.accountant import PrivacyAccountant
from repro.data.table import Table
from repro.engine import Executor, NodeRun, Plan
from repro.exceptions import DataError
from repro.learn.table_model import TableClassifier
from repro.pipeline.audit_log import AuditLog
from repro.pipeline.provenance import Artifact, ProvenanceGraph
from repro.pipeline.stage import Stage
from repro.store import resolve_store

PROVENANCE_MODES = ("off", "stage", "fingerprint")


@dataclass
class PipelineContext:
    """Mutable cross-cutting state shared by a pipeline run."""

    rng: np.random.Generator
    provenance: ProvenanceGraph | None = None
    audit: AuditLog = field(default_factory=AuditLog)
    accountant: PrivacyAccountant | None = None
    model: TableClassifier | None = None
    sample_weight: np.ndarray | None = None
    extras: dict[str, object] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    table: Table
    context: PipelineContext
    final_artifact: Artifact | None = None

    @property
    def model(self) -> TableClassifier | None:
        """The model trained during the run, if any."""
        return self.context.model

    def lineage(self) -> str:
        """Rendered lineage of the final table."""
        if self.context.provenance is None or self.final_artifact is None:
            return "provenance disabled"
        return self.context.provenance.render_lineage(self.final_artifact)


class Pipeline:
    """An ordered list of stages with FACT instrumentation.

    Parameters
    ----------
    stages:
        The steps, executed in order.
    provenance:
        ``"fingerprint"`` (default) — record every stage and fingerprint
        every intermediate table; ``"stage"`` — record stages with cheap
        shape-only artefact identities; ``"off"`` — no recording at all.
    accountant:
        Optional privacy accountant made available to stages.
    actor:
        Name written into the audit log for this pipeline's actions.
    store:
        An :class:`~repro.store.ArtifactStore` replaying the output
        tables of **cacheable** stages (pure table transforms like
        ``clean``/``redact``/``di_repair``/``predict``/``decide``);
        ``None`` defers to ``$REPRO_STORE`` (unset: no caching).  Each
        cacheable stage is keyed on its input table's full content, its
        parameters, its compiled code, and any context it reads, so a
        warm run recomputes only the stages whose inputs changed.
        Provenance and the audit log record hits exactly as they record
        recomputes — the trail is byte-identical either way.
    """

    def __init__(self, stages: list[Stage],
                 provenance: str = "fingerprint",
                 accountant: PrivacyAccountant | None = None,
                 actor: str = "pipeline",
                 store=None):
        if not stages:
            raise DataError("pipeline needs at least one stage")
        if provenance not in PROVENANCE_MODES:
            raise DataError(
                f"provenance must be one of {PROVENANCE_MODES}, got {provenance!r}"
            )
        self.stages = list(stages)
        self.provenance_mode = provenance
        self.accountant = accountant
        self.actor = actor
        self.store = store

    def build_plan(self, context: PipelineContext) -> Plan:
        """The pipeline as a linear :class:`repro.engine.Plan`.

        One node per stage, chained on a single external input named
        ``"table"``.  Node names are position-qualified so a pipeline
        may legally repeat a stage; labels stay the bare stage names, so
        spans (``stage:<name>``), audit events, and provenance steps
        read exactly as before the engine refactor.
        """
        nodes = []
        previous = "table"
        for index, stage in enumerate(self.stages):
            node_name = f"stage{index}:{stage.name}"
            nodes.append(stage.as_node(node_name, previous, context))
            previous = node_name
        return Plan(nodes, inputs=("table",))

    def _register(self, graph: ProvenanceGraph, table: Table,
                  description: str) -> Artifact:
        if self.provenance_mode == "fingerprint":
            return graph.add_table(table, description)
        return graph.add_artifact(
            "table", f"shape:{table.n_rows}x{table.n_columns}", description
        )

    def run(self, table: Table, rng: np.random.Generator) -> PipelineResult:
        """Execute all stages; return the final table plus the FACT trail.

        The stages run as a linear plan on :class:`repro.engine.Executor`
        — memoisation, stage spans (now carrying a
        ``cache="hit"|"miss"|"uncacheable"`` attribute), and the shared
        generator's replay continuity all come from the engine.  When
        :func:`repro.obs.configure` is active, the run opens a root span
        (``pipeline.run``) with one child span per stage carrying row
        counts and the stage's parameters, samples the privacy
        accountant's budget gauges, and flushes merged JSONL telemetry
        to the configured export path.  Unconfigured runs produce
        byte-identical output.
        """
        telemetry = obs.get()
        store = resolve_store(self.store)
        graph = None if self.provenance_mode == "off" else ProvenanceGraph()
        context = PipelineContext(
            rng=rng, provenance=graph, accountant=self.accountant
        )
        current = table
        artifact = None
        root = None
        if telemetry is not None:
            root = telemetry.tracer.start_span(
                "pipeline.run", actor=self.actor, n_stages=len(self.stages),
                n_rows=table.n_rows, provenance=self.provenance_mode,
            )
        try:
            if graph is not None:
                artifact = self._register(graph, current, "pipeline input")
            context.audit.record(self.actor, "run_started",
                                 n_rows=table.n_rows,
                                 n_stages=len(self.stages))
            trail = {"table": current, "artifact": artifact}

            def observer(run: NodeRun) -> None:
                # Fires on the coordinator after each stage commits, in
                # stage order — the audit log and provenance graph read
                # exactly as they did under the hand-rolled loop.
                trail["table"] = run.value
                context.audit.record(
                    self.actor, f"stage:{run.label}", n_rows=run.value.n_rows
                )
                if graph is not None:
                    next_artifact = self._register(
                        graph, run.value, f"after {run.label}"
                    )
                    graph.record_step(
                        run.label, [trail["artifact"]], [next_artifact],
                        run.node.record_params,
                    )
                    trail["artifact"] = next_artifact

            executor = Executor(n_jobs=1, name="stage")
            plan_result = executor.run(
                self.build_plan(context), {"table": table},
                store=store, rng=context.rng, observer=observer,
            )
            current = plan_result.output
            artifact = trail["artifact"]
            context.audit.record(self.actor, "run_finished",
                                 n_rows=current.n_rows)
        finally:
            if telemetry is not None:
                if root is not None and not root.finished:
                    root.set_attribute("n_rows_out", current.n_rows)
                    telemetry.tracer.end_span(root)
                if self.accountant is not None:
                    telemetry.metrics.gauge("privacy.epsilon_spent").set(
                        self.accountant.epsilon_spent
                    )
                    telemetry.metrics.gauge("privacy.epsilon_remaining").set(
                        self.accountant.epsilon_remaining
                    )
                    telemetry.metrics.gauge("privacy.delta_spent").set(
                        self.accountant.delta_spent
                    )
                telemetry.flush(audit=context.audit)
        return PipelineResult(
            table=current, context=context, final_artifact=artifact
        )

    def describe(self) -> str:
        """The pipeline's stage list as text (design-time transparency)."""
        lines = [f"pipeline ({self.provenance_mode} provenance):"]
        for index, stage in enumerate(self.stages):
            rendered = ", ".join(
                f"{key}={value!r}" for key, value in stage.params().items()
                if not isinstance(value, (TableClassifier,))
            )
            lines.append(f"  {index + 1}. {stage.name}({rendered})")
        return "\n".join(lines)
