"""``Executor``: runs a :class:`~repro.engine.plan.Plan` responsibly.

One runtime under :class:`~repro.pipeline.pipeline.Pipeline` and
:class:`~repro.core.auditor.FACTAuditor` — the FACT instrumentation
lives *here*, in the execution substrate, instead of being
re-implemented at every call site:

* **Concurrency without nondeterminism.**  The plan's levels run in
  order; within a level, independent ready nodes fan out through
  :class:`repro.parallel.ParallelExecutor`.  Each ``rng="spawn"`` node
  owns a ``SeedSequence`` child spawned positionally in plan order on
  the coordinator, so every result is bit-identical for every
  ``n_jobs`` — parallelism changes wall-clock, never bytes.
* **One node runner.**  For each level the coordinator keys, looks up
  and commits every node in plan order, and only the misses fan out,
  as node computations in one :meth:`ParallelExecutor.call` on the
  executor's thread pool, so workers only compute.  A run without a
  store keys nothing, so it pays no fingerprinting cost.
* **Observability per node.**  With :mod:`repro.obs` configured, each
  node gets a span named ``{executor.name}:{node.label}`` carrying the
  cache outcome (``hit``/``miss``/``uncacheable``) and its logical wait
  behind the level barrier.  Spans are recorded on the coordinator in
  plan order after each level drains, and :class:`ParallelExecutor`
  adopts its thread tasks' spans in task order, so TickClock telemetry
  stays byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro.engine.node import Node, seed_identity, value_fingerprint
from repro.engine.plan import Plan
from repro.exceptions import PlanError
from repro.parallel.executor import ParallelExecutor, ParallelTaskError
from repro.parallel.rng import spawn_seeds
from repro.store.store import Spilled

_ABSENT = object()


def _check_fields(node: Node, value) -> None:
    """A spill node's value must be a dict of exactly its declared fields."""
    if not isinstance(value, dict):
        raise PlanError(
            f"spill node {node.name!r} must return a dict of its fields "
            f"{list(node.spill)}, got {type(value).__name__}"
        )
    for field in value:
        if field not in node.spill:
            raise PlanError(
                f"spill node {node.name!r} returned the undeclared field "
                f"{field!r}; it declares {list(node.spill)}"
            )
    for field in node.spill:
        if field not in value:
            raise PlanError(
                f"spill node {node.name!r} did not return its declared "
                f"field {field!r}"
            )


@dataclass
class NodeRun:
    """What happened to one node during :meth:`Executor.run`."""

    node: Node
    value: object
    status: str  # "hit" | "miss" | "uncacheable"
    index: int   # position in the plan's topological order
    level: int   # dependency depth

    @property
    def name(self) -> str:
        """The node's plan-unique name."""
        return self.node.name

    @property
    def label(self) -> str:
        """The node's display label (spans, provenance steps)."""
        return self.node.label


class PlanResult:
    """Every value a plan produced, plus the per-node cache outcomes."""

    def __init__(self, plan: Plan, results: dict,
                 runs: tuple[NodeRun, ...]):
        self.plan = plan
        self.results = results
        self.runs = runs

    def __getitem__(self, name: str):
        if name not in self.results:
            raise PlanError(
                f"no result named {name!r}; have {sorted(self.results)}"
            )
        return self.results[name]

    def __contains__(self, name: str) -> bool:
        return name in self.results

    @property
    def statuses(self) -> dict[str, str]:
        """Cache outcome per node name (``hit``/``miss``/``uncacheable``)."""
        return {run.name: run.status for run in self.runs}

    @property
    def output(self):
        """The single sink node's value (the common linear-plan case)."""
        sinks = self.plan.sinks
        if len(sinks) != 1:
            raise PlanError(
                f"plan has {len(sinks)} sink nodes "
                f"({[node.name for node in sinks]}); "
                "pick results by name instead"
            )
        return self.results[sinks[0].name]


class Executor:
    """Walks a plan level by level; concurrent, memoised, observed.

    Parameters
    ----------
    n_jobs:
        Threads computing a level's misses; ``1`` (the default) computes
        them inline, ``None`` defers to ``$REPRO_N_JOBS`` then 1, ``-1``
        uses every core.
    name:
        Span prefix: node spans are named ``{name}:{node.label}``.
        Computed nodes count under ``{name}.pool``.
    """

    def __init__(self, n_jobs: int | None = 1, name: str = "engine"):
        self._pool = ParallelExecutor(n_jobs=n_jobs, chunk_size=1,
                                      name=f"{name}.pool")
        self.n_jobs = self._pool.n_jobs
        self.name = name

    # -- public API ---------------------------------------------------------

    def run(self, plan: Plan, inputs: Mapping[str, object] | None = None, *,
            store=None, rng: np.random.Generator | None = None,
            observer: Callable[[NodeRun], None] | None = None) -> PlanResult:
        """Execute every node; returns a :class:`PlanResult`.

        ``store=None`` means no caching (resolution from
        ``$REPRO_STORE`` is the caller's concern, via
        :func:`repro.store.resolve_store`).  ``rng`` is required iff
        the plan contains ``rng="spawn"`` or ``rng="shared"`` nodes.
        ``observer`` is called once per node, on the coordinator, in
        deterministic plan order, after the node's value is committed.
        """
        inputs = dict(inputs or {})
        declared = set(plan.input_names)
        missing = declared - set(inputs)
        if missing:
            raise PlanError(f"plan inputs not supplied: {sorted(missing)}")
        unexpected = set(inputs) - declared
        if unexpected:
            raise PlanError(
                f"unknown plan inputs supplied: {sorted(unexpected)}"
            )
        seeds = self._spawn_seeds(plan, rng)
        if rng is None and any(node.rng == "shared" for node in plan.nodes):
            raise PlanError(
                "plan has rng='shared' nodes but no rng was given"
            )
        telemetry = obs.get()
        tracer = telemetry.tracer if telemetry is not None else None
        parent_id = None
        if tracer is not None and tracer.active_span is not None:
            parent_id = tracer.active_span.span_id

        results: dict[str, object] = dict(inputs)
        fingerprints: dict[str, str] = {}

        def fps_of(node: Node) -> dict[str, str]:
            for name in node.inputs:
                if name not in fingerprints:
                    fingerprints[name] = value_fingerprint(results[name])
            return {name: fingerprints[name] for name in node.inputs}

        runs: list[NodeRun] = []
        for level_index, level in enumerate(plan.levels()):
            outcomes = self._run_level(
                level, results, fps_of, seeds, rng, store, telemetry,
                parent_id,
            )
            # Commit, observe, and record in plan order on the
            # coordinator — completion order never reaches the results,
            # the observer, or the clock.
            level_mark = (telemetry.clock.now()
                          if telemetry is not None and len(level) > 1
                          else None)
            for node, (value, status) in zip(level, outcomes):
                results[node.name] = value
                run = NodeRun(node=node, value=value, status=status,
                              index=len(runs), level=level_index)
                runs.append(run)
                self._record_span(telemetry, parent_id, run, results,
                                  level_mark)
                if observer is not None:
                    observer(run)
        return PlanResult(plan, results, tuple(runs))

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _spawn_seeds(plan: Plan,
                     rng: np.random.Generator | None) -> dict:
        """One spawned ``SeedSequence`` per ``rng="spawn"`` node.

        Children are assigned positionally in plan order, so a node's
        stream depends only on the plan's structure and the caller's
        generator — never on scheduling, caching, or other nodes'
        parameters.  Plans without spawn nodes leave the caller's
        spawn counter untouched.
        """
        spawn_nodes = [node for node in plan.nodes if node.rng == "spawn"]
        if not spawn_nodes:
            return {}
        if rng is None:
            raise PlanError(
                "plan has rng='spawn' nodes but no rng was given"
            )
        children = spawn_seeds(rng, len(spawn_nodes))
        return {node.name: seed for node, seed
                in zip(spawn_nodes, children)}

    def _run_level(self, level, results, fps_of, seeds, shared_rng, store,
                   telemetry, parent_id) -> list:
        """``(value, status)`` per node of one level, in plan order.

        The coordinator keys every node, replays hits and runs
        shared-rng nodes in place (one generator threads them, so they
        never fan out); only the remaining misses are computed, in one
        pool call, and their values are committed here in plan order.
        A key, lookup or commit failure records the node's error span
        exactly like a failure of the node's own computation.
        """
        outcomes: list = [None] * len(level)
        misses: list[tuple[int, Node, str | None]] = []
        for index, node in enumerate(level):
            try:
                key = None
                if store is not None and node.cacheable:
                    key = node.key(
                        fps_of(node),
                        seed_identity(seeds[node.name])
                        if node.rng == "spawn" else None,
                    )
                if node.rng == "shared":
                    compute = self._computation(node, results, seeds,
                                                shared_rng, telemetry)
                    outcomes[index] = (
                        (compute(), "uncacheable") if key is None
                        else store.memoize_with_status(
                            compute, key=key, rng=shared_rng,
                            tags=lambda: node.resolved_tags(fps_of(node)),
                        )
                    )
                    continue
                if key is not None:
                    # A spilled hit never decodes a payload: bounded
                    # coordinator memory is the point.  It needs every
                    # field's entry; the first absent one makes a miss.
                    if node.spill:
                        spilled = Spilled(key, store, node.spill)
                        if spilled.present():
                            outcomes[index] = (spilled, "hit")
                            continue
                    else:
                        value = store.get(key, _ABSENT)
                        if value is not _ABSENT:
                            outcomes[index] = (value, "hit")
                            continue
            except Exception as error:
                self._record_error(telemetry, parent_id, node, error)
                raise
            misses.append((index, node, key))
        if not misses:
            return outcomes

        nodes = [node for _, node, _ in misses]
        try:
            values = self._pool.call([
                self._computation(node, results, seeds, shared_rng,
                                  telemetry) for node in nodes
            ])
        except ParallelTaskError as error:
            self._raise_node_error(error, nodes, telemetry, parent_id)

        # A level's only spill holds its fresh value: that one partial is
        # within the memory bound, and consumers skip decoding it back.
        hold = sum(bool(node.spill) for node in level) == 1
        for (index, node, key), value in zip(misses, values):
            try:
                if node.spill:
                    _check_fields(node, value)
                if key is None:
                    outcomes[index] = (value, "uncacheable")
                    continue
                tags = node.resolved_tags(fps_of(node))
                if node.spill:
                    spilled = Spilled(key, store, node.spill)
                    spilled.commit(value, tags)
                    if hold:
                        spilled.held = value
                    value = spilled
                else:
                    store.put(key, value, tags=tags)
            except Exception as error:
                self._record_error(telemetry, parent_id, node, error)
                raise
            outcomes[index] = (value, "miss")
        return outcomes

    @staticmethod
    def _computation(node: Node, results: dict, seeds: dict, shared_rng,
                     telemetry) -> Callable[[], object]:
        """The node's computation on its resolved inputs, as a thunk."""
        if node.rng == "spawn":
            node_rng = np.random.default_rng(seeds[node.name])
        elif node.rng == "shared":
            node_rng = shared_rng
        else:
            node_rng = None
        inputs = {name: results[name] for name in node.inputs}

        def compute():
            return node.run(inputs, node_rng)

        if telemetry is not None and telemetry.collector is not None:
            # Only actual computation is sampled: hits never get here.
            compute = telemetry.collector.wrap(("node", node.name), compute)
        return compute

    def _record_span(self, telemetry, parent_id, run: NodeRun,
                     results: dict, level_mark) -> None:
        if telemetry is None:
            return
        node = run.node
        begun = telemetry.clock.now()
        ended = telemetry.clock.now()
        attributes = dict(node.span_attrs)
        if node.annotate is not None:
            inputs = {name: results[name] for name in node.inputs}
            attributes.update(node.annotate(run.value, inputs))
        attributes["cache"] = run.status
        # The profiler's critical-path analysis reads the dependency
        # depth and worker count back out of the exported spans.
        attributes["level"] = run.level
        attributes["n_jobs"] = self.n_jobs
        if level_mark is not None:
            attributes["wait"] = begun - level_mark
        if telemetry.collector is not None:
            attributes.update(
                telemetry.collector.attributes(("node", node.name))
            )
        telemetry.tracer.record_span(
            f"{self.name}:{node.label}", begun, ended,
            parent_id=parent_id, **attributes,
        )

    def _raise_node_error(self, error: ParallelTaskError, nodes: list,
                          telemetry, parent_id) -> None:
        """Record the failed node's error span, then raise its own error.

        Callers reason about *their* exceptions (DataError from a stage,
        FairnessError from a section); the fan-out is an implementation
        detail of the engine.
        """
        cause = error.__cause__
        self._record_error(telemetry, parent_id, nodes[error.task_index],
                           cause)
        raise cause

    def _record_error(self, telemetry, parent_id, node: Node,
                      error: BaseException) -> None:
        if telemetry is None:
            return
        begun = telemetry.clock.now()
        ended = telemetry.clock.now()
        telemetry.tracer.record_span(
            f"{self.name}:{node.label}", begun, ended,
            parent_id=parent_id, **dict(node.span_attrs),
            error=type(error).__name__,
        )
