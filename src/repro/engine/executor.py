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
  ``n_jobs``/backend combination — parallelism changes wall-clock,
  never bytes.
* **One caching code path.**  Every node goes through
  ``store.memoize_with_status``; callers without a store get
  :data:`repro.store.NULL_STORE`, whose lazy key/tags callables are
  never evaluated — no ``if store is None`` branches anywhere, and no
  fingerprinting cost when caching is off.
* **Observability per node.**  With :mod:`repro.obs` configured, each
  node gets a span named ``{executor.name}:{node.label}`` carrying the
  cache outcome (``hit``/``miss``/``uncacheable``) and its logical wait
  behind the level barrier.  Spans are recorded on the coordinator in
  plan order after each level drains, so TickClock telemetry stays
  byte-identical across reruns (completion order never reaches the
  clock; :class:`ParallelExecutor` records counters only).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro.engine.node import Node, seed_identity, value_fingerprint
from repro.engine.plan import Plan
from repro.exceptions import PlanError
from repro.parallel.executor import ParallelExecutor, ParallelTaskError
from repro.parallel.rng import spawn_seeds
from repro.store.store import NULL_STORE, NullStore, Spilled

_ABSENT = object()


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
        Fan-out within a level; ``None`` defers to ``$REPRO_N_JOBS``
        then 1, ``-1`` uses every core.
    backend:
        ``"serial"``, ``"thread"``, or ``"process"``.  Node thunks are
        closures, which processes cannot pickle, so ``"process"`` is
        coerced to ``"thread"`` at the node level — node *internals*
        (e.g. a section's own resampling ``pmap``) still honour the
        requested backend through their own parameters.
    name:
        Span prefix: node spans are named ``{name}:{node.label}``.
    """

    def __init__(self, n_jobs: int | None = None, backend: str = "serial",
                 name: str = "engine"):
        self._pool = ParallelExecutor(
            n_jobs=n_jobs,
            backend="thread" if backend == "process" else backend,
            chunk_size=1,
            name=f"{name}.pool",
        )
        self.n_jobs = self._pool.n_jobs
        self.backend = backend
        self.name = name

    # -- public API ---------------------------------------------------------

    def run(self, plan: Plan, inputs: Mapping[str, object] | None = None, *,
            store=None, rng: np.random.Generator | None = None,
            observer: Callable[[NodeRun], None] | None = None) -> PlanResult:
        """Execute every node; returns a :class:`PlanResult`.

        ``store=None`` means no caching (:data:`~repro.store.NULL_STORE`
        inside — resolution from ``$REPRO_STORE`` is the caller's
        concern, via :func:`repro.store.resolve_store`).  ``rng`` is
        required iff the plan contains ``rng="spawn"`` or
        ``rng="shared"`` nodes.  ``observer`` is called once per node,
        on the coordinator, in deterministic plan order, after the
        node's value is committed.
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
        store = store if store is not None else NULL_STORE
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
        fp_lock = threading.Lock()

        def fp_of(name: str) -> str:
            with fp_lock:
                cached = fingerprints.get(name)
            if cached is None:
                cached = value_fingerprint(results[name])
                with fp_lock:
                    fingerprints[name] = cached
            return cached

        runs: list[NodeRun] = []
        for level_index, level in enumerate(plan.levels()):
            outcomes = self._run_level(
                level, results, fp_of, seeds, rng, store, telemetry,
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

    def _thunk(self, node: Node, results: dict, fp_of, seeds: dict,
               shared_rng, store, telemetry, hold: bool):
        input_values = {name: results[name] for name in node.inputs}

        def lazy_key() -> str:
            input_fps = {name: fp_of(name) for name in node.inputs}
            identity = (seed_identity(seeds[node.name])
                        if node.rng == "spawn" else None)
            return node.key(input_fps, identity)

        def lazy_tags() -> tuple:
            return node.resolved_tags(
                {name: fp_of(name) for name in node.inputs}
            )

        if node.rng == "spawn":
            node_rng = np.random.default_rng(seeds[node.name])
            continuity_rng = None
        elif node.rng == "shared":
            node_rng = shared_rng
            continuity_rng = shared_rng
        else:
            node_rng = None
            continuity_rng = None

        def compute():
            return node.run(input_values, node_rng)

        if telemetry is not None and telemetry.collector is not None:
            # Only actual computation is sampled: cache hits replay
            # inside the store and never reach this wrapper's body.
            compute = telemetry.collector.wrap(("node", node.name), compute)

        def thunk():
            if not node.cacheable:
                return compute(), "uncacheable"
            if node.spill and not isinstance(store, NullStore):
                # Spill: the value lives in the store, a Spilled
                # reference travels the plan.  A warm hit never decodes
                # the payload — bounded coordinator memory is the point.
                # A level's only spill holds its fresh value: that one
                # partial is within the bound, and consumers skip
                # decoding it back.
                digest = lazy_key()
                if store.probe(digest):
                    return Spilled(digest), "hit"
                value = compute()
                store.put(digest, value, tags=lazy_tags())
                spilled = Spilled(digest)
                if hold:
                    spilled.held = value
                return spilled, "miss"
            return store.memoize_with_status(
                compute, key=lazy_key, rng=continuity_rng, tags=lazy_tags
            )

        return thunk

    def _run_level(self, level, results, fp_of, seeds, shared_rng, store,
                   telemetry, parent_id) -> list:
        if (
            self.backend == "process"
            and self.n_jobs > 1
            and len(level) > 1
            and all(node.task is not None for node in level)
        ):
            return self._run_level_process(level, store, telemetry,
                                           parent_id)
        hold = sum(node.spill for node in level) == 1
        thunks = [
            self._thunk(node, results, fp_of, seeds, shared_rng, store,
                        telemetry, hold)
            for node in level
        ]
        # Shared-rng nodes thread one generator, so any level holding
        # one must run serially; single-node levels gain nothing from a
        # pool and skip its counters entirely.
        inline = (
            len(level) == 1
            or self.n_jobs == 1
            or self._pool.backend == "serial"
            or any(node.rng == "shared" for node in level)
        )
        if inline:
            outcomes = []
            for node, thunk in zip(level, thunks):
                try:
                    outcomes.append(thunk())
                except Exception as error:
                    self._record_error(telemetry, parent_id, node, error)
                    raise
            return outcomes
        try:
            return self._pool.call(thunks)
        except ParallelTaskError as error:
            self._raise_node_error(error, level, telemetry, parent_id)

    def _run_level_process(self, level, store, telemetry, parent_id) -> list:
        """Dispatch a level of task-declaring nodes to process workers.

        The shard-map fan-out: every node in the level carries a
        picklable ``task`` (its data closed over at build time), so the
        level runs as real map tasks over the :mod:`repro.parallel`
        process backend — one task per node — instead of the node-level
        thread coercion.  Cache replay happens on the coordinator
        *before* dispatch, so only missing shards ship to workers, and
        committed values (or :class:`~repro.store.Spilled` references,
        for spill nodes) come back in deterministic node order.
        """
        caching = not isinstance(store, NullStore)
        outcomes: list = [None] * len(level)
        pending: list[tuple[int, Node, str | None]] = []
        for index, node in enumerate(level):
            key = None
            if caching and node.cacheable:
                key = node.key()
                if node.spill:
                    if store.probe(key):
                        outcomes[index] = (Spilled(key), "hit")
                        continue
                else:
                    value = store.get(key, _ABSENT)
                    if value is not _ABSENT:
                        outcomes[index] = (value, "hit")
                        continue
            pending.append((index, node, key))
        if pending:
            pool = ParallelExecutor(
                n_jobs=self.n_jobs, backend="process", chunk_size=1,
                name=f"{self.name}.map",
            )
            nodes = [node for _, node, _ in pending]
            try:
                values = pool.call([node.task for node in nodes])
            except ParallelTaskError as error:
                self._raise_node_error(error, nodes, telemetry, parent_id)
            for (index, node, key), value in zip(pending, values):
                if key is None:
                    # Either caching is off or the node opted out — the
                    # same "uncacheable" a NullStore memoize reports.
                    outcomes[index] = (value, "uncacheable")
                    continue
                store.put(key, value, tags=node.resolved_tags({}))
                outcomes[index] = (
                    (Spilled(key), "miss") if node.spill
                    else (value, "miss")
                )
        return outcomes

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
        cause = error.__cause__ if error.__cause__ is not None else error
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
