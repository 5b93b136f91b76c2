"""Per-layer spans, recorded from outside the program.

The benchmark wraps each layer's public functions (the ``LAYERS``
table) and records one span per call on a per-thread stack.  Nothing
under ``src/`` changes: the wrappers replace module and class
attributes at start-up, including every ``repro`` module attribute that
re-imports a wrapped function by name (``from x import roc_auc``).

A span's *self time* is its duration minus the time its direct child
spans on the same thread cover.  Spans on different threads never
subtract from each other, so concurrent layers each keep their own busy
time.

Two details keep the attribution honest:

* store lookups take the computation they would cache as an argument
  (``memoize(parts, compute)``).  That computation runs under a span
  named after the *caller* of the store, so a miss's compute time lands
  on the layer that asked for it, never on the store;
* forked process-pool workers inherit the wrappers but stop recording
  (their spans would die with them), so ``parallel.map`` measures the
  fan-out from the coordinator.

``--handicap LAYER=MS`` reuses the same wrappers to add a spin of MS
milliseconds, holding the interpreter lock, to every call of one
layer's functions — the benchmark's self-test that a slower layer shows
up in the end-to-end metrics the benchmark predicts.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Span recorded around a store miss's computation when the store was
#: called from a thread with no open span (an engine pool thread).
ENGINE_SPAN = "engine.run"


def _kind(args, kwargs) -> str:
    return args[0].kind


def _stage(args, kwargs) -> str:
    return args[0].name


def _tasks(args, kwargs) -> dict:
    tasks = args[2] if len(args) > 2 else kwargs.get("tasks", ())
    try:
        return {"parallel.tasks": len(tasks)}
    except TypeError:  # an iterator: counted nowhere rather than consumed
        return {}


def _fingerprint_arg(args, kwargs, result) -> str | None:
    return args[1] if len(args) > 1 else kwargs.get("fingerprint")


def _plan_arg(index: int):
    def op(args, kwargs, result) -> str | None:
        return getattr(args[index], "fingerprint", None)
    return op


def _plan_result(args, kwargs, result) -> str | None:
    return getattr(result, "fingerprint", None)


@dataclass(frozen=True)
class Layer:
    """One layer: the span it records and the functions that open it.

    ``targets`` are attribute paths inside ``module`` (``"roc_auc"``,
    ``"TableClassifier.fit"``).  ``span`` derives a span-name suffix
    from the call's arguments; ``count`` adds counters; ``errors``
    names a counter bumped when the call raises; ``compute`` is the
    positional index (self included) or keyword of a callable computed
    on the caller's behalf; ``op`` derives the operation id a span
    carries (the plan fingerprint, for serve).
    """

    name: str
    module: str
    targets: tuple[str, ...]
    span: Callable | None = None
    count: Callable | None = None
    errors: str | None = None
    compute: tuple[int, str] | None = None
    op: Callable | None = None


#: Every traced layer.  Metric names are ``<span>.s`` / ``<span>.self_s``
#: (self seconds) and ``<span>.calls``, summed over spans equal to the
#: prefix or nested under it by a dotted suffix.
LAYERS: tuple[Layer, ...] = (
    Layer("learn.roc_auc", "repro.learn.metrics", ("roc_auc",)),
    Layer("learn.predict", "repro.learn.table_model",
          ("TableClassifier.predict_proba", "TableClassifier.labels",
           "TableClassifier.predict")),
    Layer("learn.fit", "repro.learn.table_model", ("TableClassifier.fit",)),
    Layer("accuracy.bootstrap", "repro.accuracy.bootstrap",
          ("bootstrap_paired_ci",)),
    Layer("accuracy.conformal", "repro.accuracy.conformal",
          ("SplitConformalClassifier.calibrate",
           "SplitConformalClassifier.coverage",
           "SplitConformalClassifier.mean_set_size",
           "SplitConformalClassifier.predict_sets")),
    Layer("fairness.audit", "repro.fairness.report",
          ("audit_model", "audit_decisions")),
    Layer("confidentiality.risk", "repro.confidentiality.risk",
          ("assess_risk", "qi_class_counts", "risk_from_counts")),
    Layer("transparency.surrogate", "repro.transparency.surrogate",
          ("fit_surrogate",)),
    Layer("transparency.importance", "repro.transparency.importance",
          ("permutation_importance",)),
    Layer("core.audit", "repro.core.auditor", ("FACTAuditor.audit",)),
    Layer("engine.run", "repro.engine.executor", ("Executor.run",)),
    Layer("engine.key", "repro.engine.node", ("Node.key",)),
    Layer("engine.value_fp", "repro.engine.node", ("value_fingerprint",)),
    Layer("store.get", "repro.store.store",
          ("ArtifactStore.get", "ArtifactStore.probe")),
    Layer("store.get", "repro.store.store", ("ArtifactStore.memoize",),
          compute=(2, "compute")),
    Layer("store.get", "repro.store.store",
          ("ArtifactStore.memoize_with_status",), compute=(1, "compute")),
    Layer("store.put", "repro.store.store", ("ArtifactStore.put",)),
    Layer("store.encode", "repro.store.codec", ("dumps",)),
    Layer("store.decode", "repro.store.codec", ("loads",)),
    Layer("data.table_fp", "repro.store.fingerprint", ("table_fingerprint",)),
    Layer("data.table_ops", "repro.data.table",
          ("Table.filter", "Table.take", "Table.concat", "Table.with_column",
           "Table.select")),
    Layer("parallel.map", "repro.parallel.executor",
          ("ParallelExecutor.map",), count=_tasks, errors="parallel.errors"),
    Layer("pipeline.stage", "repro.pipeline.stage",
          ("CleanStage.apply", "RedactStage.apply", "ReweighStage.apply",
           "TrainStage.apply", "PredictStage.apply", "DecideStage.apply"),
          span=_stage),
    Layer("pipeline.provenance", "repro.pipeline.provenance",
          ("ProvenanceGraph.add_table", "ProvenanceGraph.add_artifact",
           "ProvenanceGraph.record_step")),
    Layer("serve.plan", "repro.serve.planner", ("QueryPlanner.plan",),
          op=_plan_result),
    Layer("serve.cache.get", "repro.serve.cache", ("AnswerCache.get",),
          op=_fingerprint_arg),
    Layer("serve.cache.put", "repro.serve.cache", ("AnswerCache.put",),
          op=_fingerprint_arg),
    Layer("serve.group_stats", "repro.serve.batching", ("group_stats",),
          span=_kind, op=_plan_arg(0)),
    Layer("serve.release", "repro.serve.batching", ("member_release",),
          op=_plan_arg(1)),
    Layer("serve.budget", "repro.serve.budget",
          ("BudgetManager.reserve", "BudgetManager.commit")),
    Layer("serve.budget", "repro.serve.budget", ("BudgetManager.rollback",),
          count=lambda args, kwargs: {"serve.budget.rollbacks": 1}),
)

#: Layer names accepted by ``--handicap``.
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


# -- recording ---------------------------------------------------------------

class Recorder:
    """In-memory span recorder with per-thread stacks.

    Records only while ``active`` is true (the timed phase).  Keeps
    per-name call counts and self seconds, named counters, the
    intervals of every top-level span (for the unattributed share), and
    the first ``max_spans`` raw spans for the trace file.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = 100_000):
        self.clock = clock
        self.max_spans = max_spans
        self.active = False
        self.op: object = None
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.top: list[tuple[float, float]] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self.after_fork)

    def after_fork(self) -> None:
        """A forked worker inherits the wrappers but never reports back."""
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, counted: bool = True) -> list | None:
        """Open a span on this thread; ``None`` while inactive."""
        if not self.active:
            return None
        stack = self._stack()
        frame = [name, self.clock(), 0.0, len(stack), counted]
        stack.append(frame)
        return frame

    def parent_name(self) -> str | None:
        """The name of the span enclosing the innermost open one."""
        stack = self._stack()
        return stack[-2][0] if len(stack) > 1 else None

    def end(self, frame: list | None, op: object = None) -> None:
        """Close ``frame`` (the innermost open span on this thread)."""
        if frame is None:
            return
        finish = self.clock()
        stack = self._stack()
        stack.pop()
        name, start, children, depth, counted = frame
        duration = finish - start
        if stack:
            stack[-1][2] += duration
        own = duration - children
        with self._lock:
            if counted:
                self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if not stack:
                self.top.append((start, finish))
            if len(self.spans) < self.max_spans:
                self.spans.append((
                    name, threading.get_ident(), depth, start, finish, own,
                    self.op if op is None else op,
                ))
            else:
                self.dropped += 1

    def add(self, counts: dict) -> None:
        """Bump named counters (ignored while inactive)."""
        if not self.active or not counts:
            return
        with self._lock:
            for name, amount in counts.items():
                self.counters[name] = self.counters.get(name, 0) + amount

    # -- summaries -----------------------------------------------------------

    def covered(self, windows: list[tuple[float, float]]) -> float:
        """Seconds of ``windows`` during which some top-level span was open.

        Top-level spans of every thread are merged into one union first,
        so overlapping spans on different threads count once.
        """
        union: list[list[float]] = []
        for start, finish in sorted(self.top):
            if union and start <= union[-1][1]:
                union[-1][1] = max(union[-1][1], finish)
            else:
                union.append([start, finish])
        starts = [start for start, _ in union]
        total = 0.0
        for low, high in windows:
            index = max(bisect.bisect_right(starts, low) - 1, 0)
            while index < len(union) and union[index][0] < high:
                start, finish = union[index]
                total += max(0.0, min(finish, high) - max(start, low))
                index += 1
        return total


#: Counters the wrappers keep (reported per op, zero when never bumped).
COUNTERS = ("parallel.tasks", "parallel.errors", "serve.budget.rollbacks")


def span_total(table: dict, prefix: str) -> float:
    """Sum ``table`` over span names equal to or nested under ``prefix``."""
    nested = prefix + "."
    return sum(value for name, value in table.items()
               if name == prefix or name.startswith(nested))


def span_metrics(spans: dict, names, ops: int) -> dict[str, float]:
    """Per-op values of the metrics in ``names`` that spans and counters give.

    ``spans`` holds a recorder's ``calls``, ``self_s`` and ``counters``
    tables.  ``X.s`` and ``X.self_s`` are self seconds of spans named
    ``X`` or ``X.*``; ``X.calls`` their call count; counters are per op
    too.
    """
    values: dict[str, float] = {}
    for metric in names:
        if metric in COUNTERS:
            values[metric] = spans["counters"].get(metric, 0) / ops
            continue
        for suffix, table in ((".self_s", spans["self_s"]),
                              (".s", spans["self_s"]),
                              (".calls", spans["calls"])):
            if metric.endswith(suffix):
                values[metric] = span_total(table, metric[:-len(suffix)]) / ops
                break
    return values


# -- wrapping ----------------------------------------------------------------

def spin(seconds: float) -> None:
    """Busy-wait ``seconds`` in Python bytecode (the handicap)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _traced_compute(recorder: Recorder, compute: Callable) -> Callable:
    """``compute`` run under a span named after the store's caller."""
    name = recorder.parent_name() or ENGINE_SPAN

    def run():
        frame = recorder.begin(name, counted=False)
        try:
            return compute()
        finally:
            recorder.end(frame)

    return run


def _wrap(fn: Callable, layer: Layer, recorder: Recorder | None,
          spin_s: float) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder is None or not recorder.active:
            if spin_s:
                spin(spin_s)
            return fn(*args, **kwargs)
        name = layer.name
        if layer.span is not None:
            name = f"{name}.{layer.span(args, kwargs)}"
        if layer.count is not None:
            recorder.add(layer.count(args, kwargs))
        frame = recorder.begin(name)
        result = None
        try:
            if spin_s:
                spin(spin_s)
            if layer.compute is not None:
                index, keyword = layer.compute
                if keyword in kwargs:
                    kwargs[keyword] = _traced_compute(recorder,
                                                      kwargs[keyword])
                elif len(args) > index:
                    args = (*args[:index],
                            _traced_compute(recorder, args[index]),
                            *args[index + 1:])
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            if layer.errors is not None:
                recorder.add({layer.errors: 1})
            raise
        finally:
            op = None
            if layer.op is not None:
                op = layer.op(args, kwargs, result)
            recorder.end(frame, op)

    return wrapper


def parse_handicap(specs: list[str]) -> dict[str, float]:
    """``["LAYER=MS", ...]`` as ``{layer: seconds}``; unknown layers raise."""
    handicap: dict[str, float] = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep or name not in LAYER_NAMES:
            raise ValueError(
                f"--handicap wants LAYER=MS with LAYER one of "
                f"{', '.join(LAYER_NAMES)}; got {spec!r}"
            )
        milliseconds = float(value)
        if not milliseconds >= 0:
            raise ValueError(f"--handicap {spec!r}: MS must be >= 0")
        handicap[name] = milliseconds / 1000.0
    return handicap


def install(recorder: Recorder | None, handicap: dict[str, float] | None = None,
            layers: tuple[Layer, ...] = LAYERS) -> list[tuple]:
    """Wrap the layers' targets; returns ``(owner, attr, original)`` undo records.

    Without a recorder only handicapped layers are wrapped, so an
    untraced run pays for nothing it does not measure.
    """
    handicap = handicap or {}
    undo: list[tuple] = []
    replaced: dict[int, Callable] = {}
    for layer in layers:
        spin_s = handicap.get(layer.name, 0.0)
        if recorder is None and not spin_s:
            continue
        module = importlib.import_module(layer.module)
        for target in layer.targets:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    _wrap(original.__func__, layer, recorder, spin_s)
                )
            else:
                wrapped = _wrap(original, layer, recorder, spin_s)
                if not owner_name:
                    replaced[id(original)] = wrapped
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
    if replaced:
        # Re-bind every `from module import fn` alias across the package.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and wrapped is not value:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, value))
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
