import sys
import threading
import types

import pytest

from tracing import (
    Layer,
    Recorder,
    install,
    parse_handicap,
    span_metrics,
    uninstall,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_on_the_same_thread_only():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    recorder.active = True
    outer = recorder.begin("outer")
    clock.now = 2.0
    child = recorder.begin("child")
    clock.now = 3.0
    grandchild = recorder.begin("grandchild")
    clock.now = 4.0
    recorder.end(grandchild)

    def other_thread():
        # Overlaps `outer` and `child` in time, on its own stack.
        clock.now = 4.5
        span = recorder.begin("other")
        clock.now = 8.0
        recorder.end(span)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    clock.now = 6.0
    recorder.end(child)
    clock.now = 10.0
    recorder.end(outer)

    assert recorder.self_s == {"outer": 6.0, "child": 3.0, "grandchild": 1.0,
                               "other": 3.5}
    assert recorder.calls == {"outer": 1, "child": 1, "grandchild": 1,
                              "other": 1}
    # Top-level spans of both threads overlap; their union counts once.
    assert recorder.covered([(-1.0, 12.0)]) == 10.0
    assert recorder.covered([(8.0, 11.0), (11.0, 12.0)]) == 2.0


def test_inactive_recorder_records_nothing():
    recorder = Recorder(clock=FakeClock())
    assert recorder.begin("span") is None
    recorder.end(None)
    recorder.add({"parallel.tasks": 3})
    assert recorder.calls == {} and recorder.counters == {}


def test_span_metrics_sum_nested_names_per_op():
    spans = {
        "calls": {"serve.group_stats.count": 3, "serve.group_stats.mean": 1,
                  "serve.group_stats_other": 7},
        "self_s": {"serve.group_stats.count": 0.5,
                   "serve.group_stats.mean": 1.5, "engine.run": 4.0},
        "counters": {"parallel.tasks": 8},
    }
    values = span_metrics(spans, [
        "serve.group_stats.calls", "serve.group_stats.mean.s",
        "engine.run.self_s", "parallel.tasks", "parallel.errors",
    ], ops=2)
    assert values == {
        "serve.group_stats.calls": 2.0, "serve.group_stats.mean.s": 0.75,
        "engine.run.self_s": 2.0, "parallel.tasks": 4.0,
        "parallel.errors": 0.0,
    }


@pytest.fixture
def fake_program():
    """A three-layer module (caller → store → leaf) driving a fake clock."""
    clock = FakeClock()
    module = types.ModuleType("repro_perf_fake")

    def leaf():
        clock.now += 4.0
        return "value"

    class Store:
        def memoize(self, parts, compute):
            clock.now += 2.0  # the lookup
            return compute()

    def caller(store):
        clock.now += 1.0
        value = store.memoize({}, lambda: (
            setattr(clock, "now", clock.now + 3.0), module.leaf()
        )[1])
        clock.now += 1.0
        return value

    module.leaf, module.Store, module.caller = leaf, Store, caller
    alias = types.ModuleType("repro_perf_fake_alias")
    alias.leaf = leaf
    sys.modules[module.__name__] = module
    sys.modules[alias.__name__] = alias
    layers = (
        Layer("caller", module.__name__, ("caller",)),
        Layer("store.get", module.__name__, ("Store.memoize",),
              compute=(2, "compute")),
        Layer("leaf", module.__name__, ("leaf",)),
    )
    yield clock, module, alias, layers
    del sys.modules[module.__name__], sys.modules[alias.__name__]


def test_store_compute_is_charged_to_the_caller(fake_program):
    clock, module, alias, layers = fake_program
    recorder = Recorder(clock=clock)
    undo = install(recorder, layers=layers)
    try:
        assert alias.leaf is module.leaf is not None
        recorder.active = True
        assert module.caller(module.Store()) == "value"
    finally:
        uninstall(undo)
    assert recorder.self_s == {"caller": 5.0, "store.get": 2.0, "leaf": 4.0}
    assert recorder.calls == {"caller": 1, "store.get": 1, "leaf": 1}
    assert getattr(module.leaf, "__wrapped__", None) is None
    assert alias.leaf is module.leaf


def test_handicap_without_tracing_wraps_only_that_layer(fake_program):
    clock, module, alias, layers = fake_program
    original_leaf, original_caller = module.leaf, module.caller
    undo = install(None, {"leaf": 0.0005}, layers=layers)
    try:
        assert module.leaf is not original_leaf
        assert alias.leaf is module.leaf
        assert module.caller is original_caller
    finally:
        uninstall(undo)
    assert module.leaf is original_leaf and alias.leaf is original_leaf


def test_parse_handicap():
    assert parse_handicap(["serve.group_stats=0.5", "learn.roc_auc=2"]) == {
        "serve.group_stats": 0.0005, "learn.roc_auc": 0.002,
    }
    with pytest.raises(ValueError):
        parse_handicap(["no.such.layer=1"])
    with pytest.raises(ValueError):
        parse_handicap(["learn.roc_auc"])
