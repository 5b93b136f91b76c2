"""The parallel engine: determinism across n_jobs, error context.

The contract under test is the one :mod:`repro.parallel` advertises:
``n_jobs`` is a wall-clock knob only — every parallelised API must
return bit-identical results for any worker count, inline or on
threads — and a worker crash must surface on the coordinator carrying
the index and repr of the task that died.
"""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.accuracy.bootstrap import bootstrap_ci, bootstrap_paired_ci
from repro.accuracy.forking_paths import hunt_spurious_predictors
from repro.exceptions import DataError
from repro.learn.linear import LogisticRegression
from repro.learn.metrics import roc_auc
from repro.learn.model_selection import cross_val_score, grid_search
from repro.parallel import (
    ParallelExecutor,
    ParallelTaskError,
    pmap,
    resolve_n_jobs,
    spawn_rngs,
    spawn_seeds,
)
from repro.transparency.importance import permutation_importance
from repro.transparency.shapley import ShapleyExplainer


def _square(task):
    return task * task


def _explode_on_13(task):
    if task == 13:
        raise ValueError("unlucky task")
    return task


def _fail_3_late_and_30_early(task):
    if task == 3:
        time.sleep(0.3)
        raise ValueError("task 3 failed late")
    if task == 30:
        raise ValueError("task 30 failed early")
    return task


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _make_logreg(l2):
    return LogisticRegression(l2=l2)


def _traced_task(task):
    """Open a span and a nested one; odd tasks also run a traced map.

    With ``gates``, task ``2k`` finishes only after task ``2k + 1`` has,
    so on two threads the tasks finish out of task order.
    """
    index, n_jobs, gates = task
    tracer = obs.get().tracer
    with tracer.span("task", index=index):
        with tracer.span("inner", index=index):
            if index % 2:
                pmap(_traced_leaf, [index, -index], n_jobs=n_jobs,
                     chunk_size=1, name="leaf")
            elif gates is not None:
                assert gates[index + 1].wait(timeout=30)
    if gates is not None:
        gates[index].set()
    return index


def _traced_leaf(value):
    with obs.get().tracer.span("leaf", value=value):
        return value


@pytest.fixture
def fitted_model(rng):
    X = rng.standard_normal((150, 12))
    w = rng.standard_normal(12)
    y = (X @ w + 0.5 * rng.standard_normal(150) > 0).astype(np.float64)
    return LogisticRegression().fit(X, y), X, y


# -- executor mechanics -----------------------------------------------------

def test_pmap_preserves_task_order_on_every_backend():
    # Inline at n_jobs=1, on that many threads otherwise.
    tasks = list(range(97))
    expected = [t * t for t in tasks]
    for n_jobs in (1, 2, 4):
        assert pmap(_square, tasks, n_jobs=n_jobs,
                    chunk_size=5) == expected


def test_pmap_empty_and_single_task():
    assert pmap(_square, [], n_jobs=4) == []
    assert pmap(_square, [7], n_jobs=4) == [49]


def test_executor_rejects_bad_configuration():
    with pytest.raises(DataError):
        ParallelExecutor(chunk_size=0)
    with pytest.raises(DataError):
        ParallelExecutor(n_jobs=0)


def test_resolve_n_jobs_env_and_all_cores(monkeypatch):
    monkeypatch.delenv("REPRO_N_JOBS", raising=False)
    assert resolve_n_jobs(None) == 1
    monkeypatch.setenv("REPRO_N_JOBS", "3")
    assert resolve_n_jobs(None) == 3
    assert resolve_n_jobs(2) == 2  # explicit argument wins over the env
    monkeypatch.setenv("REPRO_N_JOBS", "many")
    with pytest.raises(DataError):
        resolve_n_jobs(None)
    assert resolve_n_jobs(-1) >= 1


def test_telemetry_records_chunks_tasks_and_spans():
    telemetry = obs.configure()
    try:
        pmap(_square, list(range(40)), n_jobs=2, chunk_size=10,
             name="testmap")
        assert telemetry.metrics.counter("testmap.tasks").value == 40.0
        assert telemetry.metrics.counter("testmap.chunks").value == 4.0
        with pytest.raises(ParallelTaskError):
            pmap(_explode_on_13, list(range(30)), n_jobs=2, chunk_size=4,
                 name="testmap")
        assert telemetry.metrics.counter("testmap.errors").value == 1.0
        # Counters only: a map opens no span, so completion order never
        # reaches the clock.
        assert not telemetry.tracer.spans
    finally:
        obs.reset()


def test_helpers_record_pool_counters_at_every_n_jobs():
    for n_jobs in (1, 2):
        telemetry = obs.configure()
        try:
            bootstrap_ci(np.arange(30.0), np.mean, np.random.default_rng(0),
                         n_resamples=20, n_jobs=n_jobs)
            assert telemetry.metrics.counter("bootstrap.tasks").value == 20.0
        finally:
            obs.reset()


def test_concurrent_maps_leave_the_same_export_whichever_finishes_first():
    exports = []
    for delays in ((0.0, 0.2), (0.2, 0.0)):
        telemetry = obs.configure()
        try:
            threads = [
                threading.Thread(target=pmap, args=(_nap, [delay] * 4),
                                 kwargs={"n_jobs": 2, "name": name})
                for name, delay in zip(("first", "second"), delays)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            exports.append(telemetry.to_dicts())
        finally:
            obs.reset()
    assert exports[0] == exports[1]
    names = {record["name"] for record in exports[0]}
    assert {"first.tasks", "second.tasks"} <= names


def test_thread_map_exports_what_the_inline_map_exports():
    # The tasks finish in the order 1, 0, 3, 2, 5, 4, and each scope's
    # ticks and ids must land where the inline run puts them.
    exports = []
    for n_jobs in (1, 2):
        gates = ([threading.Event() for _ in range(6)] if n_jobs > 1
                 else None)
        telemetry = obs.configure()
        try:
            executor = ParallelExecutor(n_jobs=n_jobs, chunk_size=1,
                                        name="outer")
            tasks = [(index, n_jobs, gates) for index in range(6)]
            assert executor.map(_traced_task, tasks) == list(range(6))
            exports.append(telemetry.to_dicts())
        finally:
            obs.reset()
    assert exports[1] == exports[0]
    spans = [record for record in exports[0] if record["record"] == "span"]
    assert len(spans) == 6 * 2 + 3 * 2


# -- worker crashes ---------------------------------------------------------

@pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "thread"])
def test_worker_crash_surfaces_task_context(n_jobs):
    with pytest.raises(ParallelTaskError) as excinfo:
        pmap(_explode_on_13, list(range(30)), n_jobs=n_jobs, chunk_size=4)
    error = excinfo.value
    assert error.task_index == 13
    assert error.task_repr == "13"
    assert error.chunk_index == 3
    assert "ValueError" in str(error)
    assert "unlucky task" in error.worker_traceback


def test_worker_crash_chains_original_exception():
    with pytest.raises(ParallelTaskError) as excinfo:
        pmap(_explode_on_13, list(range(30)), n_jobs=2)
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_lowest_failing_task_is_raised_whatever_finishes_first():
    # Task 3 fails after task 30 has already failed on the other worker;
    # chunks are collected in order, so task 3 is the one reported.
    with pytest.raises(ParallelTaskError) as excinfo:
        pmap(_fail_3_late_and_30_early, list(range(40)), n_jobs=2,
             chunk_size=1)
    assert excinfo.value.task_index == 3
    assert str(excinfo.value.__cause__) == "task 3 failed late"


def _fail(*args, **kwargs):
    raise RuntimeError("worker failed")


class _FailingFit:
    """A classifier whose every fit fails."""

    def clone(self):
        return _FailingFit()

    def fit(self, X, y):
        _fail()


def _make_failing(l2):
    return _FailingFit()


class _FailsAfterEstimate:
    """A metric that scores the whole sample, then fails on every resample."""

    def __init__(self):
        self.scored_sample = False

    def __call__(self, y_true, y_pred):
        if self.scored_sample:
            _fail()
        self.scored_sample = True
        return 0.5


class _FailsAfterBaseline:
    """Scores the unshuffled baseline, then fails on every shuffled copy."""

    def __init__(self):
        self.scored_baseline = False

    def predict_proba(self, matrix):
        if self.scored_baseline:
            _fail()
        self.scored_baseline = True
        return np.full(len(matrix), 0.5)


_FAILING_HELPERS = {
    "bootstrap_ci": lambda X, y, n_jobs: bootstrap_ci(
        y, _fail, np.random.default_rng(0), n_resamples=20, n_jobs=n_jobs),
    "bootstrap_paired_ci": lambda X, y, n_jobs: bootstrap_paired_ci(
        y, y, _FailsAfterEstimate(), np.random.default_rng(0),
        n_resamples=20, n_jobs=n_jobs),
    "permutation_importance": lambda X, y, n_jobs: permutation_importance(
        _FailsAfterBaseline(), X, y, np.random.default_rng(0), n_repeats=2,
        n_jobs=n_jobs),
    "cross_val_score": lambda X, y, n_jobs: cross_val_score(
        _FailingFit(), X, y, 3, np.random.default_rng(0), n_jobs=n_jobs),
    "grid_search": lambda X, y, n_jobs: grid_search(
        _make_failing, {"l2": [0.1, 1.0]}, X, y, 3,
        np.random.default_rng(0), n_jobs=n_jobs),
}


@pytest.mark.parametrize("helper", sorted(_FAILING_HELPERS))
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_worker_errors_arrive_the_same_way_at_every_n_jobs(
        helper, n_jobs, fitted_model):
    _, X, y = fitted_model
    with pytest.raises(ParallelTaskError) as excinfo:
        _FAILING_HELPERS[helper](X, y, n_jobs)
    # grid_search nests cross_val_score's map: two ParallelTaskErrors.
    error = excinfo.value
    while isinstance(error, ParallelTaskError):
        error = error.__cause__
    assert isinstance(error, RuntimeError)
    assert str(error) == "worker failed"


# -- RNG spawning -----------------------------------------------------------

def test_spawn_rngs_deterministic_and_independent():
    first = [r.integers(0, 1 << 30) for r in
             spawn_rngs(np.random.default_rng(5), 4)]
    second = [r.integers(0, 1 << 30) for r in
              spawn_rngs(np.random.default_rng(5), 4)]
    assert first == second
    assert len(set(first)) == 4  # astronomically unlikely to collide


def test_spawn_seeds_validation(rng):
    with pytest.raises(DataError):
        spawn_seeds(rng, -1)
    assert spawn_seeds(rng, 0) == []


# -- determinism suite: identical outputs for n_jobs in {1, 2, 4} -----------

def test_bootstrap_ci_identical_across_n_jobs():
    values = np.random.default_rng(1).normal(5.0, 2.0, 250)
    baseline = bootstrap_ci(values, np.mean, np.random.default_rng(7),
                            n_resamples=120, n_jobs=1)
    for n_jobs in (2, 4):
        result = bootstrap_ci(values, np.mean, np.random.default_rng(7),
                              n_resamples=120, n_jobs=n_jobs)
        assert result == baseline  # frozen dataclass: field-exact equality


def test_shapley_identical_across_n_jobs(fitted_model):
    model, X, _ = fitted_model
    explainer = ShapleyExplainer(model, X[:25], exact_limit=4)
    baseline = explainer.explain(X[0], np.random.default_rng(11),
                                 n_permutations=20, n_jobs=1)
    for n_jobs in (2, 4):
        result = explainer.explain(X[0], np.random.default_rng(11),
                                   n_permutations=20, n_jobs=n_jobs)
        assert np.array_equal(result.values, baseline.values)
        assert result.base_value == baseline.base_value
        assert result.prediction == baseline.prediction


def test_grid_search_identical_across_n_jobs(fitted_model):
    _, X, y = fitted_model
    grid = {"l2": [0.01, 1.0, 100.0]}
    baseline = grid_search(_make_logreg, grid, X, y, 3,
                           np.random.default_rng(13), n_jobs=1)
    for n_jobs in (2, 4):
        result = grid_search(_make_logreg, grid, X, y, 3,
                             np.random.default_rng(13), n_jobs=n_jobs)
        assert result.best_params == baseline.best_params
        assert result.best_score == baseline.best_score
        for (params_a, cv_a), (params_b, cv_b) in zip(baseline.trials,
                                                      result.trials):
            assert params_a == params_b
            assert np.array_equal(cv_a.scores, cv_b.scores)


def test_permutation_importance_identical_across_n_jobs(fitted_model):
    model, X, y = fitted_model
    baseline = permutation_importance(model, X, y,
                                      np.random.default_rng(17),
                                      n_repeats=3, n_jobs=1)
    result = permutation_importance(model, X, y, np.random.default_rng(17),
                                    n_repeats=3, n_jobs=4)
    assert np.array_equal(result.importances, baseline.importances)
    assert np.array_equal(result.stds, baseline.stds)


def test_spurious_hunt_identical_across_n_jobs():
    g = np.random.default_rng(19)
    response = (g.random(120) < 0.1).astype(np.float64)
    predictors = g.standard_normal((120, 30))
    baseline = hunt_spurious_predictors(response, predictors, n_jobs=1)
    result = hunt_spurious_predictors(response, predictors, n_jobs=4)
    assert np.array_equal(result.p_values, baseline.p_values)
    assert result.discoveries == baseline.discoveries


def test_cross_val_score_identical_with_explicit_folds(fitted_model):
    _, X, y = fitted_model
    baseline = cross_val_score(LogisticRegression(), X, y, 4,
                               np.random.default_rng(23), n_jobs=1)
    result = cross_val_score(LogisticRegression(), X, y, 4,
                             np.random.default_rng(23), n_jobs=4)
    assert np.array_equal(result.scores, baseline.scores)
    with pytest.raises(DataError):
        cross_val_score(LogisticRegression(), X, y, 4)  # no rng, no folds


def test_grid_search_candidates_share_one_fold_split(fitted_model):
    # Duplicate grid values must produce duplicate CV results — only
    # possible when every candidate is scored on the same split.
    _, X, y = fitted_model
    result = grid_search(_make_logreg, {"l2": [1.0, 1.0]}, X, y, 3,
                         np.random.default_rng(29))
    (_, first), (_, second) = result.trials
    assert np.array_equal(first.scores, second.scores)


# -- bootstrap_paired_ci exception policy -----------------------------------

def _auc_metric(y_true, y_pred):
    return roc_auc(y_true, y_pred)


def test_paired_ci_counts_degenerate_skips():
    # A tiny, heavily imbalanced sample yields some single-class
    # resamples; AUC raises on those (or, counting, returns NaN) and they
    # must be counted, not silently vanish.
    g = np.random.default_rng(31)
    y_true = np.array([1.0] + [0.0] * 11)
    y_pred = g.random(12)
    for metric in (_auc_metric, roc_auc):
        interval = bootstrap_paired_ci(y_true, y_pred, metric,
                                       np.random.default_rng(37),
                                       n_resamples=200)
        assert interval.n_skipped > 0
        assert interval.n_resamples + interval.n_skipped == 200


def _buggy_metric(y_true, y_pred):
    raise RuntimeError("metric bug, not a degenerate resample")


def test_paired_ci_reraises_unexpected_metric_errors(rng):
    # A bug that breaks the whole sample surfaces as itself, before any
    # resample is drawn.  One that breaks only resamples arrives, at
    # every n_jobs, wrapped with task context, chaining the original.
    with pytest.raises(RuntimeError, match="metric bug"):
        bootstrap_paired_ci(np.arange(20.0), np.arange(20.0),
                            _buggy_metric, rng, n_resamples=50)
    for n_jobs in (1, 2):
        with pytest.raises(ParallelTaskError) as excinfo:
            bootstrap_paired_ci(np.arange(20.0), np.arange(20.0),
                                _FailsAfterEstimate(), rng, n_resamples=50,
                                n_jobs=n_jobs)
        assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_paired_ci_parallel_matches_serial_including_skips():
    g = np.random.default_rng(41)
    y_true = (g.random(40) < 0.3).astype(np.float64)
    y_pred = g.random(40)
    for metric in (_auc_metric, roc_auc):
        serial = bootstrap_paired_ci(y_true, y_pred, metric,
                                     np.random.default_rng(43),
                                     n_resamples=150)
        parallel = bootstrap_paired_ci(y_true, y_pred, metric,
                                       np.random.default_rng(43),
                                       n_resamples=150, n_jobs=4)
        assert parallel == serial


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_paired_auc_counting_path_matches_per_resample_path(n_jobs):
    # roc_auc carries a resampler, so its bootstrap counts row copies
    # over one shared sort; _auc_metric has none and re-runs roc_auc on
    # every resample.  Intervals and skip counts must agree exactly.
    g = np.random.default_rng(47)
    samples = [
        ((g.random(40) < 0.3).astype(np.float64), np.round(g.random(40), 1)),
        (np.array([1.0] + [0.0] * 11), g.random(12)),
    ]
    skipped = 0
    for y_true, y_pred in samples:
        counted, per_resample = (
            bootstrap_paired_ci(y_true, y_pred, metric,
                                np.random.default_rng(53), n_resamples=150,
                                n_jobs=n_jobs)
            for metric in (roc_auc, _auc_metric)
        )
        assert counted == per_resample
        skipped += counted.n_skipped
    assert skipped > 0
