"""Unit tests for bootstrap intervals and conformal prediction."""

import numpy as np
import pytest

from repro.accuracy.bootstrap import bootstrap_ci, bootstrap_paired_ci
from repro.accuracy.conformal import (
    SplitConformalClassifier,
    SplitConformalRegressor,
)
from repro.exceptions import DataError, NotFittedError
from repro.learn import LogisticRegression, RidgeRegression
from repro.learn.metrics import accuracy, roc_auc


def test_bootstrap_ci_covers_true_mean(rng):
    interval = bootstrap_ci(rng.normal(10.0, 2.0, 500), np.mean, rng)
    assert interval.contains(10.0)
    assert interval.lower < interval.estimate < interval.upper
    assert interval.width < 1.0
    assert "@ 95%" in str(interval)


def test_bootstrap_ci_narrows_with_n(rng):
    wide = bootstrap_ci(rng.normal(0, 1, 50), np.mean, rng)
    narrow = bootstrap_ci(rng.normal(0, 1, 5000), np.mean, rng)
    assert narrow.width < wide.width


def test_bootstrap_ci_validation(rng):
    with pytest.raises(DataError):
        bootstrap_ci(np.array([1.0]), np.mean, rng)
    with pytest.raises(DataError):
        bootstrap_ci(np.arange(10.0), np.mean, rng, confidence=1.5)
    with pytest.raises(DataError):
        bootstrap_ci(np.arange(10.0), np.mean, rng, n_resamples=2)


@pytest.mark.parametrize("kwargs, message", [
    ({"confidence": 0.0}, "confidence must be in"),
    ({"confidence": 1.5}, "confidence must be in"),
    ({"n_resamples": 0}, "at least 10 resamples"),
    ({"n_resamples": 5}, "at least 10 resamples"),
])
def test_bootstrap_paired_ci_validation(kwargs, message):
    # Rejected before any resample is drawn: the caller's generator is
    # left exactly where it was.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    labels = np.arange(50.0) % 2
    with pytest.raises(DataError, match=message):
        bootstrap_paired_ci(labels, labels, accuracy, rng, **kwargs)
    assert rng.bit_generator.state == state


def test_bootstrap_paired_ci_scores_the_sample_before_drawing():
    # A sample the metric itself rejects fails with the metric's own
    # error, before a single resample is drawn.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    scores = np.random.default_rng(1).random(50)
    with pytest.raises(DataError,
                       match="ROC AUC requires both classes present"):
        bootstrap_paired_ci(np.zeros(50), scores, roc_auc, rng,
                            n_resamples=200)
    assert rng.bit_generator.state == state


def test_bootstrap_paired_ci(toy_classification, rng):
    X, y = toy_classification
    model = LogisticRegression().fit(X, y)
    predictions = model.predict(X)
    interval = bootstrap_paired_ci(y, predictions, accuracy, rng)
    assert interval.contains(accuracy(y, predictions))
    assert 0.0 <= interval.lower <= interval.upper <= 1.0


def _conformal_setup(rng, n=3000):
    X = rng.standard_normal((n, 4))
    weights = np.array([1.5, -1.0, 0.5, 0.0])
    y = (X @ weights + rng.standard_normal(n) > 0).astype(float)
    train, cal, test = X[:1000], X[1000:2000], X[2000:]
    y_train, y_cal, y_test = y[:1000], y[1000:2000], y[2000:]
    model = LogisticRegression().fit(train, y_train)
    return model, cal, y_cal, test, y_test


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_conformal_classifier_coverage(rng, alpha):
    model, cal, y_cal, test, y_test = _conformal_setup(rng)
    conformal = SplitConformalClassifier(model, alpha=alpha)
    conformal.calibrate(cal, y_cal)
    coverage = conformal.coverage(test, y_test)
    # Marginal guarantee: coverage >= 1 - alpha, up to finite-sample noise.
    assert coverage >= 1.0 - alpha - 0.035


def test_conformal_sets_shrink_with_alpha(rng):
    model, cal, y_cal, test, _ = _conformal_setup(rng)
    strict = SplitConformalClassifier(model, alpha=0.02).calibrate(cal, y_cal)
    loose = SplitConformalClassifier(model, alpha=0.3).calibrate(cal, y_cal)
    assert loose.mean_set_size(test) <= strict.mean_set_size(test)


def test_conformal_set_contents(rng):
    model, cal, y_cal, test, _ = _conformal_setup(rng)
    conformal = SplitConformalClassifier(model, alpha=0.1).calibrate(cal, y_cal)
    sets = conformal.predict_sets(test[:20])
    for prediction_set in sets:
        assert 1 <= prediction_set.size <= 2
        assert set(prediction_set.labels) <= {0.0, 1.0}


def test_conformal_requires_calibration(rng):
    model, _, _, test, _ = _conformal_setup(rng)
    with pytest.raises(NotFittedError):
        SplitConformalClassifier(model).predict_sets(test)
    with pytest.raises(DataError):
        SplitConformalClassifier(model, alpha=0.0)


def test_conformal_regressor_coverage(rng):
    n = 3000
    X = rng.standard_normal((n, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + rng.standard_normal(n)
    model = RidgeRegression().fit(X[:1000], y[:1000])
    conformal = SplitConformalRegressor(model, alpha=0.1)
    conformal.calibrate(X[1000:2000], y[1000:2000])
    # Marginal guarantee is 0.9 in expectation over calibration draws;
    # a single draw can dip a couple of points.
    assert conformal.coverage(X[2000:], y[2000:]) >= 0.85
    intervals = conformal.predict_intervals(X[2000:2005])
    assert intervals.shape == (5, 2)
    assert np.all(intervals[:, 1] > intervals[:, 0])
    assert conformal.mean_width(X[2000:]) > 0


def test_conformal_regressor_width_tracks_noise(rng):
    n = 2000
    X = rng.standard_normal((n, 2))

    def fit_width(noise):
        y = X @ np.array([1.0, 1.0]) + noise * rng.standard_normal(n)
        model = RidgeRegression().fit(X[:800], y[:800])
        conformal = SplitConformalRegressor(model, alpha=0.1)
        conformal.calibrate(X[800:1400], y[800:1400])
        return conformal.mean_width(X[1400:])

    assert fit_width(2.0) > fit_width(0.5)


def _grouped_conformal_setup(rng, n=6000):
    """Scores are much noisier for group B: marginal CP undercovers B."""
    group = np.where(rng.random(n) < 0.3, "B", "A").astype(object)
    X = rng.standard_normal((n, 3))
    noise = np.where(group == "B", 2.5, 0.5)
    y = (X @ np.array([1.5, -1.0, 0.5])
         + noise * rng.standard_normal(n) > 0).astype(float)
    split_train, split_cal = slice(0, 2000), slice(2000, 4000)
    split_test = slice(4000, n)
    model = LogisticRegression().fit(X[split_train], y[split_train])
    return (model, X[split_cal], y[split_cal], group[split_cal],
            X[split_test], y[split_test], group[split_test])


def test_group_conditional_coverage_holds_per_group(rng):
    from repro.accuracy.conformal import GroupConditionalConformalClassifier

    (model, X_cal, y_cal, g_cal,
     X_test, y_test, g_test) = _grouped_conformal_setup(rng)
    conformal = GroupConditionalConformalClassifier(model, alpha=0.1)
    conformal.calibrate(X_cal, y_cal, g_cal)
    by_group = conformal.coverage_by_group(X_test, y_test, g_test)
    for value, coverage in by_group.items():
        assert coverage >= 0.9 - 0.04, value


def test_marginal_conformal_can_undercover_a_group(rng):
    """The failure Mondrian CP fixes: one global quantile, unequal groups."""
    from repro.accuracy.conformal import (
        GroupConditionalConformalClassifier,
        SplitConformalClassifier,
    )

    (model, X_cal, y_cal, g_cal,
     X_test, y_test, g_test) = _grouped_conformal_setup(rng)
    marginal = SplitConformalClassifier(model, alpha=0.1)
    marginal.calibrate(X_cal, y_cal)
    sets = marginal.predict_sets(X_test)
    covered = np.asarray([
        s.covers(label) for s, label in zip(sets, y_test)
    ])
    marginal_by_group = {
        value: float(covered[g_test == value].mean())
        for value in np.unique(g_test)
    }
    grouped = GroupConditionalConformalClassifier(model, alpha=0.1)
    grouped.calibrate(X_cal, y_cal, g_cal)
    grouped_by_group = grouped.coverage_by_group(X_test, y_test, g_test)
    # Group-conditional calibration never does worse on the worst group.
    assert (min(grouped_by_group.values())
            >= min(marginal_by_group.values()) - 0.02)


def test_group_conditional_validation(rng):
    from repro.accuracy.conformal import GroupConditionalConformalClassifier
    from repro.exceptions import DataError, NotFittedError

    (model, X_cal, y_cal, g_cal,
     X_test, _, g_test) = _grouped_conformal_setup(rng)
    conformal = GroupConditionalConformalClassifier(model, alpha=0.1)
    with pytest.raises(NotFittedError):
        conformal.predict_sets(X_test, g_test)
    conformal.calibrate(X_cal, y_cal, g_cal)
    with pytest.raises(DataError, match="unseen"):
        conformal.predict_sets(X_test[:2], np.asarray(["Z", "Z"]))
