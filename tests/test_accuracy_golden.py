"""Golden-value pins for the accuracy pillar's AUC and conformal paths.

Every digest below was captured from the code these paths replaced: the
midrank ``while`` loop in ``roc_auc``, the AUC bootstrap that re-ran
``roc_auc`` on every resample, and conformal sets built one
``PredictionSet`` per row (see docs/api.md, "Hot kernels").  The
vectorised midranks, the counting AUC bootstrap and the array conformal
membership all promise *byte-identical* results, so each digest hashes
the ``int64`` view of the float results: ties, ±0, ±inf, NaN scores,
labels other than 0 and 1, single-class resamples and the empty-set
corner included.

The two properties at the end keep the midrank loop in this file as
the reference.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accuracy.bootstrap import bootstrap_paired_ci
from repro.accuracy.conformal import SplitConformalClassifier
from repro.exceptions import DataError
from repro.learn import LogisticRegression
from repro.learn.metrics import accuracy, roc_auc

GOLDEN = {
    "roc_auc": "42d6daaf459a5294",
    "bootstrap": "b8ef910a633ec29b",
    "conformal": "37975c8e0e153c26",
}

#: Scores that stress ranking: signed zeros tie, infinities sort to the
#: ends, and NaN never equals anything (each NaN is its own tie run).
SPECIAL_SCORES = np.array([-np.inf, -0.0, 0.0, np.inf, 1.0, -1.0, 0.5])
ODD_LABELS = np.array([2.0, -1.0, 0.5, np.nan, -0.0])


def digest(values) -> str:
    """Hash of the ``int64`` view of ``values`` as float64."""
    view = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    return hashlib.sha256(view.tobytes()).hexdigest()[:16]


def _auc_or_nan(y_true, scores) -> float:
    try:
        return roc_auc(y_true, scores)
    except DataError:
        return float("nan")


def _auc_cases(count=90, seed=20190630):
    """Seeded (labels, scores) pairs, from 2 to 120 rows."""
    data = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        n = int(data.integers(2, 121))
        scores = data.random(n)
        if index % 2:
            scores = np.round(scores, 1)
        if index % 3 == 0:
            special = data.random(n) < 0.25
            scores[special] = data.choice(SPECIAL_SCORES, special.sum())
        if index % 5 == 0:
            scores[data.random(n) < 0.15] = np.nan
        labels = (data.random(n) < data.uniform(0.1, 0.9)).astype(np.float64)
        if index % 7 == 0:
            odd = data.random(n) < 0.2
            labels[odd] = data.choice(ODD_LABELS, odd.sum())
        cases.append((labels, scores))
    return cases


def test_roc_auc_matches_golden():
    results = [_auc_or_nan(y, s) for y, s in _auc_cases()]
    # Every kind of input is present: single-class samples raise.
    assert 0 < np.isnan(results).sum() < len(results)
    assert digest(results) == GOLDEN["roc_auc"]


def _bootstrap_cases():
    """(name, y_true, y_pred, metric, n_resamples) for the paired CI."""
    data = np.random.default_rng(20190701)
    labels = (data.random(150) < 0.4).astype(np.float64)
    scores = np.clip(0.3 * labels + 0.7 * data.random(150), 0.0, 1.0)
    ties = np.round(scores, 1)
    ties[::9] = data.choice(SPECIAL_SCORES, len(ties[::9]))
    odd_labels = labels.copy()
    odd_labels[::11] = data.choice(ODD_LABELS, len(odd_labels[::11]))
    nan_scores = scores.copy()
    nan_scores[::13] = np.nan
    decisions = (scores > 0.5).astype(np.float64)
    nan_decisions = decisions.copy()
    nan_decisions[::17] = np.nan
    imbalanced = np.array([1.0] + [0.0] * 11)
    imbalanced_scores = data.random(12)
    return [
        ("auc", labels, scores, roc_auc, 100),
        ("auc_ties", labels, ties, roc_auc, 100),
        ("auc_odd_labels", odd_labels, scores, roc_auc, 100),
        ("auc_nan_scores", labels, nan_scores, roc_auc, 100),
        ("auc_single_class_resamples", imbalanced, imbalanced_scores,
         roc_auc, 200),
        ("auc_too_many_degenerate", imbalanced, imbalanced_scores,
         roc_auc, 10),
        ("accuracy", labels, decisions, accuracy, 100),
        ("accuracy_nan", labels, nan_decisions, accuracy, 100),
    ]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_bootstrap_paired_ci_matches_golden(n_jobs):
    values = []
    skipped = errors = 0
    for index, (_, y_true, y_pred, metric, n_resamples) in enumerate(
            _bootstrap_cases()):
        rng = np.random.default_rng(1000 + index)
        try:
            interval = bootstrap_paired_ci(
                y_true, y_pred, metric, rng, n_resamples=n_resamples,
                n_jobs=n_jobs,
            )
        except DataError as error:
            assert str(error) == (
                "too many degenerate resamples for a stable interval"
            )
            errors += 1
            values.append(np.nan)
        else:
            skipped += interval.n_skipped > 0
            values.extend([interval.estimate, interval.lower, interval.upper,
                           interval.confidence, interval.n_resamples,
                           interval.n_skipped])
        # Where the generator was left pins how much each call drew.
        values.append(rng.random())
    assert errors == 1 and skipped >= 1
    assert digest(values) == GOLDEN["bootstrap"]


class _GivenProbabilities:
    """A "model" whose input is already its positive-class probability."""

    def predict_proba(self, X):
        return np.asarray(X, dtype=np.float64)


def _conformal_cases():
    """(conformal, X_test, y_test): calibrated, q = inf, q = -1, edges."""
    data = np.random.default_rng(20190702)
    X = data.standard_normal((600, 3))
    y = (X @ np.array([1.2, -0.8, 0.3]) + data.standard_normal(600)
         > 0).astype(np.float64)
    model = LogisticRegression().fit(X[:300], y[:300])
    fitted = SplitConformalClassifier(model, alpha=0.1).calibrate(
        X[300:450], y[300:450]
    )
    y_test = y[450:].copy()
    y_test[::23] = data.choice(ODD_LABELS, len(y_test[::23]))

    given = _GivenProbabilities()
    probabilities = np.concatenate([
        data.random(200),
        [0.0, 1.0, 1e-13, 5e-14, 1.0 - 1e-13, 1.0 - 5e-14, 0.5, 0.2, 0.8,
         np.nan],
    ])
    labels = (data.random(len(probabilities)) < 0.5).astype(np.float64)
    labels[::7] = data.choice(ODD_LABELS, len(labels[::7]))
    cal = data.random(100)
    cal_labels = (data.random(100) < 0.5).astype(np.float64)
    cases = [(fitted, X[450:], y_test)]
    for alpha in (0.1, 0.3):
        cases.append((
            SplitConformalClassifier(given, alpha=alpha).calibrate(
                cal, cal_labels),
            probabilities, labels,
        ))
    # Five calibration rows at alpha 0.1: the quantile is inf, every
    # set holds both labels.
    cases.append((
        SplitConformalClassifier(given, alpha=0.1).calibrate(
            cal[:5], cal_labels[:5]),
        probabilities, labels,
    ))
    # Probabilities of 2 for true positives give non-conformity -1: no
    # label qualifies, so every set falls back to both labels.
    cases.append((
        SplitConformalClassifier(given, alpha=0.5).calibrate(
            np.full(20, 2.0), np.ones(20)),
        probabilities, labels,
    ))
    # q = 1 - 0.8: probabilities of 0.2 and 0.8 sit on the boundary.
    cases.append((
        SplitConformalClassifier(given, alpha=0.5).calibrate(
            np.full(20, 0.8), np.ones(20)),
        probabilities, labels,
    ))
    return cases


def test_conformal_sets_match_golden():
    values = []
    quantiles = []
    for conformal, X_test, y_test in _conformal_cases():
        quantiles.append(conformal._quantile)
        for prediction_set in conformal.predict_sets(X_test):
            values.append(prediction_set.size)
            values.extend(prediction_set.labels)
        values.append(conformal.coverage(X_test, y_test))
        values.append(conformal.mean_set_size(X_test))
    assert np.inf in quantiles and -1.0 in quantiles
    assert digest(quantiles + values) == GOLDEN["conformal"]


# -- the midrank loop as the reference ----------------------------------------

def loop_roc_auc(y_true, scores) -> float:
    """``roc_auc`` as it was: midranks from a ``while`` loop over rows."""
    y_true = np.asarray(y_true, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y_true == 1.0))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC AUC requires both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    index = 0
    while index < len(scores):
        tie_end = index
        while (tie_end + 1 < len(scores)
               and sorted_scores[tie_end + 1] == sorted_scores[index]):
            tie_end += 1
        midrank = 0.5 * (index + tie_end) + 1.0
        ranks[order[index:tie_end + 1]] = midrank
        index = tie_end + 1
    positive_rank_sum = ranks[y_true == 1.0].sum()
    return float(
        (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


_SCORE_ELEMENTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([np.nan, -0.0, 0.0, np.inf, -np.inf]),
)
_LABEL_ELEMENTS = st.sampled_from([0.0, 1.0, 0.0, 1.0, -0.0, 2.0, np.nan])


@st.composite
def labelled_scores(draw, max_rows=40):
    n = draw(st.integers(1, max_rows))
    return (draw(arrays(np.float64, n, elements=_LABEL_ELEMENTS)),
            draw(arrays(np.float64, n, elements=_SCORE_ELEMENTS)))


@given(labelled_scores())
@settings(max_examples=300, deadline=None)
def test_roc_auc_matches_the_midrank_loop(sample):
    y_true, scores = sample
    try:
        expected = loop_roc_auc(y_true, scores)
    except DataError:
        with pytest.raises(DataError):
            roc_auc(y_true, scores)
        return
    assert _bits(roc_auc(y_true, scores)) == _bits(expected)


@given(labelled_scores(), st.data())
@settings(max_examples=300, deadline=None)
def test_auc_resampler_matches_roc_auc_on_the_resample(sample, data):
    y_true, scores = sample
    worker = roc_auc.resampler(y_true, scores)
    if np.isnan(scores).any():
        # Duplicated NaN rows rank by position: no counting path.
        assert worker is None
        return
    n = len(y_true)
    idx = data.draw(arrays(np.int64, st.integers(0, 2 * n),
                           elements=st.integers(0, n - 1)))
    got = worker(idx)
    try:
        expected = roc_auc(y_true[idx], scores[idx])
    except DataError:
        assert np.isnan(got)
        return
    assert _bits(got) == _bits(expected)


def test_auc_resampler_matches_roc_auc_at_scale():
    # The rank sum is exact at any size below ~6.7e7 rows, so the
    # counting worker's elementwise sum must match the per-resample
    # AUC bit for bit on a full-sized, tie-heavy sample too.
    rng = np.random.default_rng(50_000)
    n = 50_000
    y_true = (rng.random(n) < 0.3).astype(float)
    scores = np.round(
        1.0 / (1.0 + np.exp(-(y_true + rng.standard_normal(n)))), 3)
    worker = roc_auc.resampler(y_true, scores)
    for _ in range(4):
        idx = rng.integers(0, n, n)
        assert _bits(worker(idx)) == _bits(roc_auc(y_true[idx], scores[idx]))
