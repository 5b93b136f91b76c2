"""Classification and regression metrics.

These are the raw ingredients; the accuracy pillar wraps them with
uncertainty (bootstrap CIs, conformal sets) because §2-Q2 demands
"meta-information on the accuracy of the output", not point scores alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError


def _check_pair(y_true, y_other) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_other = np.asarray(y_other, dtype=np.float64)
    if y_true.shape != y_other.shape or y_true.ndim != 1:
        raise DataError(
            f"inputs must be equal-length 1-D arrays, got {y_true.shape} and {y_other.shape}"
        )
    if len(y_true) == 0:
        raise DataError("metric inputs are empty")
    return y_true, y_other


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts and the rates derived from them."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        """Total examples."""
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        """Fraction of correct decisions."""
        return (self.tp + self.tn) / self.n if self.n else 0.0

    @property
    def precision(self) -> float:
        """TP / predicted positives (0 when nothing was predicted positive)."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        """True positive rate."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def false_positive_rate(self) -> float:
        """FP / actual negatives."""
        denominator = self.fp + self.tn
        return self.fp / denominator if denominator else 0.0

    @property
    def false_negative_rate(self) -> float:
        """FN / actual positives."""
        denominator = self.tp + self.fn
        return self.fn / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0

    @property
    def selection_rate(self) -> float:
        """Fraction predicted positive (the fairness base quantity)."""
        return (self.tp + self.fp) / self.n if self.n else 0.0


def confusion_matrix(y_true, y_pred) -> ConfusionMatrix:
    """Count TP/FP/TN/FN for 0/1 arrays."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    tp = int(np.sum((y_true == 1.0) & (y_pred == 1.0)))
    fp = int(np.sum((y_true == 0.0) & (y_pred == 1.0)))
    tn = int(np.sum((y_true == 0.0) & (y_pred == 0.0)))
    fn = int(np.sum((y_true == 1.0) & (y_pred == 0.0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact matches."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def precision(y_true, y_pred) -> float:
    """Positive predictive value."""
    return confusion_matrix(y_true, y_pred).precision


def recall(y_true, y_pred) -> float:
    """True positive rate."""
    return confusion_matrix(y_true, y_pred).recall


def f1_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall."""
    return confusion_matrix(y_true, y_pred).f1


def _tie_runs(sorted_scores: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``sorted_scores``.

    ``NaN != NaN``, so every NaN score is a run of its own.
    """
    starts = np.ones(len(sorted_scores), dtype=bool)
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def roc_auc(y_true, scores) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Ties in the scores receive the usual midrank treatment.
    """
    y_true, scores = _check_pair(y_true, scores)
    n_pos = int(np.sum(y_true == 1.0))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC AUC requires both classes present")
    order = np.argsort(scores, kind="stable")
    starts = _tie_runs(scores[order])
    ends = np.append(starts[1:], len(scores)) - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    positive_rank_sum = ranks[y_true == 1.0].sum()
    return float(
        (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


class _AUCResampler:
    """``roc_auc`` of bootstrap resamples, counted over one shared sort.

    A resample only changes how many copies of each row there are, so
    the sample's stable order and tie runs serve every resample: a run
    whose ``count`` copies fill sorted positions ``end - count`` to
    ``end - 1`` gets the midrank ``0.5 * (2*end - count - 1) + 1.0``,
    the loop's value for that run.  Midranks are multiples of 0.5 and
    the positive-rank sum is at most n(n+1)/2, so for fewer than ~6.7e7
    rows every partial sum is exact and the result is bit-identical to
    ``roc_auc`` on the resample, whatever the summation order.  The sum
    is therefore an elementwise product and a plain reduction, not a
    BLAS dot product, whose threads and per-process set-up cost far more
    than the arithmetic.
    """

    __slots__ = ("order", "positive", "starts")

    def __init__(self, y_true: np.ndarray, scores: np.ndarray):
        self.order = np.argsort(scores, kind="stable")
        self.positive = y_true[self.order] == 1.0
        self.starts = _tie_runs(scores[self.order])

    def __call__(self, idx: np.ndarray) -> float:
        """AUC of rows ``idx``; NaN when the resample has one class."""
        copies = np.bincount(idx, minlength=len(self.order))[self.order]
        counts = np.add.reduceat(copies, self.starts)
        positives = np.add.reduceat(copies * self.positive, self.starts)
        n_pos = int(positives.sum())
        n_neg = len(idx) - n_pos
        if n_pos == 0 or n_neg == 0:
            return float("nan")
        midranks = 0.5 * (2 * np.cumsum(counts) - counts - 1) + 1.0
        positive_rank_sum = np.add.reduce(midranks * positives)
        return float(
            (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        )


def _auc_resampler(y_true, scores) -> _AUCResampler | None:
    """The counting worker for bootstraps of ``roc_auc``, or ``None``.

    A NaN score is its own tie run, so duplicated NaN rows rank by their
    position in the resample, which counts cannot reproduce: such
    samples keep the per-resample path.
    """
    y_true, scores = _check_pair(y_true, scores)
    if np.isnan(scores).any():
        return None
    return _AUCResampler(y_true, scores)


#: The bootstrap's counting path (see ``bootstrap_paired_ci``).  An
#: attribute, not an identity check, so wrappers built with
#: ``functools.wraps`` keep it.
roc_auc.resampler = _auc_resampler


def roc_curve(y_true, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds) sweeping the decision threshold downward."""
    y_true, scores = _check_pair(y_true, scores)
    order = np.argsort(-scores, kind="stable")
    sorted_true = y_true[order]
    sorted_scores = scores[order]
    n_pos = sorted_true.sum()
    n_neg = len(sorted_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC curve requires both classes present")
    tps = np.cumsum(sorted_true)
    fps = np.cumsum(1.0 - sorted_true)
    distinct = np.append(np.flatnonzero(np.diff(sorted_scores)), len(scores) - 1)
    tpr = np.concatenate([[0.0], tps[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fps[distinct] / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct]])
    return fpr, tpr, thresholds


def log_loss(y_true, probabilities) -> float:
    """Mean negative log-likelihood of the true labels."""
    y_true, probabilities = _check_pair(y_true, probabilities)
    eps = 1e-12
    clipped = np.clip(probabilities, eps, 1.0 - eps)
    return float(-np.mean(
        y_true * np.log(clipped) + (1.0 - y_true) * np.log(1.0 - clipped)
    ))


def brier_score(y_true, probabilities) -> float:
    """Mean squared error of the probabilities."""
    y_true, probabilities = _check_pair(y_true, probabilities)
    return float(np.mean((probabilities - y_true) ** 2))


def mean_squared_error(y_true, y_pred) -> float:
    """Mean squared regression error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def mean_absolute_error(y_true, y_pred) -> float:
    """Mean absolute regression error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))
