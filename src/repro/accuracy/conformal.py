"""Split-conformal prediction: distribution-free accuracy guarantees (Q2).

The paper asks "how to answer questions with a *guaranteed* level of
accuracy?"  Split conformal prediction is the textbook answer: given any
fitted model and a calibration set the model never saw, the prediction
sets/intervals cover the truth with probability at least ``1 - alpha``,
with no distributional assumptions beyond exchangeability.  E4 verifies
the guarantee empirically across models and alphas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError, NotFittedError
from repro.learn.base import Classifier, Regressor


def _conformal_quantile(scores: np.ndarray, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))/n empirical quantile of the scores."""
    n = len(scores)
    rank = int(np.ceil((n + 1) * (1.0 - alpha)))
    if rank > n:
        return float(np.inf)
    return float(np.sort(scores)[rank - 1])


@dataclass(frozen=True)
class PredictionSet:
    """A conformal prediction set for one example."""

    labels: tuple[float, ...]

    def covers(self, label: float) -> bool:
        """Is the true label inside the set?"""
        return float(label) in self.labels

    @property
    def size(self) -> int:
        """Set cardinality (efficiency measure; 1 is ideal)."""
        return len(self.labels)


class SplitConformalClassifier:
    """Conformal prediction sets around any binary classifier.

    Non-conformity score: ``1 - p̂(true class)``.  A label enters the
    prediction set when its non-conformity is at most the calibration
    quantile.
    """

    def __init__(self, model: Classifier, alpha: float = 0.1):
        if not 0.0 < alpha < 1.0:
            raise DataError("alpha must be in (0, 1)")
        self.model = model
        self.alpha = alpha
        self._quantile: float | None = None

    def calibrate(self, X_cal, y_cal) -> "SplitConformalClassifier":
        """Compute the non-conformity quantile on held-out data."""
        y_cal = np.asarray(y_cal, dtype=np.float64)
        probabilities = self.model.predict_proba(X_cal)
        p_true = np.where(y_cal == 1.0, probabilities, 1.0 - probabilities)
        self._quantile = _conformal_quantile(1.0 - p_true, self.alpha)
        return self

    def _membership(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``X``: is label 0 in its set, is label 1 in its set."""
        if self._quantile is None:
            raise NotFittedError("calibrate() must run before predict_sets()")
        probabilities = np.asarray(self.model.predict_proba(X))
        threshold = self._quantile + 1e-12
        has0 = 1.0 - (1.0 - probabilities) <= threshold  # score of label 0
        has1 = 1.0 - probabilities <= threshold          # score of label 1
        empty = ~(has0 | has1)  # numerical corner: keep validity with full set
        return has0 | empty, has1 | empty

    def predict_sets(self, X) -> list[PredictionSet]:
        """Prediction sets with ≥ 1-alpha marginal coverage."""
        has0, has1 = self._membership(X)
        sets = {
            (True, False): PredictionSet((0.0,)),
            (False, True): PredictionSet((1.0,)),
            (True, True): PredictionSet((0.0, 1.0)),
        }
        return [sets[row] for row in zip(has0.tolist(), has1.tolist())]

    def covered(self, X, y_true) -> np.ndarray:
        """Per row: does its prediction set contain the true label?

        As with :meth:`PredictionSet.covers`, a label other than 0 or 1
        (NaN included) is never covered.
        """
        y_true = np.asarray(y_true, dtype=np.float64)
        has0, has1 = self._membership(X)
        if y_true.shape != has0.shape:
            raise DataError("y_true must align with X")
        return ((y_true == 0.0) & has0) | ((y_true == 1.0) & has1)

    def coverage(self, X, y_true) -> float:
        """Empirical fraction of prediction sets containing the truth."""
        return float(np.mean(self.covered(X, y_true)))

    def mean_set_size(self, X) -> float:
        """Average set cardinality (1.0 = maximally informative)."""
        has0, has1 = self._membership(X)
        return float(np.mean(has0.astype(np.int64) + has1))


class GroupConditionalConformalClassifier:
    """Conformal prediction sets with *per-group* coverage (Mondrian CP).

    Marginal conformal coverage can hide a fairness failure: 90% overall
    may be 96% for the majority and 78% for a minority whose scores are
    worse.  Calibrating one quantile per protected group restores the
    guarantee *within every group* — equalised coverage, the point where
    Q1 and Q2 meet.
    """

    def __init__(self, model: Classifier, alpha: float = 0.1):
        if not 0.0 < alpha < 1.0:
            raise DataError("alpha must be in (0, 1)")
        self.model = model
        self.alpha = alpha
        self._quantiles: dict[object, float] | None = None

    def calibrate(self, X_cal, y_cal, group_cal) -> "GroupConditionalConformalClassifier":
        """Compute one non-conformity quantile per group."""
        y_cal = np.asarray(y_cal, dtype=np.float64)
        group_cal = np.asarray(group_cal)
        if len(y_cal) != len(group_cal):
            raise DataError("y_cal and group_cal must be aligned")
        probabilities = self.model.predict_proba(X_cal)
        p_true = np.where(y_cal == 1.0, probabilities, 1.0 - probabilities)
        scores = 1.0 - p_true
        self._quantiles = {}
        for value in np.unique(group_cal):
            mask = group_cal == value
            if mask.sum() < 2:
                raise DataError(
                    f"group {value!r} has fewer than 2 calibration rows"
                )
            self._quantiles[value] = _conformal_quantile(
                scores[mask], self.alpha
            )
        return self

    def predict_sets(self, X, group) -> list[PredictionSet]:
        """Per-group-calibrated prediction sets."""
        if self._quantiles is None:
            raise NotFittedError("calibrate() must run before predict_sets()")
        group = np.asarray(group)
        probabilities = self.model.predict_proba(X)
        if len(group) != len(probabilities):
            raise DataError("group must align with X")
        sets = []
        for p, value in zip(probabilities, group):
            if value not in self._quantiles:
                raise DataError(f"unseen group {value!r} at prediction time")
            quantile = self._quantiles[value]
            labels = []
            if p <= quantile + 1e-12:          # score of label 0 is p
                labels.append(0.0)
            if 1.0 - p <= quantile + 1e-12:    # score of label 1 is 1-p
                labels.append(1.0)
            if not labels:
                labels = [0.0, 1.0]
            sets.append(PredictionSet(tuple(labels)))
        return sets

    def coverage_by_group(self, X, y_true, group) -> dict[object, float]:
        """Empirical coverage within each group."""
        y_true = np.asarray(y_true, dtype=np.float64)
        group = np.asarray(group)
        sets = self.predict_sets(X, group)
        covered = np.asarray([
            s.covers(label) for s, label in zip(sets, y_true)
        ])
        return {
            value: float(covered[group == value].mean())
            for value in np.unique(group)
        }


class SplitConformalRegressor:
    """Conformal intervals around any regressor (absolute-residual score)."""

    def __init__(self, model: Regressor, alpha: float = 0.1):
        if not 0.0 < alpha < 1.0:
            raise DataError("alpha must be in (0, 1)")
        self.model = model
        self.alpha = alpha
        self._quantile: float | None = None

    def calibrate(self, X_cal, y_cal) -> "SplitConformalRegressor":
        """Compute the residual quantile on held-out data."""
        y_cal = np.asarray(y_cal, dtype=np.float64)
        residuals = np.abs(y_cal - self.model.predict(X_cal))
        self._quantile = _conformal_quantile(residuals, self.alpha)
        return self

    def predict_intervals(self, X) -> np.ndarray:
        """``(n, 2)`` array of [lower, upper] with ≥ 1-alpha coverage."""
        if self._quantile is None:
            raise NotFittedError("calibrate() must run before predict_intervals()")
        center = self.model.predict(X)
        return np.column_stack([
            center - self._quantile, center + self._quantile
        ])

    def coverage(self, X, y_true) -> float:
        """Empirical fraction of intervals containing the truth."""
        y_true = np.asarray(y_true, dtype=np.float64)
        intervals = self.predict_intervals(X)
        return float(np.mean(
            (y_true >= intervals[:, 0]) & (y_true <= intervals[:, 1])
        ))

    def mean_width(self, X) -> float:
        """Average interval width (efficiency measure)."""
        intervals = self.predict_intervals(X)
        return float(np.mean(intervals[:, 1] - intervals[:, 0]))
