"""Permutation feature importance (Q4).

Model-agnostic: shuffle one feature at a time and measure how much the
model's quality drops.  Works on the MLP "black box" exactly as on a
tree, which is the point — transparency tooling must not depend on the
model's goodwill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.learn.base import Classifier
from repro.learn.metrics import accuracy, roc_auc
from repro.parallel import pmap


@dataclass(frozen=True)
class ImportanceResult:
    """Per-feature importance with repeat spread."""

    feature_names: list[str]
    importances: np.ndarray
    stds: np.ndarray
    baseline_score: float
    metric: str

    def ranked(self) -> list[tuple[str, float]]:
        """(name, importance) pairs, most important first."""
        order = np.argsort(-self.importances, kind="stable")
        return [
            (self.feature_names[index], float(self.importances[index]))
            for index in order
        ]

    def render(self, top: int = 10) -> str:
        """Human-readable importance table."""
        lines = [f"permutation importance ({self.metric}, baseline "
                 f"{self.baseline_score:.4f})"]
        for name, value in self.ranked()[:top]:
            lines.append(f"  {name}: {value:+.4f}")
        return "\n".join(lines)


class _ShuffleScoreTask:
    """Worker: score drop for one (feature, permutation) pair."""

    __slots__ = ("model", "X", "y", "metric", "baseline")

    def __init__(self, model: Classifier, X: np.ndarray, y: np.ndarray,
                 metric: str, baseline: float):
        self.model = model
        self.X = X
        self.y = y
        self.metric = metric
        self.baseline = baseline

    def _score(self, matrix: np.ndarray) -> float:
        probabilities = self.model.predict_proba(matrix)
        if self.metric == "accuracy":
            return accuracy(self.y, (probabilities >= 0.5).astype(np.float64))
        if self.metric == "auc":
            return roc_auc(self.y, probabilities)
        raise DataError(f"unknown metric {self.metric!r}")

    def __call__(self, task: tuple[int, np.ndarray]) -> float:
        feature, permutation = task
        shuffled = self.X.copy()
        shuffled[:, feature] = shuffled[:, feature][permutation]
        return self.baseline - self._score(shuffled)


def permutation_importance(model: Classifier, X, y,
                           rng: np.random.Generator,
                           n_repeats: int = 5,
                           metric: str = "accuracy",
                           feature_names: list[str] | None = None,
                           n_jobs: int | None = None) -> ImportanceResult:
    """Mean score drop when each column is independently shuffled.

    ``n_jobs`` fans the (feature, repeat) evaluations out via
    :mod:`repro.parallel` (``None`` defers to ``$REPRO_N_JOBS``).  The
    shuffles are pre-drawn from ``rng`` in the serial loop's order and
    drops land in a fixed (feature, repeat) grid, so importances are
    bit-identical for every ``n_jobs``.  Nothing is memoised here; the
    FACT audit caches its whole transparency section as one plan node.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise DataError("X must be 2-D and aligned with y")
    if n_repeats < 1:
        raise DataError("n_repeats must be >= 1")
    n_features = X.shape[1]
    if feature_names is None:
        feature_names = [f"x{index}" for index in range(n_features)]
    if len(feature_names) != n_features:
        raise DataError("feature_names must match the matrix width")
    worker = _ShuffleScoreTask(model, X, y, metric, 0.0)
    baseline = worker._score(X)
    worker.baseline = baseline
    n = len(X)
    # ``rng.permutation(column)`` and ``column[rng.permutation(n)]``
    # consume the same stream and produce the same arrangement, so
    # pre-drawing index permutations here keeps historical results.
    tasks = [
        (feature, rng.permutation(n))
        for feature in range(n_features)
        for _ in range(n_repeats)
    ]
    flat = pmap(worker, tasks, n_jobs=n_jobs, name="importance")
    drops = np.asarray(flat).reshape(n_features, n_repeats)
    return ImportanceResult(
        feature_names=list(feature_names),
        importances=drops.mean(axis=1),
        stds=drops.std(axis=1),
        baseline_score=baseline,
        metric=metric,
    )
