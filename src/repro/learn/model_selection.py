"""Cross-validation and grid search over the table interface.

§2-Q2 warns that "if enough hypotheses are tested, one will eventually be
true for the sample data used" — model selection is hypothesis testing in
disguise, so scores here always come with their across-fold spread, and
grid search reports *every* configuration it tried (the forking paths are
recorded, not hidden).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.data.split import k_fold_indices
from repro.exceptions import DataError
from repro.learn import metrics as metrics_module
from repro.learn.base import Classifier
from repro.parallel import pmap

_METRICS = {
    "accuracy": lambda y, p: metrics_module.accuracy(y, (p >= 0.5).astype(float)),
    "auc": metrics_module.roc_auc,
    "log_loss": metrics_module.log_loss,
    "brier": metrics_module.brier_score,
}
_HIGHER_IS_BETTER = {"accuracy": True, "auc": True, "log_loss": False, "brier": False}


@dataclass(frozen=True)
class CVResult:
    """Per-fold scores for one configuration."""

    scores: np.ndarray
    metric: str

    @property
    def mean(self) -> float:
        """Mean across folds."""
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        """Standard deviation across folds."""
        return float(np.std(self.scores))


class _FoldScoreTask:
    """Worker: fit a clone on one fold and score the held-out."""

    __slots__ = ("model", "X", "y", "metric")

    def __init__(self, model: Classifier, X: np.ndarray, y: np.ndarray,
                 metric: str):
        self.model = model
        self.X = X
        self.y = y
        self.metric = metric

    def __call__(self, fold: tuple[np.ndarray, np.ndarray]) -> float:
        train_idx, test_idx = fold
        fold_model = self.model.clone()
        fold_model.fit(self.X[train_idx], self.y[train_idx])
        probabilities = fold_model.predict_proba(self.X[test_idx])
        return _METRICS[self.metric](self.y[test_idx], probabilities)


def cross_val_score(model: Classifier, X, y, n_folds: int,
                    rng: np.random.Generator | None = None,
                    metric: str = "accuracy",
                    n_jobs: int | None = None,
                    folds: list[tuple[np.ndarray, np.ndarray]] | None = None,
                    ) -> CVResult:
    """K-fold cross-validation of a classifier on a design matrix.

    ``folds`` accepts precomputed ``(train_idx, test_idx)`` pairs so
    several candidates can share one split (see :func:`grid_search`);
    otherwise the split is drawn from ``rng``.  ``n_jobs`` fits the
    folds in parallel (``None`` defers to ``$REPRO_N_JOBS``) with
    scores assembled in fold order — identical for every setting.
    """
    if metric not in _METRICS:
        raise DataError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if folds is None:
        if rng is None:
            raise DataError("cross_val_score needs an rng (or explicit folds)")
        folds = k_fold_indices(len(y), n_folds, rng)
    worker = _FoldScoreTask(model, X, y, metric)
    scores = pmap(worker, folds, n_jobs=n_jobs, chunk_size=1,
                  name="cross_val")
    return CVResult(np.asarray(scores), metric)


@dataclass
class GridSearchResult:
    """Everything a grid search tried, plus the winner.

    ``trials`` keeps the full forking-paths record: (params, CVResult)
    for every configuration, in evaluation order.
    """

    best_params: dict[str, object]
    best_score: float
    metric: str
    trials: list[tuple[dict[str, object], CVResult]] = field(default_factory=list)

    @property
    def n_configurations(self) -> int:
        """How many hypotheses the search implicitly tested."""
        return len(self.trials)


class _CandidateTask:
    """Worker: cross-validate one grid candidate on shared folds."""

    __slots__ = ("model_factory", "X", "y", "n_folds", "metric", "folds")

    def __init__(self, model_factory, X, y, n_folds: int, metric: str,
                 folds: list[tuple[np.ndarray, np.ndarray]]):
        self.model_factory = model_factory
        self.X = X
        self.y = y
        self.n_folds = n_folds
        self.metric = metric
        self.folds = folds

    def __call__(self, params: dict[str, object]) -> CVResult:
        return cross_val_score(
            self.model_factory(**params), self.X, self.y, self.n_folds,
            metric=self.metric, folds=self.folds,
        )


def grid_search(model_factory, grid: dict[str, list], X, y, n_folds: int,
                rng: np.random.Generator,
                metric: str = "accuracy",
                n_jobs: int | None = None) -> GridSearchResult:
    """Exhaustive search over a parameter grid with k-fold scoring.

    ``model_factory`` is called with each parameter combination as keyword
    arguments and must return an unfitted classifier.

    The fold split is drawn from ``rng`` **once** and shared by every
    candidate — an apples-to-apples comparison (per-candidate splits
    add split noise to the selection) and the reason the search is
    deterministic however wide it fans out: with the split fixed up
    front, candidate evaluation is pure computation, and ``n_jobs``
    (``None`` defers to ``$REPRO_N_JOBS``) changes wall-clock only.
    """
    if not grid:
        raise DataError("grid must contain at least one parameter")
    names = list(grid)
    folds = k_fold_indices(len(y), n_folds, rng)
    candidates = [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]
    worker = _CandidateTask(model_factory, X, y, n_folds, metric, folds)
    results = pmap(worker, candidates, n_jobs=n_jobs, chunk_size=1,
                   name="grid_search")
    trials = list(zip(candidates, results))
    higher = _HIGHER_IS_BETTER[metric]
    best_params, best_result = (
        max(trials, key=lambda item: item[1].mean) if higher
        else min(trials, key=lambda item: item[1].mean)
    )
    return GridSearchResult(
        best_params=best_params, best_score=best_result.mean,
        metric=metric, trials=trials,
    )
