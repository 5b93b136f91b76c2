"""Random forest: the mid-tier "accurate but opaque" model.

Bagged CART trees with per-split feature subsampling.  In the
transparency experiments the forest sits between the single tree
(readable) and the MLP (fully opaque) on the accuracy/comprehensibility
frontier.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.learn.base import (
    Classifier,
    check_binary_labels,
    check_matrix,
    check_weights,
)
from repro.learn.tree import (
    DecisionTreeClassifier,
    check_max_features,
    ensemble_leaf_values,
)


class RandomForestClassifier(Classifier):
    """Ensemble of bootstrap-trained decision trees.

    Parameters
    ----------
    n_trees:
        Ensemble size.
    max_depth, min_samples_leaf:
        Passed to each tree.
    max_features:
        Features per split; ``None`` means ``ceil(sqrt(d))``.
    seed:
        Seeds the internal generator (bootstraps and feature draws).
    """

    def __init__(self, n_trees: int = 50, max_depth: int = 8,
                 min_samples_leaf: int = 3,
                 max_features: int | None = None, seed: int = 0):
        if n_trees < 1:
            raise DataError("n_trees must be >= 1")
        check_max_features(max_features)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._trees: list[DecisionTreeClassifier] = []

    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        """Train each tree on a bootstrap resample."""
        X = check_matrix(X)
        y = check_binary_labels(y)
        if len(X) != len(y):
            raise DataError(f"X has {len(X)} rows but y has {len(y)}")
        weights = check_weights(sample_weight, len(y))
        rng = np.random.default_rng(self.seed)
        n_rows, n_features = X.shape
        per_split = self.max_features
        if per_split is None:
            per_split = max(1, int(np.ceil(np.sqrt(n_features))))
        self._trees = []
        for _ in range(self.n_trees):
            sample = rng.integers(0, n_rows, size=n_rows)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=per_split,
                rng=rng,
            )
            tree.fit(X[sample], y[sample], sample_weight=weights[sample])
            self._trees.append(tree)
        self._mark_fitted()
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of the trees' leaf probabilities."""
        self._require_fitted()
        X = check_matrix(X)
        per_tree = ensemble_leaf_values(self._trees, X)  # (n, n_trees)
        # Accumulate column-by-column to keep the historical float sum
        # order (left-to-right over trees) byte-identical.
        probabilities = np.zeros(len(X), dtype=np.float64)
        for column in range(per_tree.shape[1]):
            probabilities += per_tree[:, column]
        return probabilities / len(self._trees)

    def feature_importances(self) -> np.ndarray:
        """Mean of per-tree impurity-decrease importances."""
        self._require_fitted()
        stacked = np.vstack([tree.feature_importances() for tree in self._trees])
        return stacked.mean(axis=0)
