"""CART decision trees.

The tree serves three FACT roles: a capable classifier, the base learner
of the random forest, and — crucially for the transparency pillar — the
*interpretable surrogate* that the black-box explainers distil into.
Leaves store weighted positive-class fractions so trees are probabilistic
like every other classifier here.

Hot-path design (see docs/api.md, "Hot kernels"): each feature
column is **argsorted once per fit**, feature-major (one row of row ids
per feature), and the per-node sorted orders are maintained by
partitioning the parent's presorted matrix — no re-sorting at any node.
The split search scores only *candidate* boundaries, where a feature's
sorted value changes inside the leaf-size window: on one-hot and
zero-inflated columns that is a small share of all boundaries.  Left
sums are sequential cumsums over the node's sorted rows and the gains
are the historical Python-level boundary loop's float expressions, so
the first strict maximum it found is found again.  Fitted trees
additionally keep a structure-of-arrays mirror of their nodes so
batched prediction descends with pure numpy gathers.  Both rewrites are
pinned byte-identical to the loop implementation by the golden tests in
``tests/test_learn_golden.py`` and by a hypothesis property over
tie-heavy fits in ``tests/test_properties.py``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.learn.base import (
    Classifier,
    check_binary_labels,
    check_matrix,
    check_weights,
)


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    probability: float = 0.5
    weight: float = 0.0
    depth: int = 0


def check_max_features(max_features) -> None:
    """Reject a ``max_features`` that is neither ``None`` nor an int >= 1."""
    if max_features is None:
        return
    if (isinstance(max_features, bool)
            or not isinstance(max_features, numbers.Integral)
            or max_features < 1):
        raise DataError(
            f"max_features must be None or an int >= 1, got {max_features!r}"
        )


def _weighted_gini(pos_weight: float, total_weight: float) -> float:
    if total_weight <= 0:
        return 0.0
    p = pos_weight / total_weight
    return 2.0 * p * (1.0 - p)


@dataclass
class _TreeArrays:
    """Structure-of-arrays mirror of the node list, for batched descent."""

    feature: np.ndarray      # intp, -1 for leaves
    threshold: np.ndarray    # float64
    left: np.ndarray         # intp
    right: np.ndarray        # intp
    value: np.ndarray        # float64 leaf payload (probability / Newton value)


def _descend(arrays: _TreeArrays, X: np.ndarray) -> np.ndarray:
    """Node index each row of ``X`` lands in (vectorized leaf routing).

    Rows advance one level per iteration, all via numpy gathers; the
    loop runs at most ``depth + 1`` times regardless of row count.
    """
    current = np.zeros(len(X), dtype=np.intp)
    feature = arrays.feature
    active = np.flatnonzero(feature[current] >= 0)
    rows = np.arange(len(X), dtype=np.intp)
    while len(active):
        nodes = current[active]
        split_feature = feature[nodes]
        go_left = (X[rows[active], split_feature]
                   <= arrays.threshold[nodes])
        current[active] = np.where(
            go_left, arrays.left[nodes], arrays.right[nodes]
        )
        active = active[feature[current[active]] >= 0]
    return current


def ensemble_leaf_values(trees, X: np.ndarray) -> np.ndarray:
    """Leaf payloads of every tree for every row, shape ``(n, n_trees)``.

    All trees descend simultaneously on one stacked node table: the
    Python cost is ``O(max_depth)`` iterations of whole-matrix gathers
    instead of ``O(n_trees)`` separate traversals.  Column ``t`` holds
    exactly ``trees[t].predict_proba(X)`` (same leaves, same floats).
    """
    stacks = [tree._arrays() for tree in trees]
    sizes = [len(stack.feature) for stack in stacks]
    offsets = np.cumsum([0, *sizes[:-1]])
    feature = np.concatenate([stack.feature for stack in stacks])
    threshold = np.concatenate([stack.threshold for stack in stacks])
    left = np.concatenate([stack.left for stack in stacks])
    right = np.concatenate([stack.right for stack in stacks])
    value = np.concatenate([stack.value for stack in stacks])
    # Child pointers are tree-local; rebase them onto the stacked table.
    for start, size in zip(offsets, sizes):
        inner = slice(start, start + size)
        internal = feature[inner] >= 0
        left[inner][internal] += start
        right[inner][internal] += start
    rebased_left = left
    rebased_right = right

    n = len(X)
    rows = np.arange(n, dtype=np.intp)[:, None]
    current = np.broadcast_to(offsets, (n, len(stacks))).astype(np.intp)
    while True:
        split_feature = feature[current]
        active = split_feature >= 0
        if not active.any():
            break
        x = X[rows, np.where(active, split_feature, 0)]
        go_left = x <= threshold[current]
        advanced = np.where(go_left, rebased_left[current],
                            rebased_right[current])
        current = np.where(active, advanced, current)
    return value[current]


class DecisionTreeClassifier(Classifier):
    """Binary CART tree with weighted Gini splitting.

    Parameters
    ----------
    max_depth:
        Depth budget; small values keep the tree human-readable (the
        transparency experiments sweep this).
    min_samples_leaf:
        Minimum *weighted* fraction-equivalent sample count per leaf.
    min_impurity_decrease:
        Minimum Gini improvement to accept a split.
    max_features:
        Number of features considered per split (``None`` = all); the
        forest sets this for decorrelation.
    rng:
        Generator used only when ``max_features`` subsamples features.
        ``None`` creates one seeded fallback generator *per fit* — the
        draw still differs from node to node (deterministically), it
        just needs no caller-provided stream.
    """

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 5,
                 min_impurity_decrease: float = 0.0,
                 max_features: int | None = None,
                 rng: np.random.Generator | None = None):
        if max_depth < 1:
            raise DataError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise DataError("min_samples_leaf must be >= 1")
        check_max_features(max_features)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.rng = rng
        self._nodes: list[_Node] = []
        self._n_features = 0
        self._soa: _TreeArrays | None = None
        self._feature_rng: np.random.Generator | None = None

    # -- fitting ------------------------------------------------------------

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Grow the tree depth-first."""
        X = check_matrix(X)
        y = check_binary_labels(y)
        if len(X) != len(y):
            raise DataError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise DataError("cannot fit a tree on zero rows")
        weights = check_weights(sample_weight, len(y))
        self._n_features = X.shape[1]
        self._nodes = []
        # One fallback stream per fit: max_features subsampling must draw
        # a *different* subset at every node while staying deterministic.
        self._feature_rng = (self.rng if self.rng is not None
                             else np.random.default_rng(0))
        # Feature-major copy, pre-sorted once: row f of ``presorted``
        # orders the rows by feature f, and nodes partition this matrix
        # instead of re-argsorting their rows at every candidate split.
        columns = np.ascontiguousarray(X.T)
        presorted = np.argsort(columns, axis=1, kind="stable")
        positive = weights * (y == 1.0)
        self._grow(columns, y, weights, positive, np.arange(len(y)),
                   presorted, depth=0)
        self._refresh_arrays()
        self._mark_fitted()
        return self

    def _grow(self, columns: np.ndarray, y: np.ndarray, weights: np.ndarray,
              positive: np.ndarray, indices: np.ndarray,
              presorted: np.ndarray, depth: int) -> int:
        node_index = len(self._nodes)
        w = weights[indices]
        total = w.sum()
        pos = float(w[y[indices] == 1.0].sum())
        probability = pos / total if total > 0 else 0.5
        node = _Node(probability=probability, weight=float(total), depth=depth)
        self._nodes.append(node)

        if (depth >= self.max_depth or len(indices) < 2 * self.min_samples_leaf
                or probability in (0.0, 1.0)):
            return node_index
        split = self._best_split(columns, weights, positive, presorted,
                                 total, pos)
        if split is None:
            return node_index
        feature, threshold = split
        mask = columns[feature].take(indices) <= threshold
        left_idx, right_idx = indices.compress(mask), indices.compress(~mask)
        # Partition each feature's presorted row by membership: child
        # orders stay sorted (stable subsequences of a stable sort).
        # ``compress`` on the flat arrays, not a boolean subscript,
        # which is several times slower on a random mask.
        in_left = np.zeros(columns.shape[1], dtype=bool)
        in_left[left_idx] = True
        member = in_left.take(presorted).ravel()
        n_features = len(presorted)
        left_sorted = presorted.compress(member).reshape(
            n_features, len(left_idx))
        right_sorted = presorted.compress(~member).reshape(
            n_features, len(right_idx))
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(columns, y, weights, positive, left_idx,
                               left_sorted, depth + 1)
        node.right = self._grow(columns, y, weights, positive, right_idx,
                                right_sorted, depth + 1)
        return node_index

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        rng = (self._feature_rng if self._feature_rng is not None
               else np.random.default_rng(0))
        return rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(self, columns: np.ndarray, weights: np.ndarray,
                    positive: np.ndarray, presorted: np.ndarray,
                    total: float, total_pos: float
                    ) -> tuple[int, float] | None:
        """Best (feature, threshold), scoring candidate boundaries only.

        A candidate is a boundary ``b`` (``b + 1`` rows to its left)
        that leaves ``min_samples_leaf`` rows on each side and where
        the feature's sorted value strictly increases; every other
        boundary can never win.  Left sums are sequential cumsums over
        the node's sorted rows, and the gains use the historical
        loop's float expressions elementwise, so the winner — the
        first strict maximum in (feature order, boundary order) — and
        the fitted tree are byte-identical to it.
        """
        n_features, m = presorted.shape
        features = self._candidate_features(n_features)
        order = (presorted if len(features) == n_features
                 else presorted[features])
        # Boundaries b in [low, high) leave min_samples_leaf rows a side.
        low, high = self.min_samples_leaf - 1, m - self.min_samples_leaf
        values = columns.take(order + (features * columns.shape[1])[:, None])
        # Candidates, flat in (feature, boundary) order over the prefix.
        candidate = np.zeros((len(order), high), dtype=bool)
        np.greater(values[:, low + 1:high + 1], values[:, low:high],
                   out=candidate[:, low:])
        at = np.flatnonzero(candidate)
        if not len(at):
            return None
        prefix = order[:, :high]
        left_w = np.cumsum(weights.take(prefix), axis=1).take(at)
        left_pos = np.cumsum(positive.take(prefix), axis=1).take(at)

        # The historical gain expressions, evaluated in place on the
        # candidates: each step is the same IEEE operation on the same
        # operands.  A side without weight has Gini 0.
        right_w = total - left_w
        right_pos = total_pos - left_pos
        complement = np.empty_like(left_w)
        with np.errstate(divide="ignore", invalid="ignore"):
            for side_w, side_pos in ((left_w, left_pos), (right_w, right_pos)):
                gini = np.divide(side_pos, side_w, out=side_pos)
                np.subtract(1.0, gini, out=complement)
                np.multiply(2.0, gini, out=gini)
                np.multiply(gini, complement, out=gini)
                np.copyto(gini, 0.0, where=~(side_w > 0))
                np.divide(side_w, total, out=side_w)
                np.multiply(side_w, gini, out=side_w)
            gain = np.add(left_w, right_w, out=left_w)
            np.subtract(_weighted_gini(total_pos, total), gain, out=gain)
        # A zero-weight node has only NaN gains, which never pass.
        passing = gain > self.min_impurity_decrease + 1e-12
        if not passing.any():
            return None
        np.copyto(gain, -np.inf, where=~passing)
        row, boundary = divmod(int(at[np.argmax(gain)]), high)
        midpoint = 0.5 * (values[row, boundary] + values[row, boundary + 1])
        return int(features[row]), float(midpoint)

    # -- prediction -----------------------------------------------------------

    def _refresh_arrays(self) -> None:
        """Rebuild the structure-of-arrays mirror after node mutation."""
        nodes = self._nodes
        self._soa = _TreeArrays(
            feature=np.array([n.feature for n in nodes], dtype=np.intp),
            threshold=np.array([n.threshold for n in nodes], dtype=np.float64),
            left=np.array([n.left for n in nodes], dtype=np.intp),
            right=np.array([n.right for n in nodes], dtype=np.intp),
            value=np.array([n.probability for n in nodes], dtype=np.float64),
        )

    def _arrays(self) -> _TreeArrays:
        if self._soa is None:
            self._refresh_arrays()
        return self._soa

    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Node index of the leaf each row reaches."""
        return _descend(self._arrays(), X)

    def predict_proba(self, X) -> np.ndarray:
        """Leaf positive-class fractions, computed by batched descent."""
        self._require_fitted()
        X = check_matrix(X)
        if X.shape[1] != self._n_features:
            raise DataError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        arrays = self._arrays()
        return arrays.value[_descend(arrays, X)]

    # -- introspection (transparency pillar) --------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        self._require_fitted()
        return len(self._nodes)

    @property
    def n_leaves(self) -> int:
        """Leaf count — the usual proxy for rule-set size."""
        self._require_fitted()
        return sum(1 for node in self._nodes if node.feature == -1)

    def depth(self) -> int:
        """Realised depth of the fitted tree."""
        self._require_fitted()
        return max(node.depth for node in self._nodes)

    def feature_importances(self) -> np.ndarray:
        """Weighted impurity decrease attributed to each feature."""
        self._require_fitted()
        importances = np.zeros(self._n_features)
        for node in self._nodes:
            if node.feature == -1:
                continue
            left, right = self._nodes[node.left], self._nodes[node.right]
            parent_imp = _weighted_gini(node.probability * node.weight, node.weight)
            child_imp = (
                _weighted_gini(left.probability * left.weight, left.weight)
                + _weighted_gini(right.probability * right.weight, right.weight)
            )
            importances[node.feature] += max(0.0, parent_imp - child_imp)
        total = importances.sum()
        return importances / total if total > 0 else importances

    def to_rules(self, feature_names: list[str] | None = None) -> list[str]:
        """Render the tree as human-readable decision rules."""
        self._require_fitted()

        def name(feature: int) -> str:
            if feature_names is not None:
                return feature_names[feature]
            return f"x[{feature}]"

        rules: list[str] = []

        def walk(node_index: int, conditions: list[str]) -> None:
            node = self._nodes[node_index]
            if node.feature == -1:
                clause = " and ".join(conditions) if conditions else "always"
                rules.append(f"if {clause}: P(positive) = {node.probability:.3f}")
                return
            walk(node.left,
                 conditions + [f"{name(node.feature)} <= {node.threshold:.4g}"])
            walk(node.right,
                 conditions + [f"{name(node.feature)} > {node.threshold:.4g}"])

        walk(0, [])
        return rules
