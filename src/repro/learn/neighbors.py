"""k-nearest-neighbour classification.

Besides being a baseline classifier, the neighbour machinery backs two
responsibility tools: *situation testing* for individual fairness (find a
person's cross-group twins and compare decisions) and the consistency
metric (do similar people get similar outcomes?).

Hot-path design (see docs/api.md, "Hot kernels"): queries are
processed in blocks so the working distance matrix stays bounded
(``_BLOCK_ELEMENTS`` floats) no matter how many queries arrive, and each
block selects its ``k`` nearest rows on the *squared* distances with an
``np.partition`` order statistic — no full ``argsort`` and no full
``sqrt`` of every pool distance; ``sqrt`` runs only on the selected
candidates.  The selection is provably identical to
``np.argsort(distances, axis=1, kind="stable")[:, :k]`` of the rounded
distances: monotone ``sqrt`` commutes with order statistics, a 1e-15
relative margin on the k-th squared value admits every entry whose
*rounded* root could tie it (IEEE sqrt errs by <= 0.5 ulp, so equal
roots imply squares within a factor ``(1+eps)^4``), and the survivors
are ordered by ``(distance, pool index)`` exactly as a stable full sort
would.
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

# Working-set bound for blocked search: the per-block distance matrix
# holds at most this many float64s (~64 MB).
_BLOCK_ELEMENTS = 8_000_000


def pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``A`` and ``B``."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    squared = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.sqrt(np.maximum(squared, 0.0))


def _block_rows(n_pool: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_pool))


# Relative margin admitting every squared value whose *rounded* root
# could equal the k-th distance: correctly-rounded sqrt errs by at most
# half an ulp, so fl(sqrt(s)) <= fl(sqrt(t)) implies s <= t*(1+eps)^4
# with eps ~ 1.1e-16; 1e-15 covers that with room to spare.
_SQRT_TIE_MARGIN = 1.0 + 1e-15


def _topk_block(squared: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort-exact top-``k`` of a clamped *squared*-distance block.

    Returns ``(indices, distances)`` of shape ``(rows, k)``, ordered by
    ``(distance, pool index)`` — byte-identical to a stable full
    ``argsort`` of ``np.sqrt(squared)`` truncated to ``k`` columns.
    Only the candidate entries are ever square-rooted.
    """
    rows, n_pool = squared.shape
    if k >= n_pool:
        distances = np.sqrt(squared)
        order = np.argsort(distances, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(distances, order, axis=1)
    # The k-th smallest squared value; monotone sqrt commutes with order
    # statistics, so sqrt(kth) is the k-th smallest distance.
    kth = np.partition(squared, k - 1, axis=1)[:, k - 1]
    candidate = squared <= (kth * _SQRT_TIE_MARGIN)[:, None]
    counts = candidate.sum(axis=1)
    if counts.max() == k:
        # No rounding-boundary extras: the candidates ARE the top-k.
        # np.nonzero is row-major, so each row's columns ascend.
        row_ids, col_ids = np.nonzero(candidate)
        indices = col_ids.reshape(rows, k)
        distances = np.sqrt(squared[row_ids, col_ids].reshape(rows, k))
        # Candidates sit in ascending pool order, so a stable distance
        # sort yields (distance, pool index) — the full stable order.
        order = np.argsort(distances, axis=1, kind="stable")
        return (np.take_along_axis(indices, order, axis=1),
                np.take_along_axis(distances, order, axis=1))
    # Some rows carry ties or margin extras: the candidate superset
    # still contains the exact top-k, so per-row (distance, pool index)
    # selection among candidates is exact.
    indices = np.empty((rows, k), dtype=np.intp)
    values = np.empty((rows, k), dtype=np.float64)
    for row in range(rows):
        cols = np.nonzero(candidate[row])[0]
        d = np.sqrt(squared[row, cols])
        order = np.argsort(d, kind="stable")[:k]
        indices[row] = cols[order]
        values[row] = d[order]
    return indices, values


def _blocked_search(queries: np.ndarray, pool: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` neighbour (indices, distances) with bounded memory."""
    queries = np.asarray(queries, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    n = len(queries)
    step = _block_rows(len(pool))
    indices = np.empty((n, k), dtype=np.intp)
    values = np.empty((n, k), dtype=np.float64)
    pool_sq = np.sum(pool**2, axis=1)[None, :]
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = queries[start:stop]
        # Same association order as pairwise_distances, so the squared
        # values (and their roots) are byte-identical to it.
        squared = (
            np.sum(block**2, axis=1)[:, None]
            + pool_sq
            - 2.0 * block @ pool.T
        )
        np.maximum(squared, 0.0, out=squared)
        indices[start:stop], values[start:stop] = _topk_block(squared, k)
    return indices, values


def nearest_indices(queries: np.ndarray, pool: np.ndarray,
                    k: int) -> np.ndarray:
    """Indices into ``pool`` of the ``k`` nearest rows for each query."""
    if k < 1:
        raise DataError("k must be >= 1")
    if len(pool) < k:
        raise DataError(f"pool has {len(pool)} rows, need at least {k}")
    return _blocked_search(queries, pool, k)[0]


class KNeighborsClassifier(Classifier):
    """Weighted k-NN with distance or uniform vote weighting."""

    def __init__(self, k: int = 5, distance_weighted: bool = False):
        if k < 1:
            raise DataError("k must be >= 1")
        self.k = k
        self.distance_weighted = distance_weighted
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._w: np.ndarray | None = None

    def fit(self, X, y, sample_weight=None) -> "KNeighborsClassifier":
        """Memorise the training set."""
        X = check_matrix(X)
        y = check_binary_labels(y)
        if len(X) != len(y):
            raise DataError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) < self.k:
            raise DataError(f"need at least k={self.k} training rows")
        self._X = X
        self._y = y
        self._w = check_weights(sample_weight, len(y))
        self._mark_fitted()
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Weighted positive-vote fraction among the k nearest points."""
        self._require_fitted()
        X = check_matrix(X)
        neighbour_idx, d = _blocked_search(X, self._X, self.k)
        votes = self._y[neighbour_idx]
        weights = self._w[neighbour_idx]
        if self.distance_weighted:
            weights = weights / (d + 1e-9)
        return (votes * weights).sum(axis=1) / weights.sum(axis=1)
