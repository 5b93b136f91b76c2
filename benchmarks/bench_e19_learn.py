"""E19 — hot learn kernels: vectorized vs the old loops.

ROADMAP item 5: the measured speed pass the profiling/bench investment
was built for.  This bench pins every claim with the *old*
implementations carried along as executable baselines:

* **Tree fit** — presorted, fully vectorized masked-gain splitting vs
  the historical per-node argsort + Python boundary loop.  Fitted node
  state and predictions must be byte-identical.
* **k-NN search** — blocked partition-select ``nearest_indices`` vs the
  full stable ``argsort`` of every pool distance.  Neighbour indices
  must be byte-identical.
* **MLP training** — flat-parameter fused in-place Adam vs the
  per-layer allocating update loop.  Fitted weights, biases, and
  predictions must be byte-identical.

The printed table is the record; ``BENCH_learn.json`` at the repository
root is frozen history from before ``python -m repro bench`` became the
front door of ``perf/``.

Run directly (``python benchmarks/bench_e19_learn.py``); pass
``--smoke`` for the quick CI-sized variant, plus ``--check`` to enforce
the (relaxed) smoke-size speedup floors on every push.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks._tools import SEED, emit, format_table  # noqa: E402
from repro.learn.mlp import MLPClassifier  # noqa: E402
from repro.learn.neighbors import (  # noqa: E402
    nearest_indices,
    pairwise_distances,
)
from repro.learn.tree import DecisionTreeClassifier  # noqa: E402

#: Full-size floors (ISSUE 8 acceptance criteria); smoke floors under
#: ``--check`` are deliberately loose — CI runners are noisy.
FULL_FLOORS = {"tree_fit": 3.0, "knn": 5.0, "mlp_epoch": 1.5}
SMOKE_FLOORS = {"tree_fit": 2.0, "knn": 1.5, "mlp_epoch": 1.1}


def _timed(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


# -- naive baselines: the pre-optimisation implementations, verbatim ------


def _gini(pos: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = pos / total
    return 2.0 * p * (1.0 - p)


def naive_tree_fit(X, y, max_depth, min_samples_leaf):
    """The historical tree fit: per-node argsort + Python boundary loop.

    Returns the node list as parallel arrays (feature, threshold, left,
    right, probability) for exact comparison against the presorted
    vectorized implementation.
    """
    weights = np.ones(len(y))
    nodes: list[list] = []  # [feature, threshold, left, right, prob]

    def best_split(indices):
        w = weights[indices]
        labels = y[indices]
        total = w.sum()
        total_pos = float(w[labels == 1.0].sum())
        parent_impurity = _gini(total_pos, total)
        best = None
        for feature in range(X.shape[1]):
            values = X[indices, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_w = w[order]
            sorted_pos = sorted_w * (labels[order] == 1.0)
            cum_w = np.cumsum(sorted_w)
            cum_pos = np.cumsum(sorted_pos)
            boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
            for boundary in boundaries:
                n_left = boundary + 1
                n_right = len(indices) - n_left
                if n_left < min_samples_leaf or n_right < min_samples_leaf:
                    continue
                left_w = cum_w[boundary]
                right_w = total - left_w
                left_pos = cum_pos[boundary]
                right_pos = total_pos - left_pos
                impurity = (left_w / total * _gini(left_pos, left_w)
                            + right_w / total * _gini(right_pos, right_w))
                gain = parent_impurity - impurity
                if gain <= 1e-12:
                    continue
                if best is None or gain > best[0]:
                    midpoint = 0.5 * (sorted_values[boundary]
                                      + sorted_values[boundary + 1])
                    best = (gain, int(feature), float(midpoint))
        if best is None:
            return None
        return best[1], best[2]

    def grow(indices, depth):
        node_index = len(nodes)
        w = weights[indices]
        total = w.sum()
        pos = float(w[y[indices] == 1.0].sum())
        probability = pos / total if total > 0 else 0.5
        nodes.append([-1, 0.0, -1, -1, probability])
        if (depth >= max_depth or len(indices) < 2 * min_samples_leaf
                or probability in (0.0, 1.0)):
            return node_index
        split = best_split(indices)
        if split is None:
            return node_index
        feature, threshold = split
        mask = X[indices, feature] <= threshold
        nodes[node_index][0] = feature
        nodes[node_index][1] = threshold
        nodes[node_index][2] = grow(indices[mask], depth + 1)
        nodes[node_index][3] = grow(indices[~mask], depth + 1)
        return node_index

    grow(np.arange(len(y)), 0)
    return nodes


def naive_tree_predict(nodes, X):
    """The historical stack-based batched descent."""
    out = np.empty(len(X), dtype=np.float64)
    stack = [(0, np.arange(len(X)))]
    while stack:
        node_index, rows = stack.pop()
        if len(rows) == 0:
            continue
        feature, threshold, left, right, probability = nodes[node_index]
        if feature == -1:
            out[rows] = probability
            continue
        mask = X[rows, feature] <= threshold
        stack.append((left, rows[mask]))
        stack.append((right, rows[~mask]))
    return out


def naive_nearest_indices(queries, pool, k):
    """The historical search: full distances + full stable argsort."""
    distances = pairwise_distances(queries, pool)
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


def naive_mlp_fit(model: MLPClassifier, X, y):
    """The historical per-layer allocating Adam loop, on a fresh model.

    Mirrors the old ``MLPClassifier.fit`` body exactly; returns the
    fitted ``(weights, biases)`` for byte-comparison.
    """
    weights = np.ones(len(y))
    rng = np.random.default_rng(model.seed)
    model._initialise(X.shape[1], rng)
    m_w = [np.zeros_like(W) for W in model._weights]
    v_w = [np.zeros_like(W) for W in model._weights]
    m_b = [np.zeros_like(b) for b in model._biases]
    v_b = [np.zeros_like(b) for b in model._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(model.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), model.batch_size):
            batch = order[start:start + model.batch_size]
            step += 1
            Xb, yb, wb = X[batch], y[batch], weights[batch]
            activations, probabilities = model._forward(Xb)
            delta = (wb * (probabilities - yb) / len(batch))[:, None]
            grads_w = [None] * len(model._weights)
            grads_b = [None] * len(model._weights)
            for layer in reversed(range(len(model._weights))):
                grads_w[layer] = (activations[layer].T @ delta
                                  + model.l2 * model._weights[layer])
                grads_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = delta @ model._weights[layer].T
                    delta *= activations[layer] > 0.0
            for layer in range(len(model._weights)):
                for params, grads, m, v in (
                    (model._weights, grads_w, m_w, v_w),
                    (model._biases, grads_b, m_b, v_b),
                ):
                    m[layer] = beta1 * m[layer] + (1 - beta1) * grads[layer]
                    v[layer] = (beta2 * v[layer]
                                + (1 - beta2) * grads[layer] ** 2)
                    m_hat = m[layer] / (1 - beta1 ** step)
                    v_hat = v[layer] / (1 - beta2 ** step)
                    params[layer] -= (model.learning_rate * m_hat
                                      / (np.sqrt(v_hat) + eps))
    return model._weights, model._biases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    parser.add_argument("--check", action="store_true",
                        help="enforce speedup floors even at smoke size")
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else 3
    if args.smoke:
        n_train, n_query, k = 1200, 400, 10
        epochs = 3
        knn_pool_rows = None            # search the training set
    else:
        n_train, n_query, k = 6000, 800, 10
        epochs = 8
        # Dedicated situation-testing-sized pool: at full size the k-NN
        # claim is about searching a large population, where the full
        # argsort baseline degrades fastest.
        knn_pool_rows = 40_000

    rng = np.random.default_rng(SEED)
    X = rng.standard_normal((n_train, 12))
    logits = X[:, 0] - 0.7 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3]
    y = (logits + 0.3 * rng.standard_normal(n_train) > 0).astype(float)
    queries = rng.standard_normal((n_query, 12))
    knn_pool = (X if knn_pool_rows is None
                else rng.standard_normal((knn_pool_rows, 12)))

    failures = []
    speedups = {}

    # -- tree fit: presorted vectorized vs boundary loop -----------------
    tree, fast_tree_s = _timed(
        lambda: DecisionTreeClassifier(max_depth=8,
                                       min_samples_leaf=5).fit(X, y),
        repeats,
    )
    naive_nodes, naive_tree_s = _timed(
        lambda: naive_tree_fit(X, y, max_depth=8, min_samples_leaf=5),
        max(1, repeats - 1),
    )
    arrays = tree._arrays()
    same_structure = (
        len(naive_nodes) == len(tree._nodes)
        and np.array_equal(arrays.feature,
                           np.array([n[0] for n in naive_nodes]))
        and np.array_equal(arrays.threshold,
                           np.array([n[1] for n in naive_nodes]))
        and np.array_equal(arrays.value,
                           np.array([n[4] for n in naive_nodes]))
    )
    if not same_structure:
        failures.append("TREE MISMATCH: vectorized fit built a different tree")
    if not np.array_equal(tree.predict_proba(queries),
                          naive_tree_predict(naive_nodes, queries)):
        failures.append("TREE MISMATCH: predictions differ")
    speedups["tree_fit"] = naive_tree_s / fast_tree_s if fast_tree_s else 0.0

    # -- k-NN: blocked partition-select vs full stable argsort -----------
    fast_idx, fast_knn_s = _timed(
        lambda: nearest_indices(queries, knn_pool, k), repeats
    )
    naive_idx, naive_knn_s = _timed(
        lambda: naive_nearest_indices(queries, knn_pool, k), repeats
    )
    if not np.array_equal(fast_idx, naive_idx):
        failures.append("KNN MISMATCH: neighbour indices differ")
    speedups["knn"] = naive_knn_s / fast_knn_s if fast_knn_s else 0.0

    # -- MLP: fused flat-parameter Adam vs per-layer loop ----------------
    fast_mlp, fast_mlp_s = _timed(
        lambda: MLPClassifier(hidden=(32, 16), epochs=epochs, batch_size=64,
                              seed=SEED).fit(X, y),
        repeats,
    )
    (naive_w, naive_b), naive_mlp_s = _timed(
        lambda: naive_mlp_fit(
            MLPClassifier(hidden=(32, 16), epochs=epochs, batch_size=64,
                          seed=SEED), X, y),
        max(1, repeats - 1),
    )
    if not (all(np.array_equal(a, b)
                for a, b in zip(fast_mlp._weights, naive_w))
            and all(np.array_equal(a, b)
                    for a, b in zip(fast_mlp._biases, naive_b))):
        failures.append("MLP MISMATCH: fitted parameters differ")
    speedups["mlp_epoch"] = (naive_mlp_s / fast_mlp_s
                             if fast_mlp_s else 0.0)  # same epoch count

    floors = {}
    if not args.smoke:
        floors = FULL_FLOORS
    elif args.check:
        floors = SMOKE_FLOORS
    for metric, floor in floors.items():
        if speedups[metric] < floor:
            failures.append(
                f"SPEEDUP REGRESSION: {metric} only {speedups[metric]:.2f}x "
                f"over the pre-optimisation baseline (floor {floor}x)"
            )

    title = (
        f"E19{' (smoke)' if args.smoke else ''}: hot learn kernels "
        f"vs pre-optimisation baselines ({n_train} train rows)"
    )
    table_text = format_table(
        title,
        ["kernel", "fast_s", "naive_s", "speedup", "identical"],
        [
            ["tree fit", fast_tree_s, naive_tree_s, speedups["tree_fit"],
             "NO" if any(f.startswith("TREE") for f in failures) else "yes"],
            [f"k-NN (k={k}, pool {len(knn_pool)})", fast_knn_s,
             naive_knn_s, speedups["knn"],
             "NO" if any(f.startswith("KNN") for f in failures) else "yes"],
            [f"MLP ({epochs} epochs)", fast_mlp_s, naive_mlp_s,
             speedups["mlp_epoch"],
             "NO" if any(f.startswith("MLP") for f in failures) else "yes"],
        ],
    )
    emit(table_text)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
