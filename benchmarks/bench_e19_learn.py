"""E19 — hot learn kernels: vectorized vs the old loops.

ROADMAP item 5: the measured speed pass the profiling/bench investment
was built for.  This bench pins every claim with the *old*
implementations carried along as executable baselines:

* **Tree fit** — one column-major presort per fit, partitioned down
  to each node, and a split search that scores only candidate
  boundaries (where a feature's sorted value changes inside the
  leaf-size window) vs the historical per-node argsort + Python
  boundary loop.  Two shapes: continuous features, where every
  boundary is a candidate, and the census encoder's matrix (one-hot
  and zero-inflated columns, depth 4, as the transparency surrogate
  sees it), where most boundaries are ties.  Fitted node state and
  predictions must be byte-identical on both.
* **k-NN search** — blocked partition-select ``nearest_indices`` vs the
  full stable ``argsort`` of every pool distance.  Neighbour indices
  must be byte-identical.
* **MLP training** — flat-parameter fused in-place Adam vs the
  per-layer allocating update loop.  Fitted weights, biases, and
  predictions must be byte-identical.
* **ROC AUC** — midranks from one comparison over the sorted scores vs
  the historical ``while`` loop over rows.  The AUC must be
  byte-identical.
* **AUC bootstrap** — ``bootstrap_paired_ci`` with ``roc_auc``, which
  counts row copies over one shared sort, vs the historical bootstrap
  (the midrank loop re-run on every resample), and vs the per-resample
  path alone (``roc_auc`` wrapped without its ``resampler``).  The
  intervals must be identical.
* **Fairness audit** — ``audit_decisions`` from one grouping pass over a
  census-style object group column vs the historical audit, where each
  of nine metric functions sorted the column again and masked it once
  per group.  The report fingerprints must be equal.

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
from repro.accuracy.bootstrap import bootstrap_paired_ci  # noqa: E402
from repro.data.synth.census import CensusIncomeGenerator  # noqa: E402
from repro.exceptions import DataError, FairnessError  # noqa: E402
from repro.fairness.report import FairnessReport, audit_decisions  # noqa: E402
from repro.learn.calibration import expected_calibration_error  # noqa: E402
from repro.learn.metrics import confusion_matrix, roc_auc  # noqa: E402
from repro.learn.mlp import MLPClassifier  # noqa: E402
from repro.learn.preprocessing import FeatureEncoder  # noqa: E402
from repro.learn.neighbors import (  # noqa: E402
    nearest_indices,
    pairwise_distances,
)
from repro.learn.tree import DecisionTreeClassifier  # noqa: E402

#: Full-size floors, each well under the ratio measured on a 2-vCPU box;
#: smoke floors under ``--check`` are deliberately loose — CI runners are
#: noisy.
FULL_FLOORS = {"tree_fit": 3.0, "knn": 5.0, "mlp_epoch": 1.5,
               "roc_auc": 4.0, "auc_bootstrap": 10.0, "auc_counting": 2.0,
               "fairness_audit": 4.0}
SMOKE_FLOORS = {"tree_fit": 2.0, "knn": 1.5, "mlp_epoch": 1.1,
                "roc_auc": 3.0, "auc_bootstrap": 5.0, "auc_counting": 1.5,
                "fairness_audit": 3.0}


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


def same_tree(tree, naive_nodes, queries) -> bool:
    """Whether a fitted tree and the loop's node list are byte-identical."""
    arrays = tree._arrays()
    return (
        len(naive_nodes) == len(tree._nodes)
        and np.array_equal(arrays.feature,
                           np.array([n[0] for n in naive_nodes]))
        and np.array_equal(arrays.threshold,
                           np.array([n[1] for n in naive_nodes]))
        and np.array_equal(arrays.value,
                           np.array([n[4] for n in naive_nodes]))
        and np.array_equal(tree.predict_proba(queries),
                           naive_tree_predict(naive_nodes, queries))
    )


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


def naive_roc_auc(y_true, scores):
    """The historical AUC: midranks from a ``while`` loop over rows."""
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


def _naive_fairness_inputs(y_pred, group, y_true=None):
    y_pred = np.asarray(y_pred, dtype=np.float64)
    group = np.asarray(group)
    if y_pred.shape != group.shape or y_pred.ndim != 1:
        raise FairnessError(
            f"predictions {y_pred.shape} and groups {group.shape} must be aligned 1-D arrays"
        )
    if len(y_pred) == 0:
        raise FairnessError("fairness metrics need at least one example")
    if y_true is not None:
        y_true = np.asarray(y_true, dtype=np.float64)
        if y_true.shape != y_pred.shape:
            raise FairnessError("y_true and y_pred must be aligned")
    groups = np.unique(group)
    if len(groups) < 2:
        raise FairnessError(
            f"need at least two groups, found {groups.tolist()}"
        )
    return y_pred, group, y_true, groups


def _naive_group_rates(y_true, y_pred, group):
    y_pred, group, y_true, groups = _naive_fairness_inputs(
        y_pred, group, y_true)
    confusions = {}
    for value in groups:
        mask = group == value
        confusions[value] = confusion_matrix(y_true[mask], y_pred[mask])
    return confusions


def _naive_difference(confusions, attribute):
    values = [getattr(cm, attribute) for cm in confusions.values()]
    return float(max(values) - min(values))


def _naive_group_means(values, group):
    values, group, _, groups = _naive_fairness_inputs(values, group)
    return {
        value: float(np.mean(values[group == value])) for value in groups
    }


def _naive_disparate_impact(y_pred, group):
    rates = list(_naive_group_means(y_pred, group).values())
    top = max(rates)
    if top == 0.0:
        return 1.0
    return float(min(rates) / top)


def _naive_calibration_gaps(y_true, probabilities, group, n_bins=10):
    probabilities = np.asarray(probabilities, dtype=np.float64)
    _, group, y_true, groups = _naive_fairness_inputs(
        probabilities, group, y_true)
    return {
        value: expected_calibration_error(
            y_true[group == value], probabilities[group == value], n_bins
        )
        for value in groups
    }


def naive_audit_decisions(y_true, y_pred, group, sensitive="group",
                          probabilities=None):
    """The historical fairness audit: ten sorts of the group column.

    Each of nine metric calls sorts the column again and masks it once
    per group.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    group = np.asarray(group)
    groups = tuple(np.unique(group).tolist())
    calibration = {}
    if probabilities is not None:
        try:
            calibration = _naive_calibration_gaps(y_true, probabilities,
                                                  group)
        except FairnessError:
            calibration = {}
    selection = _naive_group_means(y_pred, group)
    spd_rates = list(_naive_group_means(y_pred, group).values())
    odds = _naive_group_rates(y_true, y_pred, group)
    return FairnessReport(
        sensitive=sensitive,
        groups=groups,
        selection_rates=selection,
        base_rates=_naive_group_means(y_true, group),
        statistical_parity_difference=float(max(spd_rates) - min(spd_rates)),
        disparate_impact_ratio=_naive_disparate_impact(y_pred, group),
        equal_opportunity_difference=_naive_difference(
            _naive_group_rates(y_true, y_pred, group), "recall"),
        equalized_odds_difference=float(max(
            _naive_difference(odds, "recall"),
            _naive_difference(odds, "false_positive_rate"))),
        predictive_parity_difference=_naive_difference(
            _naive_group_rates(y_true, y_pred, group), "precision"),
        accuracy_difference=_naive_difference(
            _naive_group_rates(y_true, y_pred, group), "accuracy"),
        calibration_gaps=calibration,
    )


def per_resample_auc(y_true, scores):
    """``roc_auc`` without its ``resampler``: one full AUC per resample."""
    return roc_auc(y_true, scores)


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
        auc_rows, auc_resamples = 1200, 50
        knn_pool_rows = None            # search the training set
        audit_rows = 5_000
        census_rows = 2_000
    else:
        n_train, n_query, k = 6000, 800, 10
        epochs = 8
        auc_rows, auc_resamples = 5000, 100
        audit_rows = 40_000
        census_rows = 5_000
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
    # Continuous scores, as a fitted model's probabilities are.
    auc_labels = (rng.random(auc_rows) < 0.4).astype(float)
    auc_scores = 1.0 / (1.0 + np.exp(-(auc_labels
                                       + rng.standard_normal(auc_rows))))
    # A census-style audit: an object column of two strings, as a
    # table's sensitive column arrives at the fairness combine.
    audit_group = np.empty(audit_rows, dtype=object)
    audit_group[:] = rng.choice(["Female", "Male"], audit_rows,
                                p=[0.33, 0.67]).tolist()
    audit_labels = (rng.random(audit_rows)
                    < np.where(audit_group == "Male", 0.3, 0.2)).astype(float)
    audit_scores = 1.0 / (1.0 + np.exp(-(1.5 * audit_labels - 1.0
                                         + rng.standard_normal(audit_rows))))
    audit_decided = (audit_scores >= 0.5).astype(float)
    # The census encoder's matrix: two continuous columns, the
    # zero-inflated capital_gain and five one-hot education columns.
    census = CensusIncomeGenerator().generate(census_rows, rng)
    census_X = FeatureEncoder().fit_transform(census)
    census_y = census.column("high_income").astype(float)

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
    if not same_tree(tree, naive_nodes, queries):
        failures.append("TREE MISMATCH: continuous features")
    speedups["tree_fit"] = naive_tree_s / fast_tree_s if fast_tree_s else 0.0

    # -- tree fit on the census encoder's tie-heavy matrix ----------------
    census_tree, fast_census_s = _timed(
        lambda: DecisionTreeClassifier(max_depth=4, min_samples_leaf=10)
        .fit(census_X, census_y),
        repeats,
    )
    census_nodes, naive_census_s = _timed(
        lambda: naive_tree_fit(census_X, census_y, max_depth=4,
                               min_samples_leaf=10),
        max(1, repeats - 1),
    )
    if not same_tree(census_tree, census_nodes, census_X):
        failures.append("CENSUS TREE MISMATCH: one-hot census features")
    speedups["census_tree_fit"] = (naive_census_s / fast_census_s
                                   if fast_census_s else 0.0)

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

    # -- ROC AUC: vectorised midranks vs the row loop --------------------
    # Best of 5 whatever the size for the fast paths: one call takes
    # milliseconds, so a single scheduler hiccup would decide the ratio.
    fast_auc, fast_auc_s = _timed(lambda: roc_auc(auc_labels, auc_scores), 5)
    naive_auc, naive_auc_s = _timed(
        lambda: naive_roc_auc(auc_labels, auc_scores), 5
    )
    if np.float64(fast_auc).tobytes() != np.float64(naive_auc).tobytes():
        failures.append("AUC MISMATCH: vectorised midranks differ")
    speedups["roc_auc"] = naive_auc_s / fast_auc_s if fast_auc_s else 0.0

    # -- AUC bootstrap: counting over one sort vs one AUC per resample ---
    def auc_interval(metric):
        return bootstrap_paired_ci(
            auc_labels, auc_scores, metric, np.random.default_rng(SEED),
            n_resamples=auc_resamples, n_jobs=1,
        )

    fast_ci, fast_ci_s = _timed(lambda: auc_interval(roc_auc), 5)
    naive_ci, naive_ci_s = _timed(lambda: auc_interval(naive_roc_auc),
                                  max(1, repeats - 1))
    per_resample_ci, per_resample_ci_s = _timed(
        lambda: auc_interval(per_resample_auc), 5
    )
    if not fast_ci == naive_ci == per_resample_ci:
        failures.append("BOOTSTRAP MISMATCH: AUC intervals differ")
    speedups["auc_bootstrap"] = (naive_ci_s / fast_ci_s
                                 if fast_ci_s else 0.0)
    speedups["auc_counting"] = (per_resample_ci_s / fast_ci_s
                                if fast_ci_s else 0.0)

    # -- fairness audit: one grouping pass vs a sort per metric -----------
    def audit(fn):
        return fn(audit_labels, audit_decided, audit_group, sensitive="sex",
                  probabilities=audit_scores)

    fast_report, fast_audit_s = _timed(lambda: audit(audit_decisions), 5)
    naive_report, naive_audit_s = _timed(
        lambda: audit(naive_audit_decisions), max(1, repeats - 1)
    )
    if fast_report.fingerprint() != naive_report.fingerprint():
        failures.append("FAIRNESS MISMATCH: report fingerprints differ")
    speedups["fairness_audit"] = (naive_audit_s / fast_audit_s
                                  if fast_audit_s else 0.0)

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
            [f"tree fit (census one-hot, depth 4, {census_rows} rows)",
             fast_census_s, naive_census_s, speedups["census_tree_fit"],
             "NO" if any(f.startswith("CENSUS") for f in failures)
             else "yes"],
            [f"k-NN (k={k}, pool {len(knn_pool)})", fast_knn_s,
             naive_knn_s, speedups["knn"],
             "NO" if any(f.startswith("KNN") for f in failures) else "yes"],
            [f"MLP ({epochs} epochs)", fast_mlp_s, naive_mlp_s,
             speedups["mlp_epoch"],
             "NO" if any(f.startswith("MLP") for f in failures) else "yes"],
            [f"ROC AUC ({auc_rows} rows)", fast_auc_s, naive_auc_s,
             speedups["roc_auc"],
             "NO" if any(f.startswith("AUC") for f in failures) else "yes"],
            [f"AUC bootstrap ({auc_rows} rows x {auc_resamples})",
             fast_ci_s, naive_ci_s, speedups["auc_bootstrap"],
             "NO" if any(f.startswith("BOOTSTRAP") for f in failures)
             else "yes"],
            ["  vs per-resample roc_auc", fast_ci_s, per_resample_ci_s,
             speedups["auc_counting"],
             "NO" if any(f.startswith("BOOTSTRAP") for f in failures)
             else "yes"],
            [f"fairness audit ({audit_rows} rows)", fast_audit_s,
             naive_audit_s, speedups["fairness_audit"],
             "NO" if any(f.startswith("FAIRNESS") for f in failures)
             else "yes"],
        ],
    )
    emit(table_text)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
