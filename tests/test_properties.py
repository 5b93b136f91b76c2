"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accuracy.multiple_testing import (
    benjamini_hochberg,
    bonferroni,
    holm,
)
from repro.data.synth.base import sigmoid
from repro.data.table import Table
from repro.fairness.metrics import (
    disparate_impact_ratio,
    statistical_parity_difference,
)
from repro.fairness.preprocessing import reweighing_weights
from repro.learn.metrics import accuracy, confusion_matrix, roc_auc

# -- strategies ------------------------------------------------------------------

p_values = arrays(
    np.float64, st.integers(1, 40),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)

binary = st.integers(0, 1)


@st.composite
def labelled_groups(draw):
    """Aligned (y_true, y_pred, group) with both groups and both labels."""
    n = draw(st.integers(4, 60))
    y_true = np.asarray(draw(st.lists(binary, min_size=n, max_size=n)), float)
    y_pred = np.asarray(draw(st.lists(binary, min_size=n, max_size=n)), float)
    group = np.asarray(
        draw(st.lists(st.sampled_from(["A", "B"]), min_size=n, max_size=n)),
        dtype=object,
    )
    # Guarantee both groups appear.
    group[0], group[1] = "A", "B"
    return y_true, y_pred, group


# -- multiple testing invariants ----------------------------------------------------

@given(p_values)
@settings(max_examples=60, deadline=None)
def test_adjusted_p_values_dominate_raw(p):
    for procedure in (bonferroni, holm, benjamini_hochberg):
        result = procedure(p)
        assert np.all(result.adjusted >= p - 1e-12)
        assert np.all(result.adjusted <= 1.0 + 1e-12)


@given(p_values)
@settings(max_examples=60, deadline=None)
def test_corrections_are_order_equivariant(p):
    order = np.argsort(p, kind="stable")
    for procedure in (bonferroni, holm, benjamini_hochberg):
        adjusted = procedure(p).adjusted
        # Sorted raw p-values map to sorted adjusted p-values.
        assert np.all(np.diff(adjusted[order]) >= -1e-12)


@given(p_values)
@settings(max_examples=60, deadline=None)
def test_holm_rejects_at_least_bonferroni(p):
    assert holm(p).n_rejected >= bonferroni(p).n_rejected


# -- fairness invariants ----------------------------------------------------------------

@given(labelled_groups())
@settings(max_examples=60, deadline=None)
def test_fairness_metric_ranges(data):
    y_true, y_pred, group = data
    spd = statistical_parity_difference(y_pred, group)
    di = disparate_impact_ratio(y_pred, group)
    assert 0.0 <= spd <= 1.0
    assert 0.0 <= di <= 1.0


@given(labelled_groups())
@settings(max_examples=60, deadline=None)
def test_fairness_metrics_invariant_to_group_relabeling(data):
    y_true, y_pred, group = data
    swapped = np.where(group == "A", "B", "A").astype(object)
    assert statistical_parity_difference(y_pred, group) == \
        statistical_parity_difference(y_pred, swapped)
    assert disparate_impact_ratio(y_pred, group) == \
        disparate_impact_ratio(y_pred, swapped)


@given(labelled_groups())
@settings(max_examples=60, deadline=None)
def test_reweighing_makes_group_label_independent(data):
    y_true, _, group = data
    # Reweighing can only achieve independence when every (group, label)
    # cell is populated — a cell with zero mass stays at zero mass.
    for g in ("A", "B"):
        for label in (0.0, 1.0):
            assume(((group == g) & (y_true == label)).any())
    weights = reweighing_weights(y_true, group)
    assert np.all(weights > 0)
    total = weights.sum()
    for g in ("A", "B"):
        for label in (0.0, 1.0):
            mask = (group == g) & (y_true == label)
            if not mask.any():
                continue
            joint = weights[mask].sum() / total
            marginal_g = weights[group == g].sum() / total
            marginal_y = weights[y_true == label].sum() / total
            assert abs(joint - marginal_g * marginal_y) < 1e-9


# -- metric invariants ---------------------------------------------------------------

@given(labelled_groups())
@settings(max_examples=60, deadline=None)
def test_confusion_matrix_partitions(data):
    y_true, y_pred, _ = data
    cm = confusion_matrix(y_true, y_pred)
    assert cm.tp + cm.fp + cm.tn + cm.fn == len(y_true)
    assert 0.0 <= cm.accuracy <= 1.0
    assert cm.accuracy == accuracy(y_true, y_pred)


@given(st.integers(2, 50), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_complement_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    scores = rng.random(n)
    assert roc_auc(y, scores) + roc_auc(y, -scores) == pytest.approx(1.0)


# -- sigmoid / table invariants -----------------------------------------------------------

@given(arrays(np.float64, st.integers(1, 50),
              elements=st.floats(-700, 700, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_sigmoid_bounded_and_monotone(z):
    out = np.asarray(sigmoid(z))
    assert np.all((out >= 0.0) & (out <= 1.0))
    order = np.argsort(z)
    assert np.all(np.diff(out[order]) >= -1e-12)


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 20))
    x = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
    ))
    c = draw(st.lists(st.sampled_from(["u", "v", "w"]), min_size=n, max_size=n))
    return Table.from_dict({"x": x, "c": c})


@given(small_tables())
@settings(max_examples=60, deadline=None)
def test_table_filter_take_roundtrip(table):
    mask = np.asarray(table["x"]) >= 0
    kept = table.filter(mask)
    assert kept.n_rows == int(mask.sum())
    indices = np.flatnonzero(mask)
    assert kept == table.take(indices)


@given(small_tables())
@settings(max_examples=60, deadline=None)
def test_table_concat_length_additive(table):
    doubled = table.concat([table, table])
    assert doubled.n_rows == 2 * table.n_rows
    assert doubled.take(range(table.n_rows)) == table


@given(small_tables(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_table_shuffle_is_permutation(table, seed):
    rng = np.random.default_rng(seed)
    shuffled = table.shuffle(rng)
    assert sorted(shuffled["x"].tolist()) == sorted(table["x"].tolist())
    assert shuffled.value_counts("c") == table.value_counts("c")


def _reference_reweighing(y_true: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The per-cell mask loop the one-pass count replaced."""
    n = len(y_true)
    weights = np.full(n, np.nan)
    for g in np.unique(group):
        for label in np.unique(y_true):
            mask = (group == g) & (y_true == label)
            joint = mask.sum() / n
            if joint == 0.0:
                continue
            marginal = ((group == g).sum() / n) * ((y_true == label).sum() / n)
            weights[mask] = marginal / joint
    return weights


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_reweighing_equals_the_per_cell_reference(data):
    from repro.data.schema import ColumnRole, Schema, categorical, numeric
    from repro.fairness.preprocessing import reweigh

    n_rows = data.draw(st.integers(1, 30))
    y_true = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1.0, 2.0, -0.0]), min_size=n_rows,
        max_size=n_rows)))
    # No trailing-NUL strings here: numpy compares an object array to
    # "a\x00" as to "a", so the reference's masks never select those rows
    # (see test_reweighing_gives_trailing_nul_groups_their_cell).
    group = np.array(data.draw(st.lists(
        st.sampled_from(["", "a", "b", "é", "\x00a"]), min_size=n_rows,
        max_size=n_rows)), dtype=object)
    expected = _reference_reweighing(y_true, group).tobytes()
    assert reweighing_weights(y_true, group).tobytes() == expected
    table = Table(Schema([
        categorical("g", role=ColumnRole.SENSITIVE),
        numeric("y", role=ColumnRole.TARGET),
    ]), {"g": group, "y": y_true})
    assert reweigh(table).tobytes() == expected


# -- tree split search -----------------------------------------------------------


def _reference_tree_state(X, y, weights, max_depth, min_samples_leaf,
                          min_impurity_decrease, max_features, rng):
    """The masked-gain split search the candidate-only kernel replaced.

    Every boundary of every drawn feature is scored in one ``(m-1, c)``
    gain matrix, masked, and the first strict maximum in (feature,
    boundary) order wins.  Returns the nodes depth-first as
    ``(feature, threshold, left, right, probability, weight)`` arrays.
    """
    nodes = []
    n_features = X.shape[1]

    def gini(pos, total):
        if total <= 0:
            return 0.0
        p = pos / total
        return 2.0 * p * (1.0 - p)

    def best_split(indices, presorted):
        m = len(indices)
        w = weights[indices]
        total = w.sum()
        total_pos = float(w[y[indices] == 1.0].sum())
        parent_impurity = gini(total_pos, total)
        if max_features is None or max_features >= n_features:
            features = np.arange(n_features)
        else:
            features = rng.choice(n_features, size=max_features,
                                  replace=False)
        order = presorted[:, features]
        sorted_values = X[order, features[None, :]]
        sorted_w = weights[order]
        cum_w = np.cumsum(sorted_w, axis=0)
        cum_pos = np.cumsum(sorted_w * (y[order] == 1.0), axis=0)
        left_w, left_pos = cum_w[:-1], cum_pos[:-1]
        right_w, right_pos = total - left_w, total_pos - left_pos
        with np.errstate(divide="ignore", invalid="ignore"):
            p_left = np.where(left_w > 0, left_pos / left_w, 0.0)
            p_right = np.where(right_w > 0, right_pos / right_w, 0.0)
            gini_left = np.where(left_w > 0, 2.0 * p_left * (1.0 - p_left),
                                 0.0)
            gini_right = np.where(right_w > 0,
                                  2.0 * p_right * (1.0 - p_right), 0.0)
            impurity = (left_w / total * gini_left
                        + right_w / total * gini_right)
        gain = parent_impurity - impurity
        n_left = np.arange(1, m)
        valid = np.diff(sorted_values, axis=0) > 0
        valid &= (n_left >= min_samples_leaf)[:, None]
        valid &= (n_left <= m - min_samples_leaf)[:, None]
        valid &= gain > min_impurity_decrease + 1e-12
        if not valid.any():
            return None
        flat = int(np.argmax(np.where(valid, gain, -np.inf).T))
        column, boundary = divmod(flat, m - 1)
        midpoint = 0.5 * (sorted_values[boundary, column]
                          + sorted_values[boundary + 1, column])
        return int(features[column]), float(midpoint)

    def grow(indices, presorted, depth):
        node_index = len(nodes)
        w = weights[indices]
        total = w.sum()
        pos = float(w[y[indices] == 1.0].sum())
        probability = pos / total if total > 0 else 0.5
        nodes.append([-1, 0.0, -1, -1, probability, float(total)])
        if (depth >= max_depth or len(indices) < 2 * min_samples_leaf
                or probability in (0.0, 1.0)):
            return node_index
        split = best_split(indices, presorted)
        if split is None:
            return node_index
        feature, threshold = split
        mask = X[indices, feature] <= threshold
        left_idx, right_idx = indices[mask], indices[~mask]
        in_left = np.zeros(len(X), dtype=bool)
        in_left[left_idx] = True
        member = in_left[presorted]
        left_sorted = presorted.T[member.T].reshape(
            n_features, len(left_idx)).T
        right_sorted = presorted.T[~member.T].reshape(
            n_features, len(right_idx)).T
        nodes[node_index][:2] = [feature, threshold]
        nodes[node_index][2] = grow(left_idx, left_sorted, depth + 1)
        nodes[node_index][3] = grow(right_idx, right_sorted, depth + 1)
        return node_index

    grow(np.arange(len(y)), np.argsort(X, axis=0, kind="stable"), 0)
    columns = list(zip(*nodes))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64,
              np.float64)
    return [np.array(c, dtype=t) for c, t in zip(columns, dtypes)]


@st.composite
def tied_fits(draw):
    """A tie-heavy matrix, labels, weights and tree parameters.

    Columns are binary, few-level (both signs of zero included) or
    normals rounded to one decimal; weights are absent, non-integer, or
    non-integer with zeros.
    """
    n_rows = draw(st.integers(2, 48))
    kinds = draw(st.lists(st.sampled_from(["binary", "levels", "rounded"]),
                          min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {
        "binary": lambda: rng.integers(0, 2, n_rows).astype(float),
        "levels": lambda: rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], n_rows),
        "rounded": lambda: np.round(rng.standard_normal(n_rows), 1),
    }
    X = np.column_stack([columns[kind]() for kind in kinds])
    y = rng.integers(0, 2, n_rows).astype(float)
    weighting = draw(st.sampled_from(["none", "non-integer", "zeros"]))
    weights = None
    if weighting != "none":
        weights = rng.uniform(0.1, 3.0, n_rows)
        if weighting == "zeros":
            weights[rng.random(n_rows) < 0.3] = 0.0
            weights[0] = max(weights[0], 0.7)
    params = dict(
        max_depth=draw(st.integers(1, 6)),
        min_samples_leaf=draw(st.integers(1, 5)),
        min_impurity_decrease=draw(st.sampled_from([0.0, 1e-3, 0.02])),
        max_features=draw(st.one_of(st.none(), st.integers(1, len(kinds)))),
    )
    return X, y, weights, params, draw(st.integers(0, 2**32 - 1))


@given(tied_fits())
@settings(max_examples=200, deadline=None)
def test_tree_state_equals_the_masked_gain_reference(fit):
    from repro.learn.tree import DecisionTreeClassifier

    X, y, weights, params, seed = fit
    tree = DecisionTreeClassifier(
        rng=np.random.default_rng(seed), **params
    ).fit(X, y, sample_weight=weights)
    expected = _reference_tree_state(
        X, y, np.ones(len(y)) if weights is None else weights,
        rng=np.random.default_rng(seed), **params,
    )
    nodes = tree._nodes
    got = [
        np.array([n.feature for n in nodes], dtype=np.int64),
        np.array([n.threshold for n in nodes], dtype=np.float64),
        np.array([n.left for n in nodes], dtype=np.int64),
        np.array([n.right for n in nodes], dtype=np.int64),
        np.array([n.probability for n in nodes], dtype=np.float64),
        np.array([n.weight for n in nodes], dtype=np.float64),
    ]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
