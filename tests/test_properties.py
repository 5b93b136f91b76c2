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
