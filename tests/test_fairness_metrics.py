"""Unit tests for group fairness metrics."""

import numpy as np
import pytest

from repro.exceptions import FairnessError
from repro.fairness import metrics as fm

GROUP = np.array(["A", "A", "A", "A", "B", "B", "B", "B"], dtype=object)
Y_TRUE = np.array([1, 1, 0, 0, 1, 1, 0, 0], dtype=float)
# A: selects 3/4 (TP 2, FP 1); B: selects 1/4 (TP 1, FP 0).
Y_PRED = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=float)


def test_selection_rates():
    rates = fm.selection_rates(Y_PRED, GROUP)
    assert rates["A"] == pytest.approx(0.75)
    assert rates["B"] == pytest.approx(0.25)


def test_statistical_parity_difference():
    assert fm.statistical_parity_difference(Y_PRED, GROUP) == pytest.approx(0.5)


def test_disparate_impact_ratio():
    assert fm.disparate_impact_ratio(Y_PRED, GROUP) == pytest.approx(1 / 3)
    assert not fm.passes_four_fifths_rule(Y_PRED, GROUP)


def test_disparate_impact_all_zero_selects():
    zero = np.zeros(8)
    assert fm.disparate_impact_ratio(zero, GROUP) == 1.0


def test_equal_opportunity_difference():
    # TPR: A = 2/2 = 1.0, B = 1/2 = 0.5.
    assert fm.equal_opportunity_difference(Y_TRUE, Y_PRED, GROUP) == pytest.approx(0.5)


def test_equalized_odds_difference():
    # FPR: A = 1/2, B = 0/2 -> gap 0.5; TPR gap 0.5 -> max 0.5.
    assert fm.equalized_odds_difference(Y_TRUE, Y_PRED, GROUP) == pytest.approx(0.5)


def test_predictive_parity_difference():
    # Precision: A = 2/3, B = 1/1.
    assert fm.predictive_parity_difference(Y_TRUE, Y_PRED, GROUP) == pytest.approx(1 / 3)


def test_accuracy_difference():
    # Accuracy: A = 3/4, B = 3/4.
    assert fm.accuracy_difference(Y_TRUE, Y_PRED, GROUP) == pytest.approx(0.0)


def test_base_rates():
    rates = fm.base_rates(Y_TRUE, GROUP)
    assert rates["A"] == pytest.approx(0.5)
    assert rates["B"] == pytest.approx(0.5)


def test_perfectly_fair_predictions():
    fair = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
    assert fm.statistical_parity_difference(fair, GROUP) == 0.0
    assert fm.disparate_impact_ratio(fair, GROUP) == 1.0


def test_group_rates_object():
    rates = fm.group_rates(Y_TRUE, Y_PRED, GROUP)
    assert rates.per_group("recall")["A"] == 1.0
    assert rates.difference("recall") == pytest.approx(0.5)
    assert rates.ratio("recall") == pytest.approx(0.5)


def test_ratio_with_zero_max():
    rates = fm.group_rates(Y_TRUE, np.zeros(8), GROUP)
    assert rates.ratio("recall") == 1.0


def test_multi_group_support():
    group3 = np.array(["A", "A", "B", "B", "C", "C"], dtype=object)
    pred = np.array([1, 1, 1, 0, 0, 0], dtype=float)
    assert fm.statistical_parity_difference(pred, group3) == pytest.approx(1.0)
    assert fm.disparate_impact_ratio(pred, group3) == 0.0


def test_single_group_rejected():
    with pytest.raises(FairnessError, match="two groups"):
        fm.selection_rates(np.array([1.0, 0.0]), np.array(["A", "A"]))


def test_misaligned_inputs_rejected():
    with pytest.raises(FairnessError):
        fm.selection_rates(np.array([1.0, 0.0]), GROUP)


MISSING_GROUPS = {
    "float_nan": np.array([0.0, 1.0, np.nan, 0.0, 1.0, np.nan, 0.0, 1.0]),
    "none_among_strings": np.array(
        ["A", "B", None, "A", "B", None, "A", "B"], dtype=object),
    "object_nan": np.array(
        [0.0, 1.0, float("nan"), 0.0, 1.0, float("nan"), 0.0, 1.0],
        dtype=object),
}
METRICS_OF_PREDICTIONS = [
    fm.selection_rates, fm.statistical_parity_difference,
    fm.disparate_impact_ratio, fm.passes_four_fifths_rule,
    lambda y_pred, group: fm.base_rates(Y_TRUE, group),
]
METRICS_OF_LABELS = [
    fm.group_rates, fm.equal_opportunity_difference,
    fm.equalized_odds_difference, fm.predictive_parity_difference,
    fm.accuracy_difference,
    lambda y_true, y_pred, group: fm.group_calibration_gaps(
        y_true, np.full(8, 0.5), group),
]


@pytest.mark.parametrize("kind", sorted(MISSING_GROUPS))
def test_missing_group_values_rejected(kind):
    # A row without a group belongs to none: no metric may drop it.
    group = MISSING_GROUPS[kind]
    for metric in METRICS_OF_PREDICTIONS:
        with pytest.raises(FairnessError, match="has 2 missing values"):
            metric(Y_PRED, group)
    for metric in METRICS_OF_LABELS:
        with pytest.raises(FairnessError, match="has 2 missing values"):
            metric(Y_TRUE, Y_PRED, group)


def test_unsortable_groups_without_missing_values_still_raise_type_error():
    with pytest.raises(TypeError):
        fm.selection_rates(Y_PRED, np.array(["A", 1] * 4, dtype=object))


def test_group_calibration_gaps(rng):
    n = 4000
    group = np.where(rng.random(n) < 0.5, "A", "B").astype(object)
    probabilities = rng.random(n)
    # Group A calibrated; group B outcomes ignore the scores.
    outcomes = np.where(
        group == "A",
        (rng.random(n) < probabilities).astype(float),
        (rng.random(n) < 0.5).astype(float),
    )
    gaps = fm.group_calibration_gaps(outcomes, probabilities, group)
    assert gaps["A"] < 0.05
    assert gaps["B"] > 0.1
