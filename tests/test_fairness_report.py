"""Unit tests for the fairness audit report."""

import numpy as np
import pytest

from repro.exceptions import FairnessError
from repro.fairness.report import audit_decisions, audit_model
from repro.learn import LogisticRegression, TableClassifier

GROUP = np.array(["A"] * 4 + ["B"] * 4, dtype=object)
Y_TRUE = np.array([1, 1, 0, 0, 1, 1, 0, 0], dtype=float)
Y_PRED = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=float)


def test_audit_decisions_fields():
    report = audit_decisions(Y_TRUE, Y_PRED, GROUP)
    assert report.groups == ("A", "B")
    assert report.selection_rates["A"] == pytest.approx(0.75)
    assert report.statistical_parity_difference == pytest.approx(0.5)
    assert report.disparate_impact_ratio == pytest.approx(1 / 3)
    assert not report.passes_four_fifths


def test_audit_decisions_summary_and_worst():
    report = audit_decisions(Y_TRUE, Y_PRED, GROUP)
    summary = report.summary()
    assert set(summary) == {
        "statistical_parity_difference", "disparate_impact_ratio",
        "equal_opportunity_difference", "equalized_odds_difference",
        "predictive_parity_difference", "accuracy_difference",
    }
    name, value = report.worst_metric()
    assert value == max(
        v for k, v in summary.items() if k != "disparate_impact_ratio"
    )


def test_render_contains_verdict():
    report = audit_decisions(Y_TRUE, Y_PRED, GROUP)
    text = report.render()
    assert "FAIL" in text
    assert "four-fifths" in text
    fair = audit_decisions(Y_TRUE, np.array([1, 0, 1, 0, 1, 0, 1, 0], float), GROUP)
    assert "PASS" in fair.render()


def test_audit_model_uses_schema_sensitive(credit_tables):
    train, test = credit_tables
    model = TableClassifier(LogisticRegression()).fit(train)
    report = audit_model(model, test)
    assert report.sensitive == "group"
    assert report.disparate_impact_ratio < 0.95  # bias visible
    assert report.calibration_gaps  # probabilities supplied


def test_audit_model_custom_threshold(credit_tables):
    train, test = credit_tables
    model = TableClassifier(LogisticRegression()).fit(train)
    strict = audit_model(model, test, threshold=0.9)
    lax = audit_model(model, test, threshold=0.1)
    assert (sum(strict.selection_rates.values())
            < sum(lax.selection_rates.values()))


def test_misaligned_probabilities_raise():
    group = GROUP[:6]
    with pytest.raises(FairnessError,
                       match=r"probabilities \(3,\) and groups \(6,\)"):
        audit_decisions(Y_TRUE[:6], Y_PRED[:6], group,
                        probabilities=np.array([0.2, 0.7, 0.9]))


@pytest.mark.parametrize("group", [
    np.array([0.0, 1.0, np.nan, 0.0, 1.0, np.nan, 0.0, 1.0]),
    np.array(["A", "B", None, "A", "B", None, "A", "B"], dtype=object),
], ids=["float_nan", "none_among_strings"])
def test_missing_group_values_name_the_attribute(group):
    with pytest.raises(FairnessError,
                       match="sensitive attribute 'sex' has 2 missing values"):
        audit_decisions(Y_TRUE, Y_PRED, group, sensitive="sex",
                        probabilities=np.full(8, 0.5))
