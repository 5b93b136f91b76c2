"""Unit tests for the FACT auditor, report, scorecard, and policy."""

import numpy as np
import pytest

from repro.confidentiality.accountant import PrivacyAccountant
from repro.core import (
    FACTAuditor,
    FACTPolicy,
    build_scorecard,
)
from repro.data import three_way_split
from repro.data.synth import CreditScoringGenerator
from repro.exceptions import DataError, PolicyViolation
from repro.learn import LogisticRegression, TableClassifier
from repro.fairness.preprocessing import reweigh
from repro.pipeline import (
    CleanStage,
    Pipeline,
    TrainStage,
    ValidateSchemaStage,
)


@pytest.fixture(scope="module")
def audited():
    """One audit of a biased model, shared across this module's tests."""
    rng = np.random.default_rng(99)
    generator = CreditScoringGenerator(label_bias=0.35, proxy_strength=0.8)
    data = generator.generate(4000, rng)
    train, calibration, test = three_way_split(data, 0.25, 0.15, rng)
    pipeline = Pipeline([
        ValidateSchemaStage(), CleanStage(),
        TrainStage(TableClassifier(LogisticRegression())),
    ])
    result = pipeline.run(train, rng)
    accountant = PrivacyAccountant(2.0)
    accountant.spend(0.5, label="demo-release")
    report = FACTAuditor().audit(
        result.model, test, rng,
        calibration=calibration,
        accountant=accountant,
        pipeline_result=result,
        subject="biased-credit-model",
    )
    return report, result


def test_report_has_all_four_pillars(audited):
    report, _ = audited
    text = report.render()
    for heading in ("FAIRNESS (Q1)", "ACCURACY (Q2)",
                    "CONFIDENTIALITY (Q3)", "TRANSPARENCY (Q4)"):
        assert heading in text
    assert report.subject == "biased-credit-model"


def test_fairness_section_detects_bias(audited):
    report, _ = audited
    assert report.fairness.disparate_impact_ratio < 0.85
    assert not report.fairness.passes_four_fifths


def test_accuracy_section_has_intervals_and_coverage(audited):
    report, _ = audited
    section = report.accuracy
    assert section.accuracy.lower < section.accuracy.estimate < section.accuracy.upper
    assert section.conformal_coverage is not None
    assert section.conformal_coverage >= 0.85
    assert section.conformal_mean_set_size >= 1.0
    assert 0.0 <= section.expected_calibration_error <= 1.0


def test_confidentiality_section_flags_oracle(audited):
    report, _ = audited
    assert "qualified" in report.confidentiality.metadata_present
    assert report.confidentiality.epsilon_spent == pytest.approx(0.5)
    assert report.confidentiality.ledger_entries == 1


def test_transparency_section(audited):
    report, _ = audited
    section = report.transparency
    assert section.model_type == "LogisticRegression"
    assert section.surrogate_fidelity > 0.8
    assert len(section.top_features) == 5
    assert section.provenance_steps == 3
    assert section.audit_events == 5


def test_audit_without_calibration_notes_it(audited, rng):
    _, result = audited
    generator = CreditScoringGenerator(label_bias=0.35, proxy_strength=0.8)
    test = generator.generate(500, rng)
    report = FACTAuditor().audit(result.model, test, rng)
    assert report.accuracy.conformal_coverage is None
    assert any("conformal" in note for note in report.notes)


def test_audit_needs_enough_rows(audited, rng):
    _, result = audited
    tiny = CreditScoringGenerator().generate(5, rng)
    with pytest.raises(DataError):
        FACTAuditor().audit(result.model, tiny, rng)


# -- scorecard ---------------------------------------------------------------------

def test_scorecard_grades_biased_model_poorly(audited):
    report, _ = audited
    scorecard = build_scorecard(report)
    assert scorecard.fairness < 60.0
    assert scorecard.overall == min(
        scorecard.fairness, scorecard.accuracy,
        scorecard.confidentiality, scorecard.transparency,
    )
    assert scorecard.grade in "DF"
    assert "grade" in scorecard.render()


def test_scorecard_improves_after_mitigation(audited, rng):
    report, _ = audited
    generator = CreditScoringGenerator(label_bias=0.35, proxy_strength=0.8)
    data = generator.generate(3000, rng)
    train, calibration, test = three_way_split(data, 0.25, 0.15, rng)
    model = TableClassifier(LogisticRegression()).fit(
        train, sample_weight=reweigh(train)
    )
    fair_report = FACTAuditor().audit(model, test, rng, calibration=calibration)
    assert (build_scorecard(fair_report).fairness
            > build_scorecard(report).fairness + 10.0)


# -- policy -----------------------------------------------------------------------------

def test_policy_flags_biased_model(audited):
    report, _ = audited
    violations = FACTPolicy().check(report)
    pillars = {violation.pillar for violation in violations}
    assert "fairness" in pillars
    assert all("limit" in violation.render() for violation in violations)


def test_policy_enforce_raises(audited):
    report, _ = audited
    with pytest.raises(PolicyViolation, match="violation"):
        FACTPolicy(name="strict").enforce(report)


def test_policy_clauses_can_be_disabled(audited):
    report, _ = audited
    lax = FACTPolicy(
        min_disparate_impact=None,
        max_equalized_odds_difference=None,
        max_calibration_error=None,
        max_conformal_coverage_shortfall=None,
        max_unique_row_fraction=None,
        min_surrogate_fidelity=None,
        forbid_raw_identifiers=False,
    )
    assert lax.check(report) == []
    lax.enforce(report)  # must not raise


def test_policy_epsilon_clause(audited):
    report, _ = audited
    tight = FACTPolicy(
        min_disparate_impact=None,
        max_equalized_odds_difference=None,
        max_calibration_error=None,
        max_conformal_coverage_shortfall=None,
        max_unique_row_fraction=None,
        min_surrogate_fidelity=None,
        max_epsilon=0.1,
    )
    violations = tight.check(report)
    assert len(violations) == 1
    assert violations[0].clause == "privacy spend above maximum"


def test_audit_power_note_on_small_groups(rng):
    """A tiny protected group triggers the underpowered-audit note."""
    generator = CreditScoringGenerator(group_b_fraction=0.03)
    train = generator.generate(2000, rng)
    test = generator.generate(400, rng)  # ~12 group-B rows
    model = TableClassifier(LogisticRegression()).fit(train)
    report = FACTAuditor(n_bootstrap=100).audit(model, test, rng)
    assert any("underpowered" in note for note in report.notes)


def test_audit_power_note_absent_on_large_groups(audited):
    report, _ = audited
    assert not any("underpowered" in note for note in report.notes)


def test_accuracy_section_group_coverage(audited):
    """The auditor reports per-group conformal coverage when the test
    table declares a sensitive attribute."""
    report, _ = audited
    by_group = report.accuracy.conformal_coverage_by_group
    assert set(by_group) == {"A", "B"}
    for coverage in by_group.values():
        assert 0.0 <= coverage <= 1.0
    assert report.accuracy.conformal_group_coverage_gap is not None
    assert "coverage by group" in report.accuracy.render()


def test_policy_renders_as_requirements_doc():
    policy = FACTPolicy(name="lending-v2", max_epsilon=1.0,
                        notes=["reviewed 2026-07-05"])
    text = policy.render()
    assert "# FACT requirements: lending-v2" in text
    assert "[fairness]" in text
    assert "[confidentiality]" in text
    assert "epsilon = 1" in text
    assert "reviewed 2026-07-05" in text
    # Disabled clauses do not appear.
    silent = FACTPolicy(min_disparate_impact=None).render()
    assert "disparate-impact" not in silent


def test_intersectional_note_with_two_sensitive_attributes(rng):
    """Marginally-fair, intersectionally-unfair decisions get flagged."""
    from repro.data.schema import ColumnRole, categorical

    generator = CreditScoringGenerator(label_bias=0.0, proxy_strength=0.0)
    train = generator.generate(2500, rng)
    test = generator.generate(1500, rng)
    age_band = np.where(rng.random(test.n_rows) < 0.5, "old", "young")
    test = test.with_column(
        categorical("age_band", role=ColumnRole.SENSITIVE), age_band
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    report = FACTAuditor(n_bootstrap=100).audit(model, test, rng)
    # Fair data: no intersectional note expected.
    baseline_notes = [n for n in report.notes if "intersectional" in n]

    # Now rig the decisions so only the (B, old) cell suffers, by biasing
    # the threshold through a wrapper on predictions is complex — instead
    # check the note machinery directly on rigged decisions.
    from repro.core.auditor import FACTAuditor as Auditor

    decisions = model.predict(test)
    cell = (test["group"] == "B") & (test["age_band"] == "old")
    rigged = decisions.copy()
    rigged[cell] = 0.0
    note = Auditor._intersectional_note(
        {name: test.column(name) for name in test.schema.sensitive_names},
        rigged, report.fairness,
    )
    assert note is not None
    assert "age_band=old & group=B" in note
    assert baseline_notes == [] or "exceeds" in baseline_notes[0]


def test_report_to_dict_is_json_serialisable(audited):
    import json

    report, _ = audited
    payload = report.to_dict()
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["subject"] == "biased-credit-model"
    assert parsed["fairness"]["passes_four_fifths"] is False
    assert 0.0 <= parsed["accuracy"]["accuracy"] <= 1.0
    assert parsed["transparency"]["model_type"] == "LogisticRegression"
    assert "qualified" in parsed["confidentiality"]["metadata_present"]
