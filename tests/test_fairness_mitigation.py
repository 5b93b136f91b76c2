"""Unit tests for pre-, in- and post-processing mitigation."""

import hashlib

import numpy as np
import pytest

from repro.data.schema import ColumnRole, numeric
from repro.exceptions import FairnessError, NotFittedError
from repro.fairness.inprocessing import (
    ExponentiatedGradientReducer,
    FairPenaltyLogisticRegression,
)
from repro.fairness.metrics import (
    disparate_impact_ratio,
    selection_rates,
    statistical_parity_difference,
)
from repro.fairness.postprocessing import (
    GroupThresholdOptimizer,
    RejectOptionClassifier,
)
from repro.fairness.preprocessing import (
    disparate_impact_repair,
    massage,
    reweigh,
    reweighing_weights,
)
from repro.fairness.report import audit_model
from repro.learn import LogisticRegression, TableClassifier


# -- reweighing -----------------------------------------------------------------

def test_reweighing_balances_joint_distribution():
    y = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=float)
    group = np.array(["A", "A", "A", "A", "B", "B", "B", "B"], dtype=object)
    weights = reweighing_weights(y, group)
    # Weighted joint P(g, y) must factorise into the marginals.
    for g in ("A", "B"):
        for label in (0.0, 1.0):
            mask = (group == g) & (y == label)
            weighted_joint = weights[mask].sum() / weights.sum()
            marginal = (np.mean(group == g) * np.mean(y == label))
            assert weighted_joint == pytest.approx(marginal, abs=1e-9)


def test_reweighing_uniform_when_already_independent():
    y = np.array([1, 0, 1, 0], dtype=float)
    group = np.array(["A", "A", "B", "B"], dtype=object)
    weights = reweighing_weights(y, group)
    np.testing.assert_allclose(weights, 1.0)


#: Weight digests captured from the implementation that masked each
#: (group, label) cell over the raw arrays; the one-pass code version
#: must keep every weight bit-identical.
REWEIGHING_GOLDEN = {
    "census": "65f95f92ad2afb8ccc0cb875",
    "empty_string_group": "5e0079c8a8af83941045621a",
    "three_groups_two_labels": "5f7b3a1a8dd21d8c8959ee11",
    "cell_without_rows": "fdeb23ce305735f0f9748820",
}


def _reweighing_case(name):
    if name == "census":
        from repro.data.synth import CensusIncomeGenerator

        return reweigh(CensusIncomeGenerator().generate(
            2_000, np.random.default_rng(26)))
    if name == "empty_string_group":
        y = [1, 1, 0, 0, 0, 1, 1, 0, 1]
        group = ["", "", "", "a", "a", "a", "", "a", "é"]
    elif name == "three_groups_two_labels":
        y = [0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0]
        group = list("abcabcabcabcacb")
    else:  # group "c" has no label-0 rows
        y = [0, 1, 0, 1, 1, 1, 1]
        group = ["a", "a", "b", "b", "c", "c", "c"]
    return reweighing_weights(np.array(y, dtype=float),
                              np.array(group, dtype=object))


@pytest.mark.parametrize("name", sorted(REWEIGHING_GOLDEN))
def test_reweighing_golden(name):
    weights = _reweighing_case(name)
    digest = hashlib.sha256(weights.tobytes()).hexdigest()[:24]
    assert digest == REWEIGHING_GOLDEN[name]


def test_reweighing_rejects_nan_labels():
    # A NaN label matches no (group, label) cell; its row used to keep
    # whatever memory np.empty handed out.
    y = np.array([0.0, 1.0, np.nan, 1.0, 0.0, 1.0])
    group = np.array(["a", "a", "b", "b", "a", "b"], dtype=object)
    with pytest.raises(FairnessError, match="NaN"):
        reweighing_weights(y, group)
    from repro.data.schema import Schema, categorical, numeric
    from repro.data.table import Table

    table = Table(Schema([
        categorical("g", role=ColumnRole.SENSITIVE),
        numeric("y", role=ColumnRole.TARGET),
    ]), {"g": group, "y": y})
    with pytest.raises(FairnessError, match="NaN"):
        reweigh(table)


def test_reweighing_gives_trailing_nul_groups_their_cell():
    # A group mask ``group == "a\x00"`` selects nothing (numpy compares
    # the object array to "a"), so per-cell masks left those rows
    # unweighted; grouping by codes weighs them like any other group.
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    renamed = reweighing_weights(
        y, np.array(["c", "c", "c", "b", "b", "b"], dtype=object))
    np.testing.assert_array_equal(reweighing_weights(
        y, np.array(["a\x00"] * 3 + ["b"] * 3, dtype=object)), renamed)


def test_reweigh_from_the_view_equals_the_array_path(census_tables):
    train, _ = census_tables
    numeric_group = train.with_column(
        numeric("sex", role=ColumnRole.SENSITIVE),
        (train.column("sex") == "female").astype(float))
    for table in (train, numeric_group):
        np.testing.assert_array_equal(
            reweigh(table),
            reweighing_weights(table.target(), table.sensitive()),
        )


def test_reweigh_improves_disparate_impact(credit_tables):
    train, test = credit_tables
    baseline = TableClassifier(LogisticRegression()).fit(train)
    baseline_di = audit_model(baseline, test).disparate_impact_ratio
    weighted = TableClassifier(LogisticRegression()).fit(
        train, sample_weight=reweigh(train)
    )
    weighted_di = audit_model(weighted, test).disparate_impact_ratio
    assert weighted_di > baseline_di + 0.05


# -- massaging -------------------------------------------------------------------

def test_massage_equalises_label_rates(credit_tables):
    train, _ = credit_tables
    ranker = TableClassifier(LogisticRegression()).fit(train)
    massaged = massage(train, ranker)
    rates = {
        g: massaged.filter(massaged["group"] == g)["approved"].mean()
        for g in ("A", "B")
    }
    assert abs(rates["A"] - rates["B"]) < 0.02


def test_massage_preserves_total_positives(credit_tables):
    train, _ = credit_tables
    ranker = TableClassifier(LogisticRegression()).fit(train)
    massaged = massage(train, ranker)
    assert massaged["approved"].sum() == pytest.approx(
        train["approved"].sum(), abs=1.0
    )


def test_massage_noop_when_fair(rng):
    from repro.data.synth import CreditScoringGenerator

    fair = CreditScoringGenerator(label_bias=0.0).generate(800, rng)
    ranker = TableClassifier(LogisticRegression()).fit(fair)
    massaged = massage(fair, ranker)
    rate_gap_before = abs(
        fair.filter(fair["group"] == "A")["approved"].mean()
        - fair.filter(fair["group"] == "B")["approved"].mean()
    )
    rate_gap_after = abs(
        massaged.filter(massaged["group"] == "A")["approved"].mean()
        - massaged.filter(massaged["group"] == "B")["approved"].mean()
    )
    assert rate_gap_after <= rate_gap_before + 0.02


# -- disparate impact repair ----------------------------------------------------------

def test_repair_aligns_group_distributions(rng):
    from repro.data.synth import CreditScoringGenerator

    table = CreditScoringGenerator(numeric_proxy_strength=0.9).generate(2000, rng)
    repaired = disparate_impact_repair(table, 1.0)
    a = repaired.filter(repaired["group"] == "A")["area_score"]
    b = repaired.filter(repaired["group"] == "B")["area_score"]
    assert abs(a.mean() - b.mean()) < 0.1
    original_a = table.filter(table["group"] == "A")["area_score"]
    original_b = table.filter(table["group"] == "B")["area_score"]
    assert abs(original_a.mean() - original_b.mean()) > 0.5


def test_repair_level_zero_is_identity(credit_tables):
    train, _ = credit_tables
    repaired = disparate_impact_repair(train, 0.0)
    np.testing.assert_allclose(repaired["income"], train["income"])


def test_repair_preserves_within_group_order(rng):
    from repro.data.synth import CreditScoringGenerator

    table = CreditScoringGenerator(numeric_proxy_strength=0.9).generate(500, rng)
    repaired = disparate_impact_repair(table, 1.0, columns=["income"])
    for g in ("A", "B"):
        mask = table["group"] == g
        original_order = np.argsort(table["income"][mask])
        repaired_order = np.argsort(repaired["income"][mask])
        np.testing.assert_array_equal(original_order, repaired_order)


def test_repair_validation(credit_tables):
    train, _ = credit_tables
    with pytest.raises(FairnessError):
        disparate_impact_repair(train, 1.5)


# -- in-processing ---------------------------------------------------------------------

def test_fair_penalty_reduces_disparity(credit_tables):
    train, test = credit_tables
    baseline = TableClassifier(LogisticRegression()).fit(train)
    baseline_spd = audit_model(baseline, test).statistical_parity_difference

    penalised = FairPenaltyLogisticRegression(fairness=10.0)
    penalised.set_group(train["group"])
    model = TableClassifier(penalised).fit(train)
    penalised_spd = audit_model(model, test).statistical_parity_difference
    assert penalised_spd < baseline_spd - 0.05


def test_fair_penalty_zero_matches_plain_lr(credit_tables):
    train, test = credit_tables
    plain = TableClassifier(LogisticRegression(l2=1.0)).fit(train)
    zero = FairPenaltyLogisticRegression(fairness=0.0, l2=1.0)
    zero.set_group(train["group"])
    penalised = TableClassifier(zero).fit(train)
    np.testing.assert_allclose(
        plain.predict_proba(test), penalised.predict_proba(test), atol=1e-3
    )


def test_fair_penalty_requires_group(toy_classification):
    X, y = toy_classification
    with pytest.raises(FairnessError, match="set_group"):
        FairPenaltyLogisticRegression().fit(X, y)


def test_fair_penalty_rejects_nonbinary_group(toy_classification):
    X, y = toy_classification
    model = FairPenaltyLogisticRegression()
    with pytest.raises(FairnessError):
        model.set_group(np.array(["A", "B", "C"] * (len(y) // 3) + ["A"] * (len(y) % 3)))


def test_exponentiated_gradient_reduces_disparity(credit_tables):
    train, test = credit_tables
    baseline = TableClassifier(LogisticRegression()).fit(train)
    baseline_di = audit_model(baseline, test).disparate_impact_ratio

    reducer = ExponentiatedGradientReducer(
        LogisticRegression(), max_rounds=20, eps=0.02
    )
    reducer.set_group(train["group"])
    model = TableClassifier(reducer).fit(train)
    reduced_di = audit_model(model, test).disparate_impact_ratio
    assert reduced_di > baseline_di + 0.03
    assert reducer.n_hypotheses >= 2


def test_exponentiated_gradient_equalized_odds(credit_tables):
    train, test = credit_tables
    reducer = ExponentiatedGradientReducer(
        LogisticRegression(), constraint="equalized_odds", max_rounds=15
    )
    reducer.set_group(train["group"])
    model = TableClassifier(reducer).fit(train)
    report = audit_model(model, test)
    baseline = TableClassifier(LogisticRegression()).fit(train)
    baseline_report = audit_model(baseline, test)
    assert (report.equalized_odds_difference
            < baseline_report.equalized_odds_difference + 0.02)


def test_exponentiated_gradient_validation():
    with pytest.raises(FairnessError):
        ExponentiatedGradientReducer(LogisticRegression(), constraint="nope")
    with pytest.raises(FairnessError):
        ExponentiatedGradientReducer(LogisticRegression(), burn_in_fraction=1.0)


# -- post-processing ------------------------------------------------------------------

def test_threshold_optimizer_demographic_parity(credit_tables, rng):
    train, test = credit_tables
    model = TableClassifier(LogisticRegression()).fit(train)
    optimizer = GroupThresholdOptimizer("demographic_parity")
    optimizer.fit(model.predict_proba(train), model.labels(train), train["group"])
    decisions = optimizer.predict(model.predict_proba(test), test["group"])
    rates = selection_rates(decisions, test["group"])
    assert abs(rates["A"] - rates["B"]) < 0.1
    assert disparate_impact_ratio(decisions, test["group"]) > 0.75


def test_threshold_optimizer_equal_opportunity(credit_tables):
    train, test = credit_tables
    model = TableClassifier(LogisticRegression()).fit(train)
    optimizer = GroupThresholdOptimizer("equal_opportunity")
    optimizer.fit(model.predict_proba(train), model.labels(train), train["group"])
    decisions = optimizer.predict(model.predict_proba(test), test["group"])
    from repro.fairness.metrics import equal_opportunity_difference

    baseline = audit_model(model, test).equal_opportunity_difference
    optimised = equal_opportunity_difference(
        model.labels(test), decisions, test["group"]
    )
    assert optimised < baseline + 0.05


def test_threshold_optimizer_unseen_group(credit_tables):
    train, _ = credit_tables
    model = TableClassifier(LogisticRegression()).fit(train)
    optimizer = GroupThresholdOptimizer().fit(
        model.predict_proba(train), model.labels(train), train["group"]
    )
    with pytest.raises(FairnessError, match="unseen"):
        optimizer.predict(np.array([0.5]), np.array(["Z"]))


def test_threshold_optimizer_requires_fit():
    with pytest.raises(NotFittedError):
        GroupThresholdOptimizer().predict(np.array([0.5]), np.array(["A"]))


def test_reject_option_flips_only_band(rng):
    probabilities = np.array([0.9, 0.55, 0.45, 0.1])
    group = np.array(["B", "B", "A", "A"], dtype=object)
    decisions = RejectOptionClassifier("B", band=0.1).predict(probabilities, group)
    # Outside band unchanged; inside band B -> 1, A -> 0.
    np.testing.assert_allclose(decisions, [1.0, 1.0, 0.0, 0.0])


def test_reject_option_improves_parity(credit_tables):
    train, test = credit_tables
    model = TableClassifier(LogisticRegression()).fit(train)
    probabilities = model.predict_proba(test)
    plain = (probabilities >= 0.5).astype(float)
    adjusted = RejectOptionClassifier("B", band=0.15).predict(
        probabilities, test["group"]
    )
    assert (statistical_parity_difference(adjusted, test["group"])
            < statistical_parity_difference(plain, test["group"]))


def test_reject_option_validation():
    with pytest.raises(FairnessError):
        RejectOptionClassifier("B", band=0.0)
    with pytest.raises(FairnessError):
        RejectOptionClassifier("B").predict(np.array([0.5]), np.array(["A", "B"]))
