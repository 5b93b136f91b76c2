"""Golden-digest pins for the FACT audit report.

Each digest below is a :meth:`FACTReport.fingerprint` captured from the
auditor before its serial and sharded plans were merged into one
map/combine plan.  The audit cases together reach every branch of the
report: a conformal check with an accountant and a pipeline trail, the
missing-calibration note, the intersectional note, the power note, and
a quasi-identifier risk profile.  Every case must hash to the same
bytes with and without a store and at one or two workers — the
refactor may move computation between plan nodes, never change it.
"""

import numpy as np
import pytest

from repro.confidentiality.accountant import PrivacyAccountant
from repro.core import FACTAuditor
from repro.data import three_way_split
from repro.data.schema import ColumnRole, categorical
from repro.data.synth import CensusIncomeGenerator, CreditScoringGenerator
from repro.learn import LogisticRegression, TableClassifier
from repro.pipeline import (
    CleanStage,
    Pipeline,
    TrainStage,
    ValidateSchemaStage,
)
from repro.store import ArtifactStore

GOLDEN = {
    "full": "09597b68b5551fa41c7cc184",
    "no_calibration": "2981d44c86ee393002f5efe2",
    "intersectional": "9a411c36f1d6acb5cfede0b4",
    "underpowered": "d6175aba080b8264363e5636",
    "census": "7cbbfba88036e05fa27fc634",
}

#: A note each case must carry (``None``: the case pins other branches).
EXPECTED_NOTE = {
    "full": None,
    "no_calibration": "conformal guarantee not checked",
    "intersectional": "intersectional gap exceeds the marginal one",
    "underpowered": "underpowered",
    "census": None,
}


def _credit_full():
    rng = np.random.default_rng(2024)
    generator = CreditScoringGenerator(label_bias=0.35, proxy_strength=0.8)
    train, calibration, test = three_way_split(
        generator.generate(1200, rng), 0.3, 0.2, rng
    )
    result = Pipeline([
        ValidateSchemaStage(), CleanStage(),
        TrainStage(TableClassifier(LogisticRegression())),
    ]).run(train, rng)
    accountant = PrivacyAccountant(2.0)
    accountant.spend(0.5, label="golden-release")
    return result.model, test, {
        "calibration": calibration, "accountant": accountant,
        "pipeline_result": result, "subject": "golden-credit",
    }


def _credit_no_calibration():
    rng = np.random.default_rng(7)
    generator = CreditScoringGenerator(label_bias=0.2, proxy_strength=0.5)
    train, test = generator.generate_pair(800, 300, rng)
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, test, {}


def _credit_intersectional():
    # A second sensitive attribute aligned with a low credit history
    # inside group B only, so the worst (group, age_band) cell is further
    # from the best one than the marginal group gap shows.
    rng = np.random.default_rng(31)
    generator = CreditScoringGenerator(label_bias=0.0, proxy_strength=0.0)
    train, test = generator.generate_pair(900, 600, rng)
    history = test.column("credit_history")
    in_b = test.column("group") == "B"
    old = np.where(in_b, history < np.median(history),
                   rng.random(test.n_rows) < 0.5)
    test = test.with_column(
        categorical("age_band", role=ColumnRole.SENSITIVE),
        np.where(old, "old", "young").astype(object),
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, test, {}


def _credit_underpowered():
    rng = np.random.default_rng(6)
    generator = CreditScoringGenerator(group_b_fraction=0.03)
    train, test = generator.generate_pair(1000, 400, rng)  # 10 in group B
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, test, {}


def _census():
    rng = np.random.default_rng(11)
    generator = CensusIncomeGenerator(sex_gap=0.5)
    train, calibration, test = three_way_split(
        generator.generate(1000, rng), 0.3, 0.2, rng
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, test, {"calibration": calibration}


CASES = {
    "full": _credit_full,
    "no_calibration": _credit_no_calibration,
    "intersectional": _credit_intersectional,
    "underpowered": _credit_underpowered,
    "census": _census,
}


@pytest.fixture(scope="module")
def subjects():
    return {name: build() for name, build in CASES.items()}


def audit(subject, *, store=None, n_jobs=1):
    model, test, kwargs = subject
    auditor = FACTAuditor(n_bootstrap=16, n_jobs=n_jobs, backend="thread",
                          store=store)
    return auditor.audit(model, test, np.random.default_rng(99), **kwargs)


@pytest.mark.parametrize("n_jobs", (1, 2))
@pytest.mark.parametrize("with_store", (False, True))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(subjects, case, with_store, n_jobs):
    store = ArtifactStore.in_memory() if with_store else None
    report = audit(subjects[case], store=store, n_jobs=n_jobs)
    assert report.fingerprint() == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_reaches_its_branch(subjects, case):
    report = audit(subjects[case])
    note = EXPECTED_NOTE[case]
    if note is not None:
        assert any(note in line for line in report.notes), report.notes
    if case == "full":
        assert report.accuracy.conformal_coverage is not None
        assert report.confidentiality.epsilon_spent == 0.5
        assert report.transparency.provenance_steps
        assert report.notes == []
    if case == "census":
        assert report.confidentiality.risk is not None
        assert report.accuracy.conformal_coverage_by_group
