"""Golden-value pins for the fairness pillar's group metrics and power note.

Every digest below was captured from the code the grouping kernel
replaced: ``np.unique`` of the group column in every metric and one
``group == key`` mask per group (see docs/api.md, "Hot kernels").  The
kernel promises *byte-identical* results, so each digest hashes the
``int64`` view of every float, every integer count, and the ``repr`` of
every group key in dict order: object, ``<U``, integer, boolean and
float columns (``-0.0`` beside ``0.0``), mixed objects that collapse into
one key (``1``, ``1.0`` and ``True``), ``""`` as a key, one-row groups,
a group that predicts no positives, predictions outside {0, 1},
arbitrary float predictions (so a change of summation order shows) and
NaN labels, predictions and probabilities.

The power digests pin ``minimum_detectable_gap`` (NaN branch included),
``required_audit_size`` and the notes ``FACTAuditor._audit_power_note``
writes.

The property at the end keeps the mask loop in this file as the
reference for every kernel-backed function.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accuracy.power import minimum_detectable_gap, required_audit_size
from repro.core.auditor import FACTAuditor
from repro.exceptions import FairnessError
from repro.fairness import metrics as fm
from repro.fairness.metrics import GroupRates
from repro.fairness.report import FairnessReport, audit_decisions
from repro.learn.calibration import expected_calibration_error
from repro.learn.metrics import ConfusionMatrix, confusion_matrix

GOLDEN = {
    "metrics": "e74b7573811eec11",
    "reports": "e5a941b72627e409",
    "power": "e8cb8663b2e723cb",
    "power_notes": "ad8c82428ff0a8cd",
}


def _float_bits(value) -> int:
    return int(np.float64(value).view(np.int64))


def tokens(value):
    """A hashable, exact rendering of a metric result.

    Floats become their ``int64`` bits with their type, dict keys their
    ``repr`` in dict order, so a changed key type, key order or last
    bit all show.
    """
    if isinstance(value, FairnessReport):
        fields = ("sensitive", "groups", "selection_rates", "base_rates",
                  "statistical_parity_difference", "disparate_impact_ratio",
                  "equal_opportunity_difference",
                  "equalized_odds_difference",
                  "predictive_parity_difference", "accuracy_difference",
                  "calibration_gaps", "four_fifths_threshold")
        return ("report", value.fingerprint(), value.render(),
                tuple(tokens(getattr(value, name)) for name in fields))
    if isinstance(value, GroupRates):
        return ("rates", tokens(value.groups), tokens(value.confusions))
    if isinstance(value, ConfusionMatrix):
        return ("cm", tokens(value.tp), tokens(value.fp), tokens(value.tn),
                tokens(value.fn))
    if isinstance(value, dict):
        return ("dict", tuple((repr(key), tokens(item))
                              for key, item in value.items()))
    if isinstance(value, tuple):
        return ("tuple", tuple(repr(item) for item in value))
    if isinstance(value, (float, np.floating)):
        return (type(value).__name__, _float_bits(value))
    return (type(value).__name__, repr(value))


def digest(items) -> str:
    """Hash of the exact rendering of ``items``."""
    return hashlib.sha256(repr(tokens_list(items)).encode()).hexdigest()[:16]


def tokens_list(items):
    return [tokens(item) for item in items]


# -- seeded cases -------------------------------------------------------------

def _objects(values) -> np.ndarray:
    """An object column holding plain Python values."""
    out = np.empty(len(values), dtype=object)
    out[:] = np.asarray(values, dtype=object).tolist()
    return out


def _fairness_cases(seed=20190703):
    """(name, y_true, y_pred, group, probabilities), every one valid."""
    data = np.random.default_rng(seed)

    def labels(n, rate=0.4):
        return (data.random(n) < rate).astype(np.float64)

    def decisions(scores):
        return (scores >= 0.5).astype(np.float64)

    cases = []
    # Census-style: an object column of strings.
    n = 600
    group = _objects(data.choice(["Male", "Female"], n, p=[0.6, 0.4]))
    scores = data.random(n)
    cases.append(("object_strings", labels(n), decisions(scores), group,
                  scores))
    # A ``<U`` column with three groups.
    n = 300
    group = data.choice(np.array(["a", "bb", "c"]), n)
    scores = data.random(n)
    cases.append(("unicode", labels(n), decisions(scores), group, scores))
    # Integer groups, arbitrary float predictions.
    n = 400
    group = data.choice(np.array([-3, 0, 2, 7]), n)
    scores = data.random(n)
    cases.append(("ints_float_predictions", labels(n), scores, group,
                  scores))
    # Boolean groups.
    n = 200
    group = data.random(n) < 0.3
    scores = data.random(n)
    cases.append(("bools", labels(n), decisions(scores), group, scores))
    # Float groups: -0.0 and 0.0 are one key.
    n = 500
    group = data.choice(np.array([-0.0, 0.0, 1.5, -2.25]), n)
    scores = data.random(n)
    cases.append(("floats_signed_zero", labels(n), scores, group, scores))
    # Mixed objects: 1, 1.0 and True collapse, as do 0 and False.
    n = 300
    group = _objects(data.choice(
        _objects([1, 1.0, True, 0, False, 2.5]), n))
    scores = data.random(n)
    cases.append(("mixed_objects", labels(n), scores, group, scores))
    # "" is a key like any other.
    n = 120
    group = _objects(data.choice(["", "x", "yy"], n))
    scores = data.random(n)
    cases.append(("empty_string_key", labels(n), decisions(scores), group,
                  scores))
    # A one-row group among three.
    n = 90
    group = _objects(data.choice(["p", "q"], n))
    group[37] = "solo"
    scores = data.random(n)
    cases.append(("one_row_group", labels(n), decisions(scores), group,
                  scores))
    # A group that predicts no positives: precision 0.
    n = 150
    group = _objects(data.choice(["y", "z", "w"], n))
    scores = data.random(n)
    predictions = decisions(scores)
    predictions[group == "z"] = 0.0
    cases.append(("no_predicted_positives", labels(n), predictions, group,
                  scores))
    # Predictions outside {0, 1}.
    n = 160
    group = _objects(data.choice(["u", "v"], n))
    scores = data.random(n)
    predictions = data.choice(np.array([0.0, 0.5, 1.0, 2.0]), n)
    cases.append(("odd_predictions", labels(n), predictions, group, scores))
    # Labels outside {0, 1}.
    n = 160
    group = data.choice(np.array([10, 20, 30]), n)
    scores = data.random(n)
    odd = labels(n)
    odd[::7] = data.choice(np.array([2.0, -0.0, 0.5]), len(odd[::7]))
    cases.append(("odd_labels", odd, decisions(scores), group, scores))
    # NaN labels, predictions and probabilities.
    n = 240
    group = _objects(data.choice(["m", "n"], n))
    scores = data.random(n)
    nan_labels = labels(n)
    nan_labels[::11] = np.nan
    nan_predictions = decisions(scores)
    nan_predictions[::13] = np.nan
    nan_scores = scores.copy()
    nan_scores[::17] = np.nan
    cases.append(("nan_inputs", nan_labels, nan_predictions, group,
                  nan_scores))
    # Large groups of arbitrary floats: long sums, more than one
    # 8192-element buffer.
    n = 20_000
    group = _objects(data.choice(["big", "small"], n, p=[0.9, 0.1]))
    scores = data.random(n)
    cases.append(("long_float_sums", labels(n), scores, group, scores))
    return cases


def _metric_results(y_true, y_pred, group, probabilities):
    """Every public metric function on one case, in a fixed order."""
    rates = fm.group_rates(y_true, y_pred, group)
    return [
        fm.selection_rates(y_pred, group),
        fm.base_rates(y_true, group),
        rates,
        rates.per_group("recall"),
        rates.ratio("precision"),
        fm.statistical_parity_difference(y_pred, group),
        fm.disparate_impact_ratio(y_pred, group),
        fm.equal_opportunity_difference(y_true, y_pred, group),
        fm.equalized_odds_difference(y_true, y_pred, group),
        fm.predictive_parity_difference(y_true, y_pred, group),
        fm.accuracy_difference(y_true, y_pred, group),
        fm.passes_four_fifths_rule(y_pred, group),
        fm.group_calibration_gaps(y_true, probabilities, group),
        fm.group_calibration_gaps(y_true, probabilities, group, n_bins=4),
    ]


def test_every_case_kind_is_present():
    cases = {name: case for name, *case in _fairness_cases()}
    y_true, y_pred, group, _ = cases["no_predicted_positives"]
    assert fm.group_rates(y_true, y_pred, group).per_group(
        "precision")["z"] == 0.0
    _, _, group, _ = cases["floats_signed_zero"]
    assert len(np.unique(group)) == 3
    _, _, group, _ = cases["mixed_objects"]
    assert len(np.unique(group)) == 3
    _, _, group, _ = cases["one_row_group"]
    assert (group == "solo").sum() == 1


def test_fairness_metrics_match_golden():
    results = []
    for _, y_true, y_pred, group, probabilities in _fairness_cases():
        results.extend(_metric_results(y_true, y_pred, group, probabilities))
    assert digest(results) == GOLDEN["metrics"]


def test_audit_decisions_matches_golden():
    reports = []
    for name, y_true, y_pred, group, probabilities in _fairness_cases():
        reports.append(audit_decisions(y_true, y_pred, group,
                                       sensitive=name))
        reports.append(audit_decisions(y_true, y_pred, group,
                                       sensitive=name,
                                       probabilities=probabilities))
    assert digest(reports) == GOLDEN["reports"]


# -- the power note -----------------------------------------------------------

POWER_SIZES = (2, 10, 50, 200, 2400, 20_000, 1_000_000)
POWER_BASELINES = (0.001, 0.05, 0.3, 0.9)


def test_minimum_detectable_gap_matches_golden():
    values = [minimum_detectable_gap(n, baseline)
              for n in POWER_SIZES for baseline in POWER_BASELINES]
    values += [minimum_detectable_gap(n, 0.4, alpha=0.01, power=0.9)
               for n in POWER_SIZES]
    designs = [required_audit_size(baseline, gap, alpha, power)
               for baseline in (0.05, 0.3, 0.9)
               for gap in (0.001, 0.01, 0.04)
               for alpha, power in ((0.05, 0.8), (0.01, 0.95))]
    assert 0 < np.isnan(values).sum() < len(values)
    assert digest(values + [design.n_per_group for design in designs]
                  + [design.render() for design in designs]) \
        == GOLDEN["power"]


def _power_note_cases(seed=20190704):
    """(report, group) pairs reaching every branch of the note."""
    data = np.random.default_rng(seed)
    cases = []
    for n, rate in ((8, 0.5), (60, 0.3), (600, 0.4), (5000, 0.35),
                    (5000, 0.9), (40_000, 0.2), (300, 0.0), (300, 1.0)):
        group = _objects(data.choice(["Female", "Male"], n, p=[0.3, 0.7]))
        y_true = (data.random(n) < 0.5).astype(np.float64)
        y_pred = (data.random(n) < rate).astype(np.float64)
        cases.append((audit_decisions(y_true, y_pred, group), group))
    # A one-row group: too small to test at all.
    group = _objects(["a"] + ["b"] * 50)
    y_pred = (data.random(51) < 0.5).astype(np.float64)
    cases.append((audit_decisions(y_pred, y_pred, group), group))
    return cases


def test_audit_power_notes_match_golden():
    notes = [FACTAuditor._audit_power_note(report, group)
             for report, group in _power_note_cases()]
    kinds = {None if note is None else note.split(":")[0] for note in notes}
    assert kinds == {None, "fairness audit underpowered",
                     "fairness audit severely underpowered"}
    assert digest(notes) == GOLDEN["power_notes"]


# -- the mask loop as the reference -------------------------------------------

def _loop_check(y_pred, group, y_true=None):
    y_pred = np.asarray(y_pred, dtype=np.float64)
    group = np.asarray(group)
    if y_pred.shape != group.shape or y_pred.ndim != 1 or len(y_pred) == 0:
        raise FairnessError("misaligned or empty")
    if y_true is not None:
        y_true = np.asarray(y_true, dtype=np.float64)
        if y_true.shape != y_pred.shape:
            raise FairnessError("misaligned")
    groups = np.unique(group)
    if len(groups) < 2:
        raise FairnessError("need at least two groups")
    return y_pred, group, y_true, groups


def loop_selection_rates(y_pred, group):
    """Per-group means as they were: one ``group == key`` mask each."""
    y_pred, group, _, groups = _loop_check(y_pred, group)
    return {key: float(np.mean(y_pred[group == key])) for key in groups}


def loop_group_rates(y_true, y_pred, group):
    y_pred, group, y_true, groups = _loop_check(y_pred, group, y_true)
    return GroupRates(tuple(groups.tolist()), {
        key: confusion_matrix(y_true[group == key], y_pred[group == key])
        for key in groups
    })


def loop_calibration_gaps(y_true, probabilities, group, n_bins=10):
    probabilities, group, y_true, groups = _loop_check(
        probabilities, group, y_true)
    return {
        key: expected_calibration_error(
            y_true[group == key], probabilities[group == key], n_bins)
        for key in groups
    }


def _spread(rates):
    values = list(rates.values())
    return float(max(values) - min(values))


def _ratio(rates):
    values = list(rates.values())
    top = max(values)
    return 1.0 if top == 0.0 else float(min(values) / top)


def loop_results(y_true, y_pred, group, probabilities):
    """``_metric_results`` from the mask loop."""
    selection = loop_selection_rates(y_pred, group)
    rates = loop_group_rates(y_true, y_pred, group)
    recall = rates.difference("recall")
    return [
        selection,
        loop_selection_rates(y_true, group),
        rates,
        rates.per_group("recall"),
        rates.ratio("precision"),
        _spread(selection),
        _ratio(selection),
        recall,
        float(max(recall, rates.difference("false_positive_rate"))),
        rates.difference("precision"),
        rates.difference("accuracy"),
        _ratio(selection) >= fm.FOUR_FIFTHS,
        loop_calibration_gaps(y_true, probabilities, group),
        loop_calibration_gaps(y_true, probabilities, group, n_bins=4),
    ]


def loop_report(y_true, y_pred, group, probabilities):
    """``audit_decisions`` from the mask loop."""
    selection = loop_selection_rates(y_pred, group)
    rates = loop_group_rates(y_true, y_pred, group)
    recall = rates.difference("recall")
    return FairnessReport(
        sensitive="attr",
        groups=rates.groups,
        selection_rates=selection,
        base_rates=loop_selection_rates(y_true, group),
        statistical_parity_difference=_spread(selection),
        disparate_impact_ratio=_ratio(selection),
        equal_opportunity_difference=recall,
        equalized_odds_difference=float(max(
            recall, rates.difference("false_positive_rate"))),
        predictive_parity_difference=rates.difference("precision"),
        accuracy_difference=rates.difference("accuracy"),
        calibration_gaps=(
            {} if probabilities is None
            else loop_calibration_gaps(y_true, probabilities, group)),
    )


_GROUP_COLUMNS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "", "cc"]), min_size=1,
             max_size=60).map(_objects),
    st.lists(st.sampled_from(["a", "b", "", "cc"]), min_size=1,
             max_size=60).map(np.array),
    st.lists(st.integers(-2, 2), min_size=1, max_size=60).map(np.array),
    st.lists(st.booleans(), min_size=1, max_size=60).map(np.array),
    st.lists(st.sampled_from([-0.0, 0.0, 1.5, -2.0]), min_size=1,
             max_size=60).map(np.array),
    st.lists(st.sampled_from([1, 1.0, True, 0, False, 2.5]), min_size=1,
             max_size=60).map(_objects),
)
_LABELS = st.sampled_from([0.0, 1.0, 0.0, 1.0, -0.0, 2.0, np.nan])
_PREDICTIONS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.0, 1.0, 0.5, 2.0, np.nan, -0.0]),
    st.floats(0.0, 1.0),
)
_PROBABILITIES = st.one_of(st.floats(0.0, 1.0), st.just(np.nan))


@st.composite
def grouped_samples(draw):
    group = draw(_GROUP_COLUMNS)
    n = len(group)
    return (draw(arrays(np.float64, n, elements=_LABELS)),
            draw(arrays(np.float64, n, elements=_PREDICTIONS)),
            group,
            draw(arrays(np.float64, n, elements=_PROBABILITIES)))


@given(grouped_samples())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_the_mask_loop(sample):
    y_true, y_pred, group, probabilities = sample
    try:
        expected = loop_results(y_true, y_pred, group, probabilities)
    except FairnessError:
        with pytest.raises(FairnessError):
            _metric_results(y_true, y_pred, group, probabilities)
        with pytest.raises(FairnessError):
            audit_decisions(y_true, y_pred, group)
        return
    assert tokens_list(_metric_results(y_true, y_pred, group,
                                       probabilities)) \
        == tokens_list(expected)
    for given_probabilities in (None, probabilities):
        assert tokens(audit_decisions(
            y_true, y_pred, group, sensitive="attr",
            probabilities=given_probabilities)) == tokens(loop_report(
                y_true, y_pred, group, given_probabilities))
