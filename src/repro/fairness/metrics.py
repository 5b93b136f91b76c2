"""Group fairness metrics (Q1).

All metrics operate on three aligned arrays — true labels, predicted
labels (or scores), and group membership — and report both per-group
values and the worst-case disparity across groups.  Conventions:

* *difference* metrics are ``max(group values) - min(group values)``
  (0 is perfectly fair);
* *ratio* metrics are ``min / max`` (1 is perfectly fair; the US EEOC
  "four-fifths rule" flags ratios below 0.8).

Every metric reads one grouping pass, :func:`_group_rows`.  It sorts the
group column once: the keys are ``np.unique(group)``, in its order and
with its types, and a group's rows are exactly the rows equal to its
key, in row order — one contiguous slice of a stable order by key
index.  Per-group means are ``np.mean`` over that slice and confusion
cells are integer counts, so every value equals the one a
``group == key`` mask per group gives.  Each public function runs the
pass once, and :func:`repro.fairness.report.audit_decisions` runs it
once for a whole report.  A missing group value (``None`` or NaN)
raises :class:`FairnessError`: a row without a group belongs to none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FairnessError
from repro.learn.metrics import ConfusionMatrix

#: (label, prediction) of the counted confusion cells, in
#: ``ConfusionMatrix`` field order: TP, FP, TN, FN.
_CELLS = ((1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0))


def _spread(values) -> float:
    """max - min of per-group values."""
    values = list(values)
    return float(max(values) - min(values))


def _ratio(values) -> float:
    """min / max of per-group values (1.0 when max is 0)."""
    values = list(values)
    top = max(values)
    if top == 0.0:
        return 1.0
    return float(min(values) / top)


@dataclass(frozen=True)
class GroupRates:
    """Per-group confusion-derived rates for one protected attribute."""

    groups: tuple
    confusions: dict[object, ConfusionMatrix]

    def per_group(self, attribute: str) -> dict[object, float]:
        """One confusion-matrix property per group."""
        return {
            group: getattr(cm, attribute)
            for group, cm in self.confusions.items()
        }

    def difference(self, attribute: str) -> float:
        """max - min of one rate across groups."""
        return _spread(self.per_group(attribute).values())

    def ratio(self, attribute: str) -> float:
        """min / max of one rate across groups (1.0 when max is 0)."""
        return _ratio(self.per_group(attribute).values())


def _odds_gap(rates: GroupRates) -> float:
    """Worst of the TPR gap and the FPR gap."""
    return float(max(
        rates.difference("recall"), rates.difference("false_positive_rate")
    ))


@dataclass(frozen=True)
class _Groups:
    """One factorization of a group column.

    Row ``i`` belongs to ``keys[codes[i]]``.  ``order`` lists the rows
    stably sorted by code, so group ``j``'s rows, in row order, are
    ``order[bounds[j]:bounds[j + 1]]``.
    """

    keys: np.ndarray
    codes: np.ndarray
    order: np.ndarray
    bounds: np.ndarray

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """``values`` cut into one contiguous slice per group, in key order."""
        return np.split(values[self.order], self.bounds[1:-1])

    def means(self, values: np.ndarray) -> dict[object, float]:
        """``np.mean`` of each group's values."""
        return {
            key: float(np.mean(part))
            for key, part in zip(self.keys, self.split(values))
        }

    def rates(self, y_true: np.ndarray, y_pred: np.ndarray) -> GroupRates:
        """Confusion matrices per group from one count of (group, cell).

        A row whose label or prediction is outside {0, 1} lands in a
        fifth cell that no matrix reads, as
        :func:`repro.learn.metrics.confusion_matrix` leaves it out.
        """
        cell = np.full(len(self.codes), len(_CELLS))
        for index, (label, prediction) in enumerate(_CELLS):
            cell[(y_true == label) & (y_pred == prediction)] = index
        width = len(_CELLS) + 1
        counts = np.bincount(self.codes * width + cell,
                             minlength=len(self.keys) * width)
        return GroupRates(tuple(self.keys.tolist()), {
            key: ConfusionMatrix(*row[:len(_CELLS)])
            for key, row in zip(self.keys,
                                counts.reshape(-1, width).tolist())
        })

    def calibration_gaps(self, y_true: np.ndarray, probabilities: np.ndarray,
                         n_bins: int = 10) -> dict[object, float]:
        """Expected calibration error within each group."""
        from repro.learn.calibration import expected_calibration_error

        return {
            key: expected_calibration_error(labels, scores, n_bins)
            for key, labels, scores in zip(self.keys, self.split(y_true),
                                           self.split(probabilities))
        }


def _reject_missing(group: np.ndarray, what: str) -> None:
    """Raise :class:`FairnessError` counting ``group``'s None and NaN rows."""
    missing = sum(value is None or value != value for value in group.tolist())
    if missing:
        raise FairnessError(
            f"{what} has {missing} missing values (None or NaN); "
            "every audited row needs a group"
        )


def _group_rows(group: np.ndarray, what: str = "the group column") -> _Groups:
    """Factorize ``group`` with one sort: the grouping kernel.

    The keys are ``np.unique``'s own array.  Among equal values (``-0.0``
    and ``0.0``; ``1``, ``1.0`` and ``True``) it keeps the one its sort
    puts first, which another sort of the column need not keep.  Each
    row's code is a binary search of those keys.  ``what`` names the
    column in the missing-value error.
    """
    try:
        keys = np.unique(group)
    except TypeError:
        # ``None`` among strings does not sort: report it, or re-raise.
        _reject_missing(group, what)
        raise
    if any(key is None or key != key for key in keys.tolist()):
        _reject_missing(group, what)
    codes = np.searchsorted(keys, group)
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(codes, minlength=len(keys))))
    )
    return _Groups(keys, codes, np.argsort(codes, kind="stable"), bounds)


def _check_inputs(y_pred, group, y_true=None, what: str = "the group column"):
    """The one input check: aligned 1-D arrays and at least two groups."""
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
    groups = _group_rows(group, what)
    if len(groups.keys) < 2:
        raise FairnessError(
            f"need at least two groups, found {groups.keys.tolist()}"
        )
    return y_pred, y_true, groups


def group_rates(y_true, y_pred, group) -> GroupRates:
    """Confusion matrices per group."""
    y_pred, y_true, groups = _check_inputs(y_pred, group, y_true)
    return groups.rates(y_true, y_pred)


def selection_rates(y_pred, group) -> dict[object, float]:
    """Fraction predicted positive, per group."""
    y_pred, _, groups = _check_inputs(y_pred, group)
    return groups.means(y_pred)


def statistical_parity_difference(y_pred, group) -> float:
    """max - min selection rate across groups (a.k.a. demographic parity)."""
    return _spread(selection_rates(y_pred, group).values())


def disparate_impact_ratio(y_pred, group) -> float:
    """min/max selection-rate ratio; < 0.8 violates the four-fifths rule."""
    return _ratio(selection_rates(y_pred, group).values())


def equal_opportunity_difference(y_true, y_pred, group) -> float:
    """max - min true-positive rate across groups."""
    return group_rates(y_true, y_pred, group).difference("recall")


def equalized_odds_difference(y_true, y_pred, group) -> float:
    """Worst of the TPR gap and the FPR gap across groups."""
    return _odds_gap(group_rates(y_true, y_pred, group))


def predictive_parity_difference(y_true, y_pred, group) -> float:
    """max - min precision across groups."""
    return group_rates(y_true, y_pred, group).difference("precision")


def accuracy_difference(y_true, y_pred, group) -> float:
    """max - min accuracy across groups."""
    return group_rates(y_true, y_pred, group).difference("accuracy")


def group_calibration_gaps(y_true, probabilities, group,
                           n_bins: int = 10) -> dict[object, float]:
    """Expected calibration error within each group.

    A score calibrated overall can hide large within-group
    mis-calibration; with unequal base rates, within-group calibration and
    equalised odds cannot both hold (Kleinberg et al.) — the recidivism
    experiment demonstrates this tension.
    """
    probabilities, y_true, groups = _check_inputs(probabilities, group, y_true)
    return groups.calibration_gaps(y_true, probabilities, n_bins)


def base_rates(y_true, group) -> dict[object, float]:
    """Positive-label prevalence per group (the impossibility lever)."""
    y_true, _, groups = _check_inputs(y_true, group)
    return groups.means(y_true)


FOUR_FIFTHS = 0.8


def passes_four_fifths_rule(y_pred, group) -> bool:
    """True when the disparate-impact ratio is at least 0.8."""
    return disparate_impact_ratio(y_pred, group) >= FOUR_FIFTHS
