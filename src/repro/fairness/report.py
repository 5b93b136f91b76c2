"""The fairness audit report: one object answering Q1 for a model.

Bundles every group metric, base rates, calibration gaps and the
four-fifths verdict for a (labels, scores, decisions, groups) tuple, plus
a table-level entry point for :class:`repro.learn.TableClassifier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.table import Table
from repro.exceptions import FairnessError
from repro.fairness import metrics as fm
from repro.learn.table_model import TableClassifier
from repro.store import Artifact


@dataclass
class FairnessReport(Artifact):
    """Complete group-fairness audit for one set of decisions.

    An :class:`~repro.store.Artifact`: ``to_dict``/``to_json`` serialise
    every metric and ``fingerprint()`` mints the content hash.
    """

    sensitive: str
    groups: tuple
    selection_rates: dict[object, float]
    base_rates: dict[object, float]
    statistical_parity_difference: float
    disparate_impact_ratio: float
    equal_opportunity_difference: float
    equalized_odds_difference: float
    predictive_parity_difference: float
    accuracy_difference: float
    calibration_gaps: dict[object, float] = field(default_factory=dict)
    four_fifths_threshold: float = fm.FOUR_FIFTHS

    @property
    def passes_four_fifths(self) -> bool:
        """Verdict under the EEOC four-fifths rule."""
        return self.disparate_impact_ratio >= self.four_fifths_threshold

    def worst_metric(self) -> tuple[str, float]:
        """The difference metric with the largest violation."""
        candidates = {
            "statistical_parity_difference": self.statistical_parity_difference,
            "equal_opportunity_difference": self.equal_opportunity_difference,
            "equalized_odds_difference": self.equalized_odds_difference,
            "predictive_parity_difference": self.predictive_parity_difference,
            "accuracy_difference": self.accuracy_difference,
        }
        name = max(candidates, key=candidates.get)
        return name, candidates[name]

    def summary(self) -> dict[str, float]:
        """Scalar metrics as a plain dict (for the FACT scorecard)."""
        return {
            "statistical_parity_difference": self.statistical_parity_difference,
            "disparate_impact_ratio": self.disparate_impact_ratio,
            "equal_opportunity_difference": self.equal_opportunity_difference,
            "equalized_odds_difference": self.equalized_odds_difference,
            "predictive_parity_difference": self.predictive_parity_difference,
            "accuracy_difference": self.accuracy_difference,
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"Fairness audit on sensitive attribute {self.sensitive!r}"]
        lines.append(f"  groups: {list(self.groups)}")
        for group in self.groups:
            lines.append(
                f"    {group}: selection={self.selection_rates[group]:.3f}"
                f" base_rate={self.base_rates[group]:.3f}"
                + (f" calibration_gap={self.calibration_gaps[group]:.3f}"
                   if group in self.calibration_gaps else "")
            )
        for name, value in self.summary().items():
            lines.append(f"  {name}: {value:.4f}")
        verdict = "PASS" if self.passes_four_fifths else "FAIL"
        lines.append(
            f"  four-fifths rule ({self.four_fifths_threshold:.0%}): {verdict}"
        )
        return "\n".join(lines)


def audit_decisions(y_true, y_pred, group, sensitive: str = "group",
                    probabilities=None) -> FairnessReport:
    """Audit pre-computed decisions (optionally with scores for calibration).

    Every metric comes from one grouping pass over ``group``.  A missing
    group value or a ``probabilities`` array that does not align with
    the groups raises :class:`FairnessError`.
    """
    y_pred, y_true, groups = fm._check_inputs(
        y_pred, group, np.asarray(y_true, dtype=np.float64),
        what=f"sensitive attribute {sensitive!r}",
    )
    calibration = {}
    if probabilities is not None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape != y_pred.shape:
            raise FairnessError(
                f"probabilities {probabilities.shape} and groups "
                f"{y_pred.shape} must be aligned 1-D arrays"
            )
        calibration = groups.calibration_gaps(y_true, probabilities)
    selection = groups.means(y_pred)
    rates = groups.rates(y_true, y_pred)
    return FairnessReport(
        sensitive=sensitive,
        groups=rates.groups,
        selection_rates=selection,
        base_rates=groups.means(y_true),
        statistical_parity_difference=fm._spread(selection.values()),
        disparate_impact_ratio=fm._ratio(selection.values()),
        equal_opportunity_difference=rates.difference("recall"),
        equalized_odds_difference=fm._odds_gap(rates),
        predictive_parity_difference=rates.difference("precision"),
        accuracy_difference=rates.difference("accuracy"),
        calibration_gaps=calibration,
    )


def audit_model(model: TableClassifier, table: Table,
                sensitive: str | None = None,
                threshold: float | None = None) -> FairnessReport:
    """Audit a fitted table model on ``table``.

    The sensitive column is read from the table's schema (audits always
    see it, even though the model never did).  With several SENSITIVE
    columns declared, the first is audited here; cross them with
    :func:`repro.fairness.intersectional.intersectional_audit`.
    """
    names = table.schema.sensitive_names
    if sensitive is None and not names:
        raise FairnessError("table declares no sensitive column")
    name = sensitive or names[0]
    group = table.sensitive(name)
    probabilities = model.predict_proba(table)
    cutoff = model.threshold if threshold is None else threshold
    decisions = (probabilities >= cutoff).astype(np.float64)
    return audit_decisions(
        model.labels(table), decisions, group,
        sensitive=name, probabilities=probabilities,
    )
