"""Pre-processing fairness mitigation: fix the data before training (Q1).

Three classics, all of which leave the learner untouched:

* **Reweighing** (Kamiran & Calders) — reweight examples so group and
  label become statistically independent.
* **Massaging** (Kamiran & Calders) — flip the labels of the most
  borderline examples until selection rates match, guided by a ranker.
* **Disparate-impact repair** (Feldman et al.) — move each group's
  feature distribution toward the common median distribution, with a
  repair level trading fairness against information content.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import ColumnType
from repro.data.table import Table
from repro.exceptions import FairnessError
from repro.fairness.metrics import _group_rows
from repro.learn.table_model import TableClassifier


def reweighing_weights(y_true, group) -> np.ndarray:
    """Kamiran-Calders weights: w(g, y) = P(g)·P(y) / P(g, y).

    Training with these weights makes the weighted empirical distribution
    satisfy independence between group and label, removing the incentive
    to use group (or its proxies) to predict the label.  Groups are the
    keys of the fairness grouping pass (a missing group, ``None`` or
    NaN, raises :class:`FairnessError`, as does a NaN label: a row
    outside every cell would get no weight).
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    group = np.asarray(group)
    if y_true.shape != group.shape:
        raise FairnessError("y_true and group must be aligned")
    groups = _group_rows(group)
    return _cell_weights(y_true, groups.codes, len(groups.keys))


def _cell_weights(y_true: np.ndarray, codes: np.ndarray,
                  n_groups: int) -> np.ndarray:
    """Reweighing weights from group ``codes`` in one counting pass.

    Each (group, label) cell's weight is the same float expression the
    per-cell masks computed, ``(n_g / n) * (n_y / n) / (n_gy / n)``, so
    every weight is bit-identical to theirs.
    """
    if np.isnan(y_true).any():
        raise FairnessError(
            f"{int(np.isnan(y_true).sum())} labels are NaN; "
            "every reweighed row needs a label"
        )
    n = len(y_true)
    codes = codes.astype(np.intp)
    labels, label_codes = np.unique(y_true, return_inverse=True)
    joint = np.bincount(
        codes * len(labels) + label_codes, minlength=n_groups * len(labels)
    ).reshape(n_groups, len(labels))
    marginal = ((joint.sum(axis=1) / n)[:, None]
                * (joint.sum(axis=0) / n)[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = marginal / (joint / n)
    return cells[codes, label_codes]


def reweigh(table: Table, sensitive: str | None = None,
            target: str | None = None) -> np.ndarray:
    """Table-level convenience for :func:`reweighing_weights`.

    A categorical sensitive column is grouped by its cached content
    view (its codes are the cells' group index), so no grouping pass
    runs over the strings.
    """
    group = table.sensitive(sensitive)
    name = target or table.target_name
    if name is None:
        raise FairnessError("no target column declared or named")
    if sensitive is None:
        sensitive = table.schema.sensitive_names[0]
    if table.schema[sensitive].ctype is not ColumnType.CATEGORICAL:
        return reweighing_weights(table.column(name), group)
    categories, codes = table._content_view(sensitive)
    return _cell_weights(
        np.asarray(table.column(name), dtype=np.float64), codes,
        len(categories),
    )


def massage(table: Table, ranker: TableClassifier,
            sensitive: str | None = None,
            protected: object | None = None) -> Table:
    """Flip borderline labels until group selection rates are equal.

    A ranker (trained on the biased data) orders examples by estimated
    positive probability.  Promotions: the highest-ranked negatives of
    the protected group.  Demotions: the lowest-ranked positives of the
    favoured group.  Equal numbers of each, just enough to equalise the
    label rates — the minimal intervention with the least accuracy cost.
    """
    group = table.sensitive(sensitive)
    groups = np.unique(group)
    if len(groups) != 2:
        raise FairnessError(f"massaging expects two groups, got {groups.tolist()}")
    target = table.target_name
    if target is None:
        raise FairnessError("table declares no target column")
    labels = table.column(target).copy()

    rates = {g: labels[group == g].mean() for g in groups}
    if protected is None:
        protected = min(rates, key=rates.get)
    favoured = groups[0] if protected == groups[1] else groups[1]
    if rates[protected] >= rates[favoured]:
        return table  # nothing to repair

    scores = ranker.predict_proba(table)
    n_protected = int((group == protected).sum())
    n_favoured = int((group == favoured).sum())
    # Number of flips M that equalises rates:
    #   (pos_p + M)/n_p = (pos_f - M)/n_f
    pos_p = float(labels[group == protected].sum())
    pos_f = float(labels[group == favoured].sum())
    flips = (pos_f * n_protected - pos_p * n_favoured) / (n_protected + n_favoured)
    flips = int(round(flips))
    if flips <= 0:
        return table

    promote_pool = np.flatnonzero((group == protected) & (labels == 0.0))
    demote_pool = np.flatnonzero((group == favoured) & (labels == 1.0))
    flips = min(flips, len(promote_pool), len(demote_pool))
    promotions = promote_pool[np.argsort(-scores[promote_pool], kind="stable")][:flips]
    demotions = demote_pool[np.argsort(scores[demote_pool], kind="stable")][:flips]
    labels[promotions] = 1.0
    labels[demotions] = 0.0
    return table.with_column(table.schema[target], labels)


def disparate_impact_repair(table: Table, repair_level: float = 1.0,
                            sensitive: str | None = None,
                            columns: list[str] | None = None) -> Table:
    """Feldman et al. quantile repair of numeric features.

    Each group's values of each numeric feature are mapped toward the
    rank-matched *median distribution* across groups.  ``repair_level``
    interpolates between the original value (0) and the fully repaired
    value (1).  After full repair, no numeric feature can distinguish the
    groups by distribution — proxies are neutralised at the source.
    """
    if not 0.0 <= repair_level <= 1.0:
        raise FairnessError(f"repair_level must be in [0, 1], got {repair_level}")
    group = table.sensitive(sensitive)
    group_indices = {
        g: np.flatnonzero(group == g) for g in np.unique(group)
    }
    if columns is None:
        columns = [
            spec.name for spec in table.schema
            if spec.ctype is ColumnType.NUMERIC
            and spec.name in table.schema.feature_names
        ]
    repaired = table
    quantile_grid = np.linspace(0.0, 1.0, 101)
    for name in columns:
        values = table.column(name).astype(np.float64).copy()
        # Median distribution: at each quantile, the median across groups.
        per_group_quantiles = np.vstack([
            np.quantile(values[idx], quantile_grid)
            for idx in group_indices.values()
        ])
        median_quantiles = np.median(per_group_quantiles, axis=0)
        new_values = values.copy()
        for idx in group_indices.values():
            group_values = values[idx]
            ranks = _fractional_ranks(group_values)
            target = np.interp(ranks, quantile_grid, median_quantiles)
            new_values[idx] = (
                (1.0 - repair_level) * group_values + repair_level * target
            )
        repaired = repaired.with_column(table.schema[name], new_values)
    return repaired


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks scaled to [0, 1] (ties share a rank)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(len(values), dtype=np.float64)
    if len(values) > 1:
        ranks /= len(values) - 1
    else:
        ranks[:] = 0.5
    return ranks
