"""Re-identification risk scoring (Q3).

Quick, attack-agnostic risk numbers for a table about to be shared:
uniqueness on quasi-identifiers is the dominant driver of linkage risk
(Sweeney's 87% result was exactly this).  The FACT auditor embeds these
scores in its confidentiality section.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.confidentiality.anonymity import _quasi_identifiers
from repro.data.table import Table


@dataclass(frozen=True)
class RiskProfile:
    """Uniqueness-based disclosure risk for one table."""

    quasi_identifiers: tuple[str, ...]
    n_rows: int
    n_classes: int
    k_anonymity: int
    unique_row_fraction: float
    mean_class_size: float
    journalist_risk: float

    @property
    def prosecutor_risk(self) -> float:
        """Worst-case re-identification probability: 1/k."""
        return 1.0 / self.k_anonymity if self.k_anonymity else 1.0

    def render(self) -> str:
        """Human-readable risk summary."""
        return (
            f"risk on QIs {list(self.quasi_identifiers)}: "
            f"k={self.k_anonymity}, unique rows {self.unique_row_fraction:.1%}, "
            f"prosecutor risk {self.prosecutor_risk:.3f}, "
            f"journalist risk {self.journalist_risk:.3f}"
        )


def qi_class_counts(table: Table,
                    quasi_identifiers: list[str] | None = None,
                    ) -> tuple[dict[str, int], int]:
    """Equivalence-class sizes over the QI columns, as mergeable counts.

    Returns ``(counts, nan_singletons)``: ``counts`` maps an unambiguous
    string key of each quasi-identifier combination (length-prefixed
    pieces joined on a unit separator) to its row count, and
    ``nan_singletons`` is the number of rows carrying a NaN in any
    numeric QI — each of which is its *own* equivalence class (NaN never
    equals NaN, so no other row can link to it), counted separately
    because NaN admits no string key.

    The pair merges exactly across row-range shards: summing per-shard
    ``counts`` per key (:func:`repro.data.partition.merge_counts`) and
    adding the singleton tallies reproduces the whole-table classes —
    the sharded FACT audit's confidentiality path.  Grouping matches
    :func:`~repro.confidentiality.anonymity.equivalence_classes` (the
    key strings round-trip float ``repr``; ``-0.0`` is normalised to
    ``0.0`` to match ``==`` semantics), with one Python string per row
    and a ``Counter``; keys come back in sorted order.
    """
    names = _quasi_identifiers(table, quasi_identifiers)
    n_rows = table.n_rows
    if not n_rows:
        return {}, 0
    nan_mask = np.zeros(n_rows, dtype=bool)
    pieces = []
    for name in names:
        values = table.column(name)
        if values.dtype.kind == "f":
            nan_mask |= np.isnan(values)
            values = values + 0.0
        pieces.append([f"{len(text)}#{text}"
                       for text in map(str, values.tolist())])
    keys = map("\x1f".join, zip(*pieces))
    counts = Counter(itertools.compress(keys, (~nan_mask).tolist()))
    return (
        {key: counts[key] for key in sorted(counts)},
        int(nan_mask.sum()),
    )


def risk_from_counts(quasi_identifiers, counts: Mapping[str, int],
                     nan_singletons: int = 0,
                     n_rows: int | None = None) -> RiskProfile:
    """A :class:`RiskProfile` from (merged) equivalence-class counts.

    The finalize half of the sharded confidentiality path: feed it the
    exact merge of per-shard :func:`qi_class_counts` results and it
    produces the same profile as :func:`assess_risk` on the whole table
    — every figure here is a pure function of the class-size multiset.
    """
    sizes = np.asarray(
        list(counts.values()) + [1] * int(nan_singletons), dtype=np.int64
    )
    if n_rows is None:
        n_rows = int(sizes.sum())
    n_classes = int(sizes.size)
    return RiskProfile(
        quasi_identifiers=tuple(quasi_identifiers),
        n_rows=n_rows,
        n_classes=n_classes,
        k_anonymity=int(sizes.min()) if n_classes else 0,
        unique_row_fraction=(
            float(np.sum(sizes == 1)) / n_rows if n_rows else 0.0
        ),
        mean_class_size=float(sizes.mean()) if n_classes else 0.0,
        journalist_risk=n_classes / n_rows if n_rows else 1.0,
    )


def assess_risk(table: Table,
                quasi_identifiers: list[str] | None = None) -> RiskProfile:
    """Compute a :class:`RiskProfile` for the table's quasi-identifiers.

    * ``unique_row_fraction`` — share of rows whose QI combination is
      unique in the table (each one a confident linkage target);
    * ``journalist_risk`` — expected re-identification probability for a
      uniformly random target: mean over rows of 1/(class size), which
      equals ``n_classes / n_rows``.
    """
    names = _quasi_identifiers(table, quasi_identifiers)
    counts, nan_singletons = qi_class_counts(table, names)
    return risk_from_counts(tuple(names), counts, nan_singletons,
                            n_rows=table.n_rows)


def risk_reduction(before: RiskProfile, after: RiskProfile) -> dict[str, float]:
    """How much an anonymisation step reduced each risk figure."""
    return {
        "prosecutor_risk": before.prosecutor_risk - after.prosecutor_risk,
        "journalist_risk": before.journalist_risk - after.journalist_risk,
        "unique_row_fraction": (
            before.unique_row_fraction - after.unique_row_fraction
        ),
    }
