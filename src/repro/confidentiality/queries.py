"""Budgeted DP queries over arrays and tables (Q3).

Every release runs validate → stats → spend → release: a
:class:`DPQuery` validates what is released, :func:`group_stats`
computes the noise-free statistics, the
:class:`~repro.confidentiality.accountant.PrivacyAccountant` is charged,
and :func:`member_release` draws the noise — so a refused query costs
nothing, and "answer questions without revealing secrets" shows in the
ledger.  The query server runs the same two kernels once per coalesced
group.  Numeric queries require finite declared bounds: sensitivity
comes from declared bounds, never from the data itself (peeking at the
data to set bounds would leak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.mechanisms import (
    exponential_mechanism,
    laplace_mechanism,
)
from repro.exceptions import DataError

#: Query kinds a release can take.
KINDS = ("count", "sum", "mean", "quantile", "histogram")

#: Kinds that aggregate a numeric column under declared bounds.
BOUNDED_KINDS = ("sum", "mean", "quantile")

#: Size of the quantile candidate grid over [lower, upper].
N_QUANTILE_CANDIDATES = 100


@dataclass(frozen=True, kw_only=True)
class DPQuery:
    """What one release is and costs, validated on construction.

    ``kind`` is one of :data:`KINDS`, ε > 0, bounded kinds declare finite
    ``lower < upper``, a quantile's ``q`` lies in [0, 1], and a
    histogram has bins.
    """

    kind: str
    epsilon: float
    lower: float | None = None
    upper: float | None = None
    q: float | None = None
    bins: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown query kind {self.kind!r}; one of {KINDS}")
        if not self.epsilon > 0:
            raise DataError(f"epsilon must be positive, got {self.epsilon}")
        if self.kind in BOUNDED_KINDS and not (
            math.isfinite(self.lower) and math.isfinite(self.upper)
            and self.lower < self.upper
        ):
            raise DataError(
                f"need finite lower < upper, got [{self.lower}, {self.upper}]"
            )
        if self.kind == "quantile" and not 0.0 <= self.q <= 1.0:
            raise DataError(f"q must be in [0, 1], got {self.q}")
        if self.kind == "histogram" and not self.bins:
            raise DataError("bins must be non-empty")


def group_stats(query: DPQuery, values) -> dict:
    """The noise-free statistics behind every release of ``query``.

    ``values`` is the row count for ``count`` and the column's values
    for every other kind.  The O(n_rows) work happens here, once, however
    many answers are then drawn from the result.
    """
    kind = query.kind
    if kind == "count":
        return {"n": values}
    if kind == "histogram":
        # Parallel composition: one record lands in one bin, so the
        # whole histogram costs a single ε.
        values = np.asarray(values)
        return {"counts": {b: float(np.sum(values == b)) for b in query.bins}}
    values = np.asarray(values, dtype=np.float64)
    if kind == "mean" and len(values) == 0:
        raise DataError("cannot take the mean of no values")
    clipped = np.clip(values, query.lower, query.upper)
    sensitivity = max(abs(query.lower), abs(query.upper))
    if kind == "sum":
        return {"total": float(clipped.sum()), "sensitivity": sensitivity}
    if kind == "mean":
        return {"total": float(clipped.sum()), "sensitivity": sensitivity,
                "n": len(values)}
    # Quantile: the utility of candidate c is minus the distance between
    # rank(c) and the target rank (sensitivity 1).  NaN sorts last, so
    # it is never counted at or below a candidate.
    candidates = np.linspace(query.lower, query.upper, N_QUANTILE_CANDIDATES)
    ranks = np.searchsorted(np.sort(clipped), candidates, side="right")
    return {"candidates": candidates.tolist(),
            "utilities": -np.abs(ranks - query.q * len(clipped))}


def member_release(stats: dict, query: DPQuery,
                   rng: np.random.Generator) -> float | dict:
    """One noisy answer to ``query`` from its :func:`group_stats`."""
    kind, epsilon = query.kind, query.epsilon
    if kind == "count":
        return max(0.0, laplace_mechanism(float(stats["n"]), 1.0,
                                          epsilon, rng))
    if kind == "sum":
        return laplace_mechanism(stats["total"], stats["sensitivity"],
                                 epsilon, rng)
    if kind == "mean":
        # Half the budget on the sum, half on the count; the quotient is
        # clamped back into the declared bounds (free post-processing).
        half = epsilon / 2.0
        noisy_sum = laplace_mechanism(stats["total"], stats["sensitivity"],
                                      half, rng)
        noisy_count = max(0.0, laplace_mechanism(float(stats["n"]), 1.0,
                                                 half, rng))
        if noisy_count < 1.0:
            noisy_count = 1.0
        return float(np.clip(noisy_sum / noisy_count,
                             query.lower, query.upper))
    if kind == "quantile":
        return float(exponential_mechanism(
            stats["candidates"], stats["utilities"],
            sensitivity=1.0, epsilon=epsilon, rng=rng,
        ))
    return {
        bin_value: max(0.0, laplace_mechanism(count, 1.0, epsilon, rng))
        for bin_value, count in stats["counts"].items()
    }


def _release(query: DPQuery, values, accountant: PrivacyAccountant,
             rng: np.random.Generator, label: str):
    stats = group_stats(query, values)
    accountant.spend(query.epsilon, label=label)
    return member_release(stats, query, rng)


def dp_count(n: int, epsilon: float, accountant: PrivacyAccountant,
             rng: np.random.Generator, label: str = "count") -> float:
    """ε-DP row count (sensitivity 1), non-negative by post-processing."""
    return _release(DPQuery(kind="count", epsilon=epsilon), n,
                    accountant, rng, label)


def dp_sum(values, lower: float, upper: float, epsilon: float,
           accountant: PrivacyAccountant, rng: np.random.Generator,
           label: str = "sum") -> float:
    """ε-DP sum of values clipped to [lower, upper]."""
    query = DPQuery(kind="sum", epsilon=epsilon, lower=lower, upper=upper)
    return _release(query, values, accountant, rng, label)


def dp_mean(values, lower: float, upper: float, epsilon: float,
            accountant: PrivacyAccountant, rng: np.random.Generator,
            label: str = "mean") -> float:
    """ε-DP mean: half the budget on the sum, half on the count.

    One ledger entry of ε under ``label``.  The quotient is clamped back
    into the declared bounds (free post-processing).
    """
    query = DPQuery(kind="mean", epsilon=epsilon, lower=lower, upper=upper)
    return _release(query, values, accountant, rng, label)


def dp_histogram(values, bins: list, epsilon: float,
                 accountant: PrivacyAccountant, rng: np.random.Generator,
                 label: str = "histogram") -> dict[object, float]:
    """ε-DP histogram over disjoint categories.

    One record lands in exactly one bin, so the whole histogram costs a
    single ε (parallel composition) — charged once, noise added once per
    distinct bin.
    """
    query = DPQuery(kind="histogram", epsilon=epsilon, bins=tuple(bins))
    return _release(query, values, accountant, rng, label)


def dp_quantile(values, q: float, lower: float, upper: float,
                epsilon: float, accountant: PrivacyAccountant,
                rng: np.random.Generator, label: str = "quantile") -> float:
    """ε-DP quantile via the exponential mechanism.

    Candidates form a grid of :data:`N_QUANTILE_CANDIDATES` points over
    [lower, upper]; the utility of candidate c is minus the distance
    between rank(c) and the target rank, whose sensitivity is 1.
    """
    query = DPQuery(kind="quantile", epsilon=epsilon, lower=lower,
                    upper=upper, q=q)
    return _release(query, values, accountant, rng, label)
