"""Power analysis for fairness audits (Q1 × Q2).

An audit that reports "no significant disparity" on 80 people has not
shown fairness — it has shown an underpowered audit.  These helpers make
the audit's own accuracy explicit (the Q2 discipline applied to the Q1
instrument): the sample size needed to *detect* a selection-rate gap,
and the minimum gap detectable at a given sample size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.exceptions import DataError


@dataclass(frozen=True)
class AuditPower:
    """Design parameters of a two-proportion fairness audit."""

    baseline_rate: float
    detectable_gap: float
    alpha: float
    power: float
    n_per_group: int

    def render(self) -> str:
        """One-line design summary."""
        return (
            f"to detect a selection gap of {self.detectable_gap:.3f} off a "
            f"base rate of {self.baseline_rate:.2f} at alpha={self.alpha:g} "
            f"with power {self.power:.0%}: n >= {self.n_per_group} per group"
        )


def _check_design(baseline_rate: float, detectable_gap: float,
                  alpha: float, power: float) -> None:
    if not 0.0 < baseline_rate < 1.0:
        raise DataError("baseline_rate must be in (0, 1)")
    if detectable_gap <= 0 or baseline_rate - detectable_gap <= 0:
        raise DataError("detectable_gap must be positive and feasible")
    if not 0.0 < alpha < 1.0 or not 0.0 < power < 1.0:
        raise DataError("alpha and power must be in (0, 1)")


def _z_scores(alpha: float, power: float) -> tuple[float, float]:
    """(z_alpha, z_beta): the two-sided test's and the power's quantiles."""
    return stats.norm.ppf(1.0 - alpha / 2.0), stats.norm.ppf(power)


def _audit_size(baseline_rate: float, detectable_gap: float,
                z_alpha: float, z_beta: float) -> int:
    """Per-group n of the two-proportion z-test (the one formula)."""
    p1 = baseline_rate
    p2 = baseline_rate - detectable_gap
    pooled = 0.5 * (p1 + p2)
    numerator = (
        z_alpha * np.sqrt(2.0 * pooled * (1.0 - pooled))
        + z_beta * np.sqrt(p1 * (1.0 - p1) + p2 * (1.0 - p2))
    ) ** 2
    return int(np.ceil(numerator / detectable_gap**2))


def required_audit_size(baseline_rate: float, detectable_gap: float,
                        alpha: float = 0.05, power: float = 0.8) -> AuditPower:
    """Per-group sample size for a two-sided two-proportion z-test.

    Standard normal-approximation formula with pooled variance under H0
    and unpooled under H1.
    """
    _check_design(baseline_rate, detectable_gap, alpha, power)
    n = _audit_size(baseline_rate, detectable_gap, *_z_scores(alpha, power))
    return AuditPower(
        baseline_rate=baseline_rate, detectable_gap=detectable_gap,
        alpha=alpha, power=power, n_per_group=n,
    )


def minimum_detectable_gap(n_per_group: int, baseline_rate: float,
                           alpha: float = 0.05, power: float = 0.8) -> float:
    """Smallest selection-rate gap an audit of this size can detect.

    Solved by bisection on the :func:`required_audit_size` formula, with
    the two z scores computed once.
    """
    if n_per_group < 2:
        raise DataError("n_per_group must be >= 2")
    low, high = 1e-4, baseline_rate - 1e-4
    _check_design(baseline_rate, high, alpha, power)
    z_alpha, z_beta = _z_scores(alpha, power)
    if _audit_size(baseline_rate, high, z_alpha, z_beta) > n_per_group:
        return float("nan")  # even the largest feasible gap is undetectable
    for _ in range(60):
        mid = 0.5 * (low + high)
        if _audit_size(baseline_rate, mid, z_alpha, z_beta) <= n_per_group:
            high = mid
        else:
            low = mid
    return high


def achieved_power(n_per_group: int, baseline_rate: float, gap: float,
                   alpha: float = 0.05) -> float:
    """Power of a two-proportion audit at the given design point."""
    if n_per_group < 2:
        raise DataError("n_per_group must be >= 2")
    p1 = baseline_rate
    p2 = baseline_rate - gap
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise DataError("rates must stay inside (0, 1)")
    pooled = 0.5 * (p1 + p2)
    z_alpha = stats.norm.ppf(1.0 - alpha / 2.0)
    se0 = np.sqrt(2.0 * pooled * (1.0 - pooled) / n_per_group)
    se1 = np.sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2)) / n_per_group)
    z = (abs(gap) - z_alpha * se0) / se1
    return float(stats.norm.cdf(z))
