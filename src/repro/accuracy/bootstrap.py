"""Bootstrap confidence intervals (Q2).

Every headline number a pipeline reports should travel with an interval;
these helpers make that cheap for arbitrary statistics and for model
metrics evaluated on a test set.

Both entry points draw **all** resample indices in one batched
``rng.integers`` call — bit-identical to the historical one-draw-per-
resample loop, since NumPy fills bounded integers from the same stream
either way — and then evaluate the statistic over the rows.  That
evaluation is embarrassingly parallel: pass ``n_jobs`` to fan it out
via :mod:`repro.parallel` with results guaranteed identical for any
``n_jobs`` (randomness is fixed before the first worker starts, and
estimates are assembled by resample index).

A paired metric may carry a ``resampler`` attribute, as
:func:`~repro.learn.metrics.roc_auc` does:
``metric.resampler(y_true, y_pred)`` returns a worker mapping
an index array to the metric's value on those rows (NaN when the
resample is degenerate), bit-identical to
``metric(y_true[idx], y_pred[idx])``, or ``None`` for a sample it cannot
handle.  :func:`bootstrap_paired_ci` uses that worker when there is one
and re-runs the metric on every resample otherwise.  ``functools.wraps``
copies the attribute, so wrapped metrics keep the faster path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import DataError
from repro.parallel import pmap

#: Degenerate-resample failures a paired bootstrap may legitimately skip:
#: library metrics signal bad slices with DataError (a resample with a
#: single class breaks AUC), an empty group divides by zero, and other
#: metrics may reject a slice with ValueError.  Anything else is a real
#: bug in the metric and propagates.
_DEGENERATE_ERRORS = (ValueError, ZeroDivisionError, DataError)


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    n_resamples: int
    n_skipped: int = 0

    @property
    def width(self) -> float:
        """Interval width — the honest measure of how little we know."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Does the interval cover ``value``?"""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (f"{self.estimate:.4f} "
                f"[{self.lower:.4f}, {self.upper:.4f}] @ {self.confidence:.0%}")


class _ResampleStatistic:
    """Per-resample worker: ``statistic(values[idx])``."""

    __slots__ = ("values", "statistic")

    def __init__(self, values: np.ndarray, statistic: Callable):
        self.values = values
        self.statistic = statistic

    def __call__(self, idx: np.ndarray) -> float:
        return self.statistic(self.values[idx])


class _ResampleMetric:
    """Paired per-resample worker; degenerate resamples become NaN."""

    __slots__ = ("y_true", "y_pred", "metric")

    def __init__(self, y_true: np.ndarray, y_pred: np.ndarray,
                 metric: Callable):
        self.y_true = y_true
        self.y_pred = y_pred
        self.metric = metric

    def __call__(self, idx: np.ndarray) -> float:
        try:
            return self.metric(self.y_true[idx], self.y_pred[idx])
        except _DEGENERATE_ERRORS:
            return float("nan")


def bootstrap_ci(values, statistic: Callable[[np.ndarray], float],
                 rng: np.random.Generator,
                 confidence: float = 0.95,
                 n_resamples: int = 1000,
                 n_jobs: int | None = None) -> IntervalEstimate:
    """Percentile bootstrap interval for ``statistic`` of one sample.

    ``n_jobs`` parallelises the statistic evaluations (``None`` defers
    to ``$REPRO_N_JOBS``); estimates are identical for every setting.
    Nothing is memoised here: a caller that wants the interval cached
    runs it inside a plan node (see :mod:`repro.engine`), whose key
    names its inputs and parameters.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise DataError("values must be a 1-D array with at least 2 entries")
    if not 0.0 < confidence < 1.0:
        raise DataError("confidence must be in (0, 1)")
    if n_resamples < 10:
        raise DataError("need at least 10 resamples")
    n = len(values)
    indices = rng.integers(0, n, size=(n_resamples, n))
    worker = _ResampleStatistic(values, statistic)
    estimates = np.array(pmap(
        worker, list(indices), n_jobs=n_jobs, name="bootstrap",
    ))
    alpha = 1.0 - confidence
    lower, upper = np.quantile(estimates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IntervalEstimate(
        estimate=float(statistic(values)), lower=float(lower),
        upper=float(upper), confidence=confidence,
        n_resamples=n_resamples,
    )


def bootstrap_paired_ci(y_true, y_pred,
                        metric: Callable[[np.ndarray, np.ndarray], float],
                        rng: np.random.Generator,
                        confidence: float = 0.95,
                        n_resamples: int = 1000,
                        n_jobs: int | None = None) -> IntervalEstimate:
    """Percentile bootstrap for a metric of aligned (y_true, y_pred) pairs.

    Rows are resampled jointly, preserving the pairing — this is how the
    FACT report attaches intervals to accuracy, AUC, or any group metric.

    The metric scores the whole sample first, so a sample it rejects
    raises the metric's own error before any resample is drawn.
    Resamples that are degenerate for the metric (single-class AUC and
    friends — :data:`_DEGENERATE_ERRORS`) are skipped and *counted* in
    the result's ``n_skipped``; any other exception from the metric is a
    bug and propagates.  ``n_jobs`` parallelises the metric evaluations
    with identical results for every setting.  Nothing is memoised
    here; the FACT audit caches its whole accuracy section as one plan
    node.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise DataError("y_true and y_pred must be aligned 1-D arrays")
    if len(y_true) < 2:
        raise DataError("need at least 2 pairs")
    if not 0.0 < confidence < 1.0:
        raise DataError("confidence must be in (0, 1)")
    if n_resamples < 10:
        raise DataError("need at least 10 resamples")
    # Scored first, so a sample the metric rejects fails with the
    # metric's own error before the generator is touched.
    estimate = float(metric(y_true, y_pred))
    n = len(y_true)
    indices = rng.integers(0, n, size=(n_resamples, n))
    resampler = getattr(metric, "resampler", None)
    worker = resampler(y_true, y_pred) if resampler else None
    if worker is None:
        worker = _ResampleMetric(y_true, y_pred, metric)
    estimates = np.array(pmap(
        worker, list(indices), n_jobs=n_jobs, name="bootstrap",
    ))
    valid = estimates[~np.isnan(estimates)]
    n_skipped = n_resamples - len(valid)
    if len(valid) < max(10, n_resamples // 2):
        raise DataError("too many degenerate resamples for a stable interval")
    alpha = 1.0 - confidence
    lower, upper = np.quantile(valid, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IntervalEstimate(
        estimate=estimate, lower=float(lower),
        upper=float(upper), confidence=confidence,
        n_resamples=len(valid), n_skipped=n_skipped,
    )
