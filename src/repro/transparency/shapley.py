"""Shapley-value attributions (Q4).

The game-theoretic attribution: a feature's contribution to one
prediction, averaged over all orders in which features could be revealed.
Exact enumeration for small feature counts, Monte-Carlo permutation
sampling (Štrumbelj & Kononenko) otherwise.  Absent features are
marginalised against a background sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.learn.base import Classifier
from repro.parallel import pmap


@dataclass(frozen=True)
class ShapleyExplanation:
    """Per-feature Shapley values for one prediction."""

    feature_names: list[str]
    values: np.ndarray
    base_value: float
    prediction: float
    method: str

    def ranked(self) -> list[tuple[str, float]]:
        """(name, value) by absolute attribution."""
        order = np.argsort(-np.abs(self.values), kind="stable")
        return [
            (self.feature_names[index], float(self.values[index]))
            for index in order
        ]

    @property
    def additivity_gap(self) -> float:
        """|base + Σvalues − prediction|: ~0 for exact, small for sampled."""
        return abs(self.base_value + float(self.values.sum()) - self.prediction)

    def render(self, top: int = 5) -> str:
        """Human-readable attribution summary."""
        lines = [
            f"Shapley ({self.method}): base {self.base_value:.3f} "
            f"-> prediction {self.prediction:.3f}"
        ]
        for name, value in self.ranked()[:top]:
            lines.append(f"  {name}: {value:+.4f}")
        return "\n".join(lines)


class ShapleyExplainer:
    """Model-agnostic Shapley attribution of P(positive | x).

    Parameters
    ----------
    background:
        Sample used to marginalise "absent" features; 50-200 rows is
        typically enough and keeps evaluation affordable.
    exact_limit:
        Use exact enumeration up to this many features (2^d coalition
        evaluations), Monte-Carlo beyond it.
    """

    def __init__(self, model: Classifier, background,
                 feature_names: list[str] | None = None,
                 exact_limit: int = 10):
        self.model = model
        background = np.asarray(background, dtype=np.float64)
        if background.ndim != 2 or len(background) < 1:
            raise DataError("background must be a non-empty 2-D matrix")
        self._background = background
        self.feature_names = feature_names or [
            f"x{index}" for index in range(background.shape[1])
        ]
        if len(self.feature_names) != background.shape[1]:
            raise DataError("feature_names must match the background width")
        self.exact_limit = exact_limit

    def _coalition_value(self, x: np.ndarray, coalition: tuple[int, ...]) -> float:
        """E[f(x_S, X_!S)] over the background for feature set S."""
        synthetic = self._background.copy()
        for feature in coalition:
            synthetic[:, feature] = x[feature]
        return float(self.model.predict_proba(synthetic).mean())

    def explain(self, x, rng: np.random.Generator | None = None,
                n_permutations: int = 100,
                n_jobs: int | None = None) -> ShapleyExplanation:
        """Shapley values of one point (exact or sampled by width).

        ``n_jobs`` fans the sampled permutations out via
        :mod:`repro.parallel` (``None`` defers to ``$REPRO_N_JOBS``);
        permutation orders are pre-drawn from ``rng`` and contributions
        accumulated in permutation order, so the values are bit-identical
        for every ``n_jobs``.  The exact path stays serial —
        its memoised coalition cache is worth more than parallelism.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        d = self._background.shape[1]
        if len(x) != d:
            raise DataError(f"x has {len(x)} features, expected {d}")
        if d <= self.exact_limit:
            values = self._exact(x)
            method = "exact"
        else:
            if rng is None:
                raise DataError("sampled Shapley needs an rng")
            values = self._sampled(x, rng, n_permutations, n_jobs)
            method = f"sampled({n_permutations})"
        base = self._coalition_value(x, ())
        prediction = self._coalition_value(x, tuple(range(d)))
        return ShapleyExplanation(
            feature_names=list(self.feature_names),
            values=values, base_value=base,
            prediction=prediction, method=method,
        )

    def _exact(self, x: np.ndarray) -> np.ndarray:
        d = self._background.shape[1]
        cache: dict[tuple[int, ...], float] = {}

        def value(coalition: tuple[int, ...]) -> float:
            if coalition not in cache:
                cache[coalition] = self._coalition_value(x, coalition)
            return cache[coalition]

        shapley = np.zeros(d)
        others = list(range(d))
        for feature in range(d):
            rest = [other for other in others if other != feature]
            for size in range(len(rest) + 1):
                weight = (
                    math.factorial(size) * math.factorial(d - size - 1)
                    / math.factorial(d)
                )
                for subset in itertools.combinations(rest, size):
                    with_feature = tuple(sorted((*subset, feature)))
                    shapley[feature] += weight * (
                        value(with_feature) - value(tuple(subset))
                    )
        return shapley

    def _permutation_contribution(self, x: np.ndarray,
                                  order: np.ndarray) -> np.ndarray:
        """One permutation's marginal-contribution vector (deterministic)."""
        d = self._background.shape[1]
        contribution = np.zeros(d)
        coalition: list[int] = []
        previous = self._coalition_value(x, ())
        for feature in order:
            coalition.append(int(feature))
            current = self._coalition_value(x, tuple(sorted(coalition)))
            contribution[feature] = current - previous
            previous = current
        return contribution

    def _sampled(self, x: np.ndarray, rng: np.random.Generator,
                 n_permutations: int, n_jobs: int | None) -> np.ndarray:
        d = self._background.shape[1]
        # All randomness is drawn here, before any fan-out, in the same
        # order the serial loop always drew it.
        orders = [rng.permutation(d) for _ in range(n_permutations)]
        contributions = pmap(
            _ShapleyPermutationTask(self, x), orders,
            n_jobs=n_jobs, name="shapley",
        )
        # In-order accumulation: each feature receives one addend per
        # permutation, in permutation order — the same float operations
        # the serial loop performs, hence bit-identical results.
        shapley = np.zeros(d)
        for contribution in contributions:
            shapley += contribution
        return shapley / n_permutations


class _ShapleyPermutationTask:
    """Worker evaluating one permutation's contributions."""

    __slots__ = ("explainer", "x")

    def __init__(self, explainer: ShapleyExplainer, x: np.ndarray):
        self.explainer = explainer
        self.x = x

    def __call__(self, order: np.ndarray) -> np.ndarray:
        return self.explainer._permutation_contribution(self.x, order)
