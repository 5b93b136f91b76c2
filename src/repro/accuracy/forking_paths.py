"""The forking-paths / spurious-correlation hunter (Q2, experiment E3).

§2's example verbatim: "If we have one response variable (e.g., 'will
someone conduct a terrorist attack') and many predictor variables ('eye
color', 'high school math grade', 'first car brand', etc.), then it is
likely that just by accident a combination of predictor variables
explains the response variable for a given data set."

:func:`hunt_spurious_predictors` runs exactly this trap on data where
*every* predictor is pure noise by construction, then shows what each
multiple-testing correction does to the "discoveries".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accuracy.hypothesis import correlation_test
from repro.accuracy.multiple_testing import PROCEDURES, correct
from repro.exceptions import DataError
from repro.parallel import pmap

# A nod to the paper's list; names cycle when p exceeds the list.
PREDICTOR_THEMES = (
    "eye_color", "math_grade", "first_car_brand", "shoe_size",
    "favorite_cereal", "street_number", "cat_ownership", "coffee_cups",
)


@dataclass(frozen=True)
class SpuriousScanResult:
    """What a fishing expedition 'found' under each correction."""

    n_predictors: int
    n_rows: int
    alpha: float
    p_values: np.ndarray
    discoveries: dict[str, int]
    top_predictors: list[tuple[str, float]] = field(default_factory=list)

    @property
    def raw_false_discoveries(self) -> int:
        """Significant predictors with no correction (all false here)."""
        return self.discoveries["none"]


def generate_noise_study(n_rows: int, n_predictors: int,
                         rng: np.random.Generator,
                         binary_response: bool = True,
                         ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """A response and predictors that are independent by construction."""
    if n_rows < 3 or n_predictors < 1:
        raise DataError("need n_rows >= 3 and n_predictors >= 1")
    if binary_response:
        response = (rng.random(n_rows) < 0.1).astype(np.float64)
    else:
        response = rng.standard_normal(n_rows)
    predictors = rng.standard_normal((n_rows, n_predictors))
    names = [
        f"{PREDICTOR_THEMES[index % len(PREDICTOR_THEMES)]}_{index}"
        for index in range(n_predictors)
    ]
    return response, predictors, names


class _PredictorTestTask:
    """Worker: raw p-value of one predictor column."""

    __slots__ = ("predictors", "response")

    def __init__(self, predictors: np.ndarray, response: np.ndarray):
        self.predictors = predictors
        self.response = response

    def __call__(self, index: int) -> float:
        return correlation_test(
            self.predictors[:, index], self.response
        ).p_value


def hunt_spurious_predictors(response, predictors,
                             names: list[str] | None = None,
                             alpha: float = 0.05,
                             n_jobs: int | None = None) -> SpuriousScanResult:
    """Test every predictor against the response; correct the family.

    Returns per-procedure discovery counts plus the most "significant"
    predictors by raw p-value (the ones a careless analyst would report).
    The per-predictor tests are independent, so ``n_jobs`` (``None``
    defers to ``$REPRO_N_JOBS``) fans them out with p-values assembled
    by column index — identical for every setting.
    """
    response = np.asarray(response, dtype=np.float64)
    predictors = np.asarray(predictors, dtype=np.float64)
    if predictors.ndim != 2 or len(predictors) != len(response):
        raise DataError("predictors must be (n_rows, n_predictors) aligned with response")
    n_predictors = predictors.shape[1]
    if names is None:
        names = [f"x{index}" for index in range(n_predictors)]
    if len(names) != n_predictors:
        raise DataError("names must match the number of predictors")

    worker = _PredictorTestTask(predictors, response)
    p_values = np.array(pmap(
        worker, range(n_predictors), n_jobs=n_jobs, name="spurious_scan",
    ))
    discoveries = {
        procedure: correct(p_values, procedure, alpha).n_rejected
        for procedure in PROCEDURES
    }
    order = np.argsort(p_values, kind="stable")[:5]
    top = [(names[index], float(p_values[index])) for index in order]
    return SpuriousScanResult(
        n_predictors=n_predictors, n_rows=len(response), alpha=alpha,
        p_values=p_values, discoveries=discoveries, top_predictors=top,
    )


def expected_false_positives(n_predictors: int, alpha: float = 0.05) -> float:
    """How many 'discoveries' pure chance produces: n·alpha."""
    return n_predictors * alpha
