"""Shared machinery for synthetic dataset generators.

Real census/credit/recidivism data cannot ship with this repository, and —
more importantly for a *reproduction* — real data has unknown ground truth.
Every generator here exposes the latent quantities (true qualification,
true treatment effect, injected bias strength) so the experiments can
measure how far each pipeline strays from a *known* truth, which is exactly
what the paper's FACT questions ask for.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.table import Table
from repro.exceptions import DataError


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function.

    ``exp`` only ever sees ``-|z|`` (NaN stays NaN), so it cannot
    overflow; each branch of the final ``where`` is the textbook form
    for its sign.
    """
    z = np.asarray(z, dtype=np.float64)
    positive = z >= 0
    expz = np.exp(np.where(positive, -z, z))
    out = np.where(positive, 1.0 / (1.0 + expz), expz / (1.0 + expz))
    if out.ndim == 0:
        return float(out)
    return out


def bernoulli(probabilities: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw 0/1 outcomes with per-row probabilities."""
    probabilities = np.clip(np.asarray(probabilities, dtype=np.float64), 0.0, 1.0)
    return (rng.random(probabilities.shape) < probabilities).astype(np.float64)


def choose(categories: list[str], probabilities: np.ndarray,
           rng: np.random.Generator) -> np.ndarray:
    """Draw categorical values with per-row probability matrices.

    ``probabilities`` has shape ``(n_rows, n_categories)``; each row must
    sum to one.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 2 or probabilities.shape[1] != len(categories):
        raise DataError(
            f"probability matrix shape {probabilities.shape} does not match "
            f"{len(categories)} categories"
        )
    cumulative = np.cumsum(probabilities, axis=1)
    draws = rng.random((len(probabilities), 1))
    indices = (draws >= cumulative).sum(axis=1)
    indices = np.clip(indices, 0, len(categories) - 1)
    return np.asarray([categories[index] for index in indices], dtype=object)


class SyntheticGenerator(abc.ABC):
    """Base class: a parameterised distribution over FACT-annotated tables."""

    name: str = "synthetic"

    @abc.abstractmethod
    def generate(self, n_rows: int, rng: np.random.Generator) -> Table:
        """Draw ``n_rows`` examples."""

    def generate_pair(self, n_train: int, n_test: int,
                      rng: np.random.Generator) -> tuple[Table, Table]:
        """Independent train and test draws from the same distribution."""
        return self.generate(n_train, rng), self.generate(n_test, rng)

    def params(self) -> dict[str, object]:
        """The generator's public parameters (for datasheets/provenance)."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_")
        }

    def __repr__(self) -> str:
        rendered = ", ".join(f"{key}={value!r}" for key, value in self.params().items())
        return f"{type(self).__name__}({rendered})"
