"""Global surrogate models: distilling the black box into rules (Q4).

§2-Q4's complaint is that deep models "cannot rationalize" decisions.  A
global surrogate is the standard compromise: train an interpretable tree
to *imitate the black box* (not the labels), report both the rules and
the **fidelity** — how faithfully the rules reproduce the box.  Low
fidelity means the rationalisation is a fiction; the number keeps us
honest about that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.learn.base import Classifier
from repro.learn.metrics import accuracy
from repro.learn.tree import DecisionTreeClassifier


@dataclass(frozen=True)
class SurrogateResult:
    """A fitted surrogate tree and its faithfulness to the black box."""

    tree: DecisionTreeClassifier
    fidelity: float
    fidelity_proba_mae: float
    n_leaves: int
    depth: int

    def rules(self, feature_names: list[str] | None = None) -> list[str]:
        """The surrogate's decision rules."""
        return self.tree.to_rules(feature_names)

    def render(self, feature_names: list[str] | None = None,
               max_rules: int = 12) -> str:
        """Human-readable rule list headed by the fidelity disclaimer."""
        lines = [
            f"surrogate tree: {self.n_leaves} leaves, depth {self.depth}, "
            f"fidelity {self.fidelity:.3f} "
            f"(probability MAE {self.fidelity_proba_mae:.3f})"
        ]
        lines += [f"  {rule}" for rule in self.rules(feature_names)[:max_rules]]
        return "\n".join(lines)


def fit_surrogate(black_box: Classifier, X,
                  max_depth: int = 4,
                  min_samples_leaf: int = 10,
                  X_eval=None) -> SurrogateResult:
    """Distil ``black_box`` into a shallow tree and score the fidelity.

    The tree is trained on the box's *hard decisions* over ``X``;
    fidelity is measured on ``X_eval`` (default: ``X``) as agreement with
    the box, plus the mean absolute probability gap.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise DataError("X must be a non-empty 2-D matrix")
    box_probabilities = black_box.predict_proba(X)
    box_decisions = (box_probabilities >= 0.5).astype(np.float64)
    if len(np.unique(box_decisions)) < 2:
        raise DataError(
            "black box is constant on X; a surrogate would be vacuous"
        )
    tree = DecisionTreeClassifier(
        max_depth=max_depth, min_samples_leaf=min_samples_leaf
    )
    tree.fit(X, box_decisions)

    if X_eval is None:
        # The box is deterministic: its pass over X serves the fidelity.
        eval_X, eval_box_probabilities = X, box_probabilities
    else:
        eval_X = np.asarray(X_eval, dtype=np.float64)
        eval_box_probabilities = black_box.predict_proba(eval_X)
    eval_box_decisions = (eval_box_probabilities >= 0.5).astype(np.float64)
    tree_probabilities = tree.predict_proba(eval_X)
    tree_decisions = (tree_probabilities >= 0.5).astype(np.float64)
    return SurrogateResult(
        tree=tree,
        fidelity=accuracy(eval_box_decisions, tree_decisions),
        fidelity_proba_mae=float(
            np.mean(np.abs(tree_probabilities - eval_box_probabilities))
        ),
        n_leaves=tree.n_leaves,
        depth=tree.depth(),
    )


def fidelity_by_depth(black_box: Classifier, X,
                      depths: list[int],
                      X_eval=None) -> dict[int, float]:
    """The comprehensibility-fidelity frontier: fidelity per tree depth.

    Small depths are readable but unfaithful; the curve quantifies the
    price of a human-sized explanation (experiment E9's x-axis).
    """
    return {
        depth: fit_surrogate(black_box, X, max_depth=depth, X_eval=X_eval).fidelity
        for depth in depths
    }
