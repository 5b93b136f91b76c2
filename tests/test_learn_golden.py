"""Golden-value pins for the optimised learn kernels.

The hot-kernel rewrites (presorted tree splits, blocked k-NN selection,
fused MLP Adam — see docs/api.md, "Hot kernels") all promise
*byte-identical* results to the straightforward implementations they
replaced.  These tests freeze that promise: each digest below was
captured from the pre-optimisation code on a fixed-seed dataset, and
every fitted state and prediction must still hash to exactly the same
bytes.  Any change — a reordered float accumulation, a different
tie-break, a dtype drift — flips a digest and fails loudly.
"""

import hashlib

import numpy as np
import pytest

from repro.data.synth.census import CensusIncomeGenerator
from repro.learn.boosting import GradientBoostingClassifier
from repro.learn.forest import RandomForestClassifier
from repro.learn.linear import LogisticRegression
from repro.learn.mlp import MLPClassifier
from repro.learn.neighbors import KNeighborsClassifier, nearest_indices
from repro.learn.preprocessing import FeatureEncoder
from repro.learn.tree import DecisionTreeClassifier
from repro.transparency.surrogate import fit_surrogate

GOLDEN = {
    "tree_state": "6c7d61018ce3f859",
    "tree_proba": "49dc74d274805a47",
    "subsampled_tree_state": "06c562c20f568c9f",
    "forest_state": "c17b33df22dba9d9",
    "forest_proba": "c6981011f45dafa3",
    "forest_importances": "966018a68b48b1cc",
    "boost_state": "3e4bac8a342b2cf5",
    "boost_proba": "98f7be84e91eec09",
    "knn_proba": "3f3dc804f5b1c7b5",
    "knn_indices": "b0ebfc15deef8650",
    "mlp_state": "c52557dfd7dca72c",
    "mlp_proba": "2088ab6ee9ae5ef6",
}

#: Tie-heavy pins on the census encoder's matrix, where most boundaries
#: of the one-hot and zero-inflated columns are ties.
TIED_GOLDEN = {
    "surrogate_state": "aea367f79a82ea07",
    "surrogate_fidelity": "a7da6bb80b0f89f7",
    "zero_weighted_tree_state": "cd7dda452676f453",
    "subsampled_tied_tree_state": "c645665fe4782b0e",
    "impurity_floor_tree_state": "a788bd488f1eb70d",
    "tied_forest_state": "9ee508de445e0b07",
    "tied_forest_proba": "7317f8ff366bf3b5",
    "tied_boost_state": "edfe91fdd64d9ba9",
    "tied_boost_proba": "f4e91952b2f515e4",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def tree_state(tree):
    nodes = tree._nodes
    return (
        np.array([n.feature for n in nodes], dtype=np.int64),
        np.array([n.threshold for n in nodes], dtype=np.float64),
        np.array([n.left for n in nodes], dtype=np.int64),
        np.array([n.right for n in nodes], dtype=np.int64),
        np.array([n.probability for n in nodes], dtype=np.float64),
        np.array([n.weight for n in nodes], dtype=np.float64),
    )


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(20170626)
    X = rng.standard_normal((300, 6))
    logits = X[:, 0] - 0.8 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3]
    y = (logits + 0.3 * rng.standard_normal(300) > 0).astype(float)
    w = rng.uniform(0.5, 2.0, 300)
    X_test = rng.standard_normal((80, 6))
    return X, y, w, X_test


def test_decision_tree_state_and_predictions(data):
    X, y, w, X_test = data
    tree = DecisionTreeClassifier(max_depth=6, min_samples_leaf=4).fit(
        X, y, sample_weight=w
    )
    assert digest(*tree_state(tree)) == GOLDEN["tree_state"]
    assert digest(tree.predict_proba(X_test)) == GOLDEN["tree_proba"]


def test_feature_subsampled_tree_state(data):
    X, y, _, _ = data
    tree = DecisionTreeClassifier(
        max_depth=5, max_features=2, rng=np.random.default_rng(7)
    ).fit(X, y)
    assert digest(*tree_state(tree)) == GOLDEN["subsampled_tree_state"]


def test_random_forest_state_and_predictions(data):
    X, y, _, X_test = data
    forest = RandomForestClassifier(n_trees=10, max_depth=5, seed=3).fit(X, y)
    state = [a for t in forest._trees for a in tree_state(t)]
    assert digest(*state) == GOLDEN["forest_state"]
    assert digest(forest.predict_proba(X_test)) == GOLDEN["forest_proba"]
    assert digest(forest.feature_importances()) == GOLDEN["forest_importances"]


def test_gradient_boosting_state_and_predictions(data):
    X, y, w, X_test = data
    boost = GradientBoostingClassifier(
        n_stages=15, max_depth=3, subsample=0.8, seed=5
    ).fit(X, y, sample_weight=w)
    state = [a for t in boost._trees for a in tree_state(t)]
    assert digest(np.array([boost._base_score]), *state) == GOLDEN["boost_state"]
    assert digest(boost.predict_proba(X_test)) == GOLDEN["boost_proba"]


def test_knn_predictions_and_neighbour_indices(data):
    X, y, w, X_test = data
    knn = KNeighborsClassifier(k=7, distance_weighted=True).fit(
        X, y, sample_weight=w
    )
    assert digest(knn.predict_proba(X_test)) == GOLDEN["knn_proba"]
    assert digest(nearest_indices(X_test, X, 7)) == GOLDEN["knn_indices"]


def test_mlp_fitted_state_and_predictions(data):
    X, y, w, X_test = data
    mlp = MLPClassifier(hidden=(16, 8), epochs=8, batch_size=32, seed=11).fit(
        X, y, sample_weight=w
    )
    assert digest(*mlp._weights, *mlp._biases) == GOLDEN["mlp_state"]
    assert digest(mlp.predict_proba(X_test)) == GOLDEN["mlp_proba"]


@pytest.fixture(scope="module")
def census():
    """The census encoder's matrix plus one few-level column.

    The encoder gives two continuous columns, the zero-inflated
    ``capital_gain`` and five one-hot ``education=`` columns; the extra
    column rounds ``hours_per_week``'s standard scores, so it has a few
    levels and both signs of zero.
    """
    rng = np.random.default_rng(20190630)
    table = CensusIncomeGenerator(sex_gap=0.5).generate(3000, rng)
    encoder = FeatureEncoder()
    X = encoder.fit_transform(table)
    y = table.column("high_income").astype(np.float64)
    X_tied = np.column_stack([X, np.round(X[:, 1])])
    box = LogisticRegression().fit(X, y)
    w = rng.uniform(0.2, 3.0, len(y))
    w[rng.random(len(y)) < 0.2] = 0.0
    return X, X_tied, y, w, box


def test_census_surrogate_state_and_fidelity(census):
    X, _, _, _, box = census
    result = fit_surrogate(box, X, max_depth=4, min_samples_leaf=10)
    assert digest(*tree_state(result.tree)) == TIED_GOLDEN["surrogate_state"]
    fidelity = np.array([result.fidelity, result.fidelity_proba_mae])
    assert digest(fidelity) == TIED_GOLDEN["surrogate_fidelity"]


def test_zero_weighted_tied_tree_state(census):
    _, X, y, w, _ = census
    tree = DecisionTreeClassifier(max_depth=7, min_samples_leaf=3).fit(
        X, y, sample_weight=w
    )
    assert digest(*tree_state(tree)) == TIED_GOLDEN["zero_weighted_tree_state"]


def test_subsampled_tied_tree_state(census):
    _, X, y, w, _ = census
    tree = DecisionTreeClassifier(
        max_depth=6, min_samples_leaf=2, max_features=3,
        rng=np.random.default_rng(5),
    ).fit(X, y, sample_weight=w)
    assert digest(*tree_state(tree)) == TIED_GOLDEN["subsampled_tied_tree_state"]


def test_impurity_floor_tied_tree_state(census):
    _, X, y, _, _ = census
    tree = DecisionTreeClassifier(
        max_depth=8, min_samples_leaf=1, min_impurity_decrease=0.002
    ).fit(X, y)
    assert digest(*tree_state(tree)) == TIED_GOLDEN["impurity_floor_tree_state"]


def test_tied_forest_state_and_predictions(census):
    _, X, y, _, _ = census
    forest = RandomForestClassifier(n_trees=6, max_depth=6, seed=2).fit(X, y)
    state = [a for t in forest._trees for a in tree_state(t)]
    assert digest(*state) == TIED_GOLDEN["tied_forest_state"]
    assert digest(forest.predict_proba(X)) == TIED_GOLDEN["tied_forest_proba"]


def test_tied_boosting_state_and_predictions(census):
    _, X, y, w, _ = census
    boost = GradientBoostingClassifier(
        n_stages=8, max_depth=3, subsample=0.8, seed=4
    ).fit(X, y, sample_weight=w)
    state = [a for t in boost._trees for a in tree_state(t)]
    assert (digest(np.array([boost._base_score]), *state)
            == TIED_GOLDEN["tied_boost_state"])
    assert digest(boost.predict_proba(X)) == TIED_GOLDEN["tied_boost_proba"]
