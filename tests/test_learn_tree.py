"""Unit tests for the CART decision tree."""

import numpy as np
import pytest

from repro.exceptions import DataError, NotFittedError
from repro.learn.forest import RandomForestClassifier
from repro.learn.metrics import accuracy
from repro.learn.tree import DecisionTreeClassifier


def xor_data(rng, n=400):
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
    return X, y


def test_tree_solves_xor(rng):
    X, y = xor_data(rng)
    tree = DecisionTreeClassifier(max_depth=3, min_samples_leaf=5).fit(X, y)
    assert accuracy(y, tree.predict(X)) > 0.95


def test_tree_depth_limit(rng):
    X, y = xor_data(rng)
    stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
    assert stump.depth() <= 1
    assert stump.n_leaves <= 2


def test_tree_min_samples_leaf(rng):
    X, y = xor_data(rng, n=100)
    tree = DecisionTreeClassifier(max_depth=10, min_samples_leaf=30).fit(X, y)
    for node in tree._nodes:
        if node.feature == -1:
            assert node.weight >= 30 - 1e-9


def test_tree_pure_node_stops(rng):
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = DecisionTreeClassifier(max_depth=5, min_samples_leaf=1).fit(X, y)
    probabilities = tree.predict_proba(X)
    np.testing.assert_allclose(probabilities, y)


def test_tree_probabilities_are_leaf_fractions(rng):
    X = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    tree = DecisionTreeClassifier(max_depth=1, min_samples_leaf=3).fit(X, y)
    probabilities = tree.predict_proba(X)
    assert probabilities[0] == pytest.approx(1.0 / 3.0)
    assert probabilities[-1] == pytest.approx(1.0)


def test_tree_sample_weights_move_split(rng):
    X = np.array([[0.0], [1.0], [2.0], [3.0]] * 20)
    y = np.array([0.0, 0.0, 1.0, 1.0] * 20)
    # Weight the x=1 rows as positives heavily mislabeled -> prediction flips.
    weights = np.ones(len(y))
    flipped = y.copy()
    flipped[X[:, 0] == 1.0] = 1.0
    weights[X[:, 0] == 1.0] = 50.0
    tree = DecisionTreeClassifier(max_depth=3, min_samples_leaf=5)
    tree.fit(X, flipped, sample_weight=weights)
    assert tree.predict(np.array([[1.0]]))[0] == 1.0


def test_tree_feature_importances_sum_to_one(rng):
    X, y = xor_data(rng)
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    importances = tree.feature_importances()
    assert importances.sum() == pytest.approx(1.0)
    assert np.all(importances >= 0)


def test_tree_ignores_noise_feature(rng):
    X, y = xor_data(rng)
    X_noise = np.hstack([X, rng.standard_normal((len(X), 1)) * 0.001])
    tree = DecisionTreeClassifier(max_depth=3).fit(X_noise, y)
    importances = tree.feature_importances()
    assert importances[2] < 0.05


def test_tree_to_rules(rng):
    X, y = xor_data(rng)
    tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
    rules = tree.to_rules(["a", "b"])
    assert len(rules) == tree.n_leaves
    assert any("a" in rule for rule in rules)
    assert all("P(positive)" in rule for rule in rules)


def test_tree_validation(rng):
    X, y = xor_data(rng)
    with pytest.raises(DataError):
        DecisionTreeClassifier(max_depth=0)
    with pytest.raises(DataError):
        DecisionTreeClassifier(min_samples_leaf=0)
    with pytest.raises(NotFittedError):
        DecisionTreeClassifier().predict_proba(X)
    tree = DecisionTreeClassifier().fit(X, y)
    with pytest.raises(DataError, match="features"):
        tree.predict_proba(X[:, :1])


def test_tree_constant_labels(rng):
    X = rng.standard_normal((50, 2))
    y = np.ones(50)
    tree = DecisionTreeClassifier().fit(X, y)
    np.testing.assert_allclose(tree.predict_proba(X), 1.0)
    assert tree.n_leaves == 1


def test_tree_max_features_subsampling(rng):
    X, y = xor_data(rng)
    tree = DecisionTreeClassifier(max_depth=3, max_features=1, rng=rng)
    tree.fit(X, y)  # should not raise; splits restricted to one feature each
    assert tree.n_nodes >= 1


@pytest.mark.parametrize("bad", [0, -1, 2.5, "2", True])
def test_max_features_must_be_none_or_a_positive_int(bad):
    # 0 used to fit a one-node tree (no feature was ever a candidate)
    # and a constant forest; -1 and 2.5 failed only inside rng.choice.
    with pytest.raises(DataError, match="max_features"):
        DecisionTreeClassifier(max_features=bad)
    with pytest.raises(DataError, match="max_features"):
        RandomForestClassifier(max_features=bad)


def test_max_features_accepts_numpy_ints(rng):
    X, y = xor_data(rng)
    tree = DecisionTreeClassifier(max_depth=3, max_features=np.int64(1),
                                  rng=np.random.default_rng(0)).fit(X, y)
    assert tree.n_nodes > 1
    forest = RandomForestClassifier(n_trees=3, max_features=np.int32(2))
    assert forest.fit(X, y).predict_proba(X).shape == (len(X),)


def test_default_feature_rng_varies_across_nodes_within_a_fit():
    # Regression: with rng=None the fallback generator used to be
    # rebuilt as default_rng(0) on every _candidate_features call, so
    # every node considered the SAME feature subset. One generator per
    # fit must draw different subsets node to node, yet stay
    # deterministic fit to fit.
    tree = DecisionTreeClassifier(max_features=2)
    tree._feature_rng = None
    first = tree._candidate_features(8).tolist()
    rng = np.random.default_rng(0)
    assert first == rng.choice(8, size=2, replace=False).tolist()

    fitted = DecisionTreeClassifier(max_depth=4, max_features=1)
    data_rng = np.random.default_rng(42)
    X = data_rng.standard_normal((400, 6))
    y = (X[:, 0] + X[:, 1] - X[:, 2] > 0).astype(float)
    fitted.fit(X, y)
    split_features = {
        node.feature for node in fitted._nodes if node.feature >= 0
    }
    # With a per-call default_rng(0) every node would draw one fixed
    # feature; a per-fit stream lets splits land on several features.
    assert len(split_features) > 1

    again = DecisionTreeClassifier(max_depth=4, max_features=1).fit(X, y)
    assert [n.feature for n in again._nodes] == \
        [n.feature for n in fitted._nodes]
    assert [n.threshold for n in again._nodes] == \
        [n.threshold for n in fitted._nodes]
