"""Unit tests for train/test splitting and folds."""

import numpy as np
import pytest

from repro.data.split import (
    bootstrap_indices,
    k_fold,
    k_fold_indices,
    three_way_split,
    train_test_split,
)
from repro.exceptions import DataError


def test_split_sizes(credit_tables, rng):
    train, _ = credit_tables
    a, b = train_test_split(train, 0.25, rng)
    assert a.n_rows + b.n_rows == train.n_rows
    assert b.n_rows == pytest.approx(train.n_rows * 0.25, abs=2)


def test_split_disjoint(rng):
    from repro.data.table import Table

    table = Table.from_dict({"id": np.arange(100.0)})
    train, test = train_test_split(table, 0.3, rng)
    assert set(train["id"]).isdisjoint(set(test["id"]))


def test_invalid_fraction(credit_tables, rng):
    train, _ = credit_tables
    with pytest.raises(DataError):
        train_test_split(train, 0.0, rng)
    with pytest.raises(DataError):
        train_test_split(train, 1.0, rng)


def test_stratified_preserves_group_rates(credit_tables, rng):
    train, _ = credit_tables
    a, b = train_test_split(train, 0.3, rng, stratify_by="group")
    rate = np.mean(train["group"] == "B")
    assert np.mean(a["group"] == "B") == pytest.approx(rate, abs=0.03)
    assert np.mean(b["group"] == "B") == pytest.approx(rate, abs=0.03)


def test_stratified_split_keeps_nan_rows(rng):
    from repro.data.table import Table

    s = np.array([1.0, np.nan, 2.0, 1.0, 2.0, np.nan, 1.0, 2.0, 1.0, 2.0])
    table = Table.from_dict({"s": s, "id": np.arange(10.0)})
    train, test = train_test_split(table, 0.3, rng, stratify_by="s")
    ids = np.concatenate([train["id"], test["id"]])
    assert sorted(ids.tolist()) == list(range(10))
    assert np.isnan(np.concatenate([train["s"], test["s"]])).sum() == 2


def test_three_way_split(credit_tables, rng):
    train, _ = credit_tables
    a, b, c = three_way_split(train, 0.2, 0.2, rng)
    assert a.n_rows + b.n_rows + c.n_rows == train.n_rows
    with pytest.raises(DataError):
        three_way_split(train, 0.6, 0.5, rng)


def test_k_fold_partitions(rng):
    pairs = k_fold_indices(100, 5, rng)
    assert len(pairs) == 5
    all_test = np.concatenate([test for _, test in pairs])
    assert sorted(all_test.tolist()) == list(range(100))
    for train_idx, test_idx in pairs:
        assert set(train_idx).isdisjoint(set(test_idx))
        assert len(train_idx) + len(test_idx) == 100


def test_k_fold_tables(credit_tables, rng):
    train, _ = credit_tables
    folds = k_fold(train, 3, rng)
    assert len(folds) == 3
    assert sum(test.n_rows for _, test in folds) == train.n_rows


def test_k_fold_validation(rng):
    with pytest.raises(DataError):
        k_fold_indices(10, 1, rng)
    with pytest.raises(DataError):
        k_fold_indices(3, 5, rng)


def test_bootstrap_indices(rng):
    resamples = bootstrap_indices(50, 10, rng)
    assert len(resamples) == 10
    for resample in resamples:
        assert len(resample) == 50
        assert resample.min() >= 0 and resample.max() < 50
    with pytest.raises(DataError):
        bootstrap_indices(0, 3, rng)
