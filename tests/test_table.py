"""Unit tests for repro.data.table."""

import numpy as np
import pytest

from repro.data.schema import ColumnRole, Schema, categorical, numeric
from repro.data.table import Table
from repro.exceptions import DataError, SchemaError


def test_from_dict_infers_types(small_table):
    table = Table.from_dict({"x": [1, 2, 3], "c": ["a", "b", "c"]})
    assert table.schema["x"].ctype.value == "numeric"
    assert table.schema["c"].ctype.value == "categorical"


def test_mismatched_schema_rejected():
    with pytest.raises(SchemaError, match="disagree"):
        Table(Schema([numeric("a")]), {"b": [1.0]})


def test_ragged_columns_rejected():
    with pytest.raises(DataError, match="rows"):
        Table.from_dict({"a": [1, 2], "b": [1, 2, 3]})


def test_basic_properties(small_table):
    assert small_table.n_rows == 6
    assert small_table.n_columns == 6
    assert len(small_table) == 6
    assert "income" in small_table
    assert "Table(" in repr(small_table)


def test_column_access(small_table):
    np.testing.assert_allclose(
        small_table["income"], [10, 20, 30, 40, 50, 60]
    )
    with pytest.raises(SchemaError):
        small_table.column("missing")


def test_row_and_iter(small_table):
    row = small_table.row(2)
    assert row["city"] == "south"
    assert row["income"] == 30.0
    assert len(list(small_table.iter_rows())) == 6
    with pytest.raises(DataError):
        small_table.row(99)


def test_select_drop(small_table):
    selected = small_table.select(["debt", "income"])
    assert selected.column_names == ["debt", "income"]
    dropped = small_table.drop(["ssn"])
    assert "ssn" not in dropped


def test_with_column_replace_and_add(small_table):
    doubled = small_table.with_column(
        small_table.schema["income"], small_table["income"] * 2
    )
    assert doubled["income"][0] == 20.0
    extended = small_table.with_column(numeric("zeros"), np.zeros(6))
    assert extended.n_columns == 7
    with pytest.raises(DataError, match="rows"):
        small_table.with_column(numeric("bad"), [1.0])


def test_rename(small_table):
    renamed = small_table.rename({"income": "salary"})
    assert "salary" in renamed
    assert "income" not in renamed
    assert renamed.schema["salary"].role is ColumnRole.FEATURE


def test_take_filter_head(small_table):
    taken = small_table.take([5, 0])
    assert taken["income"][0] == 60.0
    filtered = small_table.filter(small_table["group"] == "A")
    assert filtered.n_rows == 3
    assert small_table.head(2).n_rows == 2
    with pytest.raises(DataError, match="mask"):
        small_table.filter([True])


def test_shuffle_sample(small_table, rng):
    shuffled = small_table.shuffle(rng)
    assert shuffled.n_rows == 6
    assert sorted(shuffled["income"].tolist()) == sorted(
        small_table["income"].tolist()
    )
    sample = small_table.sample(3, rng)
    assert sample.n_rows == 3
    with pytest.raises(DataError):
        small_table.sample(100, rng)
    assert small_table.sample(100, rng, replace=True).n_rows == 100


def test_sort_by(small_table):
    ascending = small_table.sort_by("income")
    assert ascending["income"][0] == 10.0
    descending = small_table.sort_by("income", descending=True)
    assert descending["income"][0] == 60.0


def test_concat(small_table):
    combined = Table.concat([small_table, small_table])
    assert combined.n_rows == 12
    with pytest.raises(SchemaError):
        Table.concat([small_table, small_table.drop(["ssn"])])


def test_group_by_and_counts(small_table):
    groups = small_table.group_by("group")
    assert set(groups) == {"A", "B"}
    assert groups["A"].n_rows == 3
    counts = small_table.value_counts("city")
    assert counts == {"north": 3, "south": 3}


def _with_nan_keys():
    s = np.array([1.0, np.nan, 2.0, 1.0, np.nan, 2.0, 3.0, 1.0, -0.0, 0.0])
    return Table.from_dict({"s": s, "id": np.arange(10.0)})


def test_group_indices_put_every_row_in_one_group():
    table = _with_nan_keys()
    groups = table.group_indices("s")
    rows = np.concatenate(list(groups.values()))
    assert sorted(rows.tolist()) == list(range(10))
    nan_keys = [key for key in groups if key != key]
    assert len(nan_keys) == 1
    assert groups[nan_keys[0]].tolist() == [1, 4]
    assert groups[1.0].tolist() == [0, 3, 7]
    assert groups[0.0].tolist() == [8, 9]  # -0.0 == 0.0: one group
    assert [len(part) for part in groups.values()] == list(
        table.value_counts("s").values()
    )


def test_group_by_keeps_nan_rows():
    groups = _with_nan_keys().group_by("s")
    assert sum(part.n_rows for part in groups.values()) == 10
    (nan_part,) = [part for key, part in groups.items() if key != key]
    assert nan_part["id"].tolist() == [1.0, 4.0]


def test_describe(small_table):
    summary = small_table.describe()
    assert summary["income"]["mean"] == pytest.approx(35.0)
    assert summary["group"]["n_unique"] == 2
    assert summary["approved"]["role"] == "target"


def test_equality(small_table):
    assert small_table == small_table.take(range(6))
    assert small_table != small_table.filter([True] * 5 + [False])
    assert (small_table == 42) is False or True  # NotImplemented path


def test_fact_conveniences(small_table):
    np.testing.assert_allclose(
        small_table.target(), [0, 0, 1, 0, 1, 1]
    )
    features = small_table.feature_table()
    assert features.column_names == ["income", "debt"]
    with_sensitive = small_table.feature_table(include_sensitive=True)
    assert "group" in with_sensitive
    assert (small_table.sensitive() == np.array(
        ["A", "B", "A", "B", "A", "B"], dtype=object)).all()
    with pytest.raises(SchemaError):
        small_table.sensitive("income")


def test_empty_like(small_table):
    empty = Table.empty_like(small_table)
    assert empty.n_rows == 0
    assert empty.column_names == small_table.column_names


def test_no_target_raises():
    table = Table.from_dict({"x": [1.0, 2.0]})
    with pytest.raises(SchemaError, match="no target"):
        table.target()


def test_unique(small_table):
    assert small_table.unique("city").tolist() == ["north", "south"]


def _assert_unique_matches_numpy(table, name):
    got, expected = table.unique(name), np.unique(table.column(name))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tolist() == expected.tolist()
    assert [type(value) for value in got.tolist()] == \
        [type(value) for value in expected.tolist()]


def test_unique_reads_the_content_view_and_equals_np_unique():
    from repro.data.synth import CensusIncomeGenerator

    census = CensusIncomeGenerator().generate(2_000, np.random.default_rng(5))
    awkward = Table(Schema([categorical("c"), numeric("x")]), {
        "c": ["b", "", "a\x00", "a", "é", "Ω", "", "a\x00", "ä", "a "],
        "x": np.arange(10.0),
    })
    empty = Table(Schema([categorical("c"), numeric("x")]),
                  {"c": [], "x": []})
    tables = {
        "census": census,
        "awkward": awkward,
        "empty": empty,
        "take": census.take(np.arange(0, 2_000, 7)),
        "concat": Table.concat([awkward, awkward.take([1, 2, 3])]),
    }
    for label, table in tables.items():
        if label in ("take", "concat"):
            assert table._content == {}, label  # row operations: no view
        for name in table.column_names:
            _assert_unique_matches_numpy(table, name)
    assert awkward.unique("c").tolist() == \
        ["", "a", "a\x00", "a ", "b", "ä", "é", "Ω"]
    assert "education" in census._content  # categorical: read the view


# -- zero-copy column views --------------------------------------------------


def test_column_returns_read_only_view(small_table):
    income = small_table.column("income")
    assert not income.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        income[0] = 99.0
    # The view shares the internal buffer; a copy is one np.array away.
    assert income.base is not None
    mutable = np.array(income)
    mutable[0] = 99.0
    np.testing.assert_allclose(small_table.column("income")[0], 10.0)


def test_column_views_are_cached_and_consistent(small_table):
    assert small_table.column("income") is small_table.column("income")
    np.testing.assert_allclose(small_table["income"],
                               small_table.column("income"))


def test_projections_share_column_buffers(small_table):
    selected = small_table.select(["income", "debt", "approved"])
    dropped = small_table.drop(["city"])
    renamed = small_table.rename({"income": "salary"})
    assert np.shares_memory(selected.column("income"),
                            small_table.column("income"))
    assert np.shares_memory(dropped.column("income"),
                            small_table.column("income"))
    assert np.shares_memory(renamed.column("salary"),
                            small_table.column("income"))


def test_row_subsets_still_copy(small_table):
    taken = small_table.take([0, 1, 2])
    filtered = small_table.filter([True, False, True, False, True, False])
    for subset in (taken, filtered):
        assert not np.shares_memory(subset.column("income"),
                                    small_table.column("income"))


def test_table_owns_its_numeric_buffers():
    # A caller's float64 array is copied on construction: writing to it
    # afterwards changes neither the table nor its cached fingerprint.
    from repro.store import table_fingerprint

    source = np.array([1.0, 2.0, 3.0])
    table = Table(Schema([numeric("x")]), {"x": source})
    digest = table_fingerprint(table)
    source[0] = 99.0
    assert table.column("x").tolist() == [1.0, 2.0, 3.0]
    assert table_fingerprint(table) == digest
    fresh = Table(Schema([numeric("x")]), {"x": [1.0, 2.0, 3.0]})
    assert table_fingerprint(fresh) == digest
    added = table.with_column(numeric("y"), source)
    source[1] = -1.0
    assert added.column("y").tolist() == [99.0, 2.0, 3.0]


def test_content_view_is_first_appearance_categories_and_codes(small_table):
    categories, codes = small_table._content_view("city")
    assert categories == ("north", "south")
    assert codes.tolist() == [0, 0, 1, 1, 0, 1]
    assert not codes.flags.writeable
    assert small_table._content_view("city") is small_table._content_view(
        "city")
    with pytest.raises(SchemaError):
        small_table._content_view("income")


def test_buffer_sharing_derivations_inherit_content_views(small_table):
    from repro.data.schema import categorical
    from repro.store import table_fingerprint

    table_fingerprint(small_table)  # builds every categorical view
    views = {name: small_table._content_view(name)
             for name in ("city", "group", "ssn")}
    derived = {
        "select": small_table.select(["group", "income", "city"]),
        "drop": small_table.drop(["ssn"]),
        "with_role": small_table.with_role("city", ColumnRole.FEATURE),
        "with_column": small_table.with_column(numeric("score"), np.ones(6)),
        "replace": small_table.with_column(
            categorical("group", role=ColumnRole.SENSITIVE),
            ["x", "y", "x", "y", "x", "y"]),
    }
    for label, table in derived.items():
        assert table._digest is None, label
        for name, view in views.items():
            if name in table and not (label == "replace" and name == "group"):
                assert table._content[name] is view, (label, name)
    assert "group" not in derived["replace"]._content
    renamed = small_table.rename({"city": "town"})
    assert renamed._content["town"] is views["city"]
    assert renamed._digest is None


def test_row_operations_start_without_views(small_table):
    from repro.store import table_fingerprint

    table_fingerprint(small_table)
    for subset in (small_table.take([0, 2]), small_table.filter([True] * 6),
                   small_table.slice(0, 6),
                   Table.concat([small_table, small_table])):
        assert subset._content == {} and subset._digest is None


def test_concurrent_first_use_of_the_caches_agrees():
    # Views and the digest are built lazily without a lock: threads that
    # race to build them may each build one, and every result must still
    # be the one a single thread computes.
    import sys
    import threading

    from repro.data.synth import CensusIncomeGenerator
    from repro.store import codec, table_fingerprint

    def fresh():
        return CensusIncomeGenerator().generate(
            3_000, np.random.default_rng(3))

    expected = (table_fingerprint(fresh()),
                fresh()._factorized("zipcode")[1].tobytes(),
                codec.dumps(fresh()))
    results, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            table = fresh()
            barrier = threading.Barrier(8)

            def work(table=table, barrier=barrier):
                try:
                    barrier.wait(timeout=10)
                    results.append((table_fingerprint(table),
                                    table._factorized("zipcode")[1].tobytes(),
                                    codec.dumps(table)))
                except Exception as error:  # reported below
                    errors.append(error)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 24
    assert all(result == expected for result in results)
