"""Golden digests for table content fingerprints and their neighbours.

Every digest below was captured from the implementation that rendered
each object column with a per-element ``str()`` into a fixed-width
unicode array and cached nothing.  Tables now render categorical bytes
from a cached ``(categories, codes)`` view and cache their own digest,
and derived tables inherit views; these pins keep every served cache
key, store key and provenance fingerprint byte-identical across that
change.  The cases cover a census table and each structural and row
derivation of it, ``with_column`` appending and replacing, empty
tables, ``""``, non-ASCII and ``"a\\x00"`` strings beside NaN, -0.0
and inf, a codec round trip, ``dataset_fingerprint``,
``object_fingerprint`` of a fitted model, ``canonical()`` of a mixed
object array, and the sorted factorization ``Table._factorized``
returns.

The property at the end keeps the per-element rendering and the
string sort in this file as the reference.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import (
    ColumnRole,
    Schema,
    categorical,
    numeric,
)
from repro.data.synth import CensusIncomeGenerator
from repro.data.table import Table
from repro.learn import LogisticRegression, TableClassifier
from repro.relational import Dataset, ForeignKey, RelSchema, TableSpec
from repro.store import (
    canonical,
    codec,
    dataset_fingerprint,
    fingerprint,
    object_fingerprint,
    table_fingerprint,
)
from repro.store.fingerprint import DIGEST_CHARS

GOLDEN = {
    "canonical.mixed_object_array": "0a690d8c1a05f066d3968472",
    "canonical.object_matrix": "49cba13eebf099c79d445cb1",
    "census": "863e814b2dc61ccdef26ff33",
    "census.codec": "863e814b2dc61ccdef26ff33",
    "census.concat": "b87850ad91eeb9309bdd30a8",
    "census.drop": "1f26a2e9fe92a5354340470a",
    "census.filter": "4849cab2a13dfbaa221cd205",
    "census.rename": "756f1f1599b6442e17f0e44b",
    "census.select": "d05ad6a8bd9d0c811855d5a2",
    "census.slice": "7e407b9c047e3550c1024461",
    "census.take": "2b8c3180403a335d8717c810",
    "census.with_column.append": "a2c10811b9e53cfbd95512a2",
    "census.with_column.new_categorical": "291ecbbb45c1f1bd17434f87",
    "census.with_column.replace_categorical": "5500a7663bb74ff620b049af",
    "census.with_column.replace_numeric": "e5835014361f90840017e5a7",
    "census.with_role": "2d0f10a8accc9d06337d15f0",
    "dataset": "186a2705b8eff6cd41ca33c1",
    "edge": "dc6c545a54066708bac56839",
    "edge.codec": "dc6c545a54066708bac56839",
    "edge.empty_slice": "f8660d0d571d097065da5bd4",
    "edge.select": "162453b86181180fb2cfe74b",
    "edge.slice": "7156a3f004c2dc0d31d7d4b2",
    "edge.take": "616c40dca8125fd94d295f31",
    "empty": "51596ee0f5628f8ebb8a84ed",
    "empty.codec": "51596ee0f5628f8ebb8a84ed",
    "factorized.census.age": "2c0f09374e8e1ee8d1b0c7b7",
    "factorized.census.education": "ddbbd86d7e88a38ed2ad20e6",
    "factorized.census.occupation": "33e48ff315013b436839921f",
    "factorized.census.sex": "843db3156b1270f72b5e9ce5",
    "factorized.census.zipcode": "fb0c43f9c035b7c69640a29e",
    "factorized.edge.code": "df1f7dda51b8438189a8561e",
    "factorized.edge.text": "a68f846371c6b3d969cd8464",
    "factorized.empty.zipcode": "3b87d7489ff2be75ffb8cd8f",
    "model": "125575e4b4fe920007d2effb",
    "no_columns": "9af776142f229988b775390a",
}


def _census() -> Table:
    return CensusIncomeGenerator().generate(2_000, np.random.default_rng(26))


def _edge() -> Table:
    schema = Schema([
        categorical("text", role=ColumnRole.SENSITIVE),
        numeric("value"),
        categorical("code", role=ColumnRole.QUASI_IDENTIFIER),
    ])
    return Table(schema, {
        "text": ["", "é", "日本語", "a\x00", "x" * 40, "a", "", "é"],
        "value": [float("nan"), -0.0, float("inf"), 0.0, float("-inf"),
                  1e-300, 2.5, float("nan")],
        "code": ["a", "a", "", "b", "\x1f", "中文", "b", "a"],
    })


def _dataset() -> Dataset:
    users = Table(
        Schema([categorical("uid", role=ColumnRole.IDENTIFIER),
                categorical("region")]),
        {"uid": ["u1", "u2", "u3"], "region": ["eu", "us", "é"]},
    )
    txns = Table(
        Schema([categorical("tid", role=ColumnRole.IDENTIFIER),
                categorical("uid"), numeric("amount")]),
        {"tid": ["t1", "t2", "t3", "t4"], "uid": ["u1", "u2", "u1", "u3"],
         "amount": [10.0, -0.0, float("nan"), 30.5]},
    )
    schema = RelSchema("shop", [
        TableSpec("users", users.schema, key="uid"),
        TableSpec("txns", txns.schema, key="tid",
                  foreign_keys=(ForeignKey("uid", "users", "uid"),)),
    ])
    return Dataset(schema, {"users": users, "txns": txns})


def _factorization_digest(table: Table, name: str) -> str:
    uniques, codes, order, n_missing = table._factorized(name)
    hasher = hashlib.sha256()
    for array in (uniques, codes, order):
        hasher.update(str(array.dtype).encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    hasher.update(str(n_missing).encode())
    return hasher.hexdigest()[:24]


def _cases() -> dict:
    rng = np.random.default_rng(7)
    take = rng.permutation(2_000)[:700]
    model = TableClassifier(LogisticRegression()).fit(_census())
    cases = {
        "census": lambda census, edge: table_fingerprint(census),
        "census.select": lambda census, edge: table_fingerprint(
            census.select(["zipcode", "age", "sex"])),
        "census.drop": lambda census, edge: table_fingerprint(
            census.drop(["education", "capital_gain"])),
        "census.rename": lambda census, edge: table_fingerprint(
            census.rename({"sex": "gender", "age": "years"})),
        "census.with_role": lambda census, edge: table_fingerprint(
            census.with_role("education", ColumnRole.SENSITIVE)),
        "census.take": lambda census, edge: table_fingerprint(
            census.take(take)),
        "census.filter": lambda census, edge: table_fingerprint(
            census.filter(census.column("sex") == census.column("sex")[0])),
        "census.slice": lambda census, edge: table_fingerprint(
            census.slice(17, 1_311)),
        "census.concat": lambda census, edge: table_fingerprint(
            Table.concat([census.slice(1_500, 2_000), census.take(take[:50]),
                          census.slice(0, 3)])),
        "census.with_column.append": lambda census, edge: table_fingerprint(
            census.with_column(numeric("score", role=ColumnRole.METADATA),
                               np.linspace(0.0, 1.0, census.n_rows))),
        "census.with_column.replace_numeric":
            lambda census, edge: table_fingerprint(census.with_column(
                census.schema["age"], census.column("age") + 0.5)),
        "census.with_column.replace_categorical":
            lambda census, edge: table_fingerprint(census.with_column(
                census.schema["zipcode"],
                [f"z{i % 11}é" for i in range(census.n_rows)])),
        "census.with_column.new_categorical":
            lambda census, edge: table_fingerprint(census.with_column(
                categorical("tag"),
                ["" if i % 3 else "日本" for i in range(census.n_rows)])),
        "census.codec": lambda census, edge: table_fingerprint(
            codec.loads(codec.dumps(census))),
        "empty": lambda census, edge: table_fingerprint(
            Table.empty_like(census)),
        "empty.codec": lambda census, edge: table_fingerprint(
            codec.loads(codec.dumps(Table.empty_like(census)))),
        "no_columns": lambda census, edge: table_fingerprint(
            Table(Schema([]), {})),
        "edge": lambda census, edge: table_fingerprint(edge),
        "edge.codec": lambda census, edge: table_fingerprint(
            codec.loads(codec.dumps(edge))),
        "edge.take": lambda census, edge: table_fingerprint(
            edge.take([3, 1, 1, 0])),
        "edge.slice": lambda census, edge: table_fingerprint(
            edge.slice(1, 5)),
        "edge.select": lambda census, edge: table_fingerprint(
            edge.select(["code"])),
        "edge.empty_slice": lambda census, edge: table_fingerprint(
            edge.slice(2, 2)),
        "dataset": lambda census, edge: dataset_fingerprint(_dataset()),
        "model": lambda census, edge: object_fingerprint(model),
        "canonical.mixed_object_array": lambda census, edge: fingerprint(
            array=canonical(np.array(
                [1, 1.0, True, "1", "", "é", None, -0.0, "a\x00"],
                dtype=object))),
        "canonical.object_matrix": lambda census, edge: fingerprint(
            array=canonical(np.array([["a", "bb"], ["", "日本語"]],
                                     dtype=object))),
    }
    for name in ("education", "occupation", "sex", "zipcode", "age"):
        cases[f"factorized.census.{name}"] = (
            lambda census, edge, name=name: _factorization_digest(
                census, name))
    cases["factorized.edge.text"] = lambda census, edge: (
        _factorization_digest(edge, "text"))
    cases["factorized.edge.code"] = lambda census, edge: (
        _factorization_digest(edge, "code"))
    cases["factorized.empty.zipcode"] = lambda census, edge: (
        _factorization_digest(Table.empty_like(census), "zipcode"))
    return cases


CASES = _cases()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_on_fresh_tables(name):
    assert CASES[name](_census(), _edge()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_on_warm_tables(name):
    # Tables that were fingerprinted and factorized before: derivations
    # inherit their column views and a repeated call answers from the
    # cached digest, and still the pinned bytes come out.
    census, edge = _census(), _edge()
    for table in (census, edge):
        table_fingerprint(table)
        for spec in table.schema:
            table._factorized(spec.name)
    CASES[name](census, edge)
    assert CASES[name](census, edge) == GOLDEN[name]


def _reference_fingerprint(table: Table) -> str:
    """Every object column rendered row by row through ``str()``."""
    hasher = hashlib.sha256()
    hasher.update(repr([(spec.name, spec.ctype.value, spec.role.value)
                        for spec in table.schema]).encode())
    hasher.update(str(table.n_rows).encode())
    for name in table.column_names:
        values = np.ascontiguousarray(table.column(name))
        if values.dtype == object:
            values = np.asarray([str(item) for item in values], dtype="U")
        hasher.update(str(values.dtype).encode())
        hasher.update(values.tobytes())
    return hasher.hexdigest()[:DIGEST_CHARS]


def _reference_factorization(values: np.ndarray) -> tuple:
    """The sort over the rendered rows that ``_factorized`` replaced."""
    safe = values.astype("U")
    uniques, codes = np.unique(safe, return_inverse=True)
    codes = codes.astype(np.int64)
    codes[safe == ""] = -1
    return uniques, codes, int((safe == "").sum())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_views_render_the_reference_bytes(data):
    n_rows = data.draw(st.integers(0, 12))
    strings = st.text(max_size=6) | st.sampled_from(["", "a", "a\x00", "é"])
    table = Table(Schema([
        categorical("s"), numeric("x"),
        categorical("g", role=ColumnRole.SENSITIVE),
    ]), {
        "s": data.draw(st.lists(strings, min_size=n_rows, max_size=n_rows)),
        "x": data.draw(st.lists(st.floats(), min_size=n_rows,
                                max_size=n_rows)),
        "g": data.draw(st.lists(st.sampled_from(["", "x", "yy"]),
                                min_size=n_rows, max_size=n_rows)),
    })
    rows = data.draw(st.lists(st.integers(0, max(n_rows - 1, 0)),
                              max_size=8)) if n_rows else []
    restored = codec.loads(codec.dumps(table))
    for candidate in (table, restored, table.take(rows),
                      table.select(["g", "s"]), restored.slice(0, n_rows // 2),
                      Table.concat([table, restored])):
        assert table_fingerprint(candidate) == _reference_fingerprint(
            candidate)
    for name in ("s", "g"):
        uniques, codes, _, n_missing = table._factorized(name)
        ref_uniques, ref_codes, ref_missing = _reference_factorization(
            table.column(name))
        assert uniques.dtype == ref_uniques.dtype
        assert uniques.tobytes() == ref_uniques.tobytes()
        assert codes.tolist() == ref_codes.tolist()
        assert n_missing == ref_missing
