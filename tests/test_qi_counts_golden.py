"""Golden-value pins for ``qi_class_counts``, the confidentiality kernel.

Every digest below was captured from the ``np.char`` implementation
that string-built keys column by column (``astype``, ``np.char.str_len``
and ``np.char.add`` passes, then ``np.unique``).  Each digest hashes the
keys in dict order, their counts and the NaN-singleton tally, so a
changed key, key order, count or tally all show.  The cases cover NaN,
signed zeros, infinities, tiny and huge floats, integer-valued floats,
the key's own ``#`` and ``\\x1f`` inside values, empty strings,
non-ASCII text and whitespace, census tables, all-NaN rows and an empty
table.

The property at the end keeps that implementation in this file as the
reference.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidentiality.anonymity import _quasi_identifiers
from repro.confidentiality.risk import qi_class_counts
from repro.data.schema import ColumnRole, Schema, categorical, numeric
from repro.data.synth import CensusIncomeGenerator
from repro.data.table import Table

QI = ColumnRole.QUASI_IDENTIFIER

GOLDEN = {
    "edge": "af5f4562612889eb",
    "census_2500": "bcaad3d3eab06036",
    "census_5000": "7774809d8be53237",
    "integer_valued": "b8706cf5d3bdf395",
    "all_nan": "c62a13eb7669f832",
    "empty": "5feceb66ffc86f38",
}


def _edge_table() -> Table:
    floats = [float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 1e-300,
              float(2**60), 0.1, 1.0, 1.0, -0.0, 2.5, float("nan"), 1e22,
              -1e-7, 123456789.125]
    texts = ["#", "\x1f", "", "café", " ", "a b", "\t", "#1#",
             "é", "中文", "x\x1fy", "", "1#a", "5#", " ", "#"]
    codes = ["a", "a", "a", "b", "b", "b", "", "", "#", "#", "a", "a", "b",
             "\x1f", "\x1f", "a"]
    schema = Schema([numeric("value", role=QI), categorical("text", role=QI),
                     categorical("code", role=QI)])
    return Table(schema, {"value": floats, "text": texts, "code": codes})


def _census(n_rows: int) -> Table:
    return CensusIncomeGenerator().generate(
        n_rows, np.random.default_rng(n_rows)
    )


def _integer_valued() -> Table:
    rng = np.random.default_rng(5)
    values = rng.integers(-3, 4, 400).astype(np.float64)
    values[:4] = [2.0**53, 2.0**60, -(2.0**62), 0.0]
    schema = Schema([numeric("count", role=QI),
                     categorical("band", role=QI)])
    bands = [("low", "mid", "high")[index % 3] for index in range(400)]
    return Table(schema, {"count": values, "band": bands})


def _all_nan() -> Table:
    schema = Schema([numeric("a", role=QI), numeric("b", role=QI),
                     categorical("c", role=QI)])
    a = np.array([np.nan, np.nan, 1.0, np.nan, 1.0, 2.0])
    b = np.array([np.nan, 3.0, np.nan, np.nan, 4.0, 4.0])
    return Table(schema, {"a": a, "b": b, "c": ["x"] * 6})


def _empty() -> Table:
    schema = Schema([numeric("a", role=QI), categorical("c", role=QI)])
    return Table(schema, {"a": np.zeros(0), "c": []})


CASES = {
    "edge": _edge_table,
    "census_2500": lambda: _census(2500),
    "census_5000": lambda: _census(5000),
    "integer_valued": _integer_valued,
    "all_nan": _all_nan,
    "empty": _empty,
}


def digest(result) -> str:
    counts, nan_singletons = result
    hasher = hashlib.sha256()
    for key, count in counts.items():
        assert type(key) is str and type(count) is int
        hasher.update(repr((key, count)).encode("utf-8"))
    assert type(nan_singletons) is int
    hasher.update(repr(nan_singletons).encode("utf-8"))
    return hasher.hexdigest()[:16]


def test_qi_class_counts_match_golden():
    got = {name: digest(qi_class_counts(make()))
           for name, make in CASES.items()}
    assert got == GOLDEN


def reference_qi_class_counts(table, quasi_identifiers=None):
    """The ``np.char`` implementation the goldens were captured from."""
    names = _quasi_identifiers(table, quasi_identifiers)
    n_rows = table.n_rows
    if not n_rows:
        return {}, 0
    nan_mask = np.zeros(n_rows, dtype=bool)
    keys = None
    for name in names:
        values = table.column(name)
        if values.dtype.kind == "f":
            nan_mask |= np.isnan(values)
            strings = (values + 0.0).astype("U32")
        else:
            strings = values.astype(str)
        lengths = np.char.str_len(strings).astype("U20")
        piece = np.char.add(np.char.add(lengths, "#"), strings)
        keys = piece if keys is None else np.char.add(
            np.char.add(keys, "\x1f"), piece
        )
    uniques, counts = np.unique(keys[~nan_mask], return_counts=True)
    return (
        {str(key): int(count) for key, count in zip(uniques, counts)},
        int(nan_mask.sum()),
    )


@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0, float("nan"), float("inf")]),
                  st.floats()),
        st.text(alphabet="a1# \x1fé", max_size=4),
    ),
    max_size=30,
))
@settings(max_examples=300, deadline=None)
def test_matches_the_char_implementation(rows):
    schema = Schema([numeric("x", role=QI), categorical("s", role=QI)])
    table = Table(schema, {
        "x": np.array([x for x, _ in rows], dtype=np.float64),
        "s": [s for _, s in rows],
    })
    got = qi_class_counts(table)
    want = reference_qi_class_counts(table)
    assert got == want
    assert list(got[0]) == list(want[0])
