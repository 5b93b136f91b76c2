"""The artifact store: canonical fingerprints, exact replay, incremental audits.

The contracts under test are the ones :mod:`repro.store` advertises:

* ``fingerprint(**parts)`` is the planner's historical ``_fingerprint``
  promoted — digests are pinned so a canonicalisation change cannot slip
  through silently;
* stored values replay **bit-identically** or not at all, with bounded
  LRU backends where corruption is a counted miss, never a crash;
* ``memoize`` keeps the shared rng's stream continuous across hits, so a
  warm FACT re-audit recomputes only invalidated sections and still
  renders byte-identically — for any ``n_jobs``.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.accuracy.bootstrap import (
    IntervalEstimate,
    bootstrap_ci,
    bootstrap_paired_ci,
)
from repro.core.auditor import FACTAuditor
from repro.core.report import FACTReport
from repro.core.scorecard import GreenScorecard, build_scorecard
from repro.data.schema import ColumnRole, Schema, categorical, numeric
from repro.data.synth import CreditScoringGenerator
from repro.data.table import Table
from repro.exceptions import DataError
from repro.fairness.report import FairnessReport, audit_model
from repro.learn.linear import LogisticRegression
from repro.learn.table_model import TableClassifier
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import (
    CleanStage,
    DecideStage,
    FunctionStage,
    PredictStage,
    RedactStage,
    TrainStage,
)
from repro.serve.planner import QueryPlanner, QueryRequest
from repro.store import (
    Artifact,
    ArtifactStore,
    JsonDirBackend,
    MemoryBackend,
    STORE_ENV,
    array_fingerprint,
    canonical,
    code_fingerprint,
    fingerprint,
    object_fingerprint,
    resolve_store,
    table_fingerprint,
)
from repro.store import codec
from repro.transparency.datasheet import Datasheet, build_datasheet
from repro.transparency.model_card import ModelCard


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    """Tests control their stores explicitly; the env must not leak in."""
    monkeypatch.delenv(STORE_ENV, raising=False)


@pytest.fixture(scope="module")
def audit_setup():
    """One small trained model + splits, shared by the audit tests."""
    rng = np.random.default_rng(0)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train, test = generator.generate_pair(500, 300, rng)
    mask = np.arange(test.n_rows) < 120
    calibration, held_out = test.filter(mask), test.filter(~mask)
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, train, held_out, calibration


# -- fingerprints -----------------------------------------------------------------


def test_fingerprint_digests_are_pinned():
    """The promoted planner hash must never drift (cached answers survive)."""
    assert fingerprint(
        table="t", version=2, kind="mean", column="income", epsilon=0.5,
        delta=0.0, lower=0.0, upper=100000.0, q=None, bins=(),
    ) == "5fae49ca5c9314bdaaa1ee5e"
    assert fingerprint(
        table="t", version=1, kind="histogram", column="city", epsilon=1.0,
        delta=0.0, lower=None, upper=None, q=None, bins=("ams", "nyc"),
    ) == "c0732b139d76eb3a4ae266ef"


def test_canonical_collapses_equivalent_values():
    assert fingerprint(x=0.10) == fingerprint(x=1e-1)
    assert fingerprint(x=(1, 2)) == fingerprint(x=[1, 2])
    assert fingerprint(x=np.float64(0.1)) == fingerprint(x=0.1)
    assert fingerprint(a=1, b=2) == fingerprint(b=2, a=1)
    assert canonical((0.5, np.int64(3))) == [repr(0.5), 3]


def test_planner_delegates_to_shared_fingerprint(small_table):
    planner = QueryPlanner()
    planner.register_table("t", small_table)
    plan = planner.plan(QueryRequest(
        tenant="a", kind="mean", column="income",
        lower=0.0, upper=100.0, epsilon=0.5,
    ))
    assert plan.fingerprint == fingerprint(
        table="t", version=1, kind="mean", column="income", epsilon=0.5,
        delta=0.0, lower=0.0, upper=100.0, q=None, bins=(),
    )
    # Re-registering bumps the version, which changes every fingerprint.
    planner.register_table("t", small_table)
    assert planner.plan(QueryRequest(
        tenant="a", kind="mean", column="income",
        lower=0.0, upper=100.0, epsilon=0.5,
    )).fingerprint != plan.fingerprint


def test_array_and_table_fingerprints_hash_content(small_table):
    values = np.asarray([1.0, 2.0, 3.0])
    assert array_fingerprint(values) == array_fingerprint(values.copy())
    assert array_fingerprint(values) != array_fingerprint(values + 1.0)
    # Object-dtype (categorical) columns hash their strings, not pointers.
    strings = np.asarray(["a", "b"], dtype=object)
    assert array_fingerprint(strings) == array_fingerprint(
        np.asarray(["a", "b"], dtype=object)
    )
    fp = table_fingerprint(small_table)
    assert fp == table_fingerprint(small_table)
    changed = small_table.with_column(
        small_table.schema["income"], small_table.column("income") + 1.0
    )
    assert table_fingerprint(changed) != fp


def test_code_fingerprint_tracks_the_implementation():
    # The same definition fingerprints identically across compilations;
    # editing the body (or renaming) invalidates.
    v1, v2, edited = {}, {}, {}
    exec("def stage(x):\n    return x + 1", v1)
    exec("def stage(x):\n    return x + 1", v2)
    exec("def stage(x):\n    return x + 2", edited)
    assert code_fingerprint(v1["stage"]) == code_fingerprint(v2["stage"])
    assert code_fingerprint(v1["stage"]) != code_fingerprint(edited["stage"])

    def renamed(x):
        return x + 1

    assert code_fingerprint(renamed) != code_fingerprint(v1["stage"])

    # Editing a *nested* function must invalidate the outer one too.
    def outer_v1(x):
        def inner(y):
            return y * 2
        return inner(x)

    def outer_v2(x):
        def inner(y):
            return y * 3
        return inner(x)

    assert code_fingerprint(outer_v1) != code_fingerprint(outer_v2)


def test_object_fingerprint_hashes_learned_state(audit_setup):
    model, train, _, _ = audit_setup
    twin = TableClassifier(LogisticRegression()).fit(train)
    assert object_fingerprint(model) == object_fingerprint(twin)
    other = TableClassifier(LogisticRegression(l2=10.0)).fit(train)
    assert object_fingerprint(model) != object_fingerprint(other)


# -- codec ------------------------------------------------------------------------


def test_codec_round_trips_exactly(small_table):
    interval = IntervalEstimate(
        estimate=0.5, lower=0.25, upper=0.75, confidence=0.95, n_resamples=100
    )
    values = np.asarray([0.1, np.nan, -0.0, 1e-300])
    original = {
        "interval": interval,
        "values": values,
        "weird_keys": {1.5: "a", None: "b"},
        "tuple": (1, "two", 3.0),
        "table": small_table,
    }
    restored = codec.loads(codec.dumps(original))
    assert restored["interval"] == interval
    assert restored["values"].dtype == values.dtype
    assert np.array_equal(restored["values"], values, equal_nan=True)
    assert restored["weird_keys"] == {1.5: "a", None: "b"}
    assert restored["tuple"] == (1, "two", 3.0)
    table = restored["table"]
    assert table_fingerprint(table) == table_fingerprint(small_table)
    for name in small_table.column_names:
        assert table.column(name).dtype == small_table.column(name).dtype


def test_codec_refuses_what_it_cannot_replay():
    with pytest.raises(DataError):
        codec.dumps({"fn": lambda x: x})


def test_codec_only_reconstructs_repro_classes():
    """A tampered cache entry must not name arbitrary constructors."""
    payload = json.dumps({
        "__dataclass__": {"class": "subprocess:Popen", "fields": {}}
    })
    with pytest.raises(DataError):
        codec.loads(payload)


def test_string_arrays_travel_as_categories_and_codes(small_table):
    envelope = codec.encode(small_table)["__table__"]["columns"]["city"]
    assert envelope["__strings__"]["categories"] == ["north", "south"]
    assert envelope["__strings__"]["codes"]["__ndarray__"]["dtype"] == "uint8"
    assert "__strarray__" not in codec.dumps(small_table)
    many = np.array([f"v{i}" for i in range(300)] * 2, dtype=object)
    codes = codec.encode(many)["__strings__"]["codes"]["__ndarray__"]
    assert codes["dtype"] == "uint16"
    for array in (many, np.array([["a", ""], ["é", "a"]], dtype=object),
                  np.empty((0, 3), dtype=object),
                  np.array("日本語", dtype=object)):
        restored = codec.loads(codec.dumps(array))
        assert restored.dtype == object and restored.shape == array.shape
        assert [type(item) for item in restored.ravel().tolist()] == (
            [str] * array.size)
        assert restored.tolist() == array.tolist()


def test_decoded_tables_carry_views_but_no_digest(small_table):
    digest = table_fingerprint(small_table)
    restored = codec.loads(codec.dumps(small_table))
    assert restored._digest is None
    assert sorted(restored._content) == ["city", "group", "ssn"]
    assert restored._content["city"][0] == ("north", "south")
    assert table_fingerprint(restored) == digest


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_codec_round_trips_random_tables(data):
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
    n_rows = data.draw(st.integers(0, 12))
    strings = data.draw(st.lists(st.sampled_from(["", "é", "日本語", "a"])
                                 | text, min_size=n_rows, max_size=n_rows))
    floats = data.draw(st.lists(
        st.sampled_from([np.nan, -0.0, 0.0, np.inf]) | st.floats(),
        min_size=n_rows, max_size=n_rows))
    table = Table(Schema([
        categorical("s", role=ColumnRole.SENSITIVE), numeric("x"),
    ]), {"s": strings, "x": floats})
    restored = codec.loads(codec.dumps(table))
    assert restored.schema == table.schema and restored.n_rows == n_rows
    assert restored.column("x").dtype == np.float64
    assert restored.column("x").tobytes() == table.column("x").tobytes()
    assert restored.column("s").dtype == object
    assert restored.column("s").tolist() == strings
    assert all(type(item) is str for item in restored.column("s").tolist())
    assert table_fingerprint(restored) == table_fingerprint(table)


def _table_columns(envelope):
    return envelope["value"]["table"]["__table__"]["columns"]


def _codes(envelope, name="city"):
    return _table_columns(envelope)[name]["__strings__"]["codes"][
        "__ndarray__"]


def _drop_column(envelope):
    del _table_columns(envelope)["city"]


def _missing_attribute(envelope):
    envelope["value"]["interval"]["__dataclass__"]["class"] = (
        "repro.accuracy.bootstrap:NoSuchEstimate")


def _missing_module(envelope):
    envelope["value"]["interval"]["__dataclass__"]["class"] = (
        "repro.no_such_module:IntervalEstimate")


def _out_of_range_code(envelope):
    _codes(envelope)["data"] = "02" + _codes(envelope)["data"][2:]


def _negative_code(envelope):
    _codes(envelope)["dtype"] = "int8"
    _codes(envelope)["data"] = "ff" + _codes(envelope)["data"][2:]


def _non_string_category(envelope):
    _table_columns(envelope)["city"]["__strings__"]["categories"][0] = 5


def _invalid_hex(envelope):
    _codes(envelope)["data"] = "zz" + _codes(envelope)["data"][2:]


def _float_codes(envelope):
    _codes(envelope)["dtype"] = "float64"
    _codes(envelope)["data"] = np.zeros(6).tobytes().hex()


def _ragged_columns(envelope):
    income = _table_columns(envelope)["income"]["__ndarray__"]
    income["shape"] = [5]
    income["data"] = income["data"][:5 * 16]


def _empty_scalar(envelope):
    envelope["value"]["scalar"]["__npscalar__"]["data"] = ""


def _fields_not_a_mapping(envelope):
    envelope["value"]["interval"]["__dataclass__"]["fields"] = []


def _legacy_strarray(envelope):
    _table_columns(envelope)["city"] = {"__strarray__": [
        "north", "north", "south", "south", "north", "south"]}


@pytest.mark.parametrize("tamper", [
    _drop_column, _missing_attribute, _missing_module, _out_of_range_code,
    _negative_code, _non_string_category, _invalid_hex, _float_codes,
    _ragged_columns, _empty_scalar, _fields_not_a_mapping, _legacy_strarray,
], ids=lambda tamper: tamper.__name__.lstrip("_"))
def test_tampered_entries_are_counted_misses(tmp_path, small_table, tamper):
    # Every undecodable entry counts one corruption, is deleted and
    # recomputes the original value; it never raises and never replays
    # a plain dict where a table or a dataclass was stored.
    interval = IntervalEstimate(
        estimate=0.5, lower=0.25, upper=0.75, confidence=0.95, n_resamples=9
    )
    store = ArtifactStore.on_disk(str(tmp_path / "cache"))
    calls = {"n": 0}

    def compute():
        calls["n"] += 1
        return {"table": small_table, "interval": interval,
                "scalar": np.float32(0.5)}

    store.memoize({"stage": "tamper"}, compute)
    (entry,) = list(tmp_path.glob("cache/*.json"))
    envelope = json.loads(entry.read_text())
    tamper(envelope)
    entry.write_text(json.dumps(envelope))
    replay = store.memoize({"stage": "tamper"}, compute)
    assert calls["n"] == 2
    assert store.corruptions == 1
    assert replay["interval"] == interval
    assert replay["scalar"] == 0.5 and isinstance(replay["scalar"], np.float32)
    assert isinstance(replay["table"], Table)
    assert replay["table"] == small_table
    # The recomputed entry replaced the tampered one and replays.
    again = store.memoize({"stage": "tamper"}, compute)
    assert calls["n"] == 2 and store.corruptions == 1
    assert table_fingerprint(again["table"]) == table_fingerprint(small_table)


# -- backends ---------------------------------------------------------------------


def test_memory_backend_evicts_lru_by_entries():
    store = ArtifactStore(MemoryBackend(max_entries=2))
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1  # touch: "b" is now least recent
    store.put("c", 3)
    assert store.get("b") is None
    assert store.get("a") == 1 and store.get("c") == 3
    assert store.backend.evictions == 1


def test_memory_backend_evicts_by_bytes():
    backend = MemoryBackend(max_entries=100, max_bytes=600)
    store = ArtifactStore(backend)
    for index in range(8):
        store.put(f"k{index}", list(range(20)))
    assert backend.total_bytes <= 600
    assert backend.evictions > 0
    # A value larger than the whole budget is silently never cached.
    store.put("huge", list(range(2000)))
    assert "huge" not in store


def test_json_backend_persists_and_evicts(tmp_path):
    path = str(tmp_path / "cache")
    first = ArtifactStore.on_disk(path)
    first.put("answer", {"x": (1, 2.5)})
    second = ArtifactStore.on_disk(path)
    assert second.get("answer") == {"x": (1, 2.5)}

    bounded = ArtifactStore(JsonDirBackend(path, max_entries=2))
    bounded.put("b", 2)
    bounded.put("c", 3)
    assert len(bounded.backend) <= 2


def test_corrupt_entry_is_a_counted_miss_never_a_crash(tmp_path):
    store = ArtifactStore.on_disk(str(tmp_path / "cache"))
    calls = {"n": 0}

    def compute():
        calls["n"] += 1
        return np.asarray([1.0, 2.0])

    result = store.memoize({"stage": "t"}, compute)
    assert calls["n"] == 1
    # Truncate the single entry on disk, as a crashed writer out-of-band
    # or a bad disk would.
    (entry,) = list(tmp_path.glob("cache/*.json"))
    entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
    replay = store.memoize({"stage": "t"}, compute)
    assert calls["n"] == 2
    assert np.array_equal(replay, result)
    assert store.corruptions == 1
    # The third ask replays the freshly recomputed entry.
    store.memoize({"stage": "t"}, compute)
    assert calls["n"] == 2


def test_get_of_tampered_payload_returns_default():
    store = ArtifactStore()
    store.put("k", 1)
    store.backend._entries["k"] = "{not json"
    assert store.get("k", default="fallback") == "fallback"
    assert store.corruptions == 1
    assert store.misses == 1
    assert "k" not in store


class _UnreadableMemory(MemoryBackend):
    def get(self, key):
        raise AssertionError("a presence check read the payload")


class _UnreadableDir(JsonDirBackend):
    def get(self, key):
        raise AssertionError("a presence check read the payload")


@pytest.mark.parametrize("make_backend", [
    lambda path: _UnreadableMemory(),
    lambda path: _UnreadableDir(str(path / "cache")),
], ids=["memory", "json-dir"])
def test_presence_checks_read_no_payload(tmp_path, make_backend):
    store = ArtifactStore(make_backend(tmp_path))
    store.put("present", list(range(100)))
    assert store.probe("present") is True
    assert store.probe("absent") is False
    assert "present" in store and "absent" not in store
    # probe counts like a lookup; ``in`` counts nothing.
    assert (store.hits, store.misses, store.bytes_read) == (1, 1, 0)


def test_a_probe_of_several_entries_counts_one_lookup():
    # A spilled partial is one artifact stored as one entry per field.
    store = ArtifactStore(MemoryBackend())
    store.put("a", 1)
    store.put("b", 2)
    assert store.probe("a", "b") is True
    assert store.probe("a", "absent", "b") is False
    assert (store.hits, store.misses, store.bytes_read) == (1, 1, 0)


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "json-dir"])
def test_presence_checks_refresh_lru_recency(tmp_path, on_disk):
    # A probed spill partial is read next, so it must not be evicted first.
    backend = (JsonDirBackend(str(tmp_path / "cache"), max_entries=2)
               if on_disk else MemoryBackend(max_entries=2))
    store = ArtifactStore(backend)
    store.put("a", 1)
    store.put("b", 2)
    if on_disk:  # mtimes order the LRU; make "a" the stalest entry
        os.utime(backend._file("a"), (1, 1))
        os.utime(backend._file("b"), (2, 2))
    assert store.probe("a")
    store.put("c", 3)
    assert sorted(backend.keys()) == ["a", "c"]


# -- memoization ------------------------------------------------------------------


def test_memoize_replays_and_keeps_the_rng_stream_continuous():
    store = ArtifactStore()
    calls = {"n": 0}

    def run(rng):
        def compute():
            calls["n"] += 1
            return float(rng.normal())
        first = store.memoize({"stage": "draw"}, compute, rng=rng)
        downstream = float(rng.normal())  # drawn *after* the memoized stage
        return first, downstream

    cold = run(np.random.default_rng(42))
    warm = run(np.random.default_rng(42))
    assert calls["n"] == 1
    assert warm == cold  # both the value and the downstream draw


def test_memoize_key_includes_rng_state():
    store = ArtifactStore()
    calls = {"n": 0}

    def compute():
        calls["n"] += 1
        return 1

    store.memoize({"stage": "s"}, compute, rng=np.random.default_rng(1))
    store.memoize({"stage": "s"}, compute, rng=np.random.default_rng(2))
    assert calls["n"] == 2


def test_invalidate_tag_drops_dependents(small_table):
    store = ArtifactStore()
    table_tag = f"table:{table_fingerprint(small_table)}"
    store.memoize({"stage": "a"}, lambda: 1, tags=(table_tag,))
    store.memoize({"stage": "b"}, lambda: 2, tags=(table_tag,))
    store.memoize({"stage": "c"}, lambda: 3)
    assert store.invalidate_tag(table_tag) == 2
    assert len(store) == 1
    calls = {"n": 0}

    def recompute():
        calls["n"] += 1
        return 1

    store.memoize({"stage": "a"}, recompute, tags=(table_tag,))
    assert calls["n"] == 1


def test_store_counters_mirror_into_obs(tmp_path):
    obs.configure(export_path=str(tmp_path / "t.jsonl"))
    try:
        store = ArtifactStore(name="mirrored")
        store.memoize({"stage": "s"}, lambda: 1)
        store.memoize({"stage": "s"}, lambda: 1)
        telemetry = obs.get()
        snapshot = {
            (record["name"], record["labels"].get("store")): record["value"]
            for record in telemetry.metrics.to_dicts()
            if record["record"] == "metric"
            and record["name"].startswith("store.")
        }
        assert snapshot[("store.hits", "mirrored")] == 1
        assert snapshot[("store.misses", "mirrored")] == 1
        assert snapshot[("store.puts", "mirrored")] == 1
        assert snapshot[("store.bytes_written", "mirrored")] > 0
    finally:
        obs.reset()


# -- env fallback -----------------------------------------------------------------


def test_resolve_store_prefers_explicit_then_env(tmp_path, monkeypatch):
    explicit = ArtifactStore()
    assert resolve_store(explicit) is explicit
    assert resolve_store(None) is None

    monkeypatch.setenv(STORE_ENV, "memory")
    env_store = resolve_store(None)
    assert isinstance(env_store.backend, MemoryBackend)
    assert resolve_store(None) is env_store  # one shared store per target
    assert resolve_store(explicit) is explicit  # explicit still wins

    target = str(tmp_path / "env-cache")
    monkeypatch.setenv(STORE_ENV, target)
    disk_store = resolve_store(None)
    assert isinstance(disk_store.backend, JsonDirBackend)
    disk_store.put("k", 1)
    assert os.listdir(target)


def _quantile_statistic(q):
    return lambda values: float(np.quantile(values, q))


def _accuracy_at(threshold):
    return lambda y_true, scores: float(
        np.mean((scores >= threshold) == y_true)
    )


def test_env_store_memoises_audits_not_helper_calls(monkeypatch, audit_setup):
    """``$REPRO_STORE`` caches plan nodes only, never a helper's result.

    The two closures of each pair share their code and differ only in a
    captured cell, which a code fingerprint cannot see: a helper-level
    memo keyed on it would replay the first closure's interval for the
    second.
    """
    values = np.random.default_rng(0).normal(size=200)
    y_true = (np.random.default_rng(1).random(300) < 0.5).astype(float)
    scores = np.random.default_rng(2).random(300)

    def intervals():
        return [
            *(bootstrap_ci(values, _quantile_statistic(q),
                           np.random.default_rng(5), n_resamples=50)
              for q in (0.1, 0.9)),
            *(bootstrap_paired_ci(y_true, scores, _accuracy_at(threshold),
                                  np.random.default_rng(5), n_resamples=50)
              for threshold in (0.2, 0.8)),
        ]

    monkeypatch.delenv(STORE_ENV, raising=False)
    reference = intervals()
    assert reference[0] != reference[1] and reference[2] != reference[3]

    monkeypatch.setenv(STORE_ENV, "memory")
    env_store = resolve_store(None)
    env_store.clear()
    assert intervals() == reference

    model, _, test, calibration = audit_setup
    auditor = FACTAuditor(n_bootstrap=40)  # store=None: defers to the env
    cold = auditor.audit(model, test, np.random.default_rng(7),
                         calibration=calibration)
    puts_after_cold = env_store.puts
    assert puts_after_cold > 0
    warm = auditor.audit(model, test, np.random.default_rng(7),
                         calibration=calibration)
    assert env_store.puts == puts_after_cold
    assert warm.fingerprint() == cold.fingerprint()


# -- determinism with repro.parallel ----------------------------------------------


def test_store_is_transparent_across_n_jobs_and_backends(audit_setup):
    """n_jobs stays out of cache keys: one cold audit serves every setting."""
    model, _, test, calibration = audit_setup
    store = ArtifactStore()
    cold = FACTAuditor(n_bootstrap=40, n_jobs=1, store=store).audit(
        model, test, np.random.default_rng(7), calibration=calibration
    )
    for backend in ("thread", "process"):
        before = store.stats()
        warm = FACTAuditor(n_bootstrap=40, n_jobs=2, backend=backend,
                           store=store).audit(
            model, test, np.random.default_rng(7), calibration=calibration
        )
        after = store.stats()
        # One map node plus four sections, every one a hit.
        assert after["hits"] - before["hits"] == 5
        assert after["misses"] == before["misses"]
        assert after["puts"] == before["puts"]
        assert warm.fingerprint() == cold.fingerprint()


# -- the incremental FACT re-audit ------------------------------------------------


def test_fact_audit_replays_bit_identically(audit_setup):
    model, _, test, calibration = audit_setup
    store = ArtifactStore()
    auditor = FACTAuditor(n_bootstrap=40, store=store)

    cold = auditor.audit(model, test, np.random.default_rng(7),
                         calibration=calibration)
    puts_after_cold = store.puts
    warm = auditor.audit(model, test, np.random.default_rng(7),
                         calibration=calibration)
    assert warm.render() == cold.render()
    assert warm.fingerprint() == cold.fingerprint()
    assert store.puts == puts_after_cold  # nothing recomputed

    # The store must be invisible in the result: a storeless audit of the
    # same inputs renders the same bytes.
    bare = FACTAuditor(n_bootstrap=40).audit(
        model, test, np.random.default_rng(7), calibration=calibration
    )
    assert bare.render() == cold.render()


def test_fact_audit_recomputes_only_the_invalidated_section(audit_setup):
    model, _, test, calibration = audit_setup
    store = ArtifactStore()
    auditor = FACTAuditor(n_bootstrap=40, store=store)
    auditor.audit(model, test, np.random.default_rng(7),
                  calibration=calibration)

    misses_before = store.misses
    changed = FACTAuditor(n_bootstrap=40, surrogate_depth=3, store=store)
    warm = changed.audit(model, test, np.random.default_rng(7),
                         calibration=calibration)
    # Only the transparency section misses; the recompute runs its
    # surrogate and permutation importance afresh.
    assert store.misses - misses_before == 1

    bare = FACTAuditor(n_bootstrap=40, surrogate_depth=3).audit(
        model, test, np.random.default_rng(7), calibration=calibration
    )
    assert warm.render() == bare.render()


def test_table_change_invalidates_the_audit(audit_setup):
    model, _, test, calibration = audit_setup
    store = ArtifactStore()
    auditor = FACTAuditor(n_bootstrap=40, store=store)
    auditor.audit(model, test, np.random.default_rng(7),
                  calibration=calibration)
    dropped = store.invalidate_tag(f"table:{table_fingerprint(test)}")
    assert dropped >= 4  # all four sections depended on the table
    puts_before = store.puts
    auditor.audit(model, test, np.random.default_rng(7),
                  calibration=calibration)
    assert store.puts > puts_before  # really recomputed


# -- pipeline stage caching -------------------------------------------------------


def _make_pipeline(store):
    return Pipeline([
        CleanStage(),
        RedactStage(),
        TrainStage(TableClassifier(LogisticRegression())),
        PredictStage(),
        DecideStage(threshold=0.4),
    ], store=store)


def test_pipeline_replays_cacheable_stages(audit_setup):
    _, train, _, _ = audit_setup
    store = ArtifactStore()
    cold = _make_pipeline(store).run(train, np.random.default_rng(3))
    hits_cold = store.hits
    warm = _make_pipeline(store).run(train, np.random.default_rng(3))
    assert store.hits > hits_cold
    bare = _make_pipeline(None).run(train, np.random.default_rng(3))
    for result in (warm, bare):
        for name in cold.table.column_names:
            assert np.array_equal(
                result.table.column(name), cold.table.column(name)
            ), name
    # The FACT trail records hits exactly as it records recomputes.
    assert len(warm.context.audit) == len(cold.context.audit)
    assert warm.context.provenance.n_steps == cold.context.provenance.n_steps


def test_function_stage_opts_into_caching(audit_setup):
    _, train, _, _ = audit_setup
    store = ArtifactStore()
    calls = {"n": 0}

    def double_income(table):
        calls["n"] += 1
        spec = table.schema["income"]
        return table.with_column(spec, table.column("income") * 2.0)

    def build():
        return Pipeline([
            CleanStage(),
            FunctionStage("double", double_income, cacheable=True),
        ], store=store)

    first = build().run(train, np.random.default_rng(1))
    second = build().run(train, np.random.default_rng(1))
    assert calls["n"] == 1
    assert np.array_equal(first.table.column("income"),
                          second.table.column("income"))
    # Uncacheable by default: the escape hatch stays safe for impure fns.
    assert FunctionStage("anon", double_income).cacheable is False


# -- the unified Artifact API -----------------------------------------------------


def test_every_report_class_is_an_artifact(audit_setup, small_table):
    model, train, test, _ = audit_setup
    report = FACTAuditor(n_bootstrap=30).audit(
        model, test, np.random.default_rng(7)
    )
    artifacts = [
        report,
        build_scorecard(report),
        audit_model(model, test),
        build_datasheet(train, "credit-train", "synthetic"),
        ModelCard(
            name="credit", model_type="LogisticRegression",
            intended_use="tests", hyperparameters={"l2": 1.0},
            training_rows=train.n_rows, evaluation_rows=test.n_rows,
            metrics={"accuracy": "0.8"},
        ),
    ]
    assert [type(a) for a in artifacts] == [
        FACTReport, GreenScorecard, FairnessReport, Datasheet, ModelCard
    ]
    for artifact in artifacts:
        assert isinstance(artifact, Artifact)
        payload = artifact.to_json()
        assert json.loads(payload) == artifact.to_dict()
        digest = artifact.fingerprint()
        assert isinstance(digest, str) and len(digest) == 24
        assert artifact.fingerprint() == digest  # stable

    # FACTReport keeps its curated to_dict (scalars, stable keys).
    assert report.to_dict()["subject"] == report.subject

    # Same content => same hash; different content => different hash.
    scorecard = build_scorecard(report)
    clone = GreenScorecard(**scorecard.to_dict())
    assert clone.fingerprint() == scorecard.fingerprint()
    bumped = GreenScorecard(
        fairness=scorecard.fairness + 1.0, accuracy=scorecard.accuracy,
        confidentiality=scorecard.confidentiality,
        transparency=scorecard.transparency,
    )
    assert bumped.fingerprint() != scorecard.fingerprint()
