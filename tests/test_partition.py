"""Tests for partitioned tables, shard-aware plans, and sharded audits.

The contract under test is ISSUE 10's tentpole: ``partition``/``concat``
round-trip byte-identically, per-shard fingerprints compose into one
dataset identity, the shard-map engine template fans out on the
engine's threads with per-shard cache keys and spilled partials, and
the sharded FACT audit is **byte-identical** to the serial unsharded
path at every shard count, worker count, backend, and store setting.
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core import FACTAuditor
from repro.data import (
    PartitionedTable,
    merge_counts,
    partition,
    three_way_split,
)
from repro.data.schema import Schema, categorical, numeric
from repro.data.synth import CensusIncomeGenerator
from repro.data.table import Table
from repro.engine import (
    Executor,
    Node,
    Plan,
    combine_node,
    seed_identity,
    shard_map_nodes,
)
from repro.engine import sharding
from repro.exceptions import DataError, PlanError, SchemaError
from repro.learn.linear import LogisticRegression
from repro.learn.table_model import TableClassifier
from repro.store import (
    ArtifactStore,
    JsonDirBackend,
    MemoryBackend,
    fingerprint,
    resolve_spilled,
    table_fingerprint,
)
from repro.store.store import Spilled


@pytest.fixture(scope="module")
def census():
    return CensusIncomeGenerator().generate(240, np.random.default_rng(7))


@pytest.fixture(scope="module")
def fitted(census):
    train, calibration, test = three_way_split(
        census, 0.3, 0.2, np.random.default_rng(17)
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, calibration, test


def _auditor(**overrides):
    settings = dict(n_bootstrap=16, n_jobs=1, backend="thread", store=None)
    settings.update(overrides)
    return FACTAuditor(**settings)


# -- PartitionedTable ---------------------------------------------------------


class TestPartitionedTable:
    def test_round_trip_is_byte_identical(self, census):
        for shards in (1, 3, 7):
            restored = partition(census, n_shards=shards).concat()
            assert table_fingerprint(restored) == table_fingerprint(census)

    def test_max_rows_partitioning(self, census):
        parts = partition(census, max_rows=100)
        assert [parts.shard_n_rows(i) for i in range(parts.n_shards)] == \
            [100, 100, 40]
        assert table_fingerprint(parts.concat()) == \
            table_fingerprint(census)

    def test_exactly_one_sizing_argument(self, census):
        with pytest.raises(DataError):
            partition(census)
        with pytest.raises(DataError):
            partition(census, n_shards=2, max_rows=10)

    def test_dataset_fingerprint_composes_shard_fingerprints(self, census):
        parts = partition(census, n_shards=4)
        # Same content, different layout -> different dataset identity.
        other = partition(census, n_shards=2)
        assert parts.__content_fingerprint__() != \
            other.__content_fingerprint__()
        # Editing one shard changes exactly that shard's fingerprint.
        before = parts.shard_fingerprints()
        edited_shard = parts.shard(1)
        ages = edited_shard.column("age").copy()
        ages[0] += 1.0
        edited = parts.replaced(
            1, edited_shard.with_column(edited_shard.schema["age"], ages)
        )
        after = edited.shard_fingerprints()
        assert after[1] != before[1]
        assert [fp for i, fp in enumerate(after) if i != 1] == \
            [fp for i, fp in enumerate(before) if i != 1]
        assert edited.__content_fingerprint__() != \
            parts.__content_fingerprint__()

    def test_shards_must_share_the_schema_signature(self, census):
        stranger = Table(Schema([numeric("x")]), {"x": np.arange(4.0)})
        with pytest.raises(SchemaError):
            PartitionedTable([census.slice(0, 10), stranger])

    def test_lazy_sources_validate_on_load(self, census):
        parts = PartitionedTable.from_sources(
            [lambda: census.slice(0, 100), lambda: census.slice(100, 240)],
            schema=census.schema,
            shard_rows=(100, 140),
        )
        assert parts.n_rows == 240
        assert table_fingerprint(parts.concat()) == \
            table_fingerprint(census)
        lying = PartitionedTable.from_sources(
            [lambda: census.slice(0, 100)], schema=census.schema,
            shard_rows=(99,),
        )
        with pytest.raises(DataError):
            lying.shard(0)

    def test_slice_bounds_checked(self, census):
        with pytest.raises(DataError):
            census.slice(-1, 5)
        with pytest.raises(DataError):
            census.slice(0, census.n_rows + 1)


# -- streaming concat / chunked joins ----------------------------------------


class TestStreamingConcat:
    def test_concat_accepts_a_pure_iterator(self, census):
        chunks = (census.slice(i, i + 60) for i in range(0, 240, 60))
        assert table_fingerprint(Table.concat(chunks)) == \
            table_fingerprint(census)

    def test_concat_rejects_empty_iterators(self):
        with pytest.raises(DataError):
            Table.concat(iter(()))

    def test_chunked_join_matches_whole_table_join(self, census):
        from repro.relational import inner_join, left_join

        zips = np.unique(census.column("zipcode"))
        fan_out_dim = Table(
            Schema([categorical("zipcode"), numeric("median_rent")]),
            {"zipcode": np.repeat(zips, 2),
             "median_rent": np.arange(2.0 * len(zips))},
        )
        whole = inner_join(census, fan_out_dim, "zipcode")
        chunked = inner_join(
            partition(census, n_shards=5).shards(), fan_out_dim, "zipcode"
        )
        assert table_fingerprint(chunked) == table_fingerprint(whole)
        # Chunk-local fan-out may differ per chunk; role promotion must
        # still be global, exactly as the single join derives it.
        assert [(s.name, s.role) for s in chunked.schema] == \
            [(s.name, s.role) for s in whole.schema]
        assert table_fingerprint(
            left_join(partition(census, n_shards=3).shards(),
                      fan_out_dim, "zipcode")
        ) == table_fingerprint(left_join(census, fan_out_dim, "zipcode"))


# -- mergeable summaries ------------------------------------------------------


class TestMergeableSummaries:
    def test_merge_counts_is_exact(self):
        merged = merge_counts([{"a": 2, "b": 1}, {"b": 3, "c": 1}, {"a": 1}])
        assert merged == {"a": 3, "b": 4, "c": 1}


# -- shard-aware engine nodes -------------------------------------------------


def _count_rows(shard):
    return {"n": shard.n_rows}


def _sum_rows(partials, extras, rng):
    return sum(p["n"] for p in partials)


def _rows_plan(parts):
    """Count rows per shard, then sum them in ``rows.combine``."""
    maps = shard_map_nodes("rows", parts, _count_rows, fields=("n",))
    return Plan([*maps, combine_node("rows.combine", maps, _sum_rows)])


class TestShardMap:
    def test_spill_requires_a_cacheable_node(self):
        with pytest.raises(PlanError):
            Node("bad", lambda i, r: 0, cacheable=False, spill=("n",))

    def test_spill_and_warm_replay(self, census):
        parts = partition(census, n_shards=3)
        store = ArtifactStore(MemoryBackend(), name="spill")
        plan = _rows_plan(parts)
        cold = Executor(n_jobs=1, name="t").run(plan, store=store)
        assert cold["rows.combine"] == census.n_rows
        assert isinstance(cold["rows.shard0"], Spilled)
        assert set(cold.statuses.values()) == {"miss"}
        warm = Executor(n_jobs=1, name="t").run(plan, store=store)
        assert warm["rows.combine"] == census.n_rows
        assert set(warm.statuses.values()) == {"hit"}
        # Partials are tagged by shard content fingerprint.
        assert store.invalidate_tag(
            f"shard:{parts.shard_fingerprint(0)}"
        ) == 1

    def test_storeless_runs_pass_raw_partials(self, census):
        parts = partition(census, n_shards=3)
        result = Executor(n_jobs=1, name="t").run(_rows_plan(parts))
        assert result["rows.combine"] == census.n_rows
        assert isinstance(result["rows.shard1"], dict)


# -- byte-identity of the sharded FACT audit ---------------------------------


class TestShardedAuditByteIdentity:
    @pytest.fixture(scope="class")
    def serial_fingerprint(self, fitted):
        model, calibration, test = fitted
        report = _auditor().audit(
            model, test, np.random.default_rng(99), calibration=calibration
        )
        return report.fingerprint()

    @pytest.mark.parametrize("n_shards", (1, 4, 7))
    @pytest.mark.parametrize("n_jobs", (1, 2, 4))
    @pytest.mark.parametrize("backend", ("thread", "process"))
    @pytest.mark.parametrize("with_store", (False, True))
    def test_matrix(self, fitted, serial_fingerprint, n_shards, n_jobs,
                    backend, with_store):
        model, calibration, test = fitted
        store = (ArtifactStore(MemoryBackend(), name="m")
                 if with_store else None)
        report = _auditor(n_jobs=n_jobs, backend=backend, store=store).audit(
            model, partition(test, n_shards=n_shards),
            np.random.default_rng(99), calibration=calibration,
        )
        assert report.fingerprint() == serial_fingerprint

    def test_shards_constructor_convenience(self, fitted, serial_fingerprint):
        model, calibration, test = fitted
        report = _auditor(shards=3).audit(
            model, test, np.random.default_rng(99), calibration=calibration
        )
        assert report.fingerprint() == serial_fingerprint

    def test_notes_match_the_serial_path(self, fitted):
        model, calibration, test = fitted
        serial = _auditor().audit(model, test, np.random.default_rng(99))
        sharded = _auditor().audit(
            model, partition(test, n_shards=4), np.random.default_rng(99)
        )
        assert sharded.notes == serial.notes
        assert sharded.fingerprint() == serial.fingerprint()


class TestSpilledPartialTraffic:
    def test_one_shard_partial_is_never_read_back(self, fitted):
        # A level's only spill hands its fresh value to the combines: a
        # cold audit of a plain table commits its one partial without
        # decoding it back, while two shards resolve from the store.  The
        # notes come from inside the plan, so a warm re-audit reads only
        # the four sections at either shard count.
        model, calibration, test = fitted
        cold, warm = {}, {}
        for n_shards, data in ((1, test), (2, partition(test, n_shards=2))):
            store = ArtifactStore(MemoryBackend(), name="spill")
            auditor = _auditor(store=store)
            auditor.audit(model, data, np.random.default_rng(99),
                          calibration=calibration)
            cold[n_shards] = store.bytes_read
            auditor.audit(model, data, np.random.default_rng(99),
                          calibration=calibration)
            warm[n_shards] = store.bytes_read - cold[n_shards]
        assert cold[1] == 0
        assert cold[2] > 0
        assert warm[1] == warm[2] > 0


class TestStoreTrafficMatrix:
    # Cold then warm audits on every schedule: one report, the same
    # per-node outcomes, and the same store traffic.  Each shard partial
    # spills as eight field entries (puts), a warm map node's one probe
    # covers all eight (one hit), and a cold combine reads only its
    # declared fields: fairness 4, accuracy 5 with calibration,
    # confidentiality 3 and transparency 2, so 14 reads per shard at 4
    # shards, while the one shard's held value is never read back.  The
    # partials' string arrays travel as categories plus one-byte codes.
    # Each node is one lookup and one commit: the helpers inside the
    # sections memoise nothing of their own, so a cold one-shard audit
    # misses five times (one map node, four sections).
    SCHEDULES = ((1, "serial"), (1, "thread"), (2, "thread"), (2, "process"))
    FIELDS = ("hits", "misses", "puts", "corruptions", "bytes_written",
              "bytes_read")
    TRAFFIC = {
        1: ((0, 5, 12, 0, 20396, 0), (5, 0, 0, 0, 0, 2850)),
        4: ((56, 8, 36, 0, 23513, 38323), (8, 0, 0, 0, 0, 2850)),
    }

    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_cold_then_warm(self, fitted, n_shards):
        model, calibration, test = fitted
        data = test if n_shards == 1 else partition(test, n_shards=n_shards)
        nodes = [f"audit:partial.shard{index}" for index in range(n_shards)]
        nodes += ["audit:fairness", "audit:accuracy", "audit:confidentiality",
                  "audit:transparency"]
        fingerprints = set()
        for n_jobs, backend in self.SCHEDULES:
            store = ArtifactStore(MemoryBackend(), name="traffic")
            auditor = _auditor(n_jobs=n_jobs, backend=backend, store=store)
            traffic = []
            for status in ("miss", "hit"):
                telemetry = obs.configure()
                try:
                    before = store.stats()
                    report = auditor.audit(model, data,
                                           np.random.default_rng(99),
                                           calibration=calibration)
                    after = store.stats()
                    statuses = {
                        span.name: span.attributes["cache"]
                        for span in telemetry.tracer.spans
                        if span.name.startswith("audit:")
                    }
                finally:
                    obs.reset()
                assert statuses == dict.fromkeys(nodes, status), (
                    n_jobs, backend)
                fingerprints.add(report.fingerprint())
                traffic.append(tuple(after[field] - before[field]
                                     for field in self.FIELDS))
            assert tuple(traffic) == self.TRAFFIC[n_shards], (n_jobs, backend)
        assert len(fingerprints) == 1


class TestIncrementalShardedReaudit:
    def test_one_shard_edit_recomputes_only_that_shard(self, fitted):
        model, calibration, test = fitted
        parts = partition(test, n_shards=4)
        store = ArtifactStore(MemoryBackend(), name="inc")
        auditor = _auditor(store=store)
        executor = Executor(n_jobs=1, name="audit")
        plan = auditor.build_plan(model, parts, calibration)
        cold = executor.run(plan, store=store, rng=np.random.default_rng(1))
        assert set(cold.statuses.values()) == {"miss"}

        # Edit shard 2 only.
        shard = parts.shard(2)
        hours = shard.column("hours_per_week").copy()
        hours[0] += 1.0
        edited = parts.replaced(
            2, shard.with_column(shard.schema["hours_per_week"], hours)
        )
        replan = auditor.build_plan(model, edited, calibration)
        rerun = executor.run(replan, store=store,
                             rng=np.random.default_rng(1))
        statuses = rerun.statuses
        # Only the edited shard's map key misses; siblings replay.
        assert statuses["partial.shard2"] == "miss"
        assert statuses["partial.shard0"] == "hit"
        assert statuses["partial.shard1"] == "hit"
        assert statuses["partial.shard3"] == "hit"
        # The combines consume the changed partial, so they recompute.
        assert statuses["fairness"] == "miss"
        assert statuses["accuracy"] == "miss"

        # An identical rebuild replays everything.
        warm = executor.run(
            auditor.build_plan(model, parts, calibration),
            store=store, rng=np.random.default_rng(1),
        )
        assert set(warm.statuses.values()) == {"hit"}


# -- per-field spill layout ---------------------------------------------------


def _two_field_map(shard):
    return {"n": shard.n_rows, "hours": shard.column("hours_per_week")}


def _fields_plan(parts, fields, fn):
    """Two-field map nodes and one combine reading ``fields``."""
    maps = shard_map_nodes("rows", parts, _two_field_map,
                           fields=("n", "hours"))
    return Plan([*maps, combine_node("rows.combine", maps, fn,
                                     fields=fields)])


def _sum_hours(partials, extras, rng):
    return sum(float(partial["hours"].sum()) for partial in partials)


class TestFieldDeclarations:
    def test_spill_names_its_fields(self):
        with pytest.raises(PlanError, match="spill names the fields"):
            Node("bad", lambda i, r: 0, spill=True)
        with pytest.raises(PlanError, match="duplicate field"):
            Node("bad", lambda i, r: 0, spill=("n", "n"))
        with pytest.raises(PlanError, match="must declare its fields"):
            shard_map_nodes("rows", partition(Table(
                Schema([numeric("x")]), {"x": np.arange(4.0)}
            ), n_shards=2), _count_rows, fields=())

    @pytest.mark.parametrize("with_store", (False, True),
                             ids=["raw", "store"])
    @pytest.mark.parametrize("value, message", [
        (7, "must return a dict of its fields"),
        ({"n": 1}, "did not return its declared field 'hours'"),
        ({"n": 1, "hours": 2, "extra": 3}, "undeclared field 'extra'"),
    ], ids=["not-a-dict", "missing", "extra"])
    def test_map_value_must_hold_exactly_its_fields(self, census,
                                                    with_store, value,
                                                    message):
        maps = shard_map_nodes("rows", partition(census, n_shards=2),
                               lambda shard: value, fields=("n", "hours"))
        plan = Plan([*maps, combine_node("rows.combine", maps, _sum_rows)])
        store = ArtifactStore(MemoryBackend()) if with_store else None
        with pytest.raises(PlanError, match=message) as raised:
            Executor(n_jobs=1, name="t").run(plan, store=store)
        assert "'rows.shard0'" in str(raised.value)
        if store is not None:
            assert len(store) == 0  # nothing of it was committed

    def test_combine_fields_must_come_from_its_maps(self, census):
        maps = shard_map_nodes("rows", partition(census, n_shards=2),
                               _two_field_map, fields=("n", "hours"))
        with pytest.raises(PlanError,
                           match="'age', which map node 'rows.shard0'"):
            combine_node("c", maps, _sum_rows, fields=("n", "age"))
        with pytest.raises(PlanError, match="declares no fields"):
            combine_node("c", [Node("plain", lambda i, r: 0)], _sum_rows)
        assert combine_node("c", maps, _sum_rows).inputs == \
            ("rows.shard0", "rows.shard1")

    @pytest.mark.parametrize("n_shards, with_store", [
        (2, False), (1, True), (2, True),
    ], ids=["raw", "held", "spilled"])
    def test_undeclared_field_fails_on_every_schedule(self, census,
                                                      n_shards, with_store):
        parts = partition(census, n_shards=n_shards)
        store = ArtifactStore(MemoryBackend()) if with_store else None
        executor = Executor(n_jobs=1, name="t")
        with pytest.raises(KeyError, match="hours"):
            executor.run(_fields_plan(parts, ("n",), _sum_hours),
                         store=store)
        declared = executor.run(
            _fields_plan(parts, ("n", "hours"), _sum_hours), store=store
        )
        assert declared["rows.combine"] == sum(
            float(shard.column("hours_per_week").sum())
            for shard in parts.shards()
        )


class TestPerFieldSpill:
    def test_each_field_is_one_entry_tagged_by_its_shard(self, census):
        parts = partition(census, n_shards=2)
        store = ArtifactStore(MemoryBackend())
        result = Executor(n_jobs=1, name="t").run(
            _fields_plan(parts, ("n",), _sum_rows), store=store
        )
        ref = result["rows.shard0"]
        assert isinstance(ref, Spilled) and ref.fields == ("n", "hours")
        assert ref.key not in store  # nothing under the node key itself
        assert len({ref.field_key(field) for field in ref.fields}) == 2
        assert all(ref.field_key(field) in store for field in ref.fields)
        whole = resolve_spilled(ref)
        assert list(whole) == ["n", "hours"]
        assert whole["n"] == parts.shard_n_rows(0)
        assert resolve_spilled(ref, ("hours",)).keys() == {"hours"}
        assert store.invalidate_tag(
            f"shard:{parts.shard_fingerprint(0)}"
        ) == 2

    @pytest.mark.parametrize("on_disk", [False, True],
                             ids=["memory", "json-dir"])
    def test_a_probe_hit_refreshes_every_field(self, tmp_path, census,
                                               on_disk):
        # A warm map node's presence check touches every field entry: the
        # fields a combine reads next must not be evicted first.
        backend = (JsonDirBackend(str(tmp_path / "cache")) if on_disk
                   else MemoryBackend())
        store = ArtifactStore(backend)
        plan = _fields_plan(partition(census, n_shards=2), ("n",),
                            _sum_rows)
        cold = Executor(n_jobs=1, name="t").run(plan, store=store)
        field_keys = [
            ref.field_key(field)
            for ref in (cold["rows.shard0"], cold["rows.shard1"])
            for field in ref.fields
        ]
        if on_disk:  # mtimes order the LRU; make every entry stale
            for key in backend.keys():
                os.utime(backend._file(key), (1, 1))
        else:
            store.put("newer", 1)
        warm = Executor(n_jobs=1, name="t").run(plan, store=store)
        assert set(warm.statuses.values()) == {"hit"}
        if on_disk:
            assert all(os.stat(backend._file(key)).st_mtime > 1
                       for key in field_keys)
        else:
            assert backend.keys()[0] == "newer"
            assert set(backend.keys()[1:5]) == set(field_keys)

    def test_a_shard_missing_one_field_recomputes(self, census):
        parts = partition(census, n_shards=2)
        store = ArtifactStore(MemoryBackend())
        plan = _fields_plan(parts, ("n",), _sum_rows)
        cold = Executor(n_jobs=1, name="t").run(plan, store=store)
        store.invalidate(cold["rows.shard1"].field_key("hours"))
        rerun = Executor(n_jobs=1, name="t").run(plan, store=store)
        assert rerun.statuses == {"rows.shard0": "hit",
                                  "rows.shard1": "miss",
                                  "rows.combine": "hit"}
        assert cold["rows.shard1"].field_key("hours") in store


#: The fields each FACT section declares (calibration adds accuracy's
#: conformal inputs).
SECTION_FIELDS = {
    "fairness": ("labels", "probabilities", "decisions", "sensitive"),
    "accuracy": ("labels", "probabilities", "decisions"),
    "confidentiality": ("qi", "qi_nan", "n_rows"),
    "transparency": ("X", "labels"),
}
CALIBRATION_FIELDS = ("X", "sensitive")


def _declared_fields(with_calibration: bool) -> dict:
    fields = dict(SECTION_FIELDS)
    if with_calibration:
        fields["accuracy"] += CALIBRATION_FIELDS
    return fields


class _SpyMemory(MemoryBackend):
    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, key):
        self.reads.append(key)
        return super().get(key)


class _SpyDir(JsonDirBackend):
    def __init__(self, path):
        super().__init__(path)
        self.reads = []

    def get(self, key):
        self.reads.append(key)
        return super().get(key)


class TestCombinesReadDeclaredFields:
    @pytest.mark.parametrize("n_shards", (1, 4))
    @pytest.mark.parametrize("with_calibration", (False, True),
                             ids=["no-calibration", "calibration"])
    @pytest.mark.parametrize("make_backend", [
        lambda path: _SpyMemory(),
        lambda path: _SpyDir(str(path / "cache")),
    ], ids=["memory", "json-dir"])
    def test_store_reads(self, fitted, tmp_path, n_shards, with_calibration,
                         make_backend):
        # Each shard's field is read once per combine declaring it; the
        # one shard's held value is read back never.
        model, calibration, test = fitted
        calibration = calibration if with_calibration else None
        data = test if n_shards == 1 else partition(test, n_shards=n_shards)
        backend = make_backend(tmp_path)
        store = ArtifactStore(backend)
        plan = _auditor(store=store).build_plan(model, data, calibration)
        result = Executor(n_jobs=2, name="audit").run(
            plan, store=store, rng=np.random.default_rng(99)
        )
        expected = Counter(
            field for fields in _declared_fields(with_calibration).values()
            for field in fields
        )
        for index in range(n_shards):
            ref = result[f"partial.shard{index}"]
            by_key = {ref.field_key(field): field for field in ref.fields}
            read = Counter(by_key[key] for key in backend.reads
                           if key in by_key)
            assert read == (expected if n_shards > 1 else Counter())

    @pytest.mark.parametrize("n_shards", (1, 4))
    @pytest.mark.parametrize("with_store", (False, True),
                             ids=["raw", "store"])
    @pytest.mark.parametrize("with_calibration", (False, True),
                             ids=["no-calibration", "calibration"])
    def test_each_combine_receives_exactly_its_fields(
            self, monkeypatch, fitted, n_shards, with_store,
            with_calibration):
        model, calibration, test = fitted
        calibration = calibration if with_calibration else None
        received = []
        resolve = sharding.resolve_spilled

        def spy(value, fields=None):
            partial = resolve(value, fields)
            received.append(tuple(partial))
            return partial

        monkeypatch.setattr(sharding, "resolve_spilled", spy)
        store = ArtifactStore(MemoryBackend()) if with_store else None
        _auditor(store=store).audit(
            model, partition(test, n_shards=n_shards),
            np.random.default_rng(99), calibration=calibration,
        )
        assert Counter(received) == Counter({
            fields: n_shards
            for fields in _declared_fields(with_calibration).values()
        })


class TestLostFieldEntries:
    @pytest.mark.parametrize("damage", ["deleted", "corrupted"])
    def test_a_lost_field_fails_loudly_and_names_it(self, fitted, damage):
        model, calibration, test = fitted
        store = ArtifactStore(MemoryBackend())
        plan = _auditor(store=store).build_plan(
            model, partition(test, n_shards=4), calibration
        )
        lost = []

        def observer(run):
            # Runs after the map level commits, before any combine reads.
            if run.name == "partial.shard2":
                key = run.value.field_key("labels")
                if damage == "deleted":
                    store.invalidate(key)
                else:
                    store.backend.put(key, '{"key": "truncated')
                lost.append(run.value.key)

        with pytest.raises(DataError) as raised:
            Executor(n_jobs=1, name="audit").run(
                plan, store=store, rng=np.random.default_rng(99),
                observer=observer,
            )
        message = str(raised.value)
        assert lost[0] in message and "'labels'" in message
        assert store.corruptions == (1 if damage == "corrupted" else 0)

    def test_a_small_lru_store_never_changes_the_report(self, fitted):
        # Evictions land anywhere in a cold or warm 4-shard audit: among
        # the map level's own field puts, or between the combines' reads.
        model, calibration, test = fitted
        reference = _auditor().audit(
            model, test, np.random.default_rng(99), calibration=calibration
        ).fingerprint()
        parts = partition(test, n_shards=4)
        outcomes = set()
        for max_entries in range(2, 50, 3):
            store = ArtifactStore(MemoryBackend(max_entries=max_entries))
            auditor = _auditor(store=store)
            for _ in range(2):
                try:
                    report = auditor.audit(model, parts,
                                           np.random.default_rng(99),
                                           calibration=calibration)
                except DataError as error:
                    assert "vanished from the store" in str(error)
                    outcomes.add("raised")
                else:
                    assert report.fingerprint() == reference
                    outcomes.add("equal")
        assert outcomes == {"raised", "equal"}


class TestKeysAcrossLayouts:
    # Captured before partials spilled field by field: the layout moved,
    # the keys did not, so a persisted store still replays its sections.
    # Keys hash bytecode, so the literals hold on the reference Python
    # (3.11); on every Python the section keys hash the map keys.  The
    # accuracy and transparency keys moved when their sections stopped
    # passing a fan-out backend to their resampling helpers, and again
    # when they stopped passing a store to them.
    PINNED = {
        "partial.shard0": "fad3cbcce39e2ada1ddcd8ce",
        "partial.shard1": "438377f4a1b3291001bf835b",
        "partial.shard2": "b588812267cf29473cefaabc",
        "partial.shard3": "97fa29be871b5c358c6e5bd3",
        "fairness": "6a0fcccbc37bd27b21ea2197",
        "accuracy": "5e5eabb16767266e7bd18af7",
        "confidentiality": "ab4a625dc16682ce2e5072c8",
        "transparency": "6e8d1198a02a1df50369c3dc",
    }

    def test_map_and_section_keys_are_stable(self, fitted):
        model, calibration, test = fitted
        store = ArtifactStore(MemoryBackend())
        plan = _auditor(store=store).build_plan(
            model, partition(test, n_shards=4), calibration
        )
        seeds = Executor._spawn_seeds(plan, np.random.default_rng(99))
        result = Executor(n_jobs=1, name="audit").run(
            plan, store=store, rng=np.random.default_rng(99)
        )
        keys = {}
        for node in plan.nodes:
            if node.name.startswith("partial."):
                keys[node.name] = result[node.name].key
                assert keys[node.name] == node.key()
                continue
            keys[node.name] = node.key(
                {name: fingerprint(spilled=keys[name])
                 for name in node.inputs},
                seed_identity(seeds[node.name])
                if node.rng == "spawn" else None,
            )
            assert keys[node.name] in store
        if sys.version_info[:2] == (3, 11):
            assert keys == self.PINNED

    @pytest.mark.parametrize("on_disk", [False, True],
                             ids=["memory", "json-dir"])
    def test_whole_partial_entries_miss_once(self, fitted, tmp_path,
                                             on_disk):
        # A store written when each partial was one entry under its map
        # node's key: nothing reads those entries, so the map nodes miss
        # once and recompute, and the sections, whose keys did not move,
        # replay the same report.
        model, calibration, test = fitted
        parts = partition(test, n_shards=4)
        store = ArtifactStore(JsonDirBackend(str(tmp_path / "cache"))
                              if on_disk else MemoryBackend())
        auditor = _auditor(store=store)
        reference = auditor.audit(model, parts, np.random.default_rng(99),
                                  calibration=calibration).fingerprint()
        plan = auditor.build_plan(model, parts, calibration)
        for index, node in enumerate(plan.levels()[0]):
            ref = Spilled(node.key(), store, node.spill)
            store.put(ref.key, resolve_spilled(ref),
                      tags=(f"shard:{parts.shard_fingerprint(index)}",))
            for field in ref.fields:
                store.invalidate(ref.field_key(field))
        before = store.stats()
        report = auditor.audit(model, parts, np.random.default_rng(99),
                               calibration=calibration)
        after = store.stats()
        assert report.fingerprint() == reference
        # One miss per map node; the four sections hit.
        assert (after["misses"] - before["misses"],
                after["hits"] - before["hits"]) == (4, 4)
        assert after["puts"] - before["puts"] == 4 * len(node.spill)
