"""Tests for partitioned tables, shard-aware plans, and sharded audits.

The contract under test is ISSUE 10's tentpole: ``partition``/``concat``
round-trip byte-identically, per-shard fingerprints compose into one
dataset identity, the shard-map engine template fans out as process
tasks with per-shard cache keys and spilled partials, and the sharded
FACT audit is **byte-identical** to the serial unsharded path at every
shard count, worker count, backend, and store setting.
"""

import numpy as np
import pytest

from repro.core import FACTAuditor
from repro.data import (
    MergeableMoments,
    MergeableQuantiles,
    PartitionedTable,
    merge_counts,
    partition,
    three_way_split,
)
from repro.data.schema import Schema, categorical, numeric
from repro.data.synth import CensusIncomeGenerator
from repro.data.table import Table
from repro.engine import Executor, Node, Plan, shard_map
from repro.exceptions import DataError, PlanError, SchemaError
from repro.learn.linear import LogisticRegression
from repro.learn.table_model import TableClassifier
from repro.store import ArtifactStore, MemoryBackend, table_fingerprint
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

    def test_moments_merge_exactly_for_indicators(self):
        values = (np.arange(257) % 2).astype(np.float64)
        whole = MergeableMoments.of(values)
        folded = MergeableMoments.of(values[:100])
        folded = folded.merge(MergeableMoments.of(values[100:180]))
        folded = folded.merge(MergeableMoments.of(values[180:]))
        assert folded == whole
        assert folded.mean == float(values.mean())

    def test_quantiles_byte_identical_at_every_shard_count(self):
        values = np.random.default_rng(123).standard_normal(101)
        probes = (0.1, 0.25, 0.5, 0.9)
        expected = np.quantile(values, probes)
        for n_shards in (1, 2, 5, 13):
            bounds = np.linspace(0, len(values), n_shards + 1).astype(int)
            summary = MergeableQuantiles.of(values[bounds[0]:bounds[1]])
            for i in range(1, n_shards):
                summary = summary.merge(
                    MergeableQuantiles.of(values[bounds[i]:bounds[i + 1]])
                )
            assert summary.n == len(values)
            assert summary.quantile(probes).tolist() == expected.tolist()
        # Golden pins: the merged-summary quantiles of this exact stream.
        assert float(np.quantile(values, 0.1)) == -0.9891213503478509
        assert float(np.quantile(values, 0.5)) == 0.005114312828982818
        assert float(np.quantile(values, 0.9)) == 1.2879252612892487

    def test_empty_quantile_summary_raises(self):
        with pytest.raises(DataError):
            MergeableQuantiles.of([]).quantile(0.5)


# -- shard-aware engine nodes -------------------------------------------------


def _count_rows(shard, rng):
    return {"n": shard.n_rows}


def _sum_rows(partials, extras, rng):
    return sum(p["n"] for p in partials)


class TestShardMap:
    def test_task_nodes_reject_inputs_and_rng(self):
        with pytest.raises(PlanError):
            Node("bad", lambda i, r: 0, inputs=("x",), task=lambda: 0)
        with pytest.raises(PlanError):
            Node("bad", lambda i, r: 0, rng="spawn", task=lambda: 0)
        with pytest.raises(PlanError):
            Node("bad", lambda i, r: 0, cacheable=False, spill=True)

    def test_spill_and_warm_replay(self, census):
        parts = partition(census, n_shards=3)
        store = ArtifactStore(MemoryBackend(), name="spill")
        plan = Plan(shard_map("rows", parts, _count_rows, _sum_rows,
                              store=store))
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
        result = Executor(n_jobs=1, name="t").run(
            Plan(shard_map("rows", parts, _count_rows, _sum_rows))
        )
        assert result["rows.combine"] == census.n_rows
        assert isinstance(result["rows.shard1"], dict)

    def test_process_backend_dispatches_map_tasks(self, census):
        parts = partition(census, n_shards=4)
        store = ArtifactStore(MemoryBackend(), name="proc")
        plan = Plan(shard_map("rows", parts, _count_rows, _sum_rows,
                              store=store))
        result = Executor(n_jobs=2, backend="process", name="t").run(
            plan, store=store
        )
        assert result["rows.combine"] == census.n_rows
        assert set(result.statuses.values()) == {"miss"}


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


class TestIncrementalShardedReaudit:
    def test_one_shard_edit_recomputes_only_that_shard(self, fitted):
        model, calibration, test = fitted
        parts = partition(test, n_shards=4)
        store = ArtifactStore(MemoryBackend(), name="inc")
        auditor = _auditor(store=store)
        executor = Executor(n_jobs=1, name="audit")
        plan = auditor.build_plan(
            model, parts, calibration, store=store
        )
        cold = executor.run(plan, store=store, rng=np.random.default_rng(1))
        assert set(cold.statuses.values()) == {"miss"}

        # Edit shard 2 only.
        shard = parts.shard(2)
        hours = shard.column("hours_per_week").copy()
        hours[0] += 1.0
        edited = parts.replaced(
            2, shard.with_column(shard.schema["hours_per_week"], hours)
        )
        replan = auditor.build_plan(
            model, edited, calibration, store=store
        )
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
            auditor.build_plan(model, parts, calibration,
                                       store=store),
            store=store, rng=np.random.default_rng(1),
        )
        assert set(warm.statuses.values()) == {"hit"}
