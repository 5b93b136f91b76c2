"""Tests for ``repro.relational`` — multi-table datasets and join-aware FACT.

The contract under test: relational wiring fails loudly at construction
time (dangling FKs, type mismatches, ownership cycles, integrity
violations), joins and aggregations are deterministic order-stable
kernels whose outputs are bit-identical for every ``n_jobs``/store
combination, FACT roles propagate through joins (with fan-out
promoting keys to quasi-identifiers), and the proxy scan catches what a
single-table audit structurally cannot — a join re-introducing a proxy
for a sensitive attribute.
"""

import numpy as np
import pytest

from repro.data.schema import ColumnRole, Schema, categorical, numeric
from repro.data.synth import LendingRelationalGenerator
from repro.data.table import Table
from repro.engine import Executor, Plan
from repro.exceptions import (
    DataError,
    FairnessError,
    PlanError,
    SchemaError,
)
from repro.relational import (
    AddColumn,
    AddTable,
    Dataset,
    ForeignKey,
    RelSchema,
    RenameColumn,
    SchemaRegistry,
    TableSpec,
    aggregate_node,
    group_aggregate,
    inner_join,
    join_node,
    left_join,
    propagate_key_role,
    proxy_scan,
    strictest_role,
)
from repro.store import ArtifactStore, dataset_fingerprint, table_fingerprint


def users_table():
    return Table(
        Schema([
            categorical("uid", role=ColumnRole.IDENTIFIER),
            categorical("region"),
            numeric("score"),
        ]),
        {"uid": ["u1", "u2", "u3", ""],
         "region": ["eu", "us", "eu", "us"],
         "score": [1.0, 2.0, 3.0, 4.0]},
    )


def txns_table():
    return Table(
        Schema([
            categorical("tid", role=ColumnRole.IDENTIFIER),
            categorical("uid"),
            numeric("amount"),
        ]),
        {"tid": [f"t{i}" for i in range(7)],
         "uid": ["u2", "u1", "u9", "", "u2", "u1", "u2"],
         "amount": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]},
    )


def small_dataset():
    users = Table(
        Schema([categorical("uid", role=ColumnRole.IDENTIFIER),
                categorical("region")]),
        {"uid": ["u1", "u2"], "region": ["eu", "us"]},
    )
    txns = Table(
        Schema([categorical("tid", role=ColumnRole.IDENTIFIER),
                categorical("uid"), numeric("amount")]),
        {"tid": ["t1", "t2", "t3"], "uid": ["u1", "u2", "u1"],
         "amount": [10.0, 20.0, 30.0]},
    )
    schema = RelSchema("shop", [
        TableSpec("users", users.schema, key="uid"),
        TableSpec("txns", txns.schema, key="tid",
                  foreign_keys=(ForeignKey("uid", "users", "uid"),)),
    ])
    return Dataset(schema, {"users": users, "txns": txns})


class TestRelSchema:
    def test_dangling_fk_table_rejected(self):
        txns = txns_table()
        with pytest.raises(SchemaError, match="unknown table"):
            RelSchema("s", [
                TableSpec("txns", txns.schema,
                          foreign_keys=(ForeignKey("uid", "nope", "uid"),)),
            ])

    def test_dangling_fk_column_rejected(self):
        users, txns = users_table(), txns_table()
        with pytest.raises(SchemaError, match="does not exist"):
            RelSchema("s", [
                TableSpec("users", users.schema),
                TableSpec("txns", txns.schema,
                          foreign_keys=(ForeignKey("uid", "users", "ghost"),)),
            ])

    def test_fk_type_mismatch_rejected(self):
        users, txns = users_table(), txns_table()
        with pytest.raises(SchemaError, match="categorical.*numeric"):
            RelSchema("s", [
                TableSpec("users", users.schema),
                TableSpec("txns", txns.schema,
                          foreign_keys=(ForeignKey("uid", "users", "score"),)),
            ])

    def test_ownership_cycle_rejected(self):
        a = Schema([categorical("ka"), categorical("ref_b")])
        b = Schema([categorical("kb"), categorical("ref_a")])
        with pytest.raises(SchemaError, match="cycle"):
            RelSchema("s", [
                TableSpec("a", a, foreign_keys=(ForeignKey("ref_b", "b", "kb"),)),
                TableSpec("b", b, foreign_keys=(ForeignKey("ref_a", "a", "ka"),)),
            ])

    def test_duplicate_table_names_rejected(self):
        users = users_table()
        with pytest.raises(SchemaError, match="duplicate"):
            RelSchema("s", [TableSpec("users", users.schema),
                            TableSpec("users", users.schema)])

    def test_key_must_be_a_column(self):
        with pytest.raises(SchemaError, match="declares key"):
            TableSpec("users", users_table().schema, key="ghost")

    def test_fk_column_must_exist_in_owner(self):
        with pytest.raises(SchemaError, match="foreign key"):
            TableSpec("txns", txns_table().schema,
                      foreign_keys=(ForeignKey("ghost", "users", "uid"),))

    def test_identity_carries_version_and_migrations(self):
        schema = small_dataset().schema
        identity = schema.identity()
        assert identity["version"] == 1
        assert identity["migrations"] == []
        assert [t["name"] for t in identity["tables"]] == ["users", "txns"]

    def test_foreign_keys_between(self):
        schema = small_dataset().schema
        links = schema.foreign_keys_between("txns", "users")
        assert [fk.column for fk in links] == ["uid"]
        assert schema.foreign_keys_between("users", "txns") == []


class TestDataset:
    def test_missing_member_table_rejected(self):
        ds = small_dataset()
        with pytest.raises(SchemaError, match="missing"):
            Dataset(ds.schema, {"users": ds.table("users")})

    def test_column_mismatch_rejected(self):
        ds = small_dataset()
        wrong = ds.table("users").drop(["region"])
        with pytest.raises(SchemaError, match="declaration"):
            Dataset(ds.schema, {"users": wrong, "txns": ds.table("txns")})

    def test_duplicate_primary_key_rejected(self):
        ds = small_dataset()
        dupe = Table(ds.table("users").schema,
                     {"uid": ["u1", "u1"], "region": ["eu", "us"]})
        with pytest.raises(DataError, match="duplicate key"):
            ds.with_table("users", dupe)

    def test_missing_primary_key_rejected(self):
        ds = small_dataset()
        holed = Table(ds.table("users").schema,
                      {"uid": ["u1", ""], "region": ["eu", "us"]})
        with pytest.raises(DataError, match="missing"):
            ds.with_table("users", holed)

    def test_dangling_fk_value_rejected(self):
        ds = small_dataset()
        orphan = Table(ds.table("txns").schema,
                       {"tid": ["t1"], "uid": ["u9"], "amount": [1.0]})
        with pytest.raises(DataError, match="no match in users.uid"):
            ds.with_table("txns", orphan)

    def test_missing_fk_value_is_an_optional_link(self):
        ds = small_dataset()
        optional = Table(ds.table("txns").schema,
                         {"tid": ["t1"], "uid": [""], "amount": [1.0]})
        assert ds.with_table("txns", optional).table("txns").n_rows == 1

    def test_fingerprint_tracks_content(self):
        ds = small_dataset()
        same = small_dataset()
        assert ds.content_fingerprint() == same.content_fingerprint()
        changed = ds.with_table(
            "txns",
            Table(ds.table("txns").schema,
                  {"tid": ["t1", "t2", "t3"], "uid": ["u1", "u2", "u1"],
                   "amount": [10.0, 20.0, 31.0]}),
        )
        assert changed.content_fingerprint() != ds.content_fingerprint()
        assert ds.content_fingerprint() == dataset_fingerprint(ds)

    def test_join_follows_declared_fks_only(self):
        ds = small_dataset()
        flat = ds.join("txns", "users")
        assert list(flat.column("region")) == ["eu", "us", "eu"]
        with pytest.raises(SchemaError, match="no foreign key"):
            ds.join("users", "txns")
        with pytest.raises(DataError, match="how"):
            ds.join("txns", "users", how="outer")


class TestMigrations:
    def test_add_column_bumps_version_and_fingerprint(self):
        ds = small_dataset()
        migrated = ds.migrate(
            AddColumn("users", numeric("age"), default=30.0)
        )
        assert migrated.schema.version == 2
        assert list(migrated.table("users").column("age")) == [30.0, 30.0]
        assert migrated.schema.migrations[-1]["op"] == "add_column"
        assert migrated.content_fingerprint() != ds.content_fingerprint()

    def test_history_distinguishes_same_shape(self):
        # Two routes to the same shape must hash differently: the
        # migration log is part of the identity.
        ds = small_dataset()
        via_migration = ds.migrate(AddColumn("users", numeric("age")))
        direct_schema = RelSchema("shop", [
            TableSpec("users", via_migration.table("users").schema,
                      key="uid"),
            ds.schema.table("txns"),
        ])
        direct = Dataset(direct_schema, dict(via_migration.tables))
        assert (via_migration.content_fingerprint()
                != direct.content_fingerprint())

    def test_rename_rewrites_foreign_keys_on_both_ends(self):
        ds = small_dataset()
        migrated = ds.migrate(RenameColumn("users", "uid", "user_id"))
        assert migrated.schema.table("users").key == "user_id"
        fk = migrated.schema.table("txns").foreign_keys[0]
        assert fk.references_column == "user_id"
        # The child side renames independently.
        both = migrated.migrate(RenameColumn("txns", "uid", "user_id"))
        fk = both.schema.table("txns").foreign_keys[0]
        assert fk.column == "user_id"
        assert both.join("txns", "users").n_rows == 3

    def test_add_table(self):
        ds = small_dataset()
        audits = Table(
            Schema([categorical("aid", role=ColumnRole.IDENTIFIER),
                    categorical("uid")]),
            {"aid": ["a1"], "uid": ["u1"]},
        )
        migrated = ds.migrate(AddTable(
            TableSpec("audits", audits.schema, key="aid",
                      foreign_keys=(ForeignKey("uid", "users", "uid"),)),
            audits,
        ))
        assert "audits" in migrated.table_names
        assert migrated.schema.version == 2

    def test_migration_errors(self):
        ds = small_dataset()
        with pytest.raises(SchemaError, match="at least one"):
            ds.migrate()
        with pytest.raises(SchemaError, match="not a migration op"):
            ds.migrate(object())
        with pytest.raises(SchemaError, match="already has"):
            ds.migrate(AddColumn("users", categorical("region")))
        with pytest.raises(SchemaError, match="no table"):
            ds.migrate(AddColumn("ghost", numeric("x")))


class TestJoinKernels:
    def test_inner_join_drops_missing_and_unmatched(self):
        joined = inner_join(txns_table(), users_table(), "uid")
        assert list(joined.column("tid")) == ["t0", "t1", "t4", "t5", "t6"]
        assert list(joined.column("region")) == ["us", "eu", "us", "eu", "us"]
        assert list(joined.column("score")) == [2.0, 1.0, 2.0, 1.0, 2.0]

    def test_left_join_fills_unmatched(self):
        joined = left_join(txns_table(), users_table(), "uid")
        assert joined.n_rows == 7
        assert joined.column("region")[2] == ""       # u9: no parent row
        assert np.isnan(joined.column("score")[3])    # "": missing key

    def test_missing_keys_never_match(self):
        # users has a row keyed "" — it must not match txns' "" row.
        joined = inner_join(txns_table(), users_table(), "uid")
        assert "t3" not in list(joined.column("tid"))

    def test_fan_out_preserves_right_row_order(self):
        left = Table(Schema([categorical("k"), numeric("w")]),
                     {"k": ["z", "z"], "w": [1.0, 2.0]})
        right = Table(Schema([categorical("k"), numeric("v")]),
                      {"k": ["z", "z", "z"], "v": [7.0, 8.0, 9.0]})
        joined = inner_join(left, right, "k")
        assert list(joined.column("v")) == [7.0, 8.0, 9.0, 7.0, 8.0, 9.0]
        assert list(joined.column("w")) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_multi_key_join_with_nan_keys(self):
        a = Table(Schema([categorical("k"), numeric("g"), numeric("x")]),
                  {"k": ["a", "b", "a", "c", ""],
                   "g": [1.0, 1.0, np.nan, 2.0, 1.0],
                   "x": [1.0, 2.0, 3.0, 4.0, 5.0]})
        b = Table(Schema([categorical("k"), numeric("g"), numeric("y")]),
                  {"k": ["a", "a", "b", "c"],
                   "g": [1.0, 2.0, 1.0, np.nan],
                   "y": [10.0, 20.0, 30.0, 40.0]})
        joined = inner_join(a, b, ["k", "g"])
        assert list(joined.column("x")) == [1.0, 2.0]
        assert list(joined.column("y")) == [10.0, 30.0]

    def test_right_on_maps_differently_named_keys(self):
        users = users_table().rename({"uid": "user_id"})
        joined = inner_join(txns_table(), users, "uid",
                            right_on="user_id")
        assert joined.n_rows == 5
        assert "user_id" not in joined.schema

    def test_empty_sides(self):
        left = Table(Schema([categorical("k"), numeric("w")]),
                     {"k": ["z"], "w": [1.0]})
        right = Table(Schema([categorical("k"), numeric("v")]),
                      {"k": ["z"], "v": [2.0]})
        assert inner_join(left, Table.empty_like(right), "k").n_rows == 0
        assert inner_join(Table.empty_like(left), right, "k").n_rows == 0
        filled = left_join(left, Table.empty_like(right), "k")
        assert filled.n_rows == 1 and np.isnan(filled.column("v")[0])

    def test_key_type_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="cannot join"):
            inner_join(txns_table(), users_table(), "uid",
                       right_on="score")

    def test_suffix_and_double_collision(self):
        left = Table(Schema([categorical("k"), numeric("v"), numeric("v_r")]),
                     {"k": ["a"], "v": [1.0], "v_r": [2.0]})
        right = Table(Schema([categorical("k"), numeric("v")]),
                      {"k": ["a"], "v": [3.0]})
        with pytest.raises(SchemaError, match="collides"):
            inner_join(left, right, "k")
        renamed = inner_join(left, right, "k", suffix="_right")
        assert renamed.column("v_right")[0] == 3.0

    def test_join_is_deterministic_across_fresh_tables(self):
        first = table_fingerprint(inner_join(txns_table(), users_table(),
                                             "uid"))
        second = table_fingerprint(inner_join(txns_table(), users_table(),
                                              "uid"))
        assert first == second


class TestRolePropagation:
    def test_strictest_role_lattice(self):
        assert strictest_role(ColumnRole.FEATURE,
                              ColumnRole.SENSITIVE) is ColumnRole.SENSITIVE
        assert strictest_role(ColumnRole.METADATA,
                              ColumnRole.FEATURE) is ColumnRole.FEATURE
        with pytest.raises(FairnessError):
            strictest_role()

    def test_fan_out_promotes_benign_key(self):
        spec = categorical("zone")
        promoted = propagate_key_role(spec, ColumnRole.FEATURE,
                                      ColumnRole.FEATURE, fan_out=True)
        assert promoted.role is ColumnRole.QUASI_IDENTIFIER
        kept = propagate_key_role(spec, ColumnRole.FEATURE,
                                  ColumnRole.FEATURE, fan_out=False)
        assert kept.role is ColumnRole.FEATURE

    def test_sensitive_survives_every_join(self):
        users = Table(
            Schema([categorical("uid", role=ColumnRole.IDENTIFIER),
                    categorical("group", role=ColumnRole.SENSITIVE)]),
            {"uid": ["u1", "u2"], "group": ["A", "B"]},
        )
        joined = inner_join(txns_table(), users, "uid")
        assert joined.schema["group"].role is ColumnRole.SENSITIVE
        assert joined.schema["uid"].role is ColumnRole.IDENTIFIER

    def test_second_target_demoted(self):
        left = Table(Schema([categorical("k"),
                             numeric("y", role=ColumnRole.TARGET)]),
                     {"k": ["a"], "y": [1.0]})
        right = Table(Schema([categorical("k"),
                              numeric("z", role=ColumnRole.TARGET)]),
                      {"k": ["a"], "z": [0.0]})
        joined = inner_join(left, right, "k")
        assert joined.schema["y"].role is ColumnRole.TARGET
        assert joined.schema["z"].role is ColumnRole.METADATA


class TestProxyScan:
    def test_scan_flags_planted_proxy(self):
        rng = np.random.default_rng(20170626)
        group = np.array(["A", "B"])[rng.integers(0, 2, 600)]
        proxy = np.where(group == "A", "north", "south")
        flip = rng.random(600) < 0.05
        proxy = np.where(flip, np.where(group == "A", "south", "north"),
                         proxy)
        table = Table(
            Schema([categorical("group", role=ColumnRole.SENSITIVE),
                    categorical("zone"), numeric("noise")]),
            {"group": group, "zone": proxy,
             "noise": rng.normal(size=600)},
        )
        report = proxy_scan(table, subject="planted")
        assert not report.passed
        assert report.flagged[0].column == "zone"
        mitigated = report.apply(table)
        assert (mitigated.schema["zone"].role
                is ColumnRole.QUASI_IDENTIFIER)
        assert "zone" not in mitigated.schema.feature_names

    def test_scan_requires_a_sensitive_column(self):
        with pytest.raises(FairnessError, match="sensitive"):
            proxy_scan(txns_table())


class TestGroupAggregate:
    def test_ops_and_missing_group_first(self):
        table = txns_table()
        agg = group_aggregate(table, "uid", {
            "n": "count", "total": ("amount", "sum"),
            "avg": ("amount", "mean"), "lo": ("amount", "min"),
            "hi": ("amount", "max"),
        })
        assert list(agg.column("uid")) == ["", "u1", "u2", "u9"]
        assert list(agg.column("n")) == [1.0, 2.0, 3.0, 1.0]
        assert list(agg.column("total")) == [40.0, 80.0, 130.0, 30.0]
        assert list(agg.column("avg")) == [40.0, 40.0, 130.0 / 3, 30.0]
        assert list(agg.column("lo")) == [40.0, 20.0, 10.0, 30.0]
        assert list(agg.column("hi")) == [40.0, 60.0, 70.0, 30.0]

    def test_multi_key_groups_sort_by_value(self):
        flat = inner_join(txns_table(), users_table(), "uid")
        agg = group_aggregate(flat, ["region", "uid"], {"n": "count"})
        assert list(agg.column("region")) == ["eu", "us"]
        assert list(agg.column("uid")) == ["u1", "u2"]
        assert list(agg.column("n")) == [2.0, 3.0]

    def test_empty_table(self):
        agg = group_aggregate(Table.empty_like(txns_table()), "uid",
                              {"n": "count"})
        assert agg.n_rows == 0

    def test_target_aggregate_becomes_feature(self):
        table = Table(
            Schema([categorical("g"),
                    numeric("approved", role=ColumnRole.TARGET)]),
            {"g": ["a", "a", "b"], "approved": [1.0, 0.0, 1.0]},
        )
        agg = group_aggregate(table, "g",
                              {"rate": ("approved", "mean")})
        assert agg.schema["rate"].role is ColumnRole.FEATURE

    def test_bad_aggregations_rejected(self):
        table = txns_table()
        with pytest.raises(DataError, match="unknown aggregate"):
            group_aggregate(table, "uid", {"x": ("amount", "median")})
        with pytest.raises(DataError, match="numeric"):
            group_aggregate(table, "uid", {"x": ("tid", "sum")})
        with pytest.raises(DataError, match="duplicate"):
            group_aggregate(table, "uid", ["count", "count"])


class TestEngineNodes:
    def plan(self):
        return Plan([
            join_node("joined", left="txns", right="users", on="uid"),
            aggregate_node("by_region", source="joined", by="region",
                           aggregations={"n": "count",
                                         "total": ("amount", "sum")}),
        ], inputs=("txns", "users"))

    def test_byte_identity_across_executors(self):
        plan = self.plan()
        inputs = {"txns": txns_table(), "users": users_table()}
        fingerprints = set()
        for n_jobs in (1, 2, 4):
            for with_store in (False, True):
                store = ArtifactStore.in_memory() if with_store else None
                result = Executor(n_jobs=n_jobs).run(
                    plan, inputs=inputs, store=store)
                fingerprints.add((
                    table_fingerprint(result["joined"]),
                    table_fingerprint(result["by_region"]),
                ))
        assert len(fingerprints) == 1

    def test_store_memoizes_joins(self):
        plan = self.plan()
        inputs = {"txns": txns_table(), "users": users_table()}
        store = ArtifactStore.in_memory()
        first = Executor().run(plan, inputs=inputs, store=store)
        assert set(first.statuses.values()) == {"miss"}
        again = Executor().run(plan, inputs=inputs, store=store)
        assert set(again.statuses.values()) == {"hit"}
        assert (table_fingerprint(again["joined"])
                == table_fingerprint(first["joined"]))

    def test_reregistration_invalidates_join_artifacts(self):
        plan = self.plan()
        users, txns = users_table(), txns_table()
        store = ArtifactStore.in_memory()
        registry = SchemaRegistry(store=store)
        registry.register_table("users", users)
        registry.register_table("txns", txns)
        Executor().run(plan, inputs={"txns": txns, "users": users},
                       store=store)
        assert len(store) == 2
        fresh_users = Table(users.schema,
                            {"uid": ["u1", "u2", "u3", ""],
                             "region": ["ap", "us", "eu", "us"],
                             "score": [1.0, 2.0, 3.0, 4.0]})
        registry.register_table("users", fresh_users)
        # The join artifact is tagged with the replaced table's
        # fingerprint and is evicted; the aggregate artifact is keyed by
        # the join *output*, so it survives but becomes unreachable —
        # a fresh run must recompute everything, replaying nothing.
        assert len(store) == 1
        assert registry.version("users") == 2
        rerun = Executor().run(
            plan, inputs={"txns": txns, "users": fresh_users}, store=store)
        assert set(rerun.statuses.values()) == {"miss"}
        assert list(rerun["joined"].column("region")) == [
            "us", "ap", "us", "ap", "us"]

    def test_node_wiring_validation(self):
        with pytest.raises(PlanError, match="how"):
            join_node("j", left="a", right="b", on="k", how="outer")
        with pytest.raises(PlanError, match="differ"):
            join_node("j", left="a", right="a", on="k")


class TestRegistryAndServe:
    def test_register_dataset_publishes_members(self):
        registry = SchemaRegistry()
        names = registry.register_dataset(small_dataset())
        assert names == ["users", "txns"]
        assert registry.dataset_names == ["shop"]
        assert registry.table("users").n_rows == 2
        assert registry.dataset("shop").schema.version == 1
        with pytest.raises(DataError, match="unknown table"):
            registry.table("ghost")
        with pytest.raises(DataError, match="unknown dataset"):
            registry.dataset("ghost")

    def test_registry_input_validation(self):
        registry = SchemaRegistry()
        with pytest.raises(DataError, match="non-empty"):
            registry.register_table("", users_table())
        with pytest.raises(DataError, match="expected a Table"):
            registry.register_table("users", object())
        with pytest.raises(DataError, match="expected a Dataset"):
            registry.register_dataset(users_table())

    def test_fingerprints_tracked_only_with_store(self):
        registry = SchemaRegistry()
        registry.register_table("users", users_table())
        assert registry.fingerprint("users") is None
        stored = SchemaRegistry(store=ArtifactStore.in_memory())
        stored.register_table("users", users_table())
        assert stored.fingerprint("users") == table_fingerprint(
            users_table())

    def test_query_server_register_dataset(self):
        from repro.serve import QueryServer, ServeConfig

        server = QueryServer(ServeConfig(seed=0)).register_dataset(
            small_dataset())
        assert "users" in server.planner.table_names
        assert "txns" in server.planner.table_names
        assert server.planner.table_version("users") == 1


class TestDatasetStoreRoundTrip:
    def test_codec_revalidates_on_decode(self):
        store = ArtifactStore.in_memory()
        ds = small_dataset()
        store.put("ds", ds)
        decoded = store.get("ds")
        assert isinstance(decoded, Dataset)
        assert decoded.content_fingerprint() == ds.content_fingerprint()
        assert decoded.table("txns") == ds.table("txns")


class TestLendingScenario:
    def test_join_reintroduces_redacted_proxy(self):
        from repro.fairness.metrics import disparate_impact_ratio
        from repro.learn import LogisticRegression
        from repro.learn.preprocessing import FeatureEncoder

        rng = np.random.default_rng(7)
        dataset = LendingRelationalGenerator(
            label_bias=0.4, segregation=0.9
        ).generate_dataset(900, rng)
        flat = inner_join(dataset.join("applications", "applicants"),
                          dataset.table("zones"), "zone_id")
        group = flat.column("group")

        def audit(table):
            features = table.feature_table()
            encoder = FeatureEncoder()
            X = encoder.fit_transform(features)
            model = LogisticRegression(l2=1.0).fit(
                X, table.column("approved"))
            decisions = (model.predict_proba(X) >= 0.5).astype(float)
            return disparate_impact_ratio(decisions, group)

        single = flat.select(["app_id", "applicant_id", "income",
                              "debt_ratio", "credit_history", "qualified",
                              "approved"])
        assert audit(single) >= 0.8            # redaction looks sufficient
        assert audit(flat) < 0.8               # the join broke it
        report = proxy_scan(flat, subject="lending")
        assert {f.column for f in report.flagged} >= {"zone_id",
                                                      "area_score"}
        assert audit(report.apply(flat)) >= 0.8   # quarantine restores it


class TestFactorizationCache:
    def test_cache_is_reused_and_invisible_to_fingerprints(self):
        from repro.store import object_fingerprint

        table = txns_table()
        before = object_fingerprint({"holder": table})
        first = table._factorized("uid")
        assert table._factorized("uid") is first
        # Populating the lazy cache must not change any fingerprint.
        assert object_fingerprint({"holder": table}) == before
        assert table.__content_fingerprint__() == table_fingerprint(table)

    def test_derived_tables_get_fresh_caches(self):
        table = txns_table()
        table._factorized("uid")
        taken = table.take(np.array([0, 1]))
        assert taken._factor_cache == {}
        uniques, codes, _, n_missing = taken._factorized("uid")
        assert list(uniques) == ["u1", "u2"]
        assert list(codes) == [1, 0]
        assert n_missing == 0
