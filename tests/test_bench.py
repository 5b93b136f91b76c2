"""Tests for the benchmark layer (repro.bench): harness, trajectory, gate."""

import hashlib
import json
import os
import shutil
import subprocess

import pytest

from repro.bench import (
    BenchHarness,
    BenchRecord,
    append_record,
    cache_counter_totals,
    compare,
    environment_fingerprint,
    format_table,
    latest_baseline,
    load_trajectory,
    new_trajectory,
    rotate_jsonl_sessions,
    run_suite,
    session_marker,
    trajectory_path,
)
from repro.exceptions import DataError


# -- compare: the regression gate --------------------------------------------


def metrics(wall, cpu=None):
    result = {"wall_s_median": wall}
    if cpu is not None:
        result["cpu_s_median"] = cpu
    return result


def test_compare_flags_regression():
    result = compare(metrics(0.10), metrics(0.50), min_delta_s=0.0)
    assert not result.ok
    assert [d.metric for d in result.regressions] == ["wall_s_median"]
    assert result.regressions[0].ratio == pytest.approx(5.0)
    assert "0.5000s" in result.regressions[0].render()


def test_compare_passes_improvement_and_flags_it():
    result = compare(metrics(0.50), metrics(0.10), min_delta_s=0.0)
    assert result.ok
    assert [d.metric for d in result.improvements] == ["wall_s_median"]


def test_compare_tolerance_boundary_is_exclusive():
    # current == baseline * (1 + tolerance) exactly → passes (strict >).
    result = compare(metrics(1.0), metrics(1.2), tolerance=0.20,
                     min_delta_s=0.0)
    assert result.ok
    result = compare(metrics(1.0), metrics(1.2001), tolerance=0.20,
                     min_delta_s=0.0)
    assert not result.ok


def test_compare_absolute_noise_floor():
    # 100% slower but only 10ms absolute: under the floor, passes.
    result = compare(metrics(0.010), metrics(0.020), min_delta_s=0.02)
    assert result.ok
    assert result.checked == ["wall_s_median"]


def test_compare_gates_cpu_as_well_as_wall():
    result = compare(metrics(1.0, cpu=1.0), metrics(1.0, cpu=2.0),
                     min_delta_s=0.0)
    assert [d.metric for d in result.regressions] == ["cpu_s_median"]


def test_compare_skips_missing_or_nonpositive_metrics():
    result = compare({"wall_s_median": 0.0}, metrics(5.0), min_delta_s=0.0)
    assert result.ok
    assert "wall_s_median" in result.skipped
    result = compare({}, metrics(5.0))
    assert result.ok and result.checked == []


def test_compare_accepts_full_trajectory_records():
    baseline = BenchRecord(name="x", metrics=metrics(0.1)).to_dict()
    current = BenchRecord(name="x", metrics=metrics(0.9)).to_dict()
    assert not compare(baseline, current, min_delta_s=0.0).ok


def test_compare_validates_inputs():
    with pytest.raises(DataError):
        compare("nope", metrics(1.0))
    with pytest.raises(DataError):
        compare(metrics(1.0), metrics(1.0), tolerance=-0.1)


# -- trajectory files --------------------------------------------------------


def test_trajectory_append_load_roundtrip(tmp_path):
    path = trajectory_path("demo", str(tmp_path))
    assert path.endswith("BENCH_demo.json")
    record = BenchRecord(name="demo", metrics=metrics(0.5),
                         mode="smoke").stamp()
    append_record(path, record)
    trajectory = load_trajectory(path)
    assert trajectory["name"] == "demo"
    assert len(trajectory["runs"]) == 1
    run = trajectory["runs"][0]
    assert run["metrics"]["wall_s_median"] == 0.5
    assert run["timestamp"] > 0
    assert run["environment"]["python"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_stamp_records_dirty_flag_and_diff_hash(tmp_path):
    def git(*args):
        identity = ("-c", "user.name=bench",
                    "-c", "user.email=bench@example.com")
        return subprocess.run(
            ["git", *identity, *args],
            cwd=tmp_path, check=True, capture_output=True,
        ).stdout

    git("init", "-q")
    (tmp_path / "kernel.py").write_text("speed = 1\n")
    git("add", "kernel.py")
    git("commit", "-q", "-m", "baseline")
    head = git("rev-parse", "--short", "HEAD").decode().strip()

    clean = BenchRecord(name="demo", metrics=metrics(0.5)).stamp(
        cwd=str(tmp_path))
    assert clean.commit == head
    assert clean.dirty is False
    assert clean.diff_sha256 == hashlib.sha256(b"").hexdigest()

    (tmp_path / "kernel.py").write_text("speed = 2\n")
    dirty = BenchRecord(name="demo", metrics=metrics(0.5)).stamp(
        cwd=str(tmp_path)).to_dict()
    assert dirty["commit"] == head
    assert dirty["dirty"] is True
    assert dirty["diff_sha256"] == hashlib.sha256(
        git("diff", "HEAD")).hexdigest()
    assert dirty["diff_sha256"] != clean.diff_sha256


def test_stamp_outside_a_repository(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    record = BenchRecord(name="demo", metrics=metrics(0.5)).stamp(
        cwd=str(tmp_path))
    assert record.commit is None
    assert record.dirty is None and record.diff_sha256 is None


def test_trajectory_caps_history(tmp_path):
    path = trajectory_path("demo", str(tmp_path))
    for index in range(7):
        append_record(
            path, BenchRecord(name="demo", metrics=metrics(float(index))),
            max_runs=3,
        )
    runs = load_trajectory(path)["runs"]
    assert [r["metrics"]["wall_s_median"] for r in runs] == [4.0, 5.0, 6.0]


def test_latest_baseline_matches_mode():
    trajectory = new_trajectory("demo")
    trajectory["runs"] = [
        BenchRecord(name="demo", metrics=metrics(1.0), mode="full").to_dict(),
        BenchRecord(name="demo", metrics=metrics(2.0), mode="smoke").to_dict(),
        BenchRecord(name="demo", metrics=metrics(3.0), mode="full").to_dict(),
    ]
    assert latest_baseline(trajectory, "smoke")["metrics"][
        "wall_s_median"] == 2.0
    assert latest_baseline(trajectory, "full")["metrics"][
        "wall_s_median"] == 3.0
    assert latest_baseline(trajectory)["metrics"]["wall_s_median"] == 3.0
    assert latest_baseline(trajectory, "experiment") is None


def test_load_trajectory_rejects_garbage(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text("not json")
    with pytest.raises(DataError):
        load_trajectory(str(path))
    path.write_text(json.dumps({"record": "other"}))
    with pytest.raises(DataError):
        load_trajectory(str(path))
    with pytest.raises(DataError):
        load_trajectory(str(tmp_path / "BENCH_missing.json"))


def test_environment_fingerprint_shape():
    fingerprint = environment_fingerprint()
    assert {"python", "platform", "machine", "cpu_count"} <= set(fingerprint)


# -- telemetry session rotation ----------------------------------------------


def write_sessions(path, count, rows_per_session=2):
    with open(path, "w") as handle:
        for session in range(count):
            handle.write(json.dumps(session_marker(f"s{session}")) + "\n")
            for row in range(rows_per_session):
                handle.write(json.dumps(
                    {"record": "span", "name": f"s{session}.{row}"}
                ) + "\n")


def test_rotation_keeps_last_sessions(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    write_sessions(path, 5)
    assert rotate_jsonl_sessions(path, 2) == 2
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    labels = [r["label"] for r in records if r["record"] == "session"]
    assert labels == ["s3", "s4"]
    assert len(records) == 6


def test_rotation_counts_legacy_content_as_one_session(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"record": "span", "name": "old"}) + "\n")
    assert rotate_jsonl_sessions(path, 3) == 1
    write_sessions(path, 0)   # truncate, then markerless + 3 sessions
    with open(path, "a") as handle:
        handle.write(json.dumps({"record": "span", "name": "old"}) + "\n")
    with open(path, "a") as handle:
        for session in range(3):
            handle.write(json.dumps(session_marker(f"s{session}")) + "\n")
    assert rotate_jsonl_sessions(path, 2) == 2
    with open(path) as handle:
        first = json.loads(handle.readline())
    assert first["label"] == "s1"   # legacy block rotated out first


def test_rotation_edge_cases(tmp_path):
    missing = str(tmp_path / "absent.jsonl")
    assert rotate_jsonl_sessions(missing, 2) == 0
    with pytest.raises(DataError):
        rotate_jsonl_sessions(missing, 0)


# -- harness -----------------------------------------------------------------


def test_harness_runs_and_metric_shape():
    calls = []
    harness = BenchHarness("demo", runs=3, warmup=2)
    result = harness.run(lambda: calls.append(1) or len(calls))
    assert len(calls) == 5                      # warmup + runs
    assert result.payload == 5                  # last return value
    assert len(result.wall_s) == 3
    assert {"wall_s_median", "wall_s_p90", "wall_s_min",
            "cpu_s_median"} <= set(result.metrics)
    assert result.metrics["wall_s_min"] <= result.metrics["wall_s_median"]
    assert result.metrics["wall_s_median"] <= result.metrics["wall_s_p90"]


def test_harness_handicap_slows_every_run():
    harness = BenchHarness("demo", runs=2, warmup=0, handicap_s=0.02)
    result = harness.run(lambda: None)
    assert all(wall >= 0.02 for wall in result.wall_s)


def test_harness_alloc_metric():
    harness = BenchHarness("demo", runs=1, warmup=0, measure_alloc=True)
    result = harness.run(lambda: [0] * 100_000)
    assert result.metrics["alloc_peak_kb"] > 100


def test_harness_validates_arguments():
    with pytest.raises(DataError):
        BenchHarness("demo", runs=0)
    with pytest.raises(DataError):
        BenchHarness("demo", warmup=-1)


def test_harness_cache_counters_from_telemetry():
    from repro import obs

    telemetry = obs.configure()
    try:
        telemetry.metrics.counter("store.hits", store="a").inc(3)
        telemetry.metrics.counter("store.hits", store="b").inc(2)
        telemetry.metrics.counter("serve.cache.misses").inc(4)
        totals = cache_counter_totals(telemetry)
    finally:
        obs.reset()
    assert totals["hits"] == 5
    assert totals["misses"] == 4
    assert cache_counter_totals(None) == {"hits": 0, "misses": 0,
                                          "uncacheable": 0}


# -- suite + CLI -------------------------------------------------------------


def test_run_suite_smoke_writes_trajectory_and_gates(tmp_path):
    directory = str(tmp_path)
    lines = []
    code = run_suite(names=["pipeline"], smoke=True, runs=1, warmup=0,
                     directory=directory, out=lines.append)
    assert code == 0
    path = trajectory_path("pipeline", directory)
    assert os.path.exists(path)
    assert any("pipeline" in line for line in lines)

    # Same machine, same workload: the gate passes against the baseline.
    code = run_suite(names=["pipeline"], smoke=True, runs=1, warmup=0,
                     directory=directory, check=True, out=lines.append)
    assert code == 0

    # An injected slowdown far past tolerance must trip it.
    code = run_suite(names=["pipeline"], smoke=True, runs=1, warmup=0,
                     directory=directory, check=True, handicap_s=0.3,
                     append=False, out=lines.append)
    assert code == 1
    assert any("REGRESSION" in line for line in lines)
    assert len(load_trajectory(path)["runs"]) == 2   # append=False held


def test_run_suite_rejects_unknown_benchmark(tmp_path):
    with pytest.raises(DataError):
        run_suite(names=["nope"], directory=str(tmp_path))


def test_bench_cli_list(capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "audit" in out and "pipeline" in out and "serve" in out


def test_format_table_renders_none_as_dash():
    table = format_table("t", ["a", "b"], [[None, 1.5]])
    assert "-" in table and "1.5000" in table
