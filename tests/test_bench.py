"""Tests for the benchmark layer (repro.bench): records, baselines, check.

The measurements themselves come from ``perf/run.py`` (its own tests are
under ``perf/tests``); these tests feed the front door synthetic perf
result dicts, so no workload runs.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench import (
    append_record,
    build_record,
    check_against,
    format_table,
    grown_layers,
    latest_baseline,
    load_trajectory,
    new_trajectory,
    rotate_jsonl_sessions,
    session_marker,
    trajectory_path,
)
from repro.bench import runner
from repro.exceptions import DataError

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
METRICS = [metric["name"] for metric in SPEC["end_to_end"]]
PROVENANCE = {"commit": "0" * 40, "dirty": False, "diff_sha256": "e3b0",
              "source_digest": "5d1f", "nproc": 2, "python": "3.11.7",
              "numpy": "2.4.6", "machine": "x86_64"}


def perf_result(seed, seconds=2.0, handicap=None, layers=None, **values):
    """One ``<workload>.json`` as perf/run.py writes it (seed 1 traced)."""
    metrics = {name: 10.0 for name in METRICS}
    metrics.update(values)
    result = {
        "workload": "serve_fresh", "seed": seed, "seconds": seconds,
        "tiny": False, "handicap": handicap or {}, "provenance": PROVENANCE,
        "metrics": metrics, "outputs_digest": f"digest-{seed}",
        "shares": {"failed_share": 0.0, "slo_miss_share": 0.0},
        "checks": {"all_ok": True}, "attempted": 100, "failed": 0,
    }
    if seed == 1:
        result["layers"] = layers or {"serve.plan.s": 7e-6,
                                      "serve.group_stats.quantile.s": 5e-5,
                                      "serve.group_stats.calls": 0.03}
    return result


COMPARE = runner.load_compare(REPO)


def record(seeds=3, host="box", seconds=2.0, handicap=None, layers=None,
           **values):
    results = [perf_result(seed, seconds, handicap, layers, **values)
               for seed in range(1, seeds + 1)]
    return build_record("serve_fresh", results, SPEC, host, COMPARE)


# -- records and trajectory files --------------------------------------------


def test_trajectory_append_load_roundtrip(tmp_path):
    path = trajectory_path("serve_fresh", str(tmp_path))
    assert path.endswith("BENCH_serve_fresh.json")
    results = [perf_result(seed, latency_p50_ms=float(seed))
               for seed in (1, 2, 3, 4, 5)]
    results[2]["checks"]["all_ok"] = False
    append_record(path, build_record("serve_fresh", results, SPEC, "box",
                                     COMPARE))
    trajectory = load_trajectory(path)
    assert trajectory["name"] == "serve_fresh"
    (run,) = trajectory["runs"]
    assert run["host"] == "box" and run["seconds"] == 2.0
    assert run["provenance"] == PROVENANCE
    assert run["timestamp"] > 0 and run["handicap"] == {}
    assert [entry["seed"] for entry in run["seeds"]] == [1, 2, 3, 4, 5]
    assert [entry["correct"] for entry in run["seeds"]] == [
        True, True, False, True, True]
    first = run["seeds"][0]
    assert set(first["metrics"]) == set(METRICS)
    assert first["outputs_digest"] == "digest-1"
    assert first["shares"] == {"failed_share": 0.0, "slo_miss_share": 0.0}
    # statistics.quantiles([1..5], n=4) -> 1.5, 3, 4.5
    assert run["median"]["latency_p50_ms"] == 3.0
    assert run["iqr"]["latency_p50_ms"] == 3.0
    assert run["median"]["setup_s"] == 10.0 and run["iqr"]["setup_s"] == 0.0
    assert run["layers"]["serve.group_stats.quantile.s"] == 5e-5


def test_trajectory_caps_history(tmp_path):
    path = trajectory_path("demo", str(tmp_path))
    for index in range(7):
        append_record(path, {"name": "demo", "index": index}, max_runs=3)
    runs = load_trajectory(path)["runs"]
    assert [r["index"] for r in runs] == [4, 5, 6]


def test_appending_leaves_existing_history_byte_unchanged(tmp_path):
    path = trajectory_path("pipeline", str(tmp_path))
    shutil.copy(REPO / "BENCH_pipeline.json", path)
    before = Path(path).read_text()
    append_record(path, record())
    after = Path(path).read_text()
    assert before.endswith("\n  ]\n}\n")
    assert after.startswith(before[:-len("\n  ]\n}\n")] + ",\n")


def test_latest_baseline_matches_mode():
    # The mode of a record is its host and size; the committed
    # BENCH_pipeline.json holds the deleted suite's whole-run records
    # under perf/'s workload name, which are never baselines.
    trajectory = load_trajectory(str(REPO / "BENCH_pipeline.json"))
    assert trajectory["runs"]
    assert latest_baseline(trajectory, "box", 2.0) is None
    older, smoke, other_host, handicapped, latest, full = (
        record(latency_p50_ms=1.0), record(latency_p50_ms=2.0),
        record(host="other"), record(handicap={"serve.group_stats": 0.002}),
        record(latency_p50_ms=3.0), record(seconds=8.0),
    )
    trajectory["runs"] += [older, smoke, other_host, handicapped, latest,
                           full]
    assert latest_baseline(trajectory, "box", 2.0) is latest
    assert latest_baseline(trajectory, "box", 8.0) is full
    assert latest_baseline(trajectory, "other", 2.0) is other_host
    assert latest_baseline(trajectory, "box", 1.0) is None
    assert latest_baseline(new_trajectory("x"), "box", 2.0) is None


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


# -- the check: perf/compare.py's verdicts against a record ------------------


def test_layer_naming_ranks_grown_quantile_first():
    base = {"serve.plan.s": 7e-6, "serve.group_stats.quantile.s": 5e-5,
            "serve.group_stats.histogram.s": 1e-5, "serve.budget.s": 6e-6,
            "core.audit.self_s": 1e-3, "serve.group_stats.calls": 0.03}
    new = dict(base, **{"serve.group_stats.quantile.s": 9e-4,
                        "serve.group_stats.histogram.s": 2e-4,
                        "serve.plan.s": 8e-6, "serve.budget.s": 5e-6,
                        "serve.group_stats.calls": 9.0})
    named = grown_layers(base, new)
    assert [name for name, _, _ in named] == [
        "serve.group_stats.quantile.s", "serve.group_stats.histogram.s",
        "serve.plan.s"]
    assert named[0] == ("serve.group_stats.quantile.s", 5e-5, 9e-4)


def test_compare_flags_regression():
    lines = []
    grown = {"serve.plan.s": 7e-6, "serve.group_stats.quantile.s": 2e-3,
             "serve.group_stats.calls": 0.03}
    status = check_against(record(latency_p50_ms=30.0, layers=grown),
                           record(), SPEC, COMPARE, out=lines.append)
    assert status == 1
    text = "\n".join(lines)
    assert "outputs_digest match" in text
    assert "latency_p50_ms" in text and ": worse" in text
    named = text[text.index("layers grown most"):]
    assert named.splitlines()[1].split()[0] == "serve.group_stats.quantile.s"
    assert "serve.plan.s" not in named


def test_compare_passes_improvement_and_flags_it():
    lines = []
    status = check_against(record(latency_p50_ms=5.0), record(), SPEC,
                           COMPARE, out=lines.append)
    assert status == 0
    assert any("latency_p50_ms" in line and line.endswith(": better")
               for line in lines)
    assert not any("layers grown most" in line for line in lines)


def test_compare_gates_cpu_as_well_as_wall():
    lines = []
    status = check_against(record(cpu_ms_per_op=20.0), record(), SPEC,
                           COMPARE, out=lines.append)
    assert status == 1
    assert [line.split()[0] for line in lines if line.endswith(": worse")] \
        == ["cpu_ms_per_op"]


def test_compare_tolerance_boundary_is_exclusive():
    # BENCHMARK.json bounds latency at 0.25: exactly 25% worse passes.
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "latency_p50_ms")
    at_bound = record(latency_p50_ms=10.0 * (1 + bound))
    assert check_against(at_bound, record(), SPEC, COMPARE,
                         out=lambda line: None) == 0
    past = record(latency_p50_ms=10.0 * (1 + bound) + 1e-6)
    assert check_against(past, record(), SPEC, COMPARE,
                         out=lambda line: None) == 1


def test_compare_accepts_full_trajectory_records(tmp_path):
    path = trajectory_path("serve_fresh", str(tmp_path))
    append_record(path, record())
    baseline = latest_baseline(load_trajectory(path), "box", 2.0)
    mismatched = record()
    mismatched["seeds"][1]["outputs_digest"] = "other"
    lines = []
    assert check_against(mismatched, baseline, SPEC, COMPARE,
                         out=lines.append) == 1
    assert "outputs_digest MISMATCH" in lines[1]
    assert check_against(record(), baseline, SPEC, COMPARE,
                         out=lambda line: None) == 0


# -- the front door ----------------------------------------------------------


@pytest.fixture()
def checkout(tmp_path, monkeypatch):
    """A minimal checkout whose perf/run.py is replaced by canned results."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "perf").mkdir()
    (tmp_path / "perf" / "run.py").write_text("")
    shutil.copy(REPO / "perf" / "compare.py", tmp_path / "perf")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(runner, "PACKAGE_DIR", tmp_path / "src" / "repro")
    calls = []

    def fake_run_perf(root, workloads, seeds, seconds, handicap, scratch,
                      log):
        calls.append((workloads, seeds, seconds, handicap))
        return 0, {name: [perf_result(seed, seconds)
                          for seed in range(1, seeds + 1)]
                   for name in workloads}

    monkeypatch.setattr(runner, "run_perf", fake_run_perf)
    return tmp_path, calls


def test_check_without_baseline_passes_and_says_so(checkout, capsys):
    from repro.cli import main

    root, calls = checkout
    assert main(["bench", "serve_fresh", "--smoke", "--check",
                 "--no-append"]) == 0
    assert "no baseline" in capsys.readouterr().out
    assert calls == [(["serve_fresh"], runner.SMOKE_RUNS,
                      runner.SMOKE_SECONDS, [])]
    assert not list(root.glob("BENCH_*.json"))

    assert main(["bench", "serve_fresh", "--runs", "2", "--check",
                 "--handicap", "serve.plan=1"]) == 0
    assert calls[-1] == (["serve_fresh"], 2, SPEC["run_seconds"],
                         ["serve.plan=1"])
    (run,) = load_trajectory(str(root / "BENCH_serve_fresh.json"))["runs"]
    assert len(run["seeds"]) == 2


def test_harness_validates_arguments(checkout, capsys):
    from repro.cli import main

    root, calls = checkout
    assert main(["bench", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert main(["bench", "--runs", "0"]) == 2
    assert calls == [] and not list(root.glob("BENCH_*.json"))


def test_run_suite_rejects_unknown_benchmark(checkout):
    # run_bench is the entry point behind the CLI; an unknown name among
    # known ones is refused before perf/run.py starts.
    from repro.bench import run_bench

    root, calls = checkout
    with pytest.raises(DataError, match="unknown workload"):
        run_bench(["serve_fresh", "nope"], out=lambda line: None)
    assert calls == [] and not list(root.glob("BENCH_*.json"))


def test_front_door_outside_a_checkout_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    from repro.cli import main

    assert runner.find_checkout() == REPO
    installed = tmp_path / "site-packages" / "repro"
    installed.mkdir(parents=True)
    monkeypatch.setattr(runner, "PACKAGE_DIR", installed)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--smoke"]) == 2
    assert "not inside a checkout" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["site-packages"]


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


def test_format_table_renders_none_as_dash():
    table = format_table("t", ["a", "b"], [[None, 1.5]])
    assert "-" in table and "1.5000" in table
