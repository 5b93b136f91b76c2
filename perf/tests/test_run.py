import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(tmp_path: Path, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_file_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_runs_print_exactly_the_declared_metrics(workload, tmp_path):
    done = _run(tmp_path, "--workload", workload, "--tiny", "--seed", "5",
                "--trace", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == per_layer
    record = json.loads((tmp_path / f"{workload}.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(record["metrics"]) == end_to_end
    for name in [*result["metrics"], *record["metrics"]]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert set(record["unscaled_metrics"]) == end_to_end - {"peak_rss_mb"}
    provenance = record["provenance"]
    assert provenance["nproc"] >= 1 and provenance["numpy"]
    assert {"commit", "dirty", "diff_sha256", "python"} <= set(provenance)
    assert record["seed"] == 5 and record["details"]["ops"]
    assert record["samples"]["latency_p50_ms"]["statistic"] == "median"
    assert record["samples"]["latency_p50_ms"]["samples"] >= 1


def test_untraced_tiny_run_reports_end_to_end_metrics(tmp_path):
    done = _run(tmp_path, "--workload", "serve_cached", "--tiny",
                "--seed", "6", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == declared
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "audit_cold", "--tiny", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
