"""``python -m repro bench``: the front door of the checkout's ``perf/``.

The benchmark itself lives in ``perf/`` next to ``src/``: five
fixed-work workloads, each measured in a fresh interpreter, with
correctness checks, host-speed scaling and a traced per-layer mode.
This module runs ``perf/run.py`` once per seed 1..N (seed 1 traced; its
untraced half is that seed's sample), folds the results into one record
per workload and appends it to ``BENCH_<workload>.json`` at the
checkout root.

``check=True`` applies ``perf/compare.py``'s verdicts, with the bounds
of ``BENCHMARK.json``, against the latest record from the same host at
the same ``--seconds``.  When a run regresses, the per-layer times that
grew most against that record are named, not gated.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.bench.tools import format_table
from repro.bench.trajectory import (
    append_record,
    latest_baseline,
    load_trajectory,
    trajectory_path,
)
from repro.exceptions import DataError

#: ``src/repro``; the checkout root is two levels up.
PACKAGE_DIR = Path(__file__).resolve().parents[1]

#: ``--smoke`` sizes, chosen by measurement on a 2-vCPU VM (other runner
#: classes are unmeasured).
SMOKE_SECONDS = 1.0
SMOKE_RUNS = 4
#: Seeds per workload at the default size (``run_seconds`` of BENCHMARK.json).
FULL_RUNS = 10

#: How many grown layers a regression names.
NAMED_LAYERS = 5


def find_checkout() -> Path:
    """The checkout root holding ``src/repro``, ``perf/`` and BENCHMARK.json."""
    root = PACKAGE_DIR.parent.parent
    needed = [root / "perf" / "run.py", root / "perf" / "compare.py",
              root / "BENCHMARK.json"]
    if PACKAGE_DIR.parent.name != "src" or not all(p.is_file() for p in needed):
        raise DataError(
            f"the benchmark lives in perf/ next to src/, but {PACKAGE_DIR} is "
            "not inside a checkout of the repository; run it from a full "
            "checkout (PYTHONPATH=src python -m repro bench)"
        )
    return root


def load_compare(root: Path):
    """``perf/compare.py`` as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perf_compare", root / "perf" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_perf(root: Path, workloads: list[str], seeds: int, seconds: float,
             handicap: list[str], scratch: Path,
             log: Callable[[str], None] = print) -> tuple[int, dict]:
    """Run ``perf/run.py`` on seeds 1..``seeds``; (status, results).

    ``results`` maps each workload to its per-seed result dicts (the
    ``<workload>.json`` files ``run.py`` writes under ``scratch``), in
    seed order.  A non-zero status is ``run.py``'s, and stops the runs.
    """
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in range(1, seeds + 1):
        started = time.monotonic()
        seed_dir = scratch / f"seed{seed}"
        command = [sys.executable, str(root / "perf" / "run.py"),
                   "--seed", str(seed), "--seconds", f"{seconds:g}",
                   "--out", str(seed_dir)]
        command += [arg for name in workloads for arg in ("--workload", name)]
        command += [arg for spin in handicap for arg in ("--handicap", spin)]
        if seed == 1:
            command += ["--trace", "1"]
        status = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
        if status:
            return status, results
        for name in workloads:
            results[name].append(
                json.loads((seed_dir / f"{name}.json").read_text()))
        log(f"seed {seed}/{seeds}{' (traced)' if seed == 1 else ''}: "
            f"{time.monotonic() - started:.0f} s")
    return 0, results


def build_record(workload: str, results: list[dict], spec: dict, host: str,
                 compare) -> dict:
    """One trajectory record from a workload's per-seed perf results.

    Medians and IQRs come from ``compare.quartiles``, the statistic the
    check judges them by.
    """
    names = [metric["name"] for metric in spec["end_to_end"]]
    seeds = [{
        "seed": result["seed"],
        "metrics": {name: result["metrics"][name] for name in names},
        "outputs_digest": result["outputs_digest"],
        "shares": result["shares"],
        "correct": all(result["checks"].values()) and result["failed"] == 0,
    } for result in results]
    summary = {name: compare.quartiles([run["metrics"][name] for run in seeds])
               for name in names}
    traced = next(result for result in results if "layers" in result)
    return {
        "name": workload,
        "timestamp": time.time(),
        "host": host,
        "seconds": results[0]["seconds"],
        "handicap": results[0]["handicap"],
        "provenance": results[0]["provenance"],
        "seeds": seeds,
        "median": {name: median for name, (_, median, _) in summary.items()},
        "iqr": {name: q3 - q1 for name, (q1, _, q3) in summary.items()},
        "layers": traced["layers"],
    }


def grown_layers(base: dict, new: dict) -> list:
    """The per-layer seconds per op that grew most: (name, base, new)."""
    timed = [name for name in new if name in base
             and name.rsplit(".", 1)[-1] in ("s", "self_s")
             and new[name] > base[name]]
    timed.sort(key=lambda name: new[name] - base[name], reverse=True)
    return [(name, base[name], new[name]) for name in timed[:NAMED_LAYERS]]


def check_against(record: dict, baseline: dict | None, spec: dict, compare,
                  out: Callable[[str], None] = print) -> int:
    """``perf/compare.py``'s verdicts on ``record`` against ``baseline``."""
    name = record["name"]
    if baseline is None:
        out(f"== {name}: no baseline from {record['host']} at "
            f"{record['seconds']:g} s; the check passes")
        return 0
    taken = time.strftime("%Y-%m-%d %H:%M", time.gmtime(baseline["timestamp"]))
    commit = (baseline["provenance"].get("commit") or "no commit")[:10]
    out(f"check {name} against the record of {commit}, {taken} UTC")
    status = compare.compare({name: baseline["seeds"]},
                             {name: record["seeds"]}, spec, out=out)
    if status:
        out("  layers grown most against the baseline (traced seed 1, per op;"
            " named, not gated):")
        for layer, before, after in grown_layers(baseline["layers"],
                                                 record["layers"]):
            out(f"    {layer:<34} {before * 1e3:>10.4f} -> "
                f"{after * 1e3:>10.4f} ms")
    return status


def _say(line: str) -> None:
    print(line, flush=True)  # progress shows while perf/run.py works


def run_bench(workloads: list[str] | None = None, *, smoke: bool = False,
              runs: int | None = None, check: bool = False,
              append: bool = True, handicap: list[str] = (),
              out: Callable[[str], None] = _say) -> int:
    """Measure, report, gate and record; a process exit status.

    1 when ``perf/run.py`` failed, a run failed a correctness check or
    the check found a regression; :class:`DataError` (exit 2 from the
    CLI) outside a checkout or for an unknown workload.
    """
    root = find_checkout()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    workloads = list(workloads or known)
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        raise DataError(f"unknown workload(s) {unknown}; known: "
                        f"{', '.join(known)}")
    seeds = runs if runs is not None else SMOKE_RUNS if smoke else FULL_RUNS
    if seeds < 1:
        raise DataError("--runs must be at least 1")
    seconds = SMOKE_SECONDS if smoke else spec["run_seconds"]
    compare = load_compare(root)

    out(f"perf/run.py: {', '.join(workloads)}; seeds 1..{seeds} "
        f"(seed 1 traced) at --seconds {seconds:g}")
    with tempfile.TemporaryDirectory() as scratch:
        status, results = run_perf(root, workloads, seeds, seconds,
                                   list(handicap), Path(scratch), log=out)
    if status:
        print(f"error: perf/run.py exited with status {status}",
              file=sys.stderr)
        return status

    host = platform.node()
    for workload in workloads:
        record = build_record(workload, results[workload], spec, host,
                              compare)
        out(format_table(
            f"{workload} ({seeds} seeds, --seconds {seconds:g})",
            ["metric", "median", "iqr", "unit"],
            [[metric["name"], f"{record['median'][metric['name']]:.5g}",
              f"{record['iqr'][metric['name']]:.3g}", metric["unit"]]
             for metric in spec["end_to_end"]],
        ))
        wrong = [run["seed"] for run in record["seeds"] if not run["correct"]]
        if wrong:
            out(f"  FAILED correctness checks on seed(s) {wrong}")
            status = 1
        path = trajectory_path(workload, str(root))
        if check:
            trajectory = (load_trajectory(path) if Path(path).exists()
                          else {"runs": []})
            baseline = latest_baseline(trajectory, host, seconds)
            status |= check_against(record, baseline, spec, compare, out)
        if append:
            append_record(path, record)
            out(f"  appended to {Path(path).name}")
    return status
