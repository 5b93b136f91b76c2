"""The outside-in benchmark: FACT audits, the decision pipeline, DP serving.

Runs each named workload in its own fresh subprocess, one after
another, and prints every end-to-end metric by name with its unit, the
``outputs_digest``, the result of each correctness check, and — as the
last line — one JSON object::

    {"correct": true, "attempted": 20, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 912.4, "unit": "ms"}, ...}}

With ``--trace`` the workload runs twice, untraced then traced, and the
JSON line carries the per-layer metrics instead (plus the tracing
overhead).  ``BENCHMARK.json`` at the repository root names every
metric and its unit.  Each run also writes ``DIR/<workload>.json``
(and, traced, ``DIR/<workload>.trace.json`` and the raw spans).

Usage (from the repository root)::

    python perf/run.py [--workload W ...] [--seed S] [--seconds N]
                       [--trace [0|1]] [--out DIR] [--tiny]
                       [--handicap LAYER=MS]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: The default workload seed (the paper's publication date).
DEFAULT_SEED = 20170626

#: Seconds one workload (both children, when tracing) may take before
#: its children are killed and the run fails.
WORKLOAD_TIMEOUT_S = 170


def _git(*args: str) -> str | None:
    # Only this checkout's own repository: a checkout without one must
    # not be stamped with the commit of a repository around it.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode() if done.returncode == 0 else None


def provenance() -> dict:
    """Which code and which machine a result measured.

    The commit alone misattributes runs made on uncommitted work, so the
    dirty flag and a hash of ``git diff HEAD`` ride along; outside a git
    checkout the commit fields are null and ``source_digest`` (every
    file under ``src/``) still identifies the code.
    """
    import numpy

    commit = _git("rev-parse", "HEAD")
    diff = _git("diff", "HEAD")
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(diff) if diff is not None else None,
        "diff_sha256": (hashlib.sha256(diff.encode()).hexdigest()
                        if diff is not None else None),
        "source_digest": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_child(workload: str, args, *, trace: bool, out: Path,
              deadline: float) -> dict:
    """Measure ``workload`` in a fresh interpreter; its result dict.

    The child runs in its own session, so a child that overruns
    ``deadline`` (``time.monotonic()``) is killed together with any
    process-pool workers it started.
    """
    suffix = ".traced" if trace else ""
    result_path = out / f".{workload}{suffix}.child.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--result", str(result_path),
        "--handicap", json.dumps(args.handicap),
    ]
    if trace:
        command += ["--trace", "--spans", str(out / f"{workload}.spans.jsonl")]
    if args.trace:
        # Per-layer metrics need no set-up time: one set-up will do.
        command += ["--setup-repeats", "1"]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ)
    # A fixed string-hash seed removes one source of run-to-run spread
    # (dict and set layouts); the outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command += ["--spawned-at", repr(time.time())]
    with subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE,
                          start_new_session=True) as child:
        try:
            _, stderr = child.communicate(
                timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    if child.returncode != 0:
        sys.stderr.write(stderr.decode()[-4000:])
        raise RuntimeError(
            f"workload {workload} exited with code {child.returncode}"
        )
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def _metric_block(spec: list[dict], values: dict) -> dict:
    block = {}
    for metric in spec:
        value = values.get(metric["name"])
        if value is None:
            raise RuntimeError(f"the run reported no value for {metric['name']}")
        block[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return block


def layer_values(spec: list[dict], traced: dict, untraced: dict) -> dict:
    """Every per-layer metric of ``spec`` from a traced child's result."""
    from tracing import span_metrics

    names = [metric["name"] for metric in spec]
    values = {name: 0.0 for name in names}
    values.update(span_metrics(traced["spans"], names, traced["spans"]["ops"]))
    values.update({name: value for name, value in traced["layers"].items()
                   if name in values})
    values["obs.trace_overhead_share"] = (
        traced["metrics"]["latency_p50_ms"]
        / untraced["metrics"]["latency_p50_ms"] - 1.0
    )
    return values


def measure_workload(workload: str, args, spec: dict, out: Path) -> dict:
    """Run one workload (twice when tracing); print and write its result."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    untraced = run_child(workload, args, trace=False, out=out,
                         deadline=deadline)
    checks = dict(untraced["checks"])
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "handicap": args.handicap,
        "provenance": provenance(),
        **{key: untraced[key] for key in (
            "metrics", "unscaled_metrics", "probe_ms", "shares", "samples",
            "attempted", "failed", "outputs_digest", "setup",
            "timed_s", "cpu_s", "details", "errors")},
        "checks": checks,
    }
    metrics = _metric_block(spec["end_to_end"], untraced["metrics"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    print(f"== {workload} (seed {args.seed}, {args.seconds:g} s"
          f"{', tiny' if args.tiny else ''})")
    for name, entry in metrics.items():
        print(f"  {name:<18} {entry['value']:>14.6g} {entry['unit']}")

    if args.trace:
        traced = run_child(workload, args, trace=True, out=out,
                           deadline=deadline)
        checks.update({f"traced.{name}": ok
                       for name, ok in traced["checks"].items()})
        checks["traced_digest_matches"] = (
            traced["outputs_digest"] == untraced["outputs_digest"]
        )
        values = layer_values(spec["per_layer"], traced, untraced)
        metrics = _metric_block(spec["per_layer"], values)
        attempted, failed = traced["attempted"], traced["failed"]
        layers = {name: entry["value"] for name, entry in metrics.items()}
        ops = traced["spans"]["ops"]
        top = sorted(
            ({"span": name, "calls": traced["spans"]["calls"].get(name, 0),
              "self_s": own, "self_s_per_op": own / ops}
             for name, own in traced["spans"]["self_s"].items()),
            key=lambda row: -row["self_s"],
        )
        record["layers"] = layers
        record["traced_metrics"] = traced["metrics"]
        (out / f"{workload}.trace.json").write_text(json.dumps({
            "workload": workload, "seed": args.seed, "ops": ops,
            "spans_dropped": traced["spans"]["dropped"],
            "self_time": top, "counters": traced["spans"]["counters"],
            "layers": layers,
        }, indent=1))
        print("  top self time per op:")
        for row in top[:5]:
            print(f"    {row['span']:<30} {row['self_s_per_op'] * 1e3:>10.3f} ms"
                  f" ({row['calls']} calls)")
        print(f"  unattributed share {layers['obs.unattributed_share']:.3f},"
              f" tracing overhead {layers['obs.trace_overhead_share']:+.3f}")

    record["checks"] = checks
    correct = all(checks.values()) and failed == 0
    print(f"  outputs_digest     {untraced['outputs_digest']}")
    for name, ok in checks.items():
        print(f"  check {name:<34} {'ok' if ok else 'FAILED'}")
    for name, value in untraced["shares"].items():
        print(f"  {name:<18} {value:.6f} (absolute)")
    (out / f"{workload}.json").write_text(json.dumps(record, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv=None, workloads=(), seconds=10):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=seconds,
                        help="sizes each workload's fixed op counts "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--tiny", action="store_true",
                        help="minimal sizes, for tests")
    parser.add_argument("--handicap", action="append", default=[],
                        metavar="LAYER=MS",
                        help="spin MS ms in every call of LAYER's functions")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        sys.stderr.write(
            f"error: the benchmark needs {SRC / 'repro'} and {SPEC}; "
            "run it from a full checkout of the repository\n"
        )
        return 2
    from tracing import parse_handicap
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, tuple(WORKLOADS), spec["run_seconds"])
    try:
        args.handicap = parse_handicap(args.handicap)
    except ValueError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workload or list(WORKLOADS):
        try:
            result = measure_workload(workload, args, spec, args.out)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            sys.stderr.write(f"error: {error}\n")
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
