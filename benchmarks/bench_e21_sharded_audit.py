"""E21 — sharded out-of-core FACT audits: scaling + byte identity + RSS.

ROADMAP claim: sharding is a wall-clock/memory knob, never a results
knob.  ``FACTAuditor`` over a ``PartitionedTable`` runs one map task
per shard (row-wise-pure partials) over the process backend plus exact
combines in shard order, and the report's fingerprint equals the
serial one's by construction.  This bench measures three promises:

* **Shard scaling** — the same audit runs serially and sharded at
  1/2/4 shards (``n_jobs`` matched to the shard count, process
  backend).  On a box with at least four cores the 4-shard run must
  beat serial by ``MIN_SHARDED_SPEEDUP``; on fewer cores the rows are
  reported but not enforced (map tasks have nothing to overlap onto).
* **Byte identity** — *every* sharded run, at every shard count, must
  reproduce the serial report's fingerprint exactly.  Enforced
  unconditionally, on any machine.
* **Bounded coordinator RSS** — two fresh subprocesses audit the same
  lazily-loaded shards: one materialises the whole table and runs
  serial, one audits the ``PartitionedTable`` out-of-core (on-disk
  spill store, partials tagged ``shard:<fp>``).  Their reports must
  match bit for bit, and in full runs the sharded coordinator's peak
  RSS must stay within ``MAX_RSS_RATIO`` of the serial process that
  held everything (smoke datasets are too small for RSS to clear
  interpreter noise, so smoke reports the ratio without enforcing).

Run directly (``python benchmarks/bench_e21_sharded_audit.py``); pass
``--smoke`` for the quick CI-sized variant exercised on every push.
Sharded audit speed is tracked by ``perf/``'s ``audit_incremental``
workload (16 shards, process backend) through ``python -m repro bench``;
``BENCH_sharded_audit.json`` is frozen history of the deleted in-process
suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks._tools import SEED, append_session, emit, format_table  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.auditor import FACTAuditor  # noqa: E402
from repro.data.partition import PartitionedTable  # noqa: E402
from repro.data.synth import CreditScoringGenerator  # noqa: E402
from repro.learn.linear import LogisticRegression  # noqa: E402
from repro.learn.table_model import TableClassifier  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

#: The 4-shard process-backend audit must beat serial by this factor —
#: enforced only on machines with at least four cores to map onto.
MIN_SHARDED_SPEEDUP = 1.5

#: Full runs only: the out-of-core coordinator's peak RSS may not
#: exceed this multiple of the materialise-everything serial process.
MAX_RSS_RATIO = 1.10


def _sizes(smoke: bool):
    """(n_train, rows_per_shard, n_bootstrap) — 4 shards throughout."""
    return (1000, 1500, 60) if smoke else (4000, 12_500, 250)


def _load_shard(seed, rows):
    """Pure, picklable shard source: same seed, same bytes, every load."""
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    return generator.generate(rows, np.random.default_rng(seed))


def _fit_model(n_train):
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train = generator.generate(n_train, np.random.default_rng(SEED))
    return TableClassifier(LogisticRegression()).fit(train)


def _lazy_parts(schema, rows_per_shard, n_shards=4):
    sources = [functools.partial(_load_shard, SEED + 100 + index,
                                 rows_per_shard)
               for index in range(n_shards)]
    return PartitionedTable.from_sources(
        sources, schema, shard_rows=[rows_per_shard] * n_shards
    )


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall-clock (the scheduling-noise-free floor)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _rss_probe(mode: str, smoke: bool) -> int:
    """Worker body for ``--rss-probe``: one audit, then a JSON line.

    Both modes audit the *same* lazily-loaded shards; ``serial``
    materialises them into one table first (the whole dataset plus the
    audit's working set lives in this process), ``sharded`` audits the
    ``PartitionedTable`` with an on-disk spill store (the coordinator
    holds roughly one shard plus the combined partials).
    """
    n_train, rows_per_shard, n_bootstrap = _sizes(smoke)
    model = _fit_model(n_train)
    schema = _load_shard(SEED + 100, 64).schema
    parts = _lazy_parts(schema, rows_per_shard)
    start = time.perf_counter()
    if mode == "serial":
        auditor = FACTAuditor(n_bootstrap=n_bootstrap)
        report = auditor.audit(model, parts.concat(),
                               np.random.default_rng(SEED + 1))
    else:
        store = ArtifactStore.on_disk(tempfile.mkdtemp(prefix="e21-spill-"))
        auditor = FACTAuditor(n_bootstrap=n_bootstrap, n_jobs=2,
                              backend="process", store=store)
        report = auditor.audit(model, parts,
                               np.random.default_rng(SEED + 1))
    wall = time.perf_counter() - start
    # Linux ru_maxrss is KiB; RUSAGE_SELF is the coordinator only — the
    # map-task children each hold one shard by construction.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"mode": mode, "rss_kb": rss_kb, "wall_s": wall,
                      "fingerprint": report.fingerprint()}))
    return 0


def _run_probe(mode: str, smoke: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--rss-probe", mode]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", "")
    output = subprocess.run(command, check=True, capture_output=True,
                            text=True, env=env).stdout
    return json.loads(output.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    parser.add_argument("--rss-probe", choices=("serial", "sharded"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_probe:
        return _rss_probe(args.rss_probe, args.smoke)

    repeats = 2
    cores = os.cpu_count() or 1
    n_train, rows_per_shard, n_bootstrap = _sizes(args.smoke)

    telemetry = obs.configure(clock=obs.WallClock())
    failures = []
    try:
        model = _fit_model(n_train)
        generator = CreditScoringGenerator(label_bias=0.3,
                                           proxy_strength=0.8)
        test = generator.generate(rows_per_shard * 4,
                                  np.random.default_rng(SEED + 50))

        def run(shards=None):
            if shards is None:
                auditor = FACTAuditor(n_bootstrap=n_bootstrap)
                return auditor.audit(model, test,
                                     np.random.default_rng(SEED + 1))
            auditor = FACTAuditor(n_bootstrap=n_bootstrap, n_jobs=shards,
                                  backend="process")
            parts = PartitionedTable.partition(test, n_shards=shards)
            return auditor.audit(model, parts,
                                 np.random.default_rng(SEED + 1))

        serial, serial_s = _timed(run, repeats)
        reference = serial.fingerprint()
        rows = [["serial (whole table)", serial_s, 1.0, "-"]]
        speedup_at_4 = 0.0
        for shards in (1, 2, 4):
            report, wall = _timed(lambda: run(shards), repeats)
            identical = report.fingerprint() == reference
            if not identical:
                failures.append(
                    f"BYTE-IDENTITY VIOLATION: {shards}-shard audit "
                    f"differs from the serial report"
                )
            speedup = serial_s / wall if wall > 0 else float("inf")
            if shards == 4:
                speedup_at_4 = speedup
            rows.append([
                f"sharded ({shards} shards, process)", wall, speedup,
                "yes" if identical else "NO",
            ])
        if cores >= 4 and speedup_at_4 < MIN_SHARDED_SPEEDUP:
            failures.append(
                f"SPEEDUP REGRESSION: 4-shard audit only "
                f"{speedup_at_4:.2f}x over serial on {cores} cores "
                f"(floor {MIN_SHARDED_SPEEDUP}x)"
            )

        probes = {mode: _run_probe(mode, args.smoke)
                  for mode in ("serial", "sharded")}
        if probes["serial"]["fingerprint"] != probes["sharded"]["fingerprint"]:
            failures.append(
                "BYTE-IDENTITY VIOLATION: out-of-core probe report "
                "differs from the materialised serial probe"
            )
        ratio = probes["sharded"]["rss_kb"] / probes["serial"]["rss_kb"]
        if not args.smoke and ratio > MAX_RSS_RATIO:
            failures.append(
                f"RSS REGRESSION: out-of-core coordinator peaked at "
                f"{ratio:.2f}x the serial process (cap {MAX_RSS_RATIO}x)"
            )
        rss_rows = [
            ["serial (materialised)", probes["serial"]["rss_kb"],
             probes["serial"]["wall_s"], "-"],
            ["sharded (spill store)", probes["sharded"]["rss_kb"],
             probes["sharded"]["wall_s"], f"{ratio:.2f}x"],
        ]
    finally:
        append_session(telemetry, "e21_sharded_audit")
        obs.reset()

    title = (
        f"E21{' (smoke)' if args.smoke else ''}: sharded out-of-core FACT "
        f"audit, {rows_per_shard * 4:,} test rows ({cores} cores; speedup "
        f"floor {'enforced' if cores >= 4 else 'reported only'})"
    )
    table = format_table(
        title,
        ["audit", "wall_s", "speedup_vs_serial", "identical"],
        rows,
    )
    rss_table = format_table(
        f"E21 coordinator peak RSS (fresh subprocesses; cap "
        f"{'enforced' if not args.smoke else 'reported only'})",
        ["probe", "rss_kb", "wall_s", "ratio"],
        rss_rows,
    )
    emit(table)
    emit(rss_table)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
