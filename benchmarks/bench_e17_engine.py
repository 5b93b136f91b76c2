"""E17 — the dataflow engine: concurrent pillar sections vs sequential.

ROADMAP claim: parallelism is a wall-clock knob, never a results knob —
now at the level of whole audit sections, not just inner resampling
loops.  ``FACTAuditor.audit`` builds a map/combine ``repro.engine.Plan``
(a plain table is one map node, then the four pillar sections together
on the next level) and the ``Executor`` fans a level's ready nodes out
through ``repro.parallel``.  This bench measures both promises:

* **Section-level speedup** — the same audit runs sequentially
  (``n_jobs=1``) and with concurrent sections (``n_jobs=2``/``4``
  threads).  On a multi-core box the concurrent run must beat
  the sequential wall-clock; on a single core the speedup row is
  reported but not enforced (there is nothing to overlap onto).
* **Byte identity** — every ``n_jobs`` × store combination
  must produce a report with *exactly* the sequential run's fingerprint.
  This is enforced unconditionally, on any machine.
* **Incremental + concurrent** — a warm store replays the map and all
  four sections;
  the row lands far below both timed runs while staying identical.

Run directly (``python benchmarks/bench_e17_engine.py``); pass
``--smoke`` for the quick CI-sized variant exercised on every push.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks._tools import SEED, append_session, emit, format_table  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.auditor import FACTAuditor  # noqa: E402
from repro.data.synth import CreditScoringGenerator  # noqa: E402
from repro.learn.linear import LogisticRegression  # noqa: E402
from repro.learn.table_model import TableClassifier  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

#: The concurrent audit must beat sequential by this factor — enforced
#: only when the machine has at least two cores to overlap sections on.
MIN_CONCURRENT_SPEEDUP = 1.05


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall-clock (the scheduling-noise-free floor)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _setup(smoke: bool):
    scale = 0.3 if smoke else 1.0
    n_train = int(4000 * scale) + 500
    n_test = int(2000 * scale) + 400
    rng = np.random.default_rng(SEED)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train, test = generator.generate_pair(n_train, n_test, rng)
    mask = np.arange(test.n_rows) < test.n_rows // 3
    calibration, held_out = test.filter(mask), test.filter(~mask)
    model = TableClassifier(LogisticRegression()).fit(train)
    n_bootstrap = int(1200 * scale) + 100
    return model, held_out, calibration, n_bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)
    repeats = 3 if args.smoke else 2
    cores = os.cpu_count() or 1

    telemetry = obs.configure(clock=obs.WallClock())
    failures = []
    try:
        model, test, calibration, n_bootstrap = _setup(args.smoke)

        def run(n_jobs, store=None):
            auditor = FACTAuditor(
                n_bootstrap=n_bootstrap, n_jobs=n_jobs, store=store,
            )
            # Same seed every run: only wall-clock may differ.
            return auditor.audit(
                model, test, np.random.default_rng(SEED + 1),
                calibration=calibration,
            )

        sequential, seq_s = _timed(lambda: run(1), repeats)
        reference = sequential.fingerprint()

        rows = [["sequential (n_jobs=1)", seq_s, 1.0, "-"]]
        for n_jobs in (2, 4):
            report, wall = _timed(lambda: run(n_jobs), repeats)
            identical = report.fingerprint() == reference
            if not identical:
                failures.append(
                    f"BYTE-IDENTITY VIOLATION: n_jobs={n_jobs} audit "
                    f"differs from the sequential report"
                )
            rows.append([
                f"concurrent (n_jobs={n_jobs})", wall,
                seq_s / wall if wall > 0 else float("inf"),
                "yes" if identical else "NO",
            ])
        concurrent_speedup = rows[-1][2]

        store = ArtifactStore.in_memory()
        run(4, store=store)  # cold fill
        warm, warm_s = _timed(lambda: run(4, store=store), repeats)
        warm_identical = warm.fingerprint() == reference
        if not warm_identical:
            failures.append(
                "BYTE-IDENTITY VIOLATION: warm concurrent audit differs "
                "from the storeless sequential report"
            )
        rows.append([
            "concurrent + warm store", warm_s,
            seq_s / warm_s if warm_s > 0 else float("inf"),
            "yes" if warm_identical else "NO",
        ])

        if cores >= 2 and concurrent_speedup < MIN_CONCURRENT_SPEEDUP:
            failures.append(
                f"SPEEDUP REGRESSION: concurrent sections only "
                f"{concurrent_speedup:.2f}x over sequential on {cores} "
                f"cores (floor {MIN_CONCURRENT_SPEEDUP}x)"
            )
    finally:
        append_session(telemetry, "e17_engine")
        obs.reset()

    title = (
        f"E17{' (smoke)' if args.smoke else ''}: engine-level concurrent "
        f"FACT sections ({cores} cores; speedup floor "
        f"{'enforced' if cores >= 2 else 'reported only'})"
    )
    table = format_table(
        title,
        ["audit", "wall_s", "speedup_vs_sequential", "identical"],
        rows,
    )
    emit(table)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
