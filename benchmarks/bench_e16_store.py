"""E16 — the artifact store: cold vs warm FACT audits + incremental replay.

ROADMAP claim: re-auditing after a small change should cost what the
change costs, not what the audit costs.  The audit's engine memoises
each pillar section (and each shard's partial) under canonical
fingerprints of (data content, parameters, code version, seed), so a
warm audit is (a) much faster and (b) **byte-identical** to the cold
one.  This bench measures all three promises:

* **Warm speedup** — the same FACT audit runs cold (empty store) and
  warm (populated store); the table reports wall-clock and the factor.
  The acceptance bar is >= 5x on the repeated audit.
* **Byte identity** — the warm report's ``render()`` and ``to_dict()``
  must equal the cold one's exactly, and both must equal a storeless
  audit (the store must be invisible in results).
* **Incremental re-audit** — one parameter changes (the surrogate
  depth); only the transparency section recomputes, whole (surrogate
  and permutation importance alike: nothing below a section is
  cached), so the "changed" row lands between warm and cold.

Run directly (``python benchmarks/bench_e16_store.py``); pass
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

MIN_WARM_SPEEDUP = 5.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _setup(smoke: bool):
    # The warm path pays a fixed fingerprinting cost (~10ms); smoke must
    # stay large enough that the floor measures caching, not that cost.
    scale = 0.3 if smoke else 1.0
    n_train = int(3000 * scale) + 400
    n_test = int(1500 * scale) + 300
    rng = np.random.default_rng(SEED)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train, test = generator.generate_pair(n_train, n_test, rng)
    mask = np.arange(test.n_rows) < test.n_rows // 3
    calibration, held_out = test.filter(mask), test.filter(~mask)
    model = TableClassifier(LogisticRegression()).fit(train)
    n_bootstrap = int(400 * scale) + 60
    return model, held_out, calibration, n_bootstrap


def _audit(model, test, calibration, n_bootstrap, store, **overrides):
    auditor = FACTAuditor(n_bootstrap=n_bootstrap, store=store, **overrides)
    return auditor.audit(
        model, test, np.random.default_rng(SEED + 1),
        calibration=calibration,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)

    telemetry = obs.configure(clock=obs.WallClock())
    failures = []
    try:
        model, test, calibration, n_bootstrap = _setup(args.smoke)
        run = lambda store, **kw: _audit(  # noqa: E731
            model, test, calibration, n_bootstrap, store, **kw
        )

        baseline, _ = _timed(lambda: run(None))  # warm numerics, no store
        store = ArtifactStore.in_memory()
        cold_report, cold_s = _timed(lambda: run(store))
        warm_report, warm_s = _timed(lambda: run(store))
        changed_report, changed_s = _timed(
            lambda: run(store, surrogate_depth=3)
        )
        warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")

        identical = (
            warm_report.render() == cold_report.render()
            and warm_report.to_dict() == cold_report.to_dict()
            and cold_report.render() == baseline.render()
        )
        if not identical:
            failures.append(
                "BYTE-IDENTITY VIOLATION: warm audit differs from cold"
            )
        changed_matches = changed_report.render() == run(
            None, surrogate_depth=3
        ).render()
        if not changed_matches:
            failures.append(
                "INCREMENTAL VIOLATION: partial recompute differs from a "
                "storeless audit of the changed parameters"
            )
        if warm_speedup < MIN_WARM_SPEEDUP:
            failures.append(
                f"SPEEDUP REGRESSION: warm audit only {warm_speedup:.1f}x "
                f"over cold (floor {MIN_WARM_SPEEDUP}x)"
            )

        stats = store.stats()
        rows = [
            ["cold (empty store)", cold_s, 1.0, "-"],
            ["warm (full replay)", warm_s, warm_speedup,
             "yes" if identical else "NO"],
            ["changed surrogate_depth", changed_s,
             cold_s / changed_s if changed_s > 0 else float("inf"),
             "yes" if changed_matches else "NO"],
        ]
    finally:
        append_session(telemetry, "e16_store")
        obs.reset()

    title = (
        f"E16{' (smoke)' if args.smoke else ''}: content-addressed FACT "
        f"re-audits (floor {MIN_WARM_SPEEDUP:.0f}x; "
        f"{stats['entries']} entries, {int(stats['bytes'])} bytes, "
        f"hit rate {stats['hit_rate']:.2f})"
    )
    table = format_table(
        title,
        ["audit", "wall_s", "speedup_vs_cold", "identical"],
        rows,
    )
    emit(table)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
