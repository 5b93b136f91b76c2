"""The FACT audit as a dataflow plan: concurrent, memoised, identical.

``FACTAuditor.audit`` no longer runs its four pillar sections in a
hand-written sequence — it builds a map/combine ``repro.engine.Plan``
and hands it to the engine's ``Executor``.  The map level computes the
per-row partials (one node per shard; a plain table is one shard), and
the four sections are combines on the next level, all independent of
each other.  That buys three things at once, demonstrated below:

1. **Concurrency without nondeterminism** — with workers, the four
   sections run simultaneously, and the report's fingerprint is
   byte-identical to the sequential run (each section owns a
   ``SeedSequence``-spawned stream assigned in plan order).
2. **Incremental re-audit** — with an ``ArtifactStore``, each node is
   memoised under a key derived from its code + params + input content;
   after changing one section's parameters, the map and the other
   sections replay and only that section recomputes.
3. **One plan, inspectable** — ``plan.describe()`` shows the schedule
   the auditor will run before anything executes.

Run:  python examples/audit_plan.py
"""

import time

import numpy as np

from repro import (
    ArtifactStore,
    CreditScoringGenerator,
    FACTAuditor,
    LogisticRegression,
    TableClassifier,
)
from repro.data import three_way_split


def timed_audit(model, test, calibration, **auditor_kwargs):
    auditor = FACTAuditor(n_bootstrap=800, **auditor_kwargs)
    start = time.perf_counter()
    # Same seed each time: the comparisons isolate workers and caching.
    report = auditor.audit(
        model, test, np.random.default_rng(7), calibration=calibration
    )
    return report, time.perf_counter() - start


def main():
    rng = np.random.default_rng(0)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    data = generator.generate(6000, rng)
    train, calibration, test = three_way_split(data, 0.25, 0.15, rng)
    model = TableClassifier(LogisticRegression()).fit(train)

    # 1. The audit's schedule, before anything runs: the map node, then
    #    the four pillar sections on one level — independent of each
    #    other, all eligible to run concurrently.
    plan = FACTAuditor().build_plan(model, test, calibration=calibration)
    print(plan.describe())
    print()

    # 2. Sequential vs concurrent: same bytes, less wall-clock.
    seq, seq_s = timed_audit(model, test, calibration, n_jobs=1)
    par, par_s = timed_audit(model, test, calibration,
                             n_jobs=4, backend="thread")
    print(f"sequential audit: {seq_s:.2f}s  fingerprint {seq.fingerprint()}")
    print(f"concurrent audit: {par_s:.2f}s  fingerprint {par.fingerprint()}")
    print(f"speedup: {seq_s / par_s:.1f}x; "
          f"byte-identical: {par.fingerprint() == seq.fingerprint()}")

    # 3. Incremental *and* concurrent: cold-fill the store, then deepen
    #    the transparency surrogate.  Only that node's key changes, so
    #    the map and the other three sections replay and one recomputes.
    store = ArtifactStore()
    timed_audit(model, test, calibration, n_jobs=4, store=store)
    misses_before = store.misses
    changed, changed_s = timed_audit(
        model, test, calibration, n_jobs=4, store=store, surrogate_depth=6
    )
    print(f"\nchanged surrogate_depth=6: {changed_s:.2f}s, "
          f"{store.misses - misses_before} section recomputed "
          f"(fingerprint {changed.fingerprint()})")
    print(f"store stats: {store.stats()}")


if __name__ == "__main__":
    main()
