"""A profiled FACT audit: where the wall time, CPU, and memory go.

Turns on the opt-in profiling collector (`obs.configure(profile=True,
trace_malloc=True)`), runs a concurrent four-section FACT audit through
the dataflow engine, exports the telemetry, and renders the profile —
hot nodes, the plan's critical path vs. total work (the theoretical
speedup its shape allows), cache efficiency, and parallel pool usage.
The same rendering is available any time afterwards with::

    python -m repro profile profile_run.jsonl

Run:  python examples/profiled_audit.py
"""

import numpy as np

from repro import obs
from repro.core.auditor import FACTAuditor
from repro.data.synth import CreditScoringGenerator
from repro.learn import LogisticRegression, TableClassifier
from repro.store import ArtifactStore

EXPORT_PATH = "profile_run.jsonl"
SEED = 20170626


def main():
    rng = np.random.default_rng(SEED)

    # Profiling measures real resources, so pair the collector with a
    # wall clock; deterministic runs keep the default TickClock and
    # leave the collector off.
    telemetry = obs.configure(clock=obs.WallClock(),
                              export_path=EXPORT_PATH,
                              profile=True, trace_malloc=True)

    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train, test = generator.generate_pair(3000, 1500, rng)
    mask = np.arange(test.n_rows) < test.n_rows // 3
    calibration, held_out = test.filter(mask), test.filter(~mask)
    model = TableClassifier(LogisticRegression()).fit(train)

    auditor = FACTAuditor(n_bootstrap=300, n_jobs=2,
                          store=ArtifactStore.in_memory())
    report = auditor.audit(model, held_out,
                           np.random.default_rng(SEED + 1),
                           calibration=calibration)
    print(f"audited: fingerprint {report.fingerprint()[:16]}…\n")

    records = telemetry.to_dicts()
    telemetry.flush()
    print(obs.render_profile(records))
    print(f"\nwrote {EXPORT_PATH} — re-render with: "
          f"python -m repro profile {EXPORT_PATH}")
    obs.reset()


if __name__ == "__main__":
    main()
