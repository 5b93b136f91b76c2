"""A FACT report built with ``n_jobs=4`` — parallel, yet bit-identical.

The audit's heaviest internals (bootstrap intervals behind every
headline number, permutation importances behind the transparency
section) are embarrassingly parallel resampling loops.  This example
runs the same audit serially and with a 4-way fan-out and proves the
two reports agree to the last bit: ``n_jobs`` is a wall-clock knob,
never a results knob.

Run:  python examples/parallel_report.py
"""

import time

import numpy as np

from repro import (
    CreditScoringGenerator,
    FACTAuditor,
    LogisticRegression,
    TableClassifier,
)
from repro.data import three_way_split


def main():
    rng = np.random.default_rng(0)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    data = generator.generate(6000, rng)
    train, calibration, test = three_way_split(data, 0.25, 0.15, rng)
    model = TableClassifier(LogisticRegression()).fit(train)

    # The audit consumes randomness (bootstrap resamples, importance
    # shuffles); identical seeds isolate the n_jobs comparison.
    serial_auditor = FACTAuditor(n_bootstrap=1000, n_jobs=1)
    parallel_auditor = FACTAuditor(n_bootstrap=1000, n_jobs=4)

    start = time.perf_counter()
    serial = serial_auditor.audit(
        model, test, np.random.default_rng(7), calibration=calibration
    )
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = parallel_auditor.audit(
        model, test, np.random.default_rng(7), calibration=calibration
    )
    parallel_s = time.perf_counter() - start

    print(parallel.render())
    print()
    print(f"serial audit:   {serial_s:.2f}s")
    print(f"parallel audit: {parallel_s:.2f}s (n_jobs=4)")

    same = (
        serial.accuracy.accuracy == parallel.accuracy.accuracy
        and serial.accuracy.auc == parallel.accuracy.auc
        and serial.transparency.top_features == parallel.transparency.top_features
    )
    print(f"bit-identical reports: {same}")
    if not same:
        raise SystemExit("determinism violated — this should never print")


if __name__ == "__main__":
    main()
