"""E15 — the parallel engine: serial-vs-parallel speedups + determinism.

ROADMAP claim: the FACT report's resampling-heavy internals (bootstrap
intervals, Shapley attributions, permutation importances, grid search)
should run "as fast as the hardware allows" *without* surrendering
reproducibility.  This bench measures both halves of that promise:

* **Speedup** — each workload runs inline (``n_jobs=1``) and on four
  threads (``n_jobs=4``); the table reports wall-clock and the speedup
  factor.  Fan-out can only buy wall-clock where cores
  exist, so the host's core count is printed with the table — on a
  4-core machine the bootstrap/Shapley rows clear 2.5x, on a single
  core the engine's overhead (ideally ~1x) is what's being measured.
* **Determinism** — for every parallelised API the ``n_jobs=4`` output
  is compared **byte-identically** (``np.array_equal`` / dataclass
  equality, no tolerance) against the ``n_jobs=1`` output.  A "yes" in
  the ``identical`` column is the engine's core guarantee.

Run directly (``python benchmarks/bench_e15_parallel.py``); pass
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
from repro.accuracy.bootstrap import bootstrap_ci  # noqa: E402
from repro.learn.linear import LogisticRegression  # noqa: E402
from repro.learn.model_selection import grid_search  # noqa: E402
from repro.transparency.importance import permutation_importance  # noqa: E402
from repro.transparency.shapley import ShapleyExplainer  # noqa: E402

N_JOBS = 4


def _blocked_median(values: np.ndarray) -> float:
    """A deliberately compute-heavy statistic (sorted in blocks)."""
    ordered = np.sort(values)
    return float(np.median(ordered) + 1e-9 * np.std(ordered))


def _make_logreg(l2):
    return LogisticRegression(l2=l2)


def _build_model(rng, n_rows: int, n_features: int):
    X = rng.standard_normal((n_rows, n_features))
    w = rng.standard_normal(n_features)
    y = (X @ w + 0.5 * rng.standard_normal(n_rows) > 0).astype(np.float64)
    return LogisticRegression().fit(X, y), X, y


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _workloads(smoke: bool):
    """(name, runner) pairs; each runner takes ``n_jobs``."""
    scale = 0.1 if smoke else 1.0
    n_values = int(20_000 * scale) + 100
    n_resamples = int(600 * scale) + 40
    n_perms = int(60 * scale) + 6
    n_rows = int(400 * scale) + 80
    values = np.random.default_rng(SEED).normal(10.0, 3.0, n_values)
    model, X, y = _build_model(np.random.default_rng(SEED + 1), n_rows, 12)
    explainer = ShapleyExplainer(model, X[:40], exact_limit=4)
    grid = {"l2": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]}

    def run_bootstrap(n_jobs):
        return bootstrap_ci(
            values, _blocked_median, np.random.default_rng(SEED + 2),
            n_resamples=n_resamples, n_jobs=n_jobs,
        )

    def run_shapley(n_jobs):
        result = explainer.explain(
            X[0], np.random.default_rng(SEED + 3), n_permutations=n_perms,
            n_jobs=n_jobs,
        )
        return result.values

    def run_importance(n_jobs):
        result = permutation_importance(
            model, X, y, np.random.default_rng(SEED + 4), n_repeats=5,
            n_jobs=n_jobs,
        )
        return result.importances

    def run_grid(n_jobs):
        result = grid_search(
            _make_logreg, grid, X, y, 4, np.random.default_rng(SEED + 5),
            n_jobs=n_jobs,
        )
        return np.concatenate([cv.scores for _, cv in result.trials])

    return [
        ("bootstrap_ci", run_bootstrap),
        ("shapley", run_shapley),
        ("perm_importance", run_importance),
        ("grid_search", run_grid),
    ]


def _identical(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)

    telemetry = obs.configure(clock=obs.WallClock())
    rows = []
    all_identical = True
    try:
        for name, runner in _workloads(args.smoke):
            runner(1)  # warm caches so serial isn't billed for them
            serial_result, serial_s = _timed(lambda: runner(1))
            parallel_result, parallel_s = _timed(lambda: runner(N_JOBS))
            identical = _identical(serial_result, parallel_result)
            all_identical = all_identical and identical
            rows.append([
                name, serial_s, parallel_s,
                serial_s / parallel_s if parallel_s > 0 else float("inf"),
                "yes" if identical else "NO",
            ])
    finally:
        append_session(telemetry, "e15_parallel")
        obs.reset()

    title = (
        f"E15{' (smoke)' if args.smoke else ''}: deterministic parallelism "
        f"(n_jobs={N_JOBS}, {os.cpu_count()} cores)"
    )
    table = format_table(
        title,
        ["workload", "serial_s", "parallel_s", "speedup", "identical"],
        rows,
    )
    emit(table)
    if not all_identical:
        print("DETERMINISM VIOLATION: parallel output differs from serial",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
