"""E20 — async batched DP serving under Zipf-tenant bursty load.

ROADMAP item (serving scale): drive the redesigned ``repro.serve``
front end — asyncio dispatch loop, query coalescing, sharded budget
ledgers, bounded-queue backpressure — with the
:mod:`repro.serve.loadgen` workload and pin two claims at once:

* **Throughput** — the server sustains ≥10⁴ queries/sec on one machine
  at full size (wall clock from first submission to last resolved
  answer, batching windows and ε-accounting included).
* **Equivalence** — batching is invisible in the answers: the same
  workload served with the batch window off and on (and with 1 vs 4
  workers) produces byte-identical values and identical per-tenant
  ε-ledgers under a fixed seed.

The printed table (and ``--out``) is the record; ``BENCH_serve_load.json``
at the repository root is frozen history from before
``python -m repro bench`` became the front door of ``perf/``, whose
``serve_fresh`` and ``serve_cached`` workloads now track serving.

Run directly (``python benchmarks/bench_e20_async_serve.py``); pass
``--smoke`` for the quick CI-sized variant, ``--check`` to enforce the
(relaxed) smoke throughput floor, and ``--out PATH`` to dump the load
report (qps + latency percentiles) as JSON for CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks._tools import SEED, emit, format_table  # noqa: E402
from repro.data.synth import CensusIncomeGenerator  # noqa: E402
from repro.serve import QueryServer, ServeConfig  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    TABLE_NAME,
    run_load,
    zipf_workload,
)

#: Sustained queries/sec floors.  The full floor is the ISSUE's
#: acceptance bar; the smoke floor under ``--check`` is deliberately
#: loose — CI runners are noisy, slow, single-core VMs.
FULL_FLOORS = {"qps": 10_000.0}
SMOKE_FLOORS = {"qps": 1_500.0}


def _ledgers(server: QueryServer) -> dict:
    """Per-tenant spend + ledger entries, order-normalized for comparison.

    Entry *order* may differ across worker counts (commits race on
    distinct fingerprints); entry *content* and totals must not.
    """
    return {
        tenant: (
            round(server.budget.accountant(tenant).epsilon_spent, 12),
            sorted((entry.epsilon, entry.delta, entry.label)
                   for entry in server.budget.accountant(tenant).ledger),
        )
        for tenant in server.budget.tenants
    }


def _serve(table, requests, *, window_ms: float, workers: int,
           mean_burst: int):
    # Open-loop submission: size the bounded queue to the workload so
    # the throughput number is about serving, not shedding.
    config = ServeConfig(workers=workers, seed=SEED,
                         batch_window_ms=window_ms,
                         max_queue_depth=max(4096, len(requests)),
                         default_epsilon_budget=1e9)
    with QueryServer(config) as server:
        server.register_table(TABLE_NAME, table)
        report = run_load(server, requests, mean_burst=mean_burst,
                          seed=SEED)
        values = [result.value for result in
                  server.submit_batch(requests[: len(requests) // 4])]
        ledgers = _ledgers(server)
    return report, values, ledgers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    parser.add_argument("--check", action="store_true",
                        help="enforce the throughput floor even at smoke size")
    parser.add_argument("--out", default=None,
                        help="write the load report JSON here (CI artifact)")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", DeprecationWarning)

    if args.smoke:
        n_rows, n_queries, mean_burst = 2000, 4000, 256
    else:
        n_rows, n_queries, mean_burst = 5000, 40_000, 256

    table = CensusIncomeGenerator().generate(
        n_rows, np.random.default_rng(SEED)
    )
    requests = zipf_workload(n_queries, n_tenants=16, n_shapes=64,
                             zipf_s=1.2, seed=SEED)

    failures = []

    # -- equivalence: batched vs unbatched, byte for byte ------------------
    # (run on a quarter-sized replay so the matrix stays cheap; the
    # serving path is identical at every size)
    reference = None
    matrix = [(0.0, 1), (0.0, 4), (2.0, 1), (10.0, 4)]
    equivalence_rows = []
    for window_ms, workers in matrix:
        _, values, ledgers = _serve(table, requests,
                                    window_ms=window_ms, workers=workers,
                                    mean_burst=mean_burst)
        if reference is None:
            reference = (values, ledgers)
            equivalence_rows.append(
                [f"window={window_ms}ms workers={workers}", "reference"])
            continue
        same_values = values == reference[0]
        same_ledgers = ledgers == reference[1]
        if not same_values:
            failures.append(
                f"EQUIVALENCE MISMATCH: answers differ at "
                f"window={window_ms}ms workers={workers}"
            )
        if not same_ledgers:
            failures.append(
                f"LEDGER MISMATCH: ε-accounting differs at "
                f"window={window_ms}ms workers={workers}"
            )
        equivalence_rows.append([
            f"window={window_ms}ms workers={workers}",
            "yes" if (same_values and same_ledgers) else "NO",
        ])

    # -- throughput: the measured claim ------------------------------------
    report, _, _ = _serve(table, requests, window_ms=2.0, workers=2,
                          mean_burst=mean_burst)
    if report.statuses.get("ok") != report.queries:
        failures.append(f"LOAD FAILURES: statuses {report.statuses}")

    floors = {}
    if not args.smoke:
        floors = FULL_FLOORS
    elif args.check:
        floors = SMOKE_FLOORS
    for metric, floor in floors.items():
        measured = getattr(report, metric)
        if measured < floor:
            failures.append(
                f"THROUGHPUT REGRESSION: {metric} {measured:.0f} below "
                f"the {floor:.0f} floor"
            )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1, sort_keys=True)

    title = (
        f"E20{' (smoke)' if args.smoke else ''}: async batched serving, "
        f"{n_queries} Zipf queries over {n_rows} rows"
    )
    latency = report.latency_ms or {}
    table_text = format_table(
        title,
        ["measure", "value"],
        [
            ["sustained qps", round(report.qps, 1)],
            ["wall_s", round(report.wall_s, 4)],
            ["p50 latency (ms)", round(latency.get("p50", 0.0), 3)],
            ["p99 latency (ms)", round(latency.get("p99", 0.0), 3)],
            ["batches", report.batching["batches"]],
            ["coalesced", report.batching["coalesced"]],
            ["cache hit rate", (report.cache or {}).get("hit_rate")],
            *equivalence_rows,
        ],
    )
    emit(table_text)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
