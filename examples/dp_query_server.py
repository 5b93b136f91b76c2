"""A multi-tenant DP query server, end to end.

Registers a census table, gives three tenants separate privacy budgets,
and serves a mixed workload with repeats — showing how the answer cache
replays released answers at zero additional ε-cost, how a tenant at
budget exhaustion gets a structured rejection (never an exception), and
where it all shows up in the `repro.obs` telemetry render.

Also writes ``serve_demo.csv`` so the same table can be queried from the
command line with the committed batch::

    python -m repro serve examples/serve_queries.jsonl --data serve_demo.csv

Run:  python examples/dp_query_server.py
"""

import numpy as np

from repro import obs
from repro.data.io import write_csv
from repro.data.synth import CensusIncomeGenerator
from repro.serve import QueryRequest, QueryServer, ServeConfig

EXPORT_PATH = "serve_run.jsonl"
CSV_PATH = "serve_demo.csv"


def main():
    rng = np.random.default_rng(0)
    table = CensusIncomeGenerator().generate(5000, rng)
    write_csv(table, CSV_PATH)

    telemetry = obs.configure(export_path=EXPORT_PATH)

    server = QueryServer(ServeConfig(workers=4, seed=7))
    server.register_table("census", table)
    server.register_tenant("ads", epsilon_budget=0.5)
    server.register_tenant("health", epsilon_budget=1.0)
    server.register_tenant("skimper", epsilon_budget=0.05)

    mean_age = dict(kind="mean", column="age", lower=18, upper=80,
                    epsilon=0.1)
    workload = [
        QueryRequest(tenant="ads", **mean_age),
        QueryRequest(tenant="ads", kind="count", epsilon=0.05),
        # Identical query, same tenant: a free cache replay.
        QueryRequest(tenant="ads", **mean_age),
        # Identical query, *different* tenant: released answers are
        # public post-processing, so this is free for health too.
        QueryRequest(tenant="health", **mean_age),
        QueryRequest(tenant="health", kind="histogram", column="occupation",
                     bins=("clerical", "managerial", "manual", "sales",
                           "service", "technical"), epsilon=0.2),
        QueryRequest(tenant="health", kind="quantile",
                     column="hours_per_week", lower=0, upper=100, q=0.5,
                     epsilon=0.1),
        # A tiny-budget tenant replaying a cached release: still free.
        QueryRequest(tenant="skimper", **mean_age),
        # But a *fresh* release over its budget: structured rejection,
        # ε=0 spent, and the server loop never raises.
        QueryRequest(tenant="skimper", kind="mean", column="hours_per_week",
                     lower=0, upper=100, epsilon=0.1),
        QueryRequest(tenant="skimper", kind="count", epsilon=0.02),
    ]

    print("=== responses ===")
    results = server.submit_batch(workload)
    for request, result in zip(workload, results):
        value = (f"{result.value:.2f}" if isinstance(result.value, float)
                 else result.value)
        note = " (cache replay, free)" if result.cached else ""
        if result.ok:
            print(f"  {request.tenant:8s} {request.kind:9s} -> {value}"
                  f"  ε_charged={result.epsilon_charged:g}{note}")
        else:
            print(f"  {request.tenant:8s} {request.kind:9s} -> "
                  f"{result.status}: {result.detail}")
    server.close()

    print("\n=== budgets ===")
    for tenant, budget in sorted(server.stats()["tenants"].items()):
        print(f"  {tenant}: ε spent {budget['epsilon_spent']:g}, "
              f"remaining {budget['epsilon_remaining']:g}")
    cache = server.cache.stats()
    print(f"\ncache: {cache['hits']:.0f} replays / "
          f"{cache['misses']:.0f} fresh releases "
          f"(hit rate {cache['hit_rate']:.0%})")

    telemetry.flush()
    records = obs.read_telemetry(EXPORT_PATH)
    print("\n=== telemetry ===")
    print(obs.render_metrics_table(records))
    print(f"\nwrote {CSV_PATH} and {EXPORT_PATH}")
    print(f"inspect again with: python -m repro telemetry {EXPORT_PATH}")


if __name__ == "__main__":
    main()
