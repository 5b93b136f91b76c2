"""E14 — multi-tenant DP query serving: cache-driven ε savings + throughput.

ROADMAP claim: a production-scale system "serving heavy traffic" under
the paper's strict-privacy-budget regime (§2-Q3).  Serving workloads are
heavily skewed — popular queries repeat — and DP's closure under
post-processing makes every repeat *free*: replaying a released noisy
answer costs zero additional ε and no table scan.

Two experiments:

* **A (budget):** a Zipf-skewed workload of repeated queries served with
  the answer cache on vs. off.  The savings factor is total-ε(off) /
  total-ε(on); the acceptance bar is ≥ 2x, the expected value is close
  to the workload's repeat factor.
* **B (throughput):** the same in-memory tables (no file or network I/O
  in the serving path) behind a modeled constant backend answer latency,
  served three ways: a single-threaded loop (the pre-serve baseline), a
  4-worker pool with the cache off (pure latency overlap, which a
  thread-per-query pool bounds at ~4x), and the full serving layer —
  4-worker pool plus answer cache plus single-flight coalescing — whose
  throughput clears 4x with a wide margin because repeats cost neither
  ε nor a backend round-trip.  A zero-latency pure-CPU run is reported
  for reference (bounded by the host's core count — ~1x on a
  single-core runner).
"""

import time

import numpy as np

from benchmarks._tools import SEED, emit, format_table, run_once
from repro.data.synth import CensusIncomeGenerator
from repro.serve import QueryRequest, QueryServer, ServeConfig

N_ROWS = 20_000
N_TEMPLATES = 40
N_REQUESTS = 300
ZIPF_EXPONENT = 1.2
TENANTS = ("ads", "health", "policy")
LATENCY_S = 0.015
N_THROUGHPUT_REQUESTS = 80

OCCUPATIONS = ("clerical", "managerial", "manual", "sales", "service",
               "technical")


def build_templates():
    """Distinct query templates the Zipf workload draws from."""
    templates = []
    for index in range(N_TEMPLATES):
        epsilon = (0.02, 0.05, 0.1)[index % 3]
        style = index % 4
        if style == 0:
            templates.append(dict(kind="count", epsilon=epsilon))
        elif style == 1:
            templates.append(dict(
                kind="mean", column="age", lower=18.0,
                upper=80.0 + index, epsilon=epsilon,
            ))
        elif style == 2:
            templates.append(dict(
                kind="quantile", column="hours_per_week", lower=0.0,
                upper=100.0, q=round(0.1 + 0.02 * index, 3), epsilon=epsilon,
            ))
        else:
            templates.append(dict(
                kind="histogram", column="occupation",
                bins=list(OCCUPATIONS[: 2 + index % 5]), epsilon=epsilon,
            ))
    return templates


def zipf_workload(templates, rng):
    """N_REQUESTS draws with probability ∝ 1/rank^ZIPF_EXPONENT."""
    ranks = np.arange(1, len(templates) + 1, dtype=np.float64)
    probabilities = ranks ** -ZIPF_EXPONENT
    probabilities /= probabilities.sum()
    choices = rng.choice(len(templates), size=N_REQUESTS, p=probabilities)
    return [
        QueryRequest(tenant=TENANTS[i % len(TENANTS)], **templates[choice])
        for i, choice in enumerate(choices)
    ]


def serve_workload(table, requests, cache_on, workers=4):
    server = QueryServer(ServeConfig(workers=workers, seed=SEED,
                                     cache=cache_on))
    server.register_table("census", table)
    for tenant in TENANTS:
        server.register_tenant(tenant, epsilon_budget=1000.0)
    with server:
        results = server.submit_batch(requests)
    assert all(result.ok for result in results), "workload must fit the budget"
    total_epsilon = sum(
        server.budget.accountant(tenant).epsilon_spent for tenant in TENANTS
    )
    hits = sum(result.cached for result in results)
    return total_epsilon, hits


def throughput(table, requests, workers, latency_s, cache_on):
    server = QueryServer(ServeConfig(workers=workers, seed=SEED,
                                     cache=cache_on,
                                     backend_latency_s=latency_s))
    server.register_table("census", table)
    for tenant in TENANTS:
        server.register_tenant(tenant, epsilon_budget=1000.0)
    with server:
        start = time.perf_counter()
        results = server.submit_batch(requests)
        elapsed = time.perf_counter() - start
    assert all(result.ok for result in results)
    return len(results) / elapsed


def run_serving():
    rng = np.random.default_rng(SEED)
    table = CensusIncomeGenerator().generate(N_ROWS, rng)
    templates = build_templates()
    requests = zipf_workload(templates, rng)

    epsilon_off, _ = serve_workload(table, requests, cache_on=False)
    epsilon_on, hits = serve_workload(table, requests, cache_on=True)
    savings = epsilon_off / epsilon_on

    load = requests[:N_THROUGHPUT_REQUESTS]
    qps_seq = throughput(table, load, workers=1, latency_s=LATENCY_S,
                         cache_on=False)
    qps_pool = throughput(table, load, workers=4, latency_s=LATENCY_S,
                          cache_on=False)
    qps_full = throughput(table, load, workers=4, latency_s=LATENCY_S,
                          cache_on=True)
    qps_cpu_1 = throughput(table, load, workers=1, latency_s=0.0,
                           cache_on=False)
    qps_cpu_4 = throughput(table, load, workers=4, latency_s=0.0,
                           cache_on=False)

    budget_rows = [
        ["cache off", N_REQUESTS, 0, epsilon_off, 1.0],
        ["cache on", N_REQUESTS, hits, epsilon_on, savings],
    ]
    throughput_rows = [
        ["single-threaded", qps_seq, 1.0],
        ["4-worker pool, cache off", qps_pool, qps_pool / qps_seq],
        ["4-worker pool + cache", qps_full, qps_full / qps_seq],
        ["pure CPU, 1 worker (reference)", qps_cpu_1, qps_cpu_1 / qps_cpu_1],
        ["pure CPU, 4 workers (reference)", qps_cpu_4, qps_cpu_4 / qps_cpu_1],
    ]
    return budget_rows, throughput_rows


def test_e14_serving(benchmark):
    budget_rows, throughput_rows = run_once(
        benchmark, run_serving, name="e14_serving"
    )
    emit(format_table(
        "E14a: Zipf workload, total epsilon with the DP answer cache on vs off",
        ["mode", "requests", "cache_hits", "total_epsilon", "savings_x"],
        budget_rows,
    ))
    emit(format_table(
        "E14b: serving throughput, 15ms modeled backend latency",
        ["mode", "queries_per_s", "speedup_x"],
        throughput_rows,
    ))
    # The cache must at least halve the budget burn on a skewed workload.
    assert budget_rows[1][4] >= 2.0
    # Identical released answers, identical request stream: the ε saved
    # is exactly the repeated fraction of the workload.
    assert budget_rows[1][2] > 0
    # Pure latency overlap approaches the pool width (4 workers)...
    assert throughput_rows[1][2] >= 3.0
    # ...and the full serving layer (pool + replay + coalescing) clears
    # 4x single-threaded with room to spare.
    assert throughput_rows[2][2] >= 4.0
