"""Zipf-tenant, bursty-arrival load generation for the query server.

Real DP serving traffic is skewed twice over: a handful of tenants send
most of the queries (tenant popularity ~ Zipf), and a handful of query
*shapes* account for most of the volume (dashboards refresh the same
aggregates).  Arrivals are bursty — clients submit pages of queries at
once, not a smooth stream.  This module synthesizes exactly that
workload and drives a :class:`~repro.serve.server.QueryServer` with it,
reporting sustained throughput and end-to-end latency percentiles.

It is the data source behind the standalone
``benchmarks/bench_e20_async_serve.py`` experiment and its CI smoke
step, and ``perf/``'s serve workloads draw their query shapes from
:func:`query_shapes` — one generator, so the numbers are comparable.

Everything is deterministic under a fixed seed: the table rows, the
tenant/shape draws, and the burst sizes all come from one
``numpy`` generator, and the server's own releases are deterministic by
construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.serve.protocol import QueryRequest
from repro.serve.server import QueryServer

#: Default table name the workload queries.
TABLE_NAME = "census"


def _zipf_probabilities(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    probabilities = ranks ** -float(s)
    return probabilities / probabilities.sum()


def query_shapes(n_shapes: int, table: str = TABLE_NAME) -> list[dict]:
    """A pool of ``n_shapes`` distinct query shapes over the census table.

    Shapes cycle through every mechanism the planner speaks (count,
    sum, mean, quantile, histogram) with varied ε, bounds, and columns,
    so a workload exercises all five release kernels and a realistic
    mix of cache hits, coalescible groups, and singleton releases.
    """
    if n_shapes < 1:
        raise DataError("n_shapes must be at least 1")
    epsilons = (0.01, 0.02, 0.05, 0.1)
    columns = (("age", 18.0, 80.0), ("hours_per_week", 0.0, 100.0),
               ("education_years", 0.0, 20.0), ("capital_gain", 0.0, 10_000.0))
    quantiles = (0.25, 0.5, 0.9)
    templates: list[dict] = []
    index = 0
    while len(templates) < n_shapes:
        epsilon = epsilons[index % len(epsilons)]
        column, lower, upper = columns[index % len(columns)]
        kind = ("count", "mean", "sum", "quantile", "histogram")[index % 5]
        shape: dict = {"table": table, "kind": kind,
                       "epsilon": epsilon + 0.001 * (index // 20)}
        if kind in ("mean", "sum", "quantile"):
            shape.update(column=column, lower=lower, upper=upper)
        if kind == "quantile":
            shape["q"] = quantiles[index % len(quantiles)]
        if kind == "histogram":
            shape.update(column="education",
                         bins=("hs", "some-college", "bachelors",
                               "masters", "doctorate"))
        templates.append(shape)
        index += 1
    return templates[:n_shapes]


def zipf_workload(n_queries: int, *, n_tenants: int = 16,
                  n_shapes: int = 64, zipf_s: float = 1.2,
                  seed: int = 0, table: str = TABLE_NAME,
                  ) -> list[QueryRequest]:
    """``n_queries`` requests with Zipf-skewed tenants *and* shapes."""
    if n_queries < 1:
        raise DataError("n_queries must be at least 1")
    if n_tenants < 1:
        raise DataError("n_tenants must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF0AD]))
    shapes = query_shapes(n_shapes, table=table)
    tenant_draws = rng.choice(
        n_tenants, size=n_queries, p=_zipf_probabilities(n_tenants, zipf_s)
    )
    shape_draws = rng.choice(
        len(shapes), size=n_queries, p=_zipf_probabilities(len(shapes), zipf_s)
    )
    return [
        QueryRequest(tenant=f"tenant-{tenant:03d}", **shapes[shape])
        for tenant, shape in zip(tenant_draws, shape_draws)
    ]


def bursts(requests: list, *, mean_burst: int = 256,
           seed: int = 0) -> list[list]:
    """Split a workload into geometric-sized bursts (arrival clumps)."""
    if mean_burst < 1:
        raise DataError("mean_burst must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB1257]))
    chunks: list[list] = []
    start = 0
    while start < len(requests):
        size = max(1, int(rng.geometric(1.0 / mean_burst)))
        chunks.append(requests[start:start + size])
        start += size
    return chunks


@dataclass(frozen=True)
class LoadReport:
    """What one load-generation run measured."""

    queries: int
    wall_s: float
    qps: float
    statuses: dict
    latency_ms: dict
    batching: dict
    cache: dict | None

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "wall_s": self.wall_s,
            "qps": self.qps,
            "statuses": dict(self.statuses),
            "latency_ms": dict(self.latency_ms),
            "batching": dict(self.batching),
            "cache": dict(self.cache) if self.cache is not None else None,
        }


def run_load(server: QueryServer, requests: list, *,
             mean_burst: int = 256, seed: int = 0) -> LoadReport:
    """Drive ``server`` with ``requests`` in bursts; measure sustained qps.

    The wall clock runs from the first submission to the last resolved
    answer (``drain``), so the reported throughput includes batching
    windows, queueing, and execution — not just submission speed.
    """
    chunks = bursts(requests, mean_burst=mean_burst, seed=seed)
    started = time.perf_counter()
    pending = []
    for chunk in chunks:
        pending.extend(server.submit_many(chunk))
    server.drain()
    wall_s = time.perf_counter() - started
    results = [p.result() for p in pending]

    statuses: dict[str, int] = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    durations = np.asarray(
        [r.duration for r in results if r.duration is not None]
    )
    latency_ms = {}
    if durations.size:
        p50, p90, p99 = np.percentile(durations, (50, 90, 99))
        latency_ms = {
            "p50": float(p50) * 1e3, "p90": float(p90) * 1e3,
            "p99": float(p99) * 1e3, "max": float(durations.max()) * 1e3,
        }
    stats = server.stats()
    return LoadReport(
        queries=len(results),
        wall_s=wall_s,
        qps=len(results) / wall_s if wall_s > 0 else float("inf"),
        statuses=statuses,
        latency_ms=latency_ms,
        batching=stats["batching"],
        cache=stats["cache"],
    )

