"""Profiling: where the time goes, and what the plan shape allows.

Two halves, both feeding ``python -m repro profile run.jsonl``:

* :class:`Profiler` — post-hoc analysis of exported span records (the
  :func:`repro.obs.read_telemetry` shape).  Per-name aggregates (calls,
  wall, self vs. child time, CPU, peak allocations, and the
  hit/miss/uncacheable cache split engine node spans carry) plus
  **critical-path analysis** over the engine's level-parallel node
  spans: the longest dependency chain vs. the total work is Brent's
  bound — the theoretical speedup any worker count can reach — and
  dividing by the run's ``n_jobs`` gives the parallel efficiency the
  plan *shape* permits.
* :class:`ProfileCollector` — the opt-in live sampler installed by
  ``obs.configure(profile=True)`` and consumed by
  :class:`repro.engine.Executor` and :class:`repro.parallel.ParallelExecutor`:
  per-node wall seconds (``perf_counter``), CPU seconds
  (``thread_time``, so concurrent nodes don't pollute each other), and
  optional peak allocations (``tracemalloc``).  Samples are attached to
  node spans after each level drains, on the coordinator, so the span
  *structure* stays deterministic; the measured values are wall facts.
  When the collector is off — the default — every hook site pays one
  ``is None`` check and nothing else.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import DataError
from repro.obs.render import _table

#: Span attributes the collector writes and the profiler reads back.
WALL_ATTR = "wall_s"
CPU_ATTR = "cpu_s"
ALLOC_ATTR = "alloc_peak_kb"


# -- live collection ----------------------------------------------------------


@dataclass
class ResourceSample:
    """Merged resource usage for one sampled key."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    alloc_peak_kb: float | None = None
    count: int = 0

    def merge(self, wall_s: float, cpu_s: float,
              alloc_peak_kb: float | None) -> None:
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.count += 1
        if alloc_peak_kb is not None:
            self.alloc_peak_kb = max(self.alloc_peak_kb or 0.0,
                                     alloc_peak_kb)


class ProfileCollector:
    """Thread-safe per-key resource sampling, merged until popped.

    ``trace_malloc=True`` starts ``tracemalloc`` (if nobody else has)
    and reports the process-wide peak observed during each sample —
    exact for serial nodes, an upper bound when nodes run concurrently.
    CPU time uses ``time.thread_time``: the sampling thread's own CPU,
    so thread-pool fan-out attributes compute to the right node.
    """

    def __init__(self, trace_malloc: bool = False):
        self._lock = threading.Lock()
        self._samples: dict[object, ResourceSample] = {}
        self.trace_malloc = bool(trace_malloc)
        self._started_tracemalloc = False
        if self.trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def close(self) -> None:
        """Stop ``tracemalloc`` if this collector started it."""
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    @contextmanager
    def sample(self, key: object):
        """Measure the block and merge the usage under ``key``."""
        if self.trace_malloc:
            tracemalloc.reset_peak()
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.thread_time() - cpu0
            alloc = None
            if self.trace_malloc:
                _, peak = tracemalloc.get_traced_memory()
                alloc = peak / 1024.0
            with self._lock:
                entry = self._samples.get(key)
                if entry is None:
                    entry = self._samples[key] = ResourceSample()
                entry.merge(wall, cpu, alloc)

    def wrap(self, key: object, fn: Callable) -> Callable:
        """``fn`` with every call sampled under ``key``."""
        def sampled(*args, **kwargs):
            with self.sample(key):
                return fn(*args, **kwargs)
        return sampled

    def pop(self, key: object) -> ResourceSample | None:
        """Remove and return the merged sample for ``key`` (or ``None``)."""
        with self._lock:
            return self._samples.pop(key, None)

    def attributes(self, key: object) -> dict[str, float]:
        """Pop ``key`` rendered as span attributes (empty if unsampled)."""
        sample = self.pop(key)
        if sample is None:
            return {}
        attrs = {WALL_ATTR: round(sample.wall_s, 9),
                 CPU_ATTR: round(sample.cpu_s, 9)}
        if sample.alloc_peak_kb is not None:
            attrs[ALLOC_ATTR] = round(sample.alloc_peak_kb, 3)
        return attrs


# -- post-hoc analysis --------------------------------------------------------


@dataclass
class SpanStats:
    """Aggregate over every finished span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    alloc_peak_kb: float | None = None
    cache: dict[str, int] = field(default_factory=dict)
    errors: int = 0


@dataclass
class PlanProfile:
    """Critical-path analysis of one engine-executed plan."""

    name: str                 # the executor's span prefix ("audit", "stage", …)
    n_nodes: int
    n_levels: int
    total_work_s: float       # sum of per-node times
    critical_path_s: float    # longest dependency chain (level maxima)
    path: list[tuple[str, float]]   # (node span name, time) along the chain
    n_jobs: int | None = None
    cache: dict[str, int] = field(default_factory=dict)

    @property
    def theoretical_speedup(self) -> float:
        """Brent's bound: total work over the critical path."""
        if self.critical_path_s <= 0.0:
            return 1.0
        return self.total_work_s / self.critical_path_s

    @property
    def parallel_efficiency(self) -> float | None:
        """Fraction of ``n_jobs`` the plan shape can keep busy."""
        if not self.n_jobs:
            return None
        return min(self.theoretical_speedup, self.n_jobs) / self.n_jobs


def _finished_spans(records: list[dict]) -> list[dict]:
    return [r for r in records
            if r.get("record") == "span" and r.get("end") is not None]


def _effective_time(span: dict) -> float:
    """Measured wall seconds when the collector ran, logical duration else."""
    attributes = span.get("attributes") or {}
    wall = attributes.get(WALL_ATTR)
    if isinstance(wall, (int, float)) and not isinstance(wall, bool):
        return float(wall)
    duration = span.get("duration")
    if isinstance(duration, (int, float)) and not isinstance(duration, bool):
        return float(duration)
    return 0.0


class Profiler:
    """Answers "where did the time go?" for one exported telemetry run.

    Construct from records (:func:`repro.obs.read_telemetry`) or a path
    (:meth:`from_file`).  All analyses are deterministic functions of
    the records: profiling the same file twice renders byte-identical
    output.
    """

    def __init__(self, records: list[dict]):
        self.records = list(records)
        self.spans = _finished_spans(self.records)
        self._children: dict[object, list[dict]] = {}
        ids = {span.get("span_id") for span in self.spans}
        for span in self.spans:
            parent = span.get("parent_id")
            if parent not in ids:
                parent = None
            self._children.setdefault(parent, []).append(span)

    @classmethod
    def from_file(cls, path: str) -> "Profiler":
        from repro.obs.export import read_telemetry
        return cls(read_telemetry(path))

    # -- aggregates ---------------------------------------------------------

    def aggregates(self) -> list[SpanStats]:
        """Per-name stats, hottest (largest self time) first.

        Self time is the span's own time minus its direct children's —
        the classic profiler split, so a parent that only coordinates
        drops down the table and the actual hot nodes rise.
        """
        stats: dict[str, SpanStats] = {}
        for span in self.spans:
            name = str(span.get("name"))
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = SpanStats(name=name)
            attributes = span.get("attributes") or {}
            total = _effective_time(span)
            children = self._children.get(span.get("span_id"), ())
            child_time = sum(_effective_time(child) for child in children)
            entry.count += 1
            entry.total_s += total
            entry.self_s += max(0.0, total - child_time)
            cpu = attributes.get(CPU_ATTR)
            if isinstance(cpu, (int, float)) and not isinstance(cpu, bool):
                entry.cpu_s += float(cpu)
            alloc = attributes.get(ALLOC_ATTR)
            if isinstance(alloc, (int, float)) and not isinstance(alloc, bool):
                entry.alloc_peak_kb = max(entry.alloc_peak_kb or 0.0,
                                          float(alloc))
            status = attributes.get("cache")
            if status is not None:
                entry.cache[str(status)] = entry.cache.get(str(status), 0) + 1
            if "error" in attributes:
                entry.errors += 1
        return sorted(stats.values(),
                      key=lambda s: (-s.self_s, -s.total_s, s.name))

    # -- critical path ------------------------------------------------------

    def plan_profiles(self) -> list[PlanProfile]:
        """One critical-path analysis per engine-executed plan.

        Engine node spans carry ``level`` (dependency depth) and
        ``n_jobs`` attributes; nodes sharing an executor prefix and a
        parent span form one plan run.  Within a level every node could
        run concurrently, so the level's critical contribution is its
        slowest node; levels are barriers, so contributions add.
        """
        groups: dict[tuple, list[dict]] = {}
        for span in self.spans:
            attributes = span.get("attributes") or {}
            if not isinstance(attributes.get("level"), int):
                continue
            prefix = str(span.get("name")).split(":", 1)[0]
            groups.setdefault((prefix, span.get("parent_id")), []).append(span)

        profiles = []
        for (prefix, _parent), nodes in sorted(
            groups.items(),
            key=lambda item: (item[0][0], str(item[0][1])),
        ):
            levels: dict[int, list[tuple[str, float]]] = {}
            cache: dict[str, int] = {}
            n_jobs = None
            for span in nodes:
                attributes = span.get("attributes") or {}
                level = int(attributes["level"])
                levels.setdefault(level, []).append(
                    (str(span.get("name")), _effective_time(span))
                )
                status = attributes.get("cache")
                if status is not None:
                    cache[str(status)] = cache.get(str(status), 0) + 1
                jobs = attributes.get("n_jobs")
                if isinstance(jobs, int) and not isinstance(jobs, bool):
                    n_jobs = max(n_jobs or 1, jobs)
            path = []
            critical = 0.0
            work = 0.0
            for level in sorted(levels):
                entries = levels[level]
                work += sum(t for _, t in entries)
                slowest = max(entries, key=lambda entry: (entry[1], entry[0]))
                path.append(slowest)
                critical += slowest[1]
            profiles.append(PlanProfile(
                name=prefix, n_nodes=len(nodes), n_levels=len(levels),
                total_work_s=work, critical_path_s=critical, path=path,
                n_jobs=n_jobs, cache=cache,
            ))
        return profiles

    # -- cache / parallel / latency -----------------------------------------

    def cache_totals(self) -> dict[str, int]:
        """Hit/miss/uncacheable counts over every engine node span."""
        totals: dict[str, int] = {}
        for span in self.spans:
            status = (span.get("attributes") or {}).get("cache")
            if status is not None:
                totals[str(status)] = totals.get(str(status), 0) + 1
        return totals

    def duration_histograms(self) -> list[dict]:
        """Histogram metric records — the latency-percentile sources."""
        return [r for r in self.records
                if r.get("record") == "metric"
                and r.get("kind") == "histogram"]

    def pool_stats(self) -> list[dict]:
        """Per-pool fan-out counters (tasks, chunks, profiled wall/CPU)."""
        counters: dict[str, dict[str, float]] = {}
        for record in self.records:
            if (record.get("record") != "metric"
                    or record.get("kind") != "counter"):
                continue
            name = str(record.get("name"))
            for suffix in ("tasks", "chunks", "errors",
                           "profile.wall_s", "profile.cpu_s"):
                marker = f".{suffix}"
                if name.endswith(marker):
                    pool = name[:-len(marker)]
                    counters.setdefault(pool, {})[suffix] = float(
                        record.get("value") or 0.0
                    )
        return [{"pool": pool, **values}
                for pool, values in sorted(counters.items())
                if "tasks" in values]


# -- rendering ---------------------------------------------------------------


def _fmt(value: object, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _cache_cell(cache: dict[str, int]) -> str:
    if not cache:
        return "-"
    return "/".join(str(cache.get(key, 0))
                    for key in ("hit", "miss", "uncacheable"))


def render_hot_nodes(profiler: Profiler, top: int = 20) -> str:
    """The hot-node table: self-time-ordered per-name aggregates."""
    stats = profiler.aggregates()[:top]
    if not stats:
        return "hot nodes: (no spans)"
    rows = [
        [s.name, _fmt(s.count), _fmt(s.total_s), _fmt(s.self_s),
         _fmt(s.cpu_s) if s.cpu_s else "-",
         _fmt(s.alloc_peak_kb), _cache_cell(s.cache),
         _fmt(s.errors) if s.errors else "-"]
        for s in stats
    ]
    lines = ["hot nodes (by self time):"]
    lines += _table(
        ["span", "calls", "total", "self", "cpu_s", "alloc_kb",
         "hit/miss/unc", "errors"],
        rows,
    )
    return "\n".join(lines)


def render_critical_path(profiler: Profiler) -> str:
    """Per-plan critical path, theoretical speedup, parallel efficiency."""
    profiles = profiler.plan_profiles()
    if not profiles:
        return ("critical path: (no engine node spans — run under "
                "repro.engine with telemetry configured)")
    lines = ["critical path (per plan):"]
    for profile in profiles:
        efficiency = profile.parallel_efficiency
        lines.append(
            f"  plan {profile.name!r}: {profile.n_nodes} nodes / "
            f"{profile.n_levels} levels, work {_fmt(profile.total_work_s)}, "
            f"critical path {_fmt(profile.critical_path_s)}, "
            f"theoretical speedup {_fmt(profile.theoretical_speedup, 3)}x"
            + (f", n_jobs {profile.n_jobs} -> efficiency "
               f"{efficiency:.0%}" if efficiency is not None else "")
        )
        for name, seconds in profile.path:
            lines.append(f"    -> {name} [{_fmt(seconds)}]")
    return "\n".join(lines)


def render_cache_efficiency(profiler: Profiler) -> str:
    """Overall cache outcome split across engine node spans."""
    totals = profiler.cache_totals()
    if not totals:
        return ""
    total = sum(totals.values())
    hits = totals.get("hit", 0)
    cacheable = hits + totals.get("miss", 0)
    rate = hits / cacheable if cacheable else 0.0
    return (
        f"cache efficiency: {hits}/{cacheable} cacheable nodes replayed "
        f"({rate:.0%}), {totals.get('uncacheable', 0)}/{total} uncacheable"
    )


def render_latency(profiler: Profiler) -> str:
    """Duration-histogram percentiles (the serve latency view)."""
    histograms = profiler.duration_histograms()
    if not histograms:
        return ""
    rows = []
    for record in histograms:
        labels = record.get("labels") or {}
        suffix = ("{" + ",".join(f"{k}={v}"
                                 for k, v in sorted(labels.items())) + "}"
                  if labels else "")
        count = record.get("count") or 0
        mean = (record["sum"] / count) if count else None
        rows.append([
            str(record.get("name")) + suffix, _fmt(count), _fmt(mean),
            _fmt(record.get("p50")), _fmt(record.get("p90")),
            _fmt(record.get("p95")), _fmt(record.get("p99")),
            _fmt(record.get("max")),
        ])
    lines = ["latency percentiles:"]
    lines += _table(
        ["histogram", "count", "mean", "p50", "p90", "p95", "p99", "max"],
        rows,
    )
    return "\n".join(lines)


def render_pools(profiler: Profiler) -> str:
    """Parallel-pool fan-out summary (tasks, chunks, profiled time)."""
    pools = profiler.pool_stats()
    if not pools:
        return ""
    rows = [
        [p["pool"], _fmt(p.get("tasks")), _fmt(p.get("chunks")),
         _fmt(p.get("errors", 0.0)),
         _fmt(p.get("profile.wall_s")), _fmt(p.get("profile.cpu_s"))]
        for p in pools
    ]
    lines = ["parallel pools:"]
    lines += _table(
        ["pool", "tasks", "chunks", "errors", "wall_s", "cpu_s"],
        rows,
    )
    return "\n".join(lines)


def render_profile(records: list[dict], top: int = 20) -> str:
    """The full profile report ``python -m repro profile`` prints."""
    if not isinstance(records, list):
        raise DataError("render_profile expects a list of telemetry records")
    profiler = Profiler(records)
    sections = [
        render_hot_nodes(profiler, top=top),
        render_critical_path(profiler),
        render_cache_efficiency(profiler),
        render_latency(profiler),
        render_pools(profiler),
    ]
    return "\n\n".join(section for section in sections if section)
