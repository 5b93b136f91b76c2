"""The five benchmark workloads.

Every workload does a fixed amount of work for a given ``--seconds``
(op counts are fixed functions of it), so two commits measured with the
same arguments do identical work, take the same number of samples and
must produce the same ``outputs_digest``.  All inputs are generated
here from the seed; the program only ever sees the generated tables
and requests.  All five use ``CensusIncomeGenerator`` data, which
declares three quasi-identifiers and a sensitive column, so every FACT
pillar does real work.  Parallelism is capped at two: the process
backend runs two workers and the server two worker threads.

A workload has three steps.  ``setup`` builds everything the timed
phase needs (the harness runs it several times and reports the median).
``run`` is the timed phase: every op runs inside ``clock.op(...)``,
which times it, measures its CPU, probes the host's speed around it and
switches span recording on for exactly the op.  ``verify`` runs
afterwards, untimed: the correctness checks and the output digest.

The timed end-to-end metrics come from samples spread across the run
(ops for the audit and pipeline workloads, requests and rounds for the
serve workloads), each filed with the host speed measured around it
(see ``probe.py``), so interference from outside the process moves
some samples and not the metric.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

#: Rounds of the serve workloads: each is a nominal slice, a burst
#: phase and replays of the bursts' requests.  More, shorter rounds
#: sample the host's state more often (see ``probe.py``).
SERVE_ROUNDS = 16


@dataclass
class Outcome:
    """What one timed phase measured, before it becomes metrics.

    Every time is filed as ``(seconds, host speed)``.  ``latency_p50_ms``
    and ``warm_p50_ms`` are medians of their samples; ``throughput_per_s``
    is one over the median of ``unit_s``, the seconds per row or request
    of each throughput op; ``cpu_ms_per_op`` is the summed ``cpu_s``
    over ``attempted``.
    """

    samples: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: {"latency_p50_ms": [], "warm_p50_ms": [],
                                 "unit_s": []})
    #: CPU of this process and its reaped children, per op.
    cpu_s: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest_parts: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    #: Clock windows over which the unattributed share is taken.
    attribution_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Per-layer values the workload measures itself (store and serve
    #: counters, generator lateness), already per op or ratios.
    layers: dict[str, float] = field(default_factory=dict)
    #: Absolute-bound shares reported beside the metrics.
    shares: dict[str, float] = field(default_factory=dict)
    #: What each sample list holds, and other op counts.
    details: dict = field(default_factory=dict)

    def sample(self, metric: str, value: float, speed: float) -> None:
        self.samples[metric].append((value, speed))

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_parts).encode()).hexdigest()


def _rng(seed: int, *words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


_STORE_COUNTERS = ("hits", "misses", "bytes_read", "bytes_written",
                   "corruptions")


def _store_layers(deltas: list[dict], ops: int) -> dict[str, float]:
    """Per-op store traffic and the hit share, from ``stats()`` deltas."""
    total = {key: sum(delta[key] for delta in deltas)
             for key in _STORE_COUNTERS}
    lookups = total["hits"] + total["misses"]
    return {
        "store.bytes_read": total["bytes_read"] / ops,
        "store.bytes_written": total["bytes_written"] / ops,
        "store.corruptions": total["corruptions"] / ops,
        "store.hit_share": total["hits"] / lookups if lookups else 0.0,
    }


def _stats_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in _STORE_COUNTERS}


def _measure(out: Outcome, clock, label: str, fn, *, primary: bool,
             rows: int = 0):
    """Run one op under ``clock``; file its samples; ``None`` if it raised."""
    out.attempted += 1
    try:
        with clock.op(label):
            value = fn()
    except Exception as error:  # counted and reported, never fatal
        out.failed += 1
        clock.note_error(error)
        return None
    finally:
        out.cpu_s.append((clock.cpu_last, clock.speed))
    if primary:
        out.sample("latency_p50_ms", clock.last, clock.speed)
        out.sample("unit_s", clock.last / rows, clock.speed)
    else:
        out.sample("warm_p50_ms", clock.last, clock.speed)
    out.attribution_windows.append(clock.window)
    return value


def _warm_up_audit(model, generator, calibration, seed: int) -> None:
    """One small audit, so lazy imports and first calls happen in set-up."""
    from repro.core.auditor import FACTAuditor
    from repro.store import ArtifactStore

    FACTAuditor(n_bootstrap=10, n_jobs=1, backend="serial",
                store=ArtifactStore.in_memory()).audit(
        model, generator.generate(500, _rng(seed, 9)), _rng(seed, 9),
        calibration=calibration,
    )


def _fingerprint(report) -> str | None:
    """A report's fingerprint (``None`` for a failed op), taken right away
    so no report object outlives its op."""
    return None if report is None else report.fingerprint()


def _pairs_equal(pairs: list, out: Outcome) -> bool:
    """Digest each first fingerprint; True when every repeat equals it."""
    equal = True
    for first, repeat in pairs:
        out.digest_parts.append(str(first))
        equal &= first is not None and repeat == first
    return equal


class Workload:
    """Base: sizes from ``(seed, seconds, tiny)``; subclasses do the work."""

    name = ""

    def __init__(self, seed: int, seconds: float, tiny: bool):
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny

    def teardown(self, state) -> None:
        """Release what ``setup`` started (servers)."""


# -- audits ------------------------------------------------------------------

class AuditCold(Workload):
    """Serial cold FACT audits of fresh tables, each re-audited warm.

    The compute layers (learn, accuracy, fairness, confidentiality,
    transparency) do nearly all the work; the engine and store do
    almost none (four plan nodes per op, all misses).  The workload for
    kernel and audit-plan changes, and the bypass case for key and
    lookup changes.
    """

    name = "audit_cold"

    def setup(self):
        from repro.data.synth import CensusIncomeGenerator
        from repro.learn.linear import LogisticRegression
        from repro.learn.table_model import TableClassifier

        tiny = self.tiny
        self.rows = 1_000 if tiny else 5_000
        self.n_bootstrap = 20 if tiny else 100
        n_ops = 2 if tiny else max(2, round(2.4 * self.seconds))
        rng = _rng(self.seed, 1)
        generator = CensusIncomeGenerator()
        train = generator.generate(600 if tiny else 4_000, rng)
        calibration = generator.generate(300 if tiny else 1_500, rng)
        tables = [generator.generate(self.rows, rng) for _ in range(n_ops)]
        model = TableClassifier(LogisticRegression()).fit(train)
        _warm_up_audit(model, generator, calibration, self.seed)
        return {"model": model, "calibration": calibration, "tables": tables}

    def run(self, state, clock) -> Outcome:
        from repro.core.auditor import FACTAuditor
        from repro.store import ArtifactStore

        out = Outcome()
        deltas, reports = [], []
        for index, table in enumerate(state["tables"]):
            store = ArtifactStore.in_memory()
            auditor = FACTAuditor(n_bootstrap=self.n_bootstrap, n_jobs=1,
                                  backend="serial", store=store)

            def audit():
                return auditor.audit(state["model"], table,
                                     _rng(self.seed, 2, index),
                                     calibration=state["calibration"])

            cold = _fingerprint(_measure(out, clock, f"cold-{index}", audit,
                                         primary=True, rows=self.rows))
            warm = _fingerprint(_measure(out, clock, f"warm-{index}", audit,
                                         primary=False))
            reports.append((cold, warm))
            deltas.append(store.stats())  # a fresh store per op
        out.layers.update(_store_layers(deltas, max(out.attempted, 1)))
        state["reports"] = reports
        n_ops = len(state["tables"])
        out.details = {
            "ops": {"cold": n_ops, "warm": n_ops}, "rows_per_op": self.rows,
            "latency_p50_ms": "cold audits", "warm_p50_ms": "warm re-audits",
            "throughput_per_s": "rows audited per second of cold audits",
        }
        return out

    def verify(self, state, out: Outcome) -> None:
        out.checks["warm_audit_equals_cold"] = _pairs_equal(state["reports"],
                                                            out)


class AuditIncremental(Workload):
    """Daily-ingest re-audits of a sharded table on the process backend.

    Each primary op appends rows to the last shard and re-audits (one
    map task plus the four combines); each warm op re-audits the
    unchanged data, so every node hits.  The engine, store, sharding
    and parallel layers do most of the work.
    """

    name = "audit_incremental"

    def setup(self):
        from repro.core.auditor import FACTAuditor
        from repro.data.partition import PartitionedTable
        from repro.data.synth import CensusIncomeGenerator
        from repro.learn.linear import LogisticRegression
        from repro.learn.table_model import TableClassifier
        from repro.store import ArtifactStore

        tiny = self.tiny
        n_shards = 4 if tiny else 16
        n_ops = 2 if tiny else max(2, round(0.8 * self.seconds))
        self.n_bootstrap = 10 if tiny else 20
        rng = _rng(self.seed, 1)
        generator = CensusIncomeGenerator()
        model = TableClassifier(LogisticRegression()).fit(
            generator.generate(600 if tiny else 4_000, rng)
        )
        data = PartitionedTable.partition(
            generator.generate(n_shards * (300 if tiny else 2_500), rng),
            n_shards=n_shards,
        )
        appends = [generator.generate(20 if tiny else 200, rng)
                   for _ in range(n_ops)]
        auditor = FACTAuditor(n_bootstrap=self.n_bootstrap, n_jobs=2,
                              backend="process",
                              store=ArtifactStore.in_memory())
        # The first cold sharded audit belongs to set-up.
        first = auditor.audit(model, data, _rng(self.seed, 2)).fingerprint()
        return {"model": model, "data": data, "appends": appends,
                "auditor": auditor, "first": first}

    def run(self, state, clock) -> Outcome:
        from repro.data.table import Table

        out = Outcome()
        auditor, model = state["auditor"], state["model"]
        before = auditor.store.stats()
        current = {"data": state["data"]}
        last = state["data"].n_shards - 1
        reports = []
        for index, new_rows in enumerate(state["appends"]):

            def append_and_audit():
                data = current["data"]
                current["data"] = data.replaced(last, Table.concat(
                    [data.shard(last), new_rows]
                ))
                return audit()

            def audit():
                return auditor.audit(model, current["data"],
                                     _rng(self.seed, 2))

            rows = current["data"].n_rows + new_rows.n_rows
            primary = _fingerprint(_measure(out, clock, f"append-{index}",
                                            append_and_audit, primary=True,
                                            rows=rows))
            warm = _fingerprint(_measure(out, clock, f"warm-{index}", audit,
                                         primary=False))
            reports.append((primary, warm))
        out.layers.update(_store_layers(
            [_stats_delta(before, auditor.store.stats())],
            max(out.attempted, 1),
        ))
        state["reports"] = reports
        n_ops = len(state["appends"])
        out.details = {
            "ops": {"append": n_ops, "warm": n_ops},
            "shards": state["data"].n_shards,
            "latency_p50_ms": "append-then-re-audit ops",
            "warm_p50_ms": "re-audits of unchanged data",
            "throughput_per_s": "rows re-audited per second of append ops",
        }
        return out

    def verify(self, state, out: Outcome) -> None:
        from repro.core.auditor import FACTAuditor

        # The first cold sharded audit must equal a serial audit of the
        # same rows.
        serial = FACTAuditor(n_bootstrap=self.n_bootstrap, n_jobs=1,
                             backend="serial").audit(
            state["model"], state["data"].concat(), _rng(self.seed, 2)
        )
        out.checks["sharded_equals_serial"] = (
            serial.fingerprint() == state["first"]
        )
        out.checks["warm_audit_equals_primary"] = _pairs_equal(
            state["reports"], out
        )


# -- the decision pipeline ---------------------------------------------------

class PipelineRuns(Workload):
    """Fingerprint-provenance pipeline runs over repeated batches.

    A seed-derived order runs every batch three times against one
    store: the first run is cold (store writes), the others warm (store
    reads), and training recomputes every time.  Shows provenance,
    fingerprinting, store and fusion changes.
    """

    name = "pipeline"

    def setup(self):
        from repro.data.synth import CensusIncomeGenerator
        from repro.store import ArtifactStore

        tiny = self.tiny
        self.rows = 2_000 if tiny else 20_000
        n_batches = 2 if tiny else max(2, round(1.6 * self.seconds))
        rng = _rng(self.seed, 1)
        generator = CensusIncomeGenerator()
        batches = [generator.generate(self.rows, rng) for _ in range(n_batches)]
        order = [int(b) for b in rng.permutation(np.repeat(
            np.arange(n_batches), 3
        ))]
        # One small run first, so lazy imports happen in set-up.
        self._pipeline(ArtifactStore.in_memory()).run(
            generator.generate(1_000, _rng(self.seed, 9)), _rng(self.seed, 9)
        )
        return {"batches": batches, "order": order,
                "store": ArtifactStore.in_memory()}

    @staticmethod
    def _pipeline(store):
        from repro.learn.linear import LogisticRegression
        from repro.learn.table_model import TableClassifier
        from repro.pipeline import Pipeline
        from repro.pipeline.stage import (
            CleanStage,
            DecideStage,
            PredictStage,
            RedactStage,
            ReweighStage,
            TrainStage,
        )

        return Pipeline([
            CleanStage(), RedactStage(), ReweighStage(),
            TrainStage(TableClassifier(LogisticRegression())),
            PredictStage(), DecideStage(),
        ], provenance="fingerprint", store=store)

    def run(self, state, clock) -> Outcome:
        from repro.store import table_fingerprint

        out = Outcome()
        store = state["store"]
        before = store.stats()
        seen: set[int] = set()
        outputs = []
        for index, batch in enumerate(state["order"]):
            cold = batch not in seen
            seen.add(batch)
            pipeline = self._pipeline(store)
            result = _measure(
                out, clock, f"{'cold' if cold else 'warm'}-{index}",
                lambda: pipeline.run(state["batches"][batch],
                                     _rng(self.seed, 3, batch)),
                primary=cold, rows=self.rows,
            )
            outputs.append((batch, cold, None if result is None
                            else table_fingerprint(result.table)))
        out.layers.update(_store_layers([_stats_delta(before, store.stats())],
                                        max(out.attempted, 1)))
        state["outputs"] = outputs
        n_batches = len(state["batches"])
        out.details = {
            "ops": {"cold": n_batches, "warm": 2 * n_batches},
            "rows_per_op": self.rows, "order": state["order"],
            "latency_p50_ms": "cold runs", "warm_p50_ms": "warm runs",
            "throughput_per_s": "rows per second of cold runs",
        }
        return out

    def verify(self, state, out: Outcome) -> None:
        cold_fp: dict[int, str] = {}
        warm_equal = True
        for batch, cold, fingerprint in state["outputs"]:
            out.digest_parts.append(str(fingerprint))
            if fingerprint is None:
                warm_equal = False
            elif cold:
                cold_fp[batch] = fingerprint
            else:
                warm_equal &= cold_fp.get(batch) == fingerprint
        out.checks["warm_run_equals_cold"] = warm_equal


# -- DP serving --------------------------------------------------------------

def _zipf(n: int, s: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


def _answer(value) -> str:
    if isinstance(value, dict):
        return json.dumps(sorted((str(k), repr(v)) for k, v in value.items()))
    return repr(value)


class _Tally:
    """Served results folded into what the checks need, as they arrive.

    Holding every reply until the end would grow the memory and the
    collector's work round by round and slow the later rounds, so the
    answers go into a running digest and the charges into plain floats.
    """

    def __init__(self):
        self.digest = hashlib.sha256()
        self.charged: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, results, digest: bool = True) -> None:
        """Fold ``results`` in, in request order (their answers into the
        digest unless ``digest`` is false)."""
        for result in results:
            if digest:
                self.digest.update(_answer(result.value).encode() + b"\n")
            self.charged.setdefault(result.tenant, []).append(
                result.epsilon_charged)
            self.attempted += 1
            self.failed += not result.ok


class Serve(Workload):
    """Multi-tenant DP serving in rounds: open loop, bursts, replay.

    Each round sends a nominal slice as an open loop with Poisson
    arrivals, then a burst phase of geometric bursts (mean 256), each
    cleared before the next arrives, then ``replays`` bursts replaying
    the burst phase's requests (all cache hits).  Each round's requests
    come from its own 16 Zipf tenants, so every round starts from empty
    ledgers and the rounds are alike.  Subclasses fix the traffic:
    ``fresh`` gives every request its own ε (so it misses the answer
    cache but can still coalesce), the nominal rate and the share of
    ``seconds`` the nominal slices take, the burst-phase requests per
    second of ``seconds``, the replays, and which phase's requests
    ``latency_p50_ms`` is over.
    """

    fresh = False
    rate = 0.0
    nominal_share = 0.0
    #: Burst-phase requests over all rounds, per second of ``seconds``.
    burst_rate = 0
    replays = 1
    slo_s = 0.0
    #: ``latency_p50_ms`` over the nominal slices' requests (timed from
    #: their due times) when true, else over the burst phases' requests.
    open_loop_latency = True
    n_tenants = 16
    n_shapes = 64

    def _requests(self, n: int, rng: np.random.Generator, start: int,
                  tenants: str) -> list:
        from repro.serve import QueryRequest

        draws = rng.choice(self.n_tenants, size=n,
                           p=_zipf(self.n_tenants, 1.2))
        picks = rng.choice(self.n_shapes, size=n, p=_zipf(self.n_shapes, 1.2))
        requests = []
        for offset, (tenant, pick) in enumerate(zip(draws, picks)):
            shape = dict(self.shapes[pick])
            if self.fresh:
                shape["epsilon"] *= 1.0 + 1e-4 * (start + offset)
            requests.append(QueryRequest(tenant=f"{tenants}-{tenant:03d}",
                                         **shape))
        return requests

    def setup(self):
        from repro.data.synth import CensusIncomeGenerator
        from repro.serve import QueryRequest, QueryServer, ServeConfig
        from repro.serve.loadgen import TABLE_NAME, query_shapes

        from openloop import burst_sizes, poisson_schedule

        tiny = self.tiny
        rounds = 1 if tiny else SERVE_ROUNDS
        slice_s = 0.5 if tiny else self.nominal_share * self.seconds / rounds
        overload = 300 if tiny else round(self.burst_rate * self.seconds
                                          / rounds)
        self.shapes = query_shapes(self.n_shapes)
        rng = _rng(self.seed, 4)
        table = CensusIncomeGenerator().generate(5_000 if tiny else 50_000, rng)
        counter = 0
        plan = []
        for index in range(rounds):
            tenants = f"round{index}"
            due = poisson_schedule(self.rate, slice_s, rng)
            nominal = self._requests(len(due), rng, counter, tenants)
            counter += len(nominal)
            burst = self._requests(overload, rng, counter, tenants)
            counter += overload
            plan.append({"due": due, "nominal": nominal, "burst": burst,
                         "sizes": burst_sizes(overload, 256, rng)})
        config = ServeConfig(
            workers=2, seed=self.seed, batch_window_ms=2.0,
            default_epsilon_budget=1e9,
            max_queue_depth=max(4096, overload,
                                max(len(r["due"]) for r in plan)),
        )
        server = QueryServer(config)
        server.register_table(TABLE_NAME, table)
        warmup = [QueryRequest(tenant="warmup-000", **shape)
                  for shape in self.shapes]
        if self.fresh:
            # Distinct from every timed request's ε (factor below 1).
            warmup = [replace(request,
                              epsilon=request.epsilon * (1.0 - 1e-4 * (k + 1)))
                      for k, request in enumerate(warmup)]
        else:
            warmup += self._requests(500, rng, counter, "warmup")
        server.submit_batch(warmup)
        server.drain()
        return {"server": server, "rounds": plan}

    def teardown(self, state) -> None:
        state["server"].close()

    def run(self, state, clock) -> Outcome:
        from openloop import burst_phase, open_loop

        out = Outcome()
        server = state["server"]
        budget = server.budget
        ledger_before = {tenant: len(budget.accountant(tenant).ledger)
                         for tenant in budget.tenants}
        stats_before = server.stats()
        depths: list[int] = []
        tick = None
        if clock.tracing:
            last_sample = [0.0]

            def tick():
                now = time.perf_counter()
                if now - last_sample[0] >= 0.01:
                    last_sample[0] = now
                    depths.append(server.stats()["outstanding"])

        def phase(label, run):
            with clock.op(label):
                value = run()
            out.cpu_s.append((clock.cpu_last, clock.speed))
            return value

        def nominal(spec):
            sent, pending = open_loop(server.submit, spec["nominal"],
                                      spec["due"], tick=tick)
            server.drain()
            return sent, pending

        tally = _Tally()
        lateness, nominal_latency = [], []
        slo_misses = sent_nominal = 0
        replays_equal = True
        for index, spec in enumerate(state["rounds"]):
            sent, pending = phase(f"nominal-{index}", lambda: nominal(spec))
            results = [item.result() for item in pending]
            late = np.asarray(sent) - spec["due"]
            latency = late + np.asarray([r.duration or 0.0 for r in results])
            if self.open_loop_latency:
                # Timers and thread wake-ups, not computation, make up
                # most of this, so it is not scaled to host speed.
                for value in latency:
                    out.sample("latency_p50_ms", float(value), 1.0)
            nominal_latency.append(latency)
            lateness.append(late)
            sent_nominal += len(results)
            slo_misses += sum(not result.ok or wait > self.slo_s
                              for result, wait in zip(results, latency))
            tally.add(results)
            del results, pending

            burst = spec["burst"]
            durations: list[float] = []
            originals: list = []

            def keep(results):
                durations.extend(result.duration or 0.0 for result in results)
                originals.extend(result.value for result in results)
                tally.add(results)

            busy_s = phase(f"burst-{index}", lambda: burst_phase(
                server, burst, spec["sizes"], keep))
            out.attribution_windows.append(clock.window)
            out.sample("unit_s", busy_s / len(burst), clock.speed)
            if not self.open_loop_latency:
                for value in durations:
                    out.sample("latency_p50_ms", value, clock.speed)

            replayed = []

            def check(results):
                # A replay must return the very answer it replays, so only
                # the first answers enter the digest.
                replayed.extend(
                    reply.ok and reply.cached and reply.value == original
                    for reply, original in zip(results, originals))
                tally.add(results, digest=False)

            busy_s = phase(f"replay-{index}", lambda: burst_phase(
                server, burst * self.replays, [len(burst)] * self.replays,
                check))
            out.sample("warm_p50_ms", busy_s / (len(burst) * self.replays),
                       clock.speed)
            replays_equal &= (len(replayed) == len(burst) * self.replays
                              and all(replayed))
        stats_after = server.stats()

        out.attempted, out.failed = tally.attempted, tally.failed
        state.update(tally=tally, ledger_before=ledger_before,
                     stats_after=stats_after, replays_equal=replays_equal)
        out.shares["slo_miss_share"] = slo_misses / sent_nominal
        out.layers.update(self._serve_layers(
            stats_before, stats_after, out.attempted,
            np.concatenate(lateness), depths,
        ))
        every = np.concatenate(nominal_latency)
        out.details = {
            "rounds": len(state["rounds"]),
            "ops": {"nominal": [len(r["nominal"]) for r in state["rounds"]],
                    "burst": [len(r["burst"]) for r in state["rounds"]],
                    "replay": [self.replays * len(r["burst"])
                               for r in state["rounds"]]},
            "burst_sizes": [r["sizes"] for r in state["rounds"]],
            "nominal_rate_per_s": self.rate, "slo_ms": self.slo_s * 1e3,
            "nominal_p50_ms": float(np.percentile(every, 50)) * 1e3,
            "nominal_p99_ms": float(np.percentile(every, 99)) * 1e3,
            "nominal_samples": int(every.size),
            "latency_p50_ms": (
                "nominal requests, each timed from its due time"
                if self.open_loop_latency else
                "burst-phase requests, each timed by the server from its"
                " submission to its answer"
            ),
            "warm_p50_ms": "per-round seconds per request of bursts replaying"
                       " the round's burst-phase requests (all cache hits)",
            "throughput_per_s": "requests per busy second of burst phases",
        }
        return out

    @staticmethod
    def _serve_layers(before: dict, after: dict, ops: int, late: np.ndarray,
                      depths: list[int]) -> dict[str, float]:
        batching = {key: after["batching"][key] - before["batching"][key]
                    for key in ("batches", "batched_queries", "coalesced",
                                "shed_deadline", "shed_queue")}
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        return {
            "serve.cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
            "serve.batch_fill": (batching["batched_queries"] / batching["batches"]
                                 if batching["batches"] else 0.0),
            "serve.coalesced_share": batching["coalesced"] / ops,
            "serve.shed": (batching["shed_deadline"] + batching["shed_queue"]) / ops,
            "serve.queue_depth_mean": float(np.mean(depths)) if depths else 0.0,
            "serve.queue_depth_max": float(max(depths)) if depths else 0.0,
            "loadgen.late_p99_ms": float(np.percentile(late, 99)) * 1e3,
            "loadgen.late_max_ms": float(late.max()) * 1e3,
        }

    def verify(self, state, out: Outcome) -> None:
        server = state["server"]
        tally = state["tally"]
        out.digest_parts.append(tally.digest.hexdigest())
        out.checks["all_ok"] = tally.failed == 0
        out.checks["replays_equal_answers"] = state["replays_equal"]
        ledger_ok = True
        for tenant in server.budget.tenants:
            entries = server.budget.accountant(tenant).ledger[
                state["ledger_before"].get(tenant, 0):]
            ledger_ok &= (math.fsum(entry.epsilon for entry in entries)
                          == math.fsum(tally.charged.get(tenant, ())))
        out.checks["epsilon_charged_equals_spent"] = ledger_ok
        out.checks["nothing_outstanding"] = state["stats_after"]["outstanding"] == 0


class ServeFresh(Serve):
    """Every request carries its own ε: cache misses that still coalesce.

    ``group_stats``, the noise draws, the budget ledger and batching do
    the work — where a data-plane change must claim its gain.
    """

    name = "serve_fresh"
    fresh = True
    rate = 150.0
    nominal_share = 0.7
    burst_rate = 1_800
    replays = 4
    slo_s = 0.050


class ServeCached(Serve):
    """Fixed ε per shape on a warm cache: nearly every request replays.

    Admission, planning, the cache and the dispatcher do the work and
    ``group_stats`` almost none — the bypass case for data-plane changes
    and the case for front-end changes.

    ``latency_p50_ms`` is over the burst phases: a lone cache hit takes
    about 50 µs, most of it the host waking the server's loop thread,
    and on a shared VM that wake-up alone moved the open-loop median by
    29% (interquartile range over median, ten seeds).  The open-loop
    median and p99 stay in the result file.
    """

    name = "serve_cached"
    rate = 2_000.0
    nominal_share = 0.2
    burst_rate = 18_000
    replays = 2
    slo_s = 0.020
    open_loop_latency = False


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AuditCold, AuditIncremental, PipelineRuns,
                              ServeFresh, ServeCached)
}
