"""Measure one workload in this (fresh) process.

``run.py`` starts this file once per workload and per mode, passing the
moment it spawned the process, and reads back the JSON result file.
Set-up time is the median of ``--setup-repeats`` (default
``SETUP_REPEATS``) interpreter starts (from spawn to the program
imported: this process's own, and fresh ``--imports-only`` interpreters
started after the timed phase) plus the median of as many runs of the
workload's set-up.  The first set-up
feeds the timed phase; the others run after it.  The timed phase's CPU
time covers this process and every child it reaped (the process-backend
workers), and its peak RSS is the larger of the two high-water marks.

Every CPU-bound time is scaled to a nominal host speed: the probe of
``probe.py`` runs right before and after each op (and after each import
and set-up), and an op's host speed is the mean of its two probe times
over ``probe.NOMINAL_S``.  Each time is divided by its op's host speed
before it enters a metric; the unscaled metrics and the probe times are
kept in the result file beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time

from probe import NOMINAL_S, probe

#: In-process set-up repetitions behind ``setup_s`` (their median).
SETUP_REPEATS = 3

#: Modules imported before set-up is timed, the same for every workload.
PRELOAD = (
    "repro.core.auditor", "repro.data.partition", "repro.data.synth",
    "repro.learn.linear", "repro.pipeline", "repro.serve",
    "repro.serve.loadgen", "repro.store",
)


class OpClock:
    """Times each op, probes the host's speed right before and after it,
    and switches span recording on for exactly the op.

    An op that starts within ``REUSE_PROBE_S`` of the previous op's end
    takes that op's closing probe as its opening one, so back-to-back
    ops pay for one probe each instead of two.
    """

    REUSE_PROBE_S = 0.25

    def __init__(self, recorder):
        self.recorder = recorder
        self.tracing = recorder is not None
        self.last = 0.0
        self.cpu_last = 0.0
        self.speed = 1.0
        self.window = (0.0, 0.0)
        self.probes: list[float] = []
        self.errors: list[str] = []
        self._closing = (0.0, -math.inf)  # (probe seconds, taken at)

    def _opening_probe(self) -> float:
        seconds, taken_at = self._closing
        if time.perf_counter() - taken_at <= self.REUSE_PROBE_S:
            return seconds
        seconds = probe()
        self.probes.append(seconds)
        return seconds

    @contextlib.contextmanager
    def op(self, label: str):
        before = self._opening_probe()
        recorder = self.recorder
        if recorder is not None:
            recorder.op = label
            recorder.active = True
        cpu = _cpu_s()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if recorder is not None:
                recorder.active = False
            self.cpu_last = _cpu_s() - cpu
            self.last = end - start
            self.window = (start, end)
            after = probe()
            self._closing = (after, time.perf_counter())
            self.probes.append(after)
            self.speed = (before + after) / (2.0 * NOMINAL_S)

    def note_error(self, error: BaseException) -> None:
        self.errors.append(f"{type(error).__name__}: {error}")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # Linux reports kilobytes


def _seconds(samples: list[tuple[float, float]], scaled: bool) -> list[float]:
    return [seconds / speed if scaled else seconds for seconds, speed in samples]


def timed_metrics(outcome, ops: int, scaled: bool) -> dict[str, float]:
    """The timed end-to-end metrics, at nominal host speed if ``scaled``."""
    median = {name: statistics.median(_seconds(samples, scaled))
              for name, samples in outcome.samples.items()}
    return {
        "latency_p50_ms": median["latency_p50_ms"] * 1e3,
        "warm_p50_ms": median["warm_p50_ms"] * 1e3,
        "throughput_per_s": 1.0 / median["unit_s"],
        "cpu_ms_per_op": sum(_seconds(outcome.cpu_s, scaled)) / ops * 1e3,
    }


def load_program(args):
    """Import the program and install the wrappers; the span recorder."""
    from tracing import Recorder, install

    for module in PRELOAD:
        importlib.import_module(module)
    recorder = Recorder() if args.trace else None
    install(recorder, args.handicap)
    return recorder


def import_sample(spawned_at: float) -> dict:
    """Seconds from this interpreter's spawn to here, and a probe right after."""
    return {"import_s": time.time() - spawned_at, "probe_s": probe()}


def fresh_import_sample() -> dict:
    """:func:`import_sample` of a new interpreter started like this one."""
    done = subprocess.run(
        [sys.executable, __file__, *sys.argv[1:], "--imports-only",
         "--spawned-at", repr(time.time())],
        capture_output=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def measure(args) -> dict:
    from workloads import WORKLOADS

    recorder = load_program(args)
    imports = [import_sample(args.spawned_at)]

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
    setups: list[float] = []
    setup_probes = [imports[0]["probe_s"]]

    def timed_setup():
        started = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - started)
        setup_probes.append(probe())
        return state

    state = timed_setup()
    # Move everything set-up built (inputs, tables, models, servers) out
    # of the collector's sight, so collection pauses in the timed phase
    # scale with what the timed phase allocates, not with input size.
    gc.collect()
    gc.freeze()
    clock = OpClock(recorder)
    cpu_before = _cpu_s()
    started = time.perf_counter()
    outcome = workload.run(state, clock)
    timed_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu_before
    reaped = not multiprocessing.active_children()
    peak_rss_mb = _peak_rss_mb()
    workload.verify(state, outcome)
    workload.teardown(state)
    outcome.checks["workers_reaped"] = reaped
    # The other set-up repetitions run last, so the memory they leave
    # behind cannot raise the peak RSS of the timed phase.
    del state
    gc.unfreeze()
    for _ in range(args.setup_repeats - 1):
        gc.collect()
        workload.teardown(timed_setup())
        imports.append(fresh_import_sample())
    setup_speed = statistics.median(setup_probes) / NOMINAL_S

    ops = max(outcome.attempted, 1)
    metrics = timed_metrics(outcome, ops, scaled=True)
    unscaled = timed_metrics(outcome, ops, scaled=False)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = (
        statistics.median(sample["import_s"] * NOMINAL_S / sample["probe_s"]
                          for sample in imports)
        + statistics.median(setups) / setup_speed
    )
    unscaled["setup_s"] = (
        statistics.median(sample["import_s"] for sample in imports)
        + statistics.median(setups)
    )
    result = {
        "metrics": metrics,
        "unscaled_metrics": unscaled,
        "probe_ms": {"timed_median": statistics.median(clock.probes) * 1e3,
                     "setup_median": setup_speed * NOMINAL_S * 1e3,
                     "nominal": NOMINAL_S * 1e3},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "outputs_digest": outcome.digest,
        "shares": {"failed_share": outcome.failed / ops, **outcome.shares},
        "samples": {
            name: {"statistic": statistic, "samples": len(samples),
                   "of": outcome.details.get(name)}
            for name, statistic, samples in (
                ("latency_p50_ms", "median", outcome.samples["latency_p50_ms"]),
                ("warm_p50_ms", "median", outcome.samples["warm_p50_ms"]),
                ("throughput_per_s", "1 / median seconds per unit",
                 outcome.samples["unit_s"]),
                ("cpu_ms_per_op", "total CPU / ops", outcome.cpu_s),
            )
        },
        "setup": {"imports": imports, "repeats_s": setups,
                  "probes_s": setup_probes},
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "details": outcome.details,
        "errors": clock.errors,
    }
    if recorder is not None:
        windows = outcome.attribution_windows
        span_s = sum(end - start for start, end in windows)
        layers = dict(outcome.layers)
        layers["obs.unattributed_share"] = (
            1.0 - recorder.covered(windows) / span_s if span_s else 0.0
        )
        result["layers"] = layers
        result["spans"] = {"calls": recorder.calls, "self_s": recorder.self_s,
                           "counters": recorder.counters, "ops": ops,
                           "dropped": recorder.dropped}
        if args.spans:
            with open(args.spans, "w") as handle:
                for name, thread, depth, start, end, own, op in recorder.spans:
                    handle.write(json.dumps({
                        "span": name, "thread": thread, "depth": depth,
                        "start": start, "end": end, "self_s": own,
                        "op": op,
                    }) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--handicap", type=json.loads, default={})
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    parser.add_argument("--imports-only", action="store_true",
                        help="print an import sample and exit")
    args = parser.parse_args(argv)
    if args.imports_only:
        load_program(args)
        print(json.dumps(import_sample(args.spawned_at)))
        return 0
    result = measure(args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
