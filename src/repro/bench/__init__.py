"""``repro.bench`` — the perf trajectory and the front door of ``perf/``.

The observability counterpart to :mod:`repro.obs`: where ``obs`` records
*one run's* spans and metrics, ``bench`` records how the system's speed
moves *across commits*.  Three pieces:

* :func:`run_bench` (:mod:`repro.bench.runner`) — ``python -m repro
  bench``: runs the checkout's ``perf/run.py`` on fixed seeds, appends
  one record per workload and, with ``--check``, applies
  ``perf/compare.py``'s verdicts against the latest same-host record.
* :mod:`repro.bench.trajectory` — ``BENCH_<name>.json`` append-only
  history files plus session-capped rotation for the benches'
  ``telemetry.jsonl``.
* :func:`format_table` — the fixed-width tables the CLI and the
  experiment benches print.
"""

from repro.bench.runner import (
    build_record,
    check_against,
    grown_layers,
    run_bench,
)
from repro.bench.tools import format_table
from repro.bench.trajectory import (
    BENCH_PREFIX,
    SESSION_RECORD,
    TELEMETRY_PATH_ENV,
    append_record,
    latest_baseline,
    load_trajectory,
    new_trajectory,
    rotate_jsonl_sessions,
    session_marker,
    trajectory_path,
)

__all__ = [
    "BENCH_PREFIX",
    "SESSION_RECORD",
    "TELEMETRY_PATH_ENV",
    "append_record",
    "build_record",
    "check_against",
    "format_table",
    "grown_layers",
    "latest_baseline",
    "load_trajectory",
    "new_trajectory",
    "rotate_jsonl_sessions",
    "run_bench",
    "session_marker",
    "trajectory_path",
]
