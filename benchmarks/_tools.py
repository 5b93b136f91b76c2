"""Shared helpers for the experiment benches.

Each bench regenerates one table/figure of the reproduction (see
DESIGN.md's experiment index).  The *printed table* is the artefact; the
pytest-benchmark timing wraps the experiment's core computation so
``pytest benchmarks/ --benchmark-only`` both reproduces the numbers and
times the system.  Run with ``-s`` to see the tables inline
(``EXPERIMENTS.md`` is the committed record).

Every bench additionally runs under a wall-clock :mod:`repro.obs`
telemetry session appended to ``telemetry.jsonl`` (location overridable
via ``REPRO_TELEMETRY_PATH``, mirroring ``REPRO_N_JOBS`` /
``REPRO_STORE``).  Sessions are delimited by marker records and the
file is rotated down to the last :data:`MAX_TELEMETRY_SESSIONS` on each
append, so it never grows without bound.
"""

from __future__ import annotations

import os

from repro import obs
from repro.bench import (
    TELEMETRY_PATH_ENV,
    format_table,
    rotate_jsonl_sessions,
    session_marker,
)

__all__ = ["TELEMETRY_PATH", "SEED", "MAX_TELEMETRY_SESSIONS",
           "format_table", "emit", "telemetry_path", "append_session",
           "run_once"]

_HERE = os.path.dirname(__file__)
#: Import-time default; :func:`telemetry_path` re-reads the env so tests
#: (and CI) can redirect per invocation.
TELEMETRY_PATH = os.environ.get(
    TELEMETRY_PATH_ENV, os.path.join(_HERE, "telemetry.jsonl")
)
SEED = 20170626  # the editorial's publication date

#: Keep this many appended sessions in telemetry.jsonl.
MAX_TELEMETRY_SESSIONS = 24


def telemetry_path() -> str:
    """Where bench telemetry goes (``REPRO_TELEMETRY_PATH`` wins)."""
    return os.environ.get(
        TELEMETRY_PATH_ENV, os.path.join(_HERE, "telemetry.jsonl")
    )


def emit(text: str) -> None:
    """Print a table after a blank line."""
    print("\n" + text)


def append_session(telemetry, label: str) -> None:
    """One marker + the session's merged records, then rotate."""
    path = telemetry_path()
    records = [session_marker(label)] + telemetry.to_dicts()
    obs.write_jsonl(path, records, append=True)
    rotate_jsonl_sessions(path, MAX_TELEMETRY_SESSIONS)


def run_once(benchmark, fn, name: str | None = None):
    """Time ``fn`` exactly once through pytest-benchmark and return it.

    The experiments are deterministic and heavy; one round gives the
    timing without multiplying the work.  The call runs inside a
    wall-clock telemetry session appended to :func:`telemetry_path`,
    labelled ``name`` when given.
    """
    label = getattr(fn, "__qualname__", type(fn).__name__)
    telemetry = obs.configure(clock=obs.WallClock())
    try:
        with telemetry.tracer.span(f"bench:{label}"):
            result = benchmark.pedantic(fn, rounds=1, iterations=1)
    finally:
        append_session(telemetry, name or label)
        obs.reset()
    return result
