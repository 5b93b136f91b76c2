"""Machine-readable perf trajectory: ``BENCH_<name>.json`` files.

Performance is an audited, versioned artifact like any other release in
this toolkit: every ``python -m repro bench`` run appends one record
per workload — host, perf/'s provenance, per-seed end-to-end values,
their medians and IQR, per-layer values — to that workload's trajectory
file, so "did this PR make it slower?" is a question a CI job (or a
human with ``jq``) can answer from the repository alone.

The same module owns session-capped rotation for the benches' shared
``telemetry.jsonl`` (each append starts with a ``record="session"``
marker; rotation keeps the last N marker-delimited sessions).
"""

from __future__ import annotations

import json
import os
import time

from repro.exceptions import DataError

#: Trajectory files are ``BENCH_<name>.json`` at the repository root.
BENCH_PREFIX = "BENCH_"

#: Env override for where the benches append merged telemetry
#: (mirrors ``REPRO_N_JOBS`` / ``REPRO_STORE``).
TELEMETRY_PATH_ENV = "REPRO_TELEMETRY_PATH"

#: The JSONL record kind that delimits telemetry sessions.
SESSION_RECORD = "session"


def trajectory_path(name: str, directory: str = ".") -> str:
    """``BENCH_<name>.json`` under ``directory``."""
    return os.path.join(directory, f"{BENCH_PREFIX}{name}.json")


def new_trajectory(name: str) -> dict[str, object]:
    return {"record": "bench-trajectory", "name": name, "runs": []}


def load_trajectory(path: str) -> dict[str, object]:
    """Parse a ``BENCH_*.json`` file (raises :class:`DataError` on garbage)."""
    if not os.path.exists(path):
        raise DataError(f"no trajectory file at {path!r}")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise DataError(f"{path} is not a trajectory file: {error}") from None
    if (not isinstance(data, dict)
            or data.get("record") != "bench-trajectory"
            or not isinstance(data.get("runs"), list)):
        raise DataError(f"{path} is not a bench trajectory")
    return data


def append_record(path: str, record: dict[str, object],
                  max_runs: int = 200) -> dict[str, object]:
    """Append one record to the trajectory at ``path`` (created if absent).

    History is capped at ``max_runs`` most-recent entries so the file
    stays reviewable forever.  The write is atomic (temp file + rename).
    """
    if os.path.exists(path):
        trajectory = load_trajectory(path)
    else:
        trajectory = new_trajectory(record["name"])
    trajectory["runs"].append(record)
    trajectory["runs"] = trajectory["runs"][-max_runs:]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return trajectory


def latest_baseline(trajectory: dict[str, object], host: str,
                    seconds: float) -> dict[str, object] | None:
    """The latest record from ``host`` at ``seconds``, or ``None``.

    Records of the older whole-run shape (no per-seed ``seeds``) and
    handicapped runs are never baselines.
    """
    for run in reversed(trajectory.get("runs", [])):
        if (isinstance(run.get("seeds"), list) and not run.get("handicap")
                and run.get("host") == host and run.get("seconds") == seconds):
            return run
    return None


# -- telemetry session rotation ----------------------------------------------


def session_marker(label: str) -> dict[str, object]:
    """The JSONL record that opens one appended telemetry session."""
    return {"record": SESSION_RECORD, "t": time.time(), "label": label}


def rotate_jsonl_sessions(path: str, max_sessions: int) -> int:
    """Keep only the last ``max_sessions`` marker-delimited sessions.

    Content before the first marker (files from before markers existed)
    counts as one legacy session.  Returns the number of sessions kept.
    A missing file is zero sessions, not an error.
    """
    if max_sessions < 1:
        raise DataError("max_sessions must be >= 1")
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        lines = handle.readlines()
    starts = []
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("record") == SESSION_RECORD:
            starts.append(index)
    if starts and starts[0] > 0:
        starts.insert(0, 0)  # legacy pre-marker content is a session
    if not starts:
        return 1 if lines else 0
    if len(starts) <= max_sessions:
        return len(starts)
    cut = starts[len(starts) - max_sessions]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.writelines(lines[cut:])
    os.replace(tmp, path)
    return max_sessions
