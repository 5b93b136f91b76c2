"""Machine-readable perf trajectory: ``BENCH_<name>.json`` files.

Performance is an audited, versioned artifact like any other release in
this toolkit: every harness run appends one record — commit, timestamp,
environment fingerprint, metrics — to a per-benchmark trajectory file,
so "did this PR make it slower?" is a question a CI job (or a human
with ``jq``) can answer from the repository alone.

The same module owns session-capped rotation for the benches' shared
``telemetry.jsonl`` (each append starts with a ``record="session"``
marker; rotation keeps the last N marker-delimited sessions).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

from repro.exceptions import DataError

#: Trajectory files are ``BENCH_<name>.json`` at the repository root.
BENCH_PREFIX = "BENCH_"

#: Env override for where the benches append merged telemetry
#: (mirrors ``REPRO_N_JOBS`` / ``REPRO_STORE``).
TELEMETRY_PATH_ENV = "REPRO_TELEMETRY_PATH"

#: The JSONL record kind that delimits telemetry sessions.
SESSION_RECORD = "session"


def environment_fingerprint() -> dict[str, object]:
    """Where a measurement was taken — compared, not trusted, later."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "n_jobs_env": os.environ.get("REPRO_N_JOBS") or None,
    }


def _git(*args: str, cwd: str | None = None) -> bytes | None:
    """``git <args>``'s stdout, or ``None`` when git fails or is absent."""
    try:
        output = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return output.stdout if output.returncode == 0 else None


def git_commit(cwd: str | None = None) -> str | None:
    """The short HEAD hash, or ``None`` outside a repository."""
    output = _git("rev-parse", "--short", "HEAD", cwd=cwd)
    return (output or b"").decode().strip() or None


def git_diff_state(cwd: str | None = None) -> tuple[bool | None, str | None]:
    """``(dirty, sha256 of git diff HEAD)`` of the working tree.

    The commit alone misattributes a record made on uncommitted work to
    the previous commit; the dirty flag and the diff hash say which
    code was really measured.  ``(None, None)`` outside a repository.
    """
    diff = _git("diff", "HEAD", cwd=cwd)
    if diff is None:
        return None, None
    return bool(diff), hashlib.sha256(diff).hexdigest()


@dataclass
class BenchRecord:
    """One benchmark invocation's measurements, trajectory-ready."""

    name: str
    metrics: dict[str, object]
    mode: str = "full"          # "smoke" | "full"
    runs: int = 1
    warmup: int = 0
    timestamp: float = 0.0
    commit: str | None = None
    dirty: bool | None = field(default=None, init=False)
    diff_sha256: str | None = field(default=None, init=False)
    environment: dict[str, object] = field(default_factory=dict)

    def stamp(self, cwd: str | None = None) -> "BenchRecord":
        """Fill timestamp/commit/environment in from the world."""
        self.timestamp = time.time()
        if self.commit is None:
            self.commit = git_commit(cwd)
            self.dirty, self.diff_sha256 = git_diff_state(cwd)
        if not self.environment:
            self.environment = environment_fingerprint()
        return self

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name, "mode": self.mode,
            "timestamp": self.timestamp, "commit": self.commit,
            "dirty": self.dirty, "diff_sha256": self.diff_sha256,
            "environment": dict(self.environment),
            "runs": self.runs, "warmup": self.warmup,
            "metrics": dict(self.metrics),
        }


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


def append_record(path: str, record: BenchRecord,
                  max_runs: int = 200) -> dict[str, object]:
    """Append one run to the trajectory at ``path`` (created if absent).

    History is capped at ``max_runs`` most-recent entries so the file
    stays reviewable forever.  The write is atomic (temp file + rename).
    """
    if os.path.exists(path):
        trajectory = load_trajectory(path)
    else:
        trajectory = new_trajectory(record.name)
    trajectory["runs"].append(record.to_dict())
    trajectory["runs"] = trajectory["runs"][-max_runs:]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return trajectory


def latest_baseline(trajectory: dict[str, object],
                    mode: str | None = None) -> dict[str, object] | None:
    """The most recent run record (matching ``mode`` when given)."""
    for run in reversed(trajectory.get("runs", [])):
        if mode is None or run.get("mode") == mode:
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
