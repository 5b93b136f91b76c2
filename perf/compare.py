"""Compare two sets of benchmark results, workload by workload.

Usage::

    python perf/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>.json`` files of one or more runs
(``run.py --out DIR/r1``, ``--out DIR/r2``, ...), found recursively.
For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles and a verdict:

* ``worse`` / ``better`` — the new median moved past the metric's bound
  (a share of the base median);
* ``unresolved`` — either side's interquartile range is wider than the
  bound, unless every run on one side beats every run on the other;
* ``unchanged`` — otherwise.

It also checks that runs of the same seed produced the same
``outputs_digest`` on both sides, and that the absolute shares
(``failed_share``, ``slo_miss_share``) did not grow past their bounds.
Exit status 1 on any regression or digest mismatch, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Shares judged on an absolute bound: the new median may exceed the
#: base median by at most this much.
ABSOLUTE_BOUNDS = {"failed_share": 0.0, "slo_miss_share": 0.005}


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Every result file under ``directory``, grouped by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and "workload" in record \
                and "metrics" in record and "outputs_digest" in record:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """The rule of the module docstring for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    scale = abs(base_median) or 1.0
    change = sign * (new_median - base_median) / scale  # > 0 means worse
    separated = (max(sign * v for v in new) < min(sign * v for v in base)
                 or min(sign * v for v in new) > max(sign * v for v in base))
    noisy = ((base_q3 - base_q1) > bound * scale
             or (new_q3 - new_q1) > bound * (abs(new_median) or 1.0))
    if noisy and not separated:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def absolute_verdict(base: list[float], new: list[float], bound: float) -> str:
    grown = statistics.median(new) - statistics.median(base)
    return "worse" if grown > bound else "unchanged"


def digest_verdict(base_runs: list[dict], new_runs: list[dict]) -> str:
    """``match``, ``MISMATCH`` or ``no common seed``."""
    digests: dict[int, set] = {}
    common = {run["seed"] for run in base_runs} & {run["seed"] for run in new_runs}
    if not common:
        return "no common seed"
    for run in base_runs + new_runs:
        if run["seed"] in common:
            digests.setdefault(run["seed"], set()).add(run["outputs_digest"])
    return "match" if all(len(d) == 1 for d in digests.values()) else "MISMATCH"


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]],
            spec: dict, out=print) -> int:
    """Print the comparison; 1 when anything regressed or mismatched."""
    status = 0
    for workload in sorted(set(base) & set(new)):
        base_runs, new_runs = base[workload], new[workload]
        digest = digest_verdict(base_runs, new_runs)
        out(f"== {workload}: {len(base_runs)} base run(s), "
            f"{len(new_runs)} new run(s), outputs_digest {digest}")
        if digest == "MISMATCH":
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [run["metrics"][name] for run in base_runs]
            after = [run["metrics"][name] for run in new_runs]
            result = verdict(before, after, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            b1, bm, b3 = quartiles(before)
            n1, nm, n3 = quartiles(after)
            out(f"  {name:<18} base {bm:>11.5g} [{b1:.5g}, {b3:.5g}]"
                f"  new {nm:>11.5g} [{n1:.5g}, {n3:.5g}] {metric['unit']:<5}"
                f" bound {metric['bound']:.2f}: {result}")
        for name, bound in ABSOLUTE_BOUNDS.items():
            before = [run["shares"][name] for run in base_runs
                      if name in run.get("shares", {})]
            after = [run["shares"][name] for run in new_runs
                     if name in run.get("shares", {})]
            if not before or not after:
                continue
            result = absolute_verdict(before, after, bound)
            if result == "worse":
                status = 1
            out(f"  {name:<18} base {statistics.median(before):>11.5g}"
                f"  new {statistics.median(after):>11.5g} (absolute bound"
                f" {bound:g}): {result}")
    for workload in sorted(set(base) ^ set(new)):
        out(f"== {workload}: only in {'base' if workload in base else 'new'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    return compare(load_runs(args.base), load_runs(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
