"""E18 — relational kernels: vectorized join/aggregate vs dict merge.

ROADMAP claim: the :mod:`repro.relational` kernels make multi-table
responsibility *affordable* — a schema-validated, role-propagating join
must not cost more than the naive thing everyone writes instead (a
Python dict keyed on the join column).  Three checks:

* **Join throughput** — ``inner_join`` (searchsorted merge) vs a
  hand-rolled per-row dict merge building the same columns.  The
  vectorized kernel must win on the full-size workload.
* **Aggregate throughput** — ``group_aggregate`` (reduceat) vs a
  per-key Python accumulation loop, same comparison.
* **Semantic equality** — both implementations must produce identical
  values (the dict merge is the executable specification).

The printed table is the record; ``BENCH_relational.json`` at the
repository root is frozen history from before ``python -m repro bench``
became the front door of ``perf/``.

Run directly (``python benchmarks/bench_e18_relational.py``); pass
``--smoke`` for the quick CI-sized variant exercised on every push.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks._tools import SEED, emit, format_table  # noqa: E402
from repro.data.synth import LendingRelationalGenerator  # noqa: E402
from repro.relational import group_aggregate, inner_join  # noqa: E402

#: The vectorized join must beat the dict merge by this factor on the
#: full-size run; smoke runs report the ratio without enforcing it.
MIN_JOIN_SPEEDUP = 1.5


def _timed(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def dict_merge_join(left, right, key):
    """The hand-rolled baseline: per-row dict lookup, Python lists."""
    lookup = {}
    right_key = right.column(key)
    for index in range(right.n_rows):
        lookup.setdefault(right_key[index], []).append(index)
    out_left, out_right = [], []
    left_key = left.column(key)
    for index in range(left.n_rows):
        for match in lookup.get(left_key[index], ()):
            out_left.append(index)
            out_right.append(match)
    columns = {name: left.column(name)[out_left]
               for name in left.column_names}
    for name in right.column_names:
        if name != key:
            columns[name] = right.column(name)[out_right]
    return columns


def dict_aggregate(table, key, value):
    """Per-key Python accumulation: count and mean of ``value``."""
    sums, counts = {}, {}
    keys = table.column(key)
    values = table.column(value)
    for index in range(table.n_rows):
        group = keys[index]
        sums[group] = sums.get(group, 0.0) + values[index]
        counts[group] = counts.get(group, 0) + 1
    return {group: (counts[group], sums[group] / counts[group])
            for group in sums}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else 3
    n_applicants = 2000 if args.smoke else 20_000

    rng = np.random.default_rng(SEED)
    dataset = LendingRelationalGenerator().generate_dataset(
        n_applicants, rng
    )
    applications = dataset.table("applications")
    applicants = dataset.table("applicants")

    failures = []

    # -- join: kernel vs dict merge --------------------------------------
    joined, kernel_join_s = _timed(
        lambda: inner_join(applications, applicants, "applicant_id"),
        repeats,
    )
    merged, dict_join_s = _timed(
        lambda: dict_merge_join(applications, applicants, "applicant_id"),
        repeats,
    )
    if joined.n_rows != len(merged["app_id"]):
        failures.append(
            f"JOIN MISMATCH: kernel {joined.n_rows} rows, "
            f"dict merge {len(merged['app_id'])}"
        )
    elif not all(
        np.array_equal(joined.column(name), merged[name])
        for name in merged
    ):
        failures.append("JOIN MISMATCH: kernel and dict merge differ")
    join_speedup = dict_join_s / kernel_join_s if kernel_join_s else 0.0

    # -- aggregate: kernel vs dict loop ----------------------------------
    agg, kernel_agg_s = _timed(
        lambda: group_aggregate(joined, "group", {
            "n": "count", "approval": ("approved", "mean"),
        }),
        repeats,
    )
    loop, dict_agg_s = _timed(
        lambda: dict_aggregate(joined, "group", "approved"),
        repeats,
    )
    for row in range(agg.n_rows):
        group = agg.column("group")[row]
        count, mean = loop[group]
        if (int(agg.column("n")[row]) != count
                or abs(agg.column("approval")[row] - mean) > 1e-12):
            failures.append(f"AGGREGATE MISMATCH: group {group!r}")
    agg_speedup = dict_agg_s / kernel_agg_s if kernel_agg_s else 0.0

    if not args.smoke and join_speedup < MIN_JOIN_SPEEDUP:
        failures.append(
            f"SPEEDUP REGRESSION: vectorized join only {join_speedup:.2f}x "
            f"over the dict merge (floor {MIN_JOIN_SPEEDUP}x)"
        )

    title = (
        f"E18{' (smoke)' if args.smoke else ''}: relational kernels vs "
        f"hand-rolled dict merge ({applications.n_rows} applications x "
        f"{applicants.n_rows} applicants)"
    )
    table = format_table(
        title,
        ["operation", "kernel_s", "dict_s", "speedup", "identical"],
        [
            ["inner_join", kernel_join_s, dict_join_s,
             join_speedup, "yes" if not any(
                 f.startswith("JOIN") for f in failures) else "NO"],
            ["group_aggregate", kernel_agg_s, dict_agg_s,
             agg_speedup, "yes" if not any(
                 f.startswith("AGGREGATE") for f in failures) else "NO"],
        ],
    )
    emit(table)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
