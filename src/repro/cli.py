"""Command-line interface: FACT audits without writing code.

::

    python -m repro audit data.csv --target approved --sensitive group
    python -m repro datasheet data.csv --name my-dataset
    python -m repro anonymize data.csv -k 10 --quasi age --quasi zipcode -o safe.csv
    python -m repro synthesize data.csv --epsilon 2.0 -o synthetic.csv
    python -m repro join apps.csv zones.csv --on zone_id --scan -o flat.csv
    python -m repro telemetry run.jsonl
    python -m repro profile run.jsonl
    python -m repro bench --smoke --check
    python -m repro serve queries.jsonl --data data.csv -o responses.jsonl

CSV files written by :func:`repro.data.write_csv` carry their FACT roles
in metadata comments; for plain CSVs, declare roles with the flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.confidentiality.anonymity import MondrianAnonymizer
from repro.confidentiality.pseudonym import Pseudonymizer
from repro.confidentiality.risk import assess_risk
from repro.confidentiality.synthesis import MarginalSynthesizer
from repro.core import FACTAuditor, FACTPolicy, build_scorecard
from repro.data.io import read_csv, write_csv
from repro.data.schema import ColumnRole
from repro.data.split import three_way_split
from repro.exceptions import ReproError
from repro.learn.linear import LogisticRegression
from repro.obs import (
    read_telemetry,
    render_audit_tail,
    render_cache_summary,
    render_metrics_table,
    render_profile,
    render_span_tree,
)
from repro.learn.table_model import TableClassifier
from repro.serve import QueryServer, ServeConfig
from repro.transparency.datasheet import build_datasheet


def _load(path: str, args) -> "Table":  # noqa: F821 - doc only
    table = read_csv(path)
    for name in getattr(args, "sensitive", None) or []:
        table = table.with_role(name, ColumnRole.SENSITIVE)
    for name in getattr(args, "quasi", None) or []:
        table = table.with_role(name, ColumnRole.QUASI_IDENTIFIER)
    for name in getattr(args, "identifier", None) or []:
        table = table.with_role(name, ColumnRole.IDENTIFIER)
    target = getattr(args, "target", None)
    if target:
        table = table.with_role(target, ColumnRole.TARGET)
    return table


def _cmd_audit(args) -> int:
    table = _load(args.data, args)
    rng = np.random.default_rng(args.seed)
    train, calibration, test = three_way_split(
        table, args.test_fraction, args.calibration_fraction, rng
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    auditor = FACTAuditor(
        shards=args.shards, n_jobs=args.jobs, backend=args.backend
    )
    report = auditor.audit(
        model, test, rng, calibration=calibration, subject=args.data
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        violations = FACTPolicy().check(report)
        return 1 if violations and args.strict else 0
    print(report.render())
    print()
    print(build_scorecard(report).render())
    violations = FACTPolicy().check(report)
    print(f"\npolicy violations: {len(violations)}")
    for violation in violations:
        print(f"  - {violation.render()}")
    return 1 if violations and args.strict else 0


def _cmd_datasheet(args) -> int:
    table = _load(args.data, args)
    sheet = build_datasheet(
        table, name=args.name or args.data,
        provenance=f"loaded from {args.data}",
    )
    print(sheet.render())
    return 0


def _cmd_anonymize(args) -> int:
    table = _load(args.data, args)
    if not table.schema.quasi_identifier_names:
        print("error: declare quasi-identifiers with --quasi", file=sys.stderr)
        return 2
    print("before:", assess_risk(table).render())
    released = table
    if table.schema.identifier_names:
        released = Pseudonymizer().pseudonymize(released)
    released = MondrianAnonymizer(k=args.k).anonymize(released)
    print("after: ", assess_risk(released).render())
    if args.output:
        write_csv(released, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_synthesize(args) -> int:
    table = _load(args.data, args)
    rng = np.random.default_rng(args.seed)
    synthesizer = MarginalSynthesizer(epsilon=args.epsilon).fit(table, rng)
    synthetic = synthesizer.sample(args.rows or table.n_rows, rng)
    print(f"synthesised {synthetic.n_rows} rows at epsilon={args.epsilon:g}")
    if args.output:
        write_csv(synthetic, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_join(args) -> int:
    from repro.relational import inner_join, left_join, proxy_scan

    left = _load(args.data, args)
    right = read_csv(args.right)
    for name in args.right_sensitive or []:
        right = right.with_role(name, ColumnRole.SENSITIVE)
    kernel = inner_join if args.how == "inner" else left_join
    joined = kernel(
        left, right, args.on,
        right_on=args.right_on or None, suffix=args.suffix,
    )
    print(f"joined {left.n_rows} x {right.n_rows} -> {joined.n_rows} rows")
    for spec in joined.schema:
        print(f"  {spec.name}: {spec.ctype.value} [{spec.role.value}]")
    if args.scan:
        scan = proxy_scan(
            joined, subject=f"{args.data} {args.how}-join {args.right}"
        )
        print()
        print(scan.render())
        joined = scan.apply(joined)
    if args.output:
        write_csv(joined, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_telemetry(args) -> int:
    records = read_telemetry(args.run)
    print(render_span_tree(records))
    cache_summary = render_cache_summary(records)
    if cache_summary:
        print()
        print(cache_summary)
    print()
    print(render_metrics_table(records))
    if any(record.get("record") == "audit" for record in records):
        print()
        print(render_audit_tail(records, last=args.audit_tail))
    return 0


def _cmd_profile(args) -> int:
    records = read_telemetry(args.run)
    print(render_profile(records, top=args.top))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import run_bench

    return run_bench(args.workloads, smoke=args.smoke, runs=args.runs,
                     check=args.check, append=not args.no_append,
                     handicap=args.handicap)


def _cmd_serve(args) -> int:
    table = _load(args.data, args)
    table_name = args.table_name or os.path.splitext(
        os.path.basename(args.data)
    )[0]

    config = ServeConfig(
        workers=args.workers, seed=args.seed,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        max_queue_depth=args.max_queue_depth,
        default_deadline_ms=args.deadline_ms,
        rate_limit=args.rate_limit, rate_window_s=args.window,
        max_inflight=args.max_inflight,
        cache=not args.no_cache,
        default_epsilon_budget=args.epsilon_budget,
        default_delta_budget=args.delta_budget,
    )
    server = QueryServer(config)
    server.register_table(table_name, table)

    requests: list[dict] = []
    with open(args.queries) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                requests.append(json.loads(line))
            except json.JSONDecodeError as error:
                print(f"error: {args.queries}:{line_number}: {error}",
                      file=sys.stderr)
                return 2

    with server:
        results = server.submit_batch(requests)

    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for result in results:
            out.write(json.dumps(result.to_dict()) + "\n")
    finally:
        if args.output:
            out.close()

    stats = server.stats()
    summary = ", ".join(
        f"{status}={count}" for status, count in sorted(stats["statuses"].items())
    )
    print(f"served {len(results)} queries: {summary}", file=sys.stderr)
    if stats["cache"] is not None:
        cache = stats["cache"]
        print(
            f"cache: {cache['hits']:.0f} hits / {cache['misses']:.0f} misses "
            f"(hit rate {cache['hit_rate']:.0%}), "
            f"epsilon saved by replay: "
            f"{sum(r.epsilon_charged == 0.0 and r.ok for r in results)} queries free",
            file=sys.stderr,
        )
    for tenant, budget in sorted(stats["tenants"].items()):
        print(
            f"tenant {tenant}: ε spent {budget['epsilon_spent']:.4g}, "
            f"remaining {budget['epsilon_remaining']:.4g} "
            f"({budget['ledger_entries']} ledger entries)",
            file=sys.stderr,
        )
    if args.output:
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Responsible Data Science (FACT) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("data", help="CSV file to operate on")
        p.add_argument("--target", help="TARGET column name")
        p.add_argument("--sensitive", action="append",
                       help="SENSITIVE column (repeatable)")
        p.add_argument("--quasi", action="append",
                       help="QUASI_IDENTIFIER column (repeatable)")
        p.add_argument("--identifier", action="append",
                       help="IDENTIFIER column (repeatable)")
        p.add_argument("--seed", type=int, default=0)

    audit = sub.add_parser("audit", help="run the four-pillar FACT audit")
    add_common(audit)
    audit.add_argument("--test-fraction", type=float, default=0.25)
    audit.add_argument("--calibration-fraction", type=float, default=0.15)
    audit.add_argument("--strict", action="store_true",
                       help="exit non-zero on policy violations")
    audit.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    audit.add_argument("--shards", type=int, default=None,
                       help="partition the test split into N row-range "
                            "shards and audit map/combine (byte-identical "
                            "to the serial path)")
    audit.add_argument("--jobs", type=int, default=None,
                       help="worker fan-out (default: $REPRO_N_JOBS)")
    audit.add_argument("--backend", choices=("thread", "process"),
                       default="thread",
                       help="fan-out backend; process dispatches shard "
                            "map tasks as real subprocesses")
    audit.set_defaults(handler=_cmd_audit)

    datasheet = sub.add_parser("datasheet", help="render a dataset datasheet")
    add_common(datasheet)
    datasheet.add_argument("--name", help="dataset display name")
    datasheet.set_defaults(handler=_cmd_datasheet)

    anonymize = sub.add_parser(
        "anonymize", help="k-anonymise quasi-identifiers (Mondrian)"
    )
    add_common(anonymize)
    anonymize.add_argument("-k", type=int, default=5)
    anonymize.add_argument("-o", "--output", help="write the release here")
    anonymize.set_defaults(handler=_cmd_anonymize)

    synthesize = sub.add_parser(
        "synthesize", help="release an epsilon-DP synthetic table"
    )
    add_common(synthesize)
    synthesize.add_argument("--epsilon", type=float, default=1.0)
    synthesize.add_argument("--rows", type=int,
                            help="rows to sample (default: input size)")
    synthesize.add_argument("-o", "--output", help="write the release here")
    synthesize.set_defaults(handler=_cmd_synthesize)

    join = sub.add_parser(
        "join",
        help="join two CSV tables with FACT role propagation",
    )
    add_common(join)
    join.add_argument("right", help="right-side CSV file")
    join.add_argument("--on", action="append", required=True,
                      help="join key column (repeatable for composite keys)")
    join.add_argument("--right-on", action="append",
                      help="right-side key column names (default: --on)")
    join.add_argument("--how", choices=("inner", "left"), default="inner")
    join.add_argument("--suffix", default="_r",
                      help="suffix for colliding right columns (default _r)")
    join.add_argument("--right-sensitive", action="append",
                      help="SENSITIVE column on the right side (repeatable)")
    join.add_argument("--scan", action="store_true",
                      help="proxy-scan the join output and quarantine "
                           "flagged columns")
    join.add_argument("-o", "--output", help="write the joined table here")
    join.set_defaults(handler=_cmd_join)

    telemetry = sub.add_parser(
        "telemetry",
        help="render an exported telemetry file (span tree + metrics)",
    )
    telemetry.add_argument("run", help="telemetry JSONL file (repro.obs export)")
    telemetry.add_argument("--audit-tail", type=int, default=10,
                           help="audit events to show (default 10)")
    telemetry.set_defaults(handler=_cmd_telemetry)

    profile = sub.add_parser(
        "profile",
        help="profile an exported run: hot nodes, critical path, "
             "cache/parallel efficiency",
    )
    profile.add_argument("run", help="telemetry JSONL file (repro.obs export)")
    profile.add_argument("--top", type=int, default=20,
                         help="hot-node rows to show (default 20)")
    profile.set_defaults(handler=_cmd_profile)

    bench = sub.add_parser(
        "bench",
        help="run perf/'s workloads on fixed seeds and append "
             "BENCH_<workload>.json records",
    )
    bench.add_argument("workloads", nargs="*",
                       help="perf workload names (default: all five)")
    bench.add_argument("--smoke", action="store_true",
                       help="CI sizes: fewer seeds of shorter runs")
    bench.add_argument("--check", action="store_true",
                       help="exit 1 on a perf/compare.py regression against "
                            "the latest record from this host at this size")
    bench.add_argument("--runs", type=int, default=None,
                       help="seeds 1..N per workload (default: fewer with "
                            "--smoke, else 10)")
    bench.add_argument("--no-append", action="store_true",
                       help="measure and check without writing records")
    bench.add_argument("--handicap", action="append", default=[],
                       metavar="LAYER=MS",
                       help="passed to perf/run.py: spin MS ms in every call "
                            "of LAYER (gate self-test)")
    bench.set_defaults(handler=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="answer a JSONL batch of DP queries against a CSV table",
    )
    serve.add_argument("queries",
                       help="JSONL file: one QueryRequest object per line")
    serve.add_argument("--data", required=True, help="CSV table to serve")
    serve.add_argument("--table-name",
                       help="name requests refer to (default: file stem)")
    serve.add_argument("--sensitive", action="append",
                       help="SENSITIVE column (repeatable)")
    serve.add_argument("--quasi", action="append",
                       help="QUASI_IDENTIFIER column (repeatable)")
    serve.add_argument("--identifier", action="append",
                       help="IDENTIFIER column (repeatable)")
    serve.add_argument("--epsilon-budget", type=float, default=1.0,
                       help="per-tenant epsilon budget (default 1.0)")
    serve.add_argument("--delta-budget", type=float, default=0.0)
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads (default 4)")
    serve.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="coalesce compatible queries for up to this "
                            "many ms into one vectorized release "
                            "(default 0: unbatched)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="flush a coalesced group early at this size "
                            "(default 64)")
    serve.add_argument("--max-queue-depth", type=int, default=4096,
                       help="bounded admission queue; beyond it requests "
                            "are shed with rejected_overload (default 4096)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline; expired requests "
                            "are shed before costing any epsilon")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the DP answer cache (every query pays)")
    serve.add_argument("--rate-limit", type=int,
                       help="max admissions per tenant per window")
    serve.add_argument("--window", type=float, default=1.0,
                       help="rate-limit window in seconds (default 1.0)")
    serve.add_argument("--max-inflight", type=int,
                       help="global cap on concurrently executing queries")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("-o", "--output",
                       help="write JSONL responses here (default: stdout)")
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
