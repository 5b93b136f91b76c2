"""Ablations A1-A3 — the design choices DESIGN.md calls out.

* A1: privacy-budget composition strategy — how many ε₀ releases one
  total budget affords under basic vs advanced composition.  The
  crossover (advanced wins only for small ε₀) is the design reason the
  toolkit ships both accountants.
* A2: mitigation stage placement — the same fairness goal pursued pre-,
  in-, and post-processing, under one budgeted comparison.  Placement is
  a real design choice: post-processing needs the sensitive attribute at
  decision time, pre-processing does not.
* A3: provenance granularity — fingerprint-level vs stage-level trails
  cost different amounts as tables grow; the bench locates the constant.
"""

import time

import numpy as np

from benchmarks._tools import SEED, emit, format_table, run_once
from repro.confidentiality import max_queries_advanced, max_queries_basic
from repro.data.synth import (
    CreditScoringGenerator,
    InternetMinuteGenerator,
    RecidivismGenerator,
)
from repro.fairness import (
    GroupThresholdOptimizer,
    FairPenaltyLogisticRegression,
    assess_impossibility,
    audit_decisions,
    audit_model,
    group_rates,
    reweigh,
)
from repro.learn import LogisticRegression, TableClassifier
from repro.learn.metrics import accuracy
from repro.pipeline import FunctionStage, Pipeline, RedactStage


def run_a1():
    budget, delta = 1.0, 1e-6
    rows = []
    for per_query in (0.2, 0.05, 0.01, 0.002):
        basic = max_queries_basic(budget, per_query)
        advanced = max_queries_advanced(budget, per_query, delta)
        rows.append([
            per_query, basic, advanced,
            "advanced" if advanced > basic else "basic",
        ])
    return rows


def test_a1_composition_strategy(benchmark):
    rows = run_once(benchmark, run_a1, name="a1")
    emit(format_table(
        "A1: queries affordable at total epsilon=1.0 (delta'=1e-6)",
        ["per_query_eps", "basic", "advanced", "winner"],
        rows,
    ))
    winners = [row[3] for row in rows]
    # Crossover exists: basic wins for large per-query cost, advanced for small.
    assert winners[0] == "basic"
    assert winners[-1] == "advanced"
    # Advanced buys strictly more at the smallest per-query epsilon.
    assert rows[-1][2] > 2 * rows[-1][1]


def run_a2():
    rng = np.random.default_rng(SEED)
    generator = CreditScoringGenerator(
        label_bias=0.35, proxy_strength=0.85, numeric_proxy_strength=0.7
    )
    train, test = generator.generate_pair(4000, 2000, rng)
    labels_test = test["approved"]
    group_test = test["group"]
    rows = []

    def record(name, decisions, needs_group_at_decision):
        report = audit_decisions(labels_test, decisions, group_test)
        rows.append([
            name,
            accuracy(labels_test, decisions),
            report.disparate_impact_ratio,
            "yes" if needs_group_at_decision else "no",
        ])

    baseline = TableClassifier(LogisticRegression()).fit(train)
    record("none (baseline)", baseline.predict(test), False)

    pre = TableClassifier(LogisticRegression()).fit(
        train, sample_weight=reweigh(train)
    )
    record("pre (reweighing)", pre.predict(test), False)

    penalty = FairPenaltyLogisticRegression(fairness=10.0)
    penalty.set_group(train["group"])
    inproc = TableClassifier(penalty).fit(train)
    record("in (cov penalty)", inproc.predict(test), False)

    optimizer = GroupThresholdOptimizer("demographic_parity")
    optimizer.fit(baseline.predict_proba(train), baseline.labels(train),
                  train["group"])
    post = optimizer.predict(baseline.predict_proba(test), group_test)
    record("post (thresholds)", post, True)
    return rows


def test_a2_mitigation_placement(benchmark):
    rows = run_once(benchmark, run_a2, name="a2")
    emit(format_table(
        "A2: where in the pipeline to mitigate",
        ["stage", "accuracy", "DI_ratio", "group_needed_at_decision"],
        rows,
    ))
    by_name = {row[0]: row for row in rows}
    # All three placements fix the disparity the baseline has.
    for name in ("pre (reweighing)", "in (cov penalty)", "post (thresholds)"):
        assert by_name[name][2] > by_name["none (baseline)"][2] + 0.1
    # Only post-processing requires the protected attribute at decision
    # time — the deployment constraint the ablation is about.
    assert by_name["post (thresholds)"][3] == "yes"
    assert by_name["pre (reweighing)"][3] == "no"


def run_a3():
    rows = []
    for n_events in (2000, 8000, 32000):
        rng = np.random.default_rng(SEED)
        stream = InternetMinuteGenerator().generate(n_events, rng)
        pipeline_cache = {
            mode: Pipeline([
                RedactStage(),
                FunctionStage("identity", lambda table: table),
            ], provenance=mode)
            for mode in ("off", "stage", "fingerprint")
        }
        # Warm-up.
        pipeline_cache["fingerprint"].run(stream, np.random.default_rng(0))
        timings = {}
        for mode, pipeline in pipeline_cache.items():
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                pipeline.run(stream, np.random.default_rng(0))
                best = min(best, time.perf_counter() - start)
            timings[mode] = best * 1000.0
        rows.append([
            n_events, timings["off"], timings["stage"],
            timings["fingerprint"],
            timings["fingerprint"] / max(timings["off"], 1e-9),
        ])
    return rows


def test_a3_provenance_granularity(benchmark):
    rows = run_once(benchmark, run_a3, name="a3")
    emit(format_table(
        "A3: provenance cost by granularity (best-of-3 wall ms)",
        ["events", "off_ms", "stage_ms", "fingerprint_ms",
         "fingerprint_overhead_x"],
        rows,
    ))
    for row in rows:
        # Fingerprints hash every byte of each table, linear in rows like
        # the stages themselves, and each table caches its digest, so the
        # overhead factor stays a small constant as the data grows.
        assert row[4] < 5.0
    # And the factor does not blow up with scale: the largest stream's
    # overhead factor is no worse than 3x the smallest stream's.
    assert rows[-1][4] < 3.0 * max(rows[0][4], 1.0)


def run_a4():
    """A4: the impossibility theorem, measured.

    On recidivism-shaped data with a measurement-driven base-rate gap,
    Chouldechova's identity says equal PPV + equal FNR would force an
    FPR gap of a computable size; a real model cannot satisfy all three,
    so the disparity must surface *somewhere*.  The table shows where:
    the forced-FPR floor, and the model's measured FPR and PPV gaps.
    """
    rows = []
    for policing_gap in (0.0, 0.5, 1.0):
        rng = np.random.default_rng(SEED + int(policing_gap * 10))
        generator = RecidivismGenerator(policing_gap=policing_gap)
        train, test = generator.generate_pair(6000, 3000, rng)
        model = TableClassifier(LogisticRegression()).fit(train)
        decisions = model.predict(test)
        labels = model.labels(test)
        rates = group_rates(labels, decisions, test["group"])
        ppv_values = rates.per_group("precision").values()
        fnr_values = rates.per_group("false_negative_rate").values()
        assessment = assess_impossibility(
            labels, test["group"],
            target_ppv=float(np.mean(list(ppv_values))),
            target_fnr=float(np.mean(list(fnr_values))),
        )
        rows.append([
            policing_gap,
            assessment.base_rate_gap,
            assessment.forced_fpr_gap,
            rates.difference("false_positive_rate"),
            rates.difference("precision"),
        ])
    return rows


def test_a4_impossibility(benchmark):
    rows = run_once(benchmark, run_a4, name="a4")
    emit(format_table(
        "A4: base-rate gap -> disparity no score can avoid "
        "(it surfaces as FPR gap, PPV gap, or both)",
        ["policing_gap", "base_rate_gap", "forced_fpr_gap",
         "measured_fpr_gap", "measured_ppv_gap"],
        rows,
    ))
    by_gap = {row[0]: row for row in rows}
    # No measurement bias, no forced gap.
    assert by_gap[0.0][2] < 0.05
    # Measurement bias creates a base-rate gap, and with it a floor.
    assert by_gap[1.0][1] > 0.05
    assert by_gap[1.0][2] > by_gap[0.0][2]
    # The theorem: with a real base-rate gap, the model's combined
    # (FPR + PPV) disparity cannot fall below the forced floor — if the
    # FPR gap is small, calibration/PPV parity paid for it.
    assert by_gap[1.0][3] + by_gap[1.0][4] > by_gap[1.0][2] - 0.02
