"""Property-based tests (hypothesis) for the extension modules."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.confidentiality.mechanisms import (
    randomized_response,
    randomized_response_estimate,
)
from repro.confidentiality.queries import (
    N_QUANTILE_CANDIDATES,
    DPQuery,
    group_stats,
)
from repro.confidentiality.risk import (
    assess_risk,
    qi_class_counts,
    risk_from_counts,
)
from repro.data.partition import merge_counts
from repro.data.schema import ColumnRole, Schema, categorical, numeric
from repro.data.table import Table
from repro.learn.isotonic import IsotonicCalibrator, pool_adjacent_violators
from repro.process.log import EventLog, Trace
from repro.process.model import ProcessModel, START, END

floats_array = arrays(
    np.float64, st.integers(1, 60),
    elements=st.floats(-100, 100, allow_nan=False),
)


# -- PAVA invariants ------------------------------------------------------------

@given(floats_array)
@settings(max_examples=80, deadline=None)
def test_pava_output_monotone(values):
    fitted = pool_adjacent_violators(values)
    assert np.all(np.diff(fitted) >= -1e-9)


@given(floats_array)
@settings(max_examples=80, deadline=None)
def test_pava_preserves_weighted_mean(values):
    fitted = pool_adjacent_violators(values)
    assert np.mean(fitted) == pytest.approx(np.mean(values), abs=1e-6)


@given(floats_array)
@settings(max_examples=80, deadline=None)
def test_pava_idempotent(values):
    once = pool_adjacent_violators(values)
    twice = pool_adjacent_violators(once)
    np.testing.assert_allclose(twice, once, atol=1e-9)


@given(floats_array)
@settings(max_examples=50, deadline=None)
def test_pava_is_projection(values):
    """The fitted sequence is no farther from the data than the data's
    own sorted version (both are monotone candidates)."""
    fitted = pool_adjacent_violators(values)
    sorted_candidate = np.sort(values)
    assert (np.sum((fitted - values) ** 2)
            <= np.sum((sorted_candidate - values) ** 2) + 1e-6)


# -- isotonic calibration -------------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.integers(10, 200))
@settings(max_examples=40, deadline=None)
def test_isotonic_transform_bounded_and_monotone(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    outcomes = (rng.random(n) < 0.5).astype(float)
    calibrator = IsotonicCalibrator().fit(scores, outcomes)
    grid = np.linspace(-0.5, 1.5, 30)
    out = calibrator.transform(grid)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.all(np.diff(out) >= -1e-9)


# -- randomised response ---------------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.floats(0.2, 5.0),
       st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_randomized_response_estimator_unbiased(seed, epsilon, rate):
    rng = np.random.default_rng(seed)
    truth = (rng.random(4000) < rate).astype(float)
    noisy = randomized_response(truth, epsilon, rng)
    estimate = randomized_response_estimate(noisy, epsilon)
    # Debiased estimate tracks the true rate within sampling noise that
    # grows as epsilon shrinks.
    slack = 0.05 + 0.1 / epsilon
    assert abs(estimate - truth.mean()) < slack


# -- DP quantile utilities ---------------------------------------------------------------

@given(
    arrays(np.float64, st.integers(0, 80), elements=st.one_of(
        st.integers(-80, 180).map(float),
        st.floats(-150, 150, allow_nan=False),
        st.sampled_from([np.nan, -0.0, 0.0]),
    )),
    st.one_of(st.integers(-60, 60).map(float), st.floats(-60, 60)),
    st.one_of(st.just(99.0), st.floats(1e-3, 500)),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_quantile_utilities_match_the_rank_scan(values, lower, width, q):
    # Reference: one full pass per candidate.  A width of 99 puts the
    # grid on integers, so integer values tie with candidates exactly.
    query = DPQuery(kind="quantile", epsilon=1.0, lower=lower,
                    upper=lower + width, q=q)
    clipped = np.clip(values, query.lower, query.upper)
    candidates = np.linspace(query.lower, query.upper,
                             N_QUANTILE_CANDIDATES).tolist()
    target_rank = q * len(clipped)
    scan = [-abs(float(np.sum(clipped <= candidate)) - target_rank)
            for candidate in candidates]
    stats = group_stats(query, values)
    assert stats["candidates"] == candidates
    assert (np.asarray(stats["utilities"], dtype=np.float64).tobytes()
            == np.asarray(scan, dtype=np.float64).tobytes())


# -- process model invariants -----------------------------------------------------------

@st.composite
def random_logs(draw):
    alphabet = ["a", "b", "c", "d"]
    n_traces = draw(st.integers(1, 15))
    traces = []
    for index in range(n_traces):
        length = draw(st.integers(1, 6))
        activities = tuple(
            draw(st.sampled_from(alphabet)) for _ in range(length)
        )
        traces.append(Trace(f"c{index}", activities))
    return EventLog(traces)


@given(random_logs())
@settings(max_examples=60, deadline=None)
def test_discovered_model_accepts_its_own_log(log):
    from repro.process.discovery import discover_dfg_model

    model = discover_dfg_model(log)
    for trace in log:
        assert model.accepts(trace.activities)


@given(random_logs())
@settings(max_examples=60, deadline=None)
def test_dfg_counts_sum_to_events_plus_traces(log):
    from repro.process.discovery import directly_follows_counts

    counts = directly_follows_counts(log)
    non_empty = [trace for trace in log if len(trace) > 0]
    expected = sum(len(trace) + 1 for trace in non_empty)
    assert sum(counts.values()) == expected


@given(random_logs(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_simulation_stays_in_model_language(log, seed):
    from repro.process.discovery import discover_dfg_model

    model = discover_dfg_model(log)
    rng = np.random.default_rng(seed)
    trace = model.simulate(rng, max_length=200)
    assert model.accepts(trace)


@given(random_logs(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_k_anonymous_release_guarantee(log, k):
    from repro.process.privacy import k_anonymous_log, variant_uniqueness

    released, info = k_anonymous_log(log, k=k)
    frequencies = released.variants()
    assert all(count >= k for count in frequencies.values())
    if k >= 2:
        assert variant_uniqueness(released) == 0.0
    assert info.n_released_traces + sum(
        count for variant, count in log.variants().items() if count < k
    ) == len(log)


# -- Mondrian guarantee -------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1), st.integers(20, 120),
       st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_mondrian_always_achieves_k(seed, n_rows, k):
    from repro.confidentiality.anonymity import (
        MondrianAnonymizer,
        k_anonymity_level,
    )
    from repro.data.schema import ColumnRole, Schema, categorical, numeric
    from repro.data.table import Table

    assume(n_rows >= k)
    rng = np.random.default_rng(seed)
    schema = Schema([
        numeric("age", role=ColumnRole.QUASI_IDENTIFIER),
        categorical("city", role=ColumnRole.QUASI_IDENTIFIER),
    ])
    table = Table(schema, {
        "age": rng.integers(18, 90, n_rows).astype(float),
        "city": [f"city_{value}" for value in rng.integers(0, 6, n_rows)],
    })
    anonymized = MondrianAnonymizer(k=k).anonymize(table)
    assert k_anonymity_level(anonymized) >= k
    assert anonymized.n_rows == table.n_rows


# -- mergeable quasi-identifier class counts ------------------------------------------

QI_SCHEMA = Schema([
    numeric("age", role=ColumnRole.QUASI_IDENTIFIER),
    categorical("city", role=ColumnRole.QUASI_IDENTIFIER),
])
# Special values drawn often: NaN is its own class, -0.0 == 0.0, and the
# key's unit separator and length-prefix marker appear inside strings.
qi_ages = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
    st.floats(allow_infinity=False),
)
qi_cities = st.text(alphabet="a1#\x1f", max_size=4)


@st.composite
def qi_row_splits(draw):
    """A small two-QI table and row-range bounds over it.  Repeated cut
    points give empty pieces, adjacent ones single-row pieces."""
    rows = draw(st.lists(st.tuples(qi_ages, qi_cities), max_size=24))
    cuts = draw(st.lists(st.integers(0, len(rows)), max_size=6))
    table = Table(QI_SCHEMA, {
        "age": np.array([age for age, _ in rows], dtype=np.float64),
        "city": [city for _, city in rows],
    })
    return table, [0, *sorted(cuts), len(rows)]


@given(qi_row_splits())
@settings(max_examples=300, deadline=None)
def test_qi_class_counts_merge_exactly_across_row_splits(split):
    table, bounds = split
    pieces = [qi_class_counts(table.slice(start, stop))
              for start, stop in zip(bounds, bounds[1:])]
    whole_counts, whole_nan = qi_class_counts(table)
    merged = merge_counts(counts for counts, _ in pieces)
    nan_singletons = sum(nan for _, nan in pieces)
    assert merged == whole_counts
    assert nan_singletons == whole_nan
    assert risk_from_counts(
        ("age", "city"), merged, nan_singletons, n_rows=table.n_rows
    ) == assess_risk(table)
