"""Unit tests for DP mechanisms, the accountant, and budgeted queries."""

import threading

import numpy as np
import pytest

from repro.confidentiality.accountant import (
    AdvancedAccountant,
    PrivacyAccountant,
    advanced_composition_epsilon,
    max_queries_advanced,
    max_queries_basic,
)
from repro.confidentiality.mechanisms import (
    exponential_mechanism,
    gaussian_mechanism,
    gaussian_sigma,
    laplace_mechanism,
    randomized_response,
    randomized_response_estimate,
)
from repro.confidentiality.queries import (
    dp_count,
    dp_histogram,
    dp_mean,
    dp_quantile,
    dp_sum,
)
from repro.exceptions import DataError, PrivacyBudgetError


# -- mechanisms -----------------------------------------------------------------

def test_laplace_noise_scales_with_epsilon(rng):
    tight = [laplace_mechanism(0.0, 1.0, 10.0, rng) for _ in range(2000)]
    loose = [laplace_mechanism(0.0, 1.0, 0.1, rng) for _ in range(2000)]
    assert np.std(tight) < np.std(loose)
    # Laplace(b) has std b*sqrt(2).
    assert np.std(tight) == pytest.approx(np.sqrt(2) / 10.0, rel=0.2)


def test_laplace_validation(rng):
    with pytest.raises(DataError):
        laplace_mechanism(0.0, 0.0, 1.0, rng)
    with pytest.raises(DataError):
        laplace_mechanism(0.0, 1.0, -1.0, rng)


def test_gaussian_sigma_formula():
    sigma = gaussian_sigma(1.0, 1.0, 1e-5)
    assert sigma == pytest.approx(np.sqrt(2 * np.log(1.25e5)), rel=1e-9)
    with pytest.raises(DataError):
        gaussian_sigma(1.0, 1.0, 2.0)


def test_gaussian_mechanism_unbiased(rng):
    draws = [gaussian_mechanism(5.0, 1.0, 1.0, 1e-5, rng) for _ in range(3000)]
    assert np.mean(draws) == pytest.approx(5.0, abs=0.3)


def test_exponential_mechanism_prefers_high_utility(rng):
    candidates = ["bad", "ok", "best"]
    utilities = [0.0, 5.0, 10.0]
    picks = [
        exponential_mechanism(candidates, utilities, 1.0, 2.0, rng)
        for _ in range(300)
    ]
    assert picks.count("best") > picks.count("bad")
    assert picks.count("best") > 150


def test_exponential_mechanism_uniform_at_tiny_epsilon(rng):
    candidates = [0, 1]
    picks = [
        exponential_mechanism(candidates, [0.0, 100.0], 1.0, 1e-6, rng)
        for _ in range(400)
    ]
    assert 100 < picks.count(0) < 300  # close to uniform


def test_randomized_response_debiasing(rng):
    truth = (rng.random(20000) < 0.3).astype(float)
    noisy = randomized_response(truth, 1.0, rng)
    # Raw noisy rate is biased toward 0.5...
    assert abs(noisy.mean() - 0.3) > 0.05
    # ...the debiased estimate is not.
    estimate = randomized_response_estimate(noisy, 1.0)
    assert estimate == pytest.approx(0.3, abs=0.03)


def test_randomized_response_validation(rng):
    with pytest.raises(DataError):
        randomized_response(np.array([0.5]), 1.0, rng)
    with pytest.raises(DataError):
        randomized_response_estimate(np.array([]), 1.0)


# -- accountant ------------------------------------------------------------------

def test_accountant_tracks_and_blocks():
    accountant = PrivacyAccountant(1.0)
    accountant.spend(0.4, label="q1")
    accountant.spend(0.6, label="q2")
    assert accountant.epsilon_spent == pytest.approx(1.0)
    assert accountant.epsilon_remaining == pytest.approx(0.0)
    with pytest.raises(PrivacyBudgetError):
        accountant.spend(0.01)
    assert len(accountant.ledger) == 2
    assert "q1" in accountant.render_ledger()


def test_accountant_delta_budget():
    accountant = PrivacyAccountant(10.0, delta_budget=1e-5)
    accountant.spend(1.0, delta=1e-5)
    with pytest.raises(PrivacyBudgetError):
        accountant.spend(1.0, delta=1e-5)


def test_accountant_validation():
    with pytest.raises(DataError):
        PrivacyAccountant(0.0)
    accountant = PrivacyAccountant(1.0)
    with pytest.raises(DataError):
        accountant.spend(0.0)


def test_advanced_composition_beats_basic_for_small_queries():
    # Many small queries: advanced composition affords strictly more.
    advanced = max_queries_advanced(1.0, 0.01, 1e-6)
    basic = max_queries_basic(1.0, 0.01)
    assert advanced > basic


def test_advanced_composition_epsilon_monotone():
    e1 = advanced_composition_epsilon(0.1, 10, 1e-6)
    e2 = advanced_composition_epsilon(0.1, 20, 1e-6)
    assert e2 > e1
    with pytest.raises(DataError):
        advanced_composition_epsilon(0.1, 0, 1e-6)


def test_advanced_accountant_sqrt_growth():
    accountant = AdvancedAccountant(1.0, per_query_epsilon=0.01,
                                    delta_slack=1e-6)
    count = 0
    while accountant.can_afford(0.01):
        accountant.spend(0.01)
        count += 1
        assert count < 10000
    assert count == max_queries_advanced(1.0, 0.01, 1e-6)
    assert count > max_queries_basic(1.0, 0.01)
    with pytest.raises(DataError):
        accountant.can_afford(0.5)


def test_accountant_thread_safe_spend():
    # 16 threads each hammering 50 spends of 0.01 against a budget of 1.0:
    # exactly 100 may land, no matter the interleaving.
    accountant = PrivacyAccountant(1.0)
    successes = []
    barrier = threading.Barrier(16)

    def hammer():
        barrier.wait()  # maximise contention
        for _ in range(50):
            try:
                accountant.spend(0.01, label="hammer")
                successes.append(1)
            except PrivacyBudgetError:
                pass

    threads = [threading.Thread(target=hammer) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(successes) == 100
    assert len(accountant.ledger) == 100
    assert accountant.epsilon_spent == pytest.approx(1.0)
    assert accountant.epsilon_spent <= accountant.epsilon_budget + 1e-9


def test_accountant_remaining_and_can_spend_basic():
    accountant = PrivacyAccountant(1.0)
    assert accountant.remaining() == pytest.approx(1.0)
    assert accountant.can_spend(1.0)
    assert not accountant.can_spend(1.1)
    accountant.spend(0.7)
    assert accountant.remaining() == pytest.approx(0.3)
    assert accountant.can_spend(0.3)
    assert not accountant.can_spend(0.31)
    # δ is checked too.
    assert not accountant.can_spend(0.1, delta=1e-6)


def test_accountant_remaining_and_can_spend_advanced():
    accountant = AdvancedAccountant(1.0, per_query_epsilon=0.01,
                                    delta_slack=1e-6)
    assert accountant.remaining() == pytest.approx(1.0)
    assert accountant.can_spend(0.01)
    # A mismatched per-query ε answers False instead of raising...
    assert not accountant.can_spend(0.5)
    # ...while can_afford keeps its raising contract.
    with pytest.raises(DataError):
        accountant.can_afford(0.5)
    while accountant.can_spend(0.01):
        accountant.spend(0.01)
    # remaining() reflects the advanced-composition effective total.
    assert 0.0 <= accountant.remaining() < 1.0
    assert not accountant.can_spend(0.01)


# -- queries ----------------------------------------------------------------------

def test_dp_count_accuracy_improves_with_epsilon(rng):
    errors = {}
    for epsilon in (0.1, 10.0):
        accountant = PrivacyAccountant(10_000.0)
        draws = [
            abs(dp_count(500, epsilon, accountant, rng) - 500)
            for _ in range(200)
        ]
        errors[epsilon] = np.mean(draws)
    assert errors[10.0] < errors[0.1]


def test_dp_count_non_negative(rng):
    accountant = PrivacyAccountant(1000.0)
    values = [dp_count(0, 0.1, accountant, rng) for _ in range(100)]
    assert min(values) >= 0.0


def test_dp_mean_within_bounds(rng):
    accountant = PrivacyAccountant(1000.0)
    values = rng.normal(50.0, 5.0, 500)
    for _ in range(50):
        estimate = dp_mean(values, 0.0, 100.0, 1.0, accountant, rng)
        assert 0.0 <= estimate <= 100.0


def test_dp_mean_charges_full_epsilon(rng):
    accountant = PrivacyAccountant(1.0)
    dp_mean(np.ones(100), 0.0, 2.0, 1.0, accountant, rng)
    assert accountant.epsilon_spent == pytest.approx(1.0)
    assert len(accountant.ledger) == 1  # one release, one entry


def test_dp_sum_clips_outliers(rng):
    accountant = PrivacyAccountant(1000.0)
    values = np.array([1.0] * 99 + [10**9])
    draws = [
        dp_sum(values, 0.0, 2.0, 5.0, accountant, rng) for _ in range(50)
    ]
    # The outlier contributes at most the clip bound of 2.
    assert np.mean(draws) == pytest.approx(101.0, abs=2.0)


def test_dp_histogram_parallel_composition(rng):
    accountant = PrivacyAccountant(1.0)
    values = np.array(["a"] * 60 + ["b"] * 40, dtype=object)
    histogram = dp_histogram(values, ["a", "b"], 1.0, accountant, rng)
    # Whole histogram costs one epsilon, not one per bin.
    assert accountant.epsilon_spent == pytest.approx(1.0)
    assert histogram["a"] == pytest.approx(60, abs=10)
    assert histogram["b"] == pytest.approx(40, abs=10)
    with pytest.raises(DataError):
        dp_histogram(values, [], 0.1, PrivacyAccountant(1.0), rng)


def test_dp_quantile_close_to_truth(rng):
    accountant = PrivacyAccountant(1000.0)
    values = rng.normal(50.0, 10.0, 2000)
    estimates = [
        dp_quantile(values, 0.5, 0.0, 100.0, 2.0, accountant, rng)
        for _ in range(20)
    ]
    assert np.median(estimates) == pytest.approx(np.median(values), abs=5.0)
    with pytest.raises(DataError):
        dp_quantile(values, 1.5, 0.0, 100.0, 1.0, accountant, rng)


@pytest.mark.parametrize("epsilon", [0.0, -0.5])
def test_queries_reject_nonpositive_epsilon_uniformly(rng, epsilon):
    # Every dp_* entry point refuses ε <= 0 with the same message, before
    # any budget is charged or any data is touched.
    accountant = PrivacyAccountant(1.0)
    values = np.array([1.0, 2.0, 3.0])
    calls = [
        lambda: dp_count(3, epsilon, accountant, rng),
        lambda: dp_sum(values, 0.0, 5.0, epsilon, accountant, rng),
        lambda: dp_mean(values, 0.0, 5.0, epsilon, accountant, rng),
        lambda: dp_quantile(values, 0.5, 0.0, 5.0, epsilon, accountant, rng),
        lambda: dp_histogram(np.array(["a", "b"], dtype=object), ["a", "b"],
                             epsilon, accountant, rng),
    ]
    for call in calls:
        with pytest.raises(DataError, match="epsilon must be positive"):
            call()
    assert accountant.epsilon_spent == 0.0
    assert len(accountant.ledger) == 0


@pytest.mark.parametrize("lower, upper", [
    (5.0, 5.0), (5.0, 0.0), (0.0, np.inf), (-np.inf, 5.0), (np.nan, 5.0),
])
def test_queries_reject_bad_bounds_before_charging(rng, lower, upper):
    # Inverted, empty or infinite bounds have no finite sensitivity: the
    # query is refused before any budget is charged.
    accountant = PrivacyAccountant(1.0)
    values = np.array([1.0, 2.0, 3.0])
    calls = [
        lambda: dp_sum(values, lower, upper, 0.5, accountant, rng),
        lambda: dp_mean(values, lower, upper, 0.5, accountant, rng),
        lambda: dp_quantile(values, 0.5, lower, upper, 0.5, accountant, rng),
    ]
    for call in calls:
        with pytest.raises(DataError, match="need finite lower < upper"):
            call()
    assert accountant.epsilon_spent == 0.0
    assert len(accountant.ledger) == 0


def test_dp_mean_over_budget_charges_nothing(rng):
    # The mean's halves are one charge: a budget that covers only half
    # of ε refuses the whole query.
    accountant = PrivacyAccountant(0.6)
    with pytest.raises(PrivacyBudgetError):
        dp_mean(np.ones(10), 0.0, 2.0, 1.0, accountant, rng)
    assert accountant.epsilon_spent == 0.0
    assert len(accountant.ledger) == 0


def test_queries_refuse_over_budget(rng):
    accountant = PrivacyAccountant(0.5)
    with pytest.raises(PrivacyBudgetError):
        dp_count(10, 1.0, accountant, rng)
    # Failed spends leave the ledger untouched.
    assert accountant.epsilon_spent == 0.0
