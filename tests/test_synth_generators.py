"""Unit tests for the domain dataset generators."""

import warnings

import numpy as np
import pytest

from repro.data.schema import ColumnRole
from repro.data.synth import (
    CensusIncomeGenerator,
    CreditScoringGenerator,
    HiringFunnelGenerator,
    InternetMinuteGenerator,
    RecidivismGenerator,
)
from repro.data.synth.base import sigmoid
from repro.data.synth.events import INTERNET_MINUTE_VOLUMES
from repro.exceptions import DataError


@pytest.mark.parametrize("generator", [
    CreditScoringGenerator(),
    CensusIncomeGenerator(),
    RecidivismGenerator(),
    HiringFunnelGenerator(),
    InternetMinuteGenerator(),
])
def test_generators_match_declared_schema(generator, rng):
    table = generator.generate(200, rng)
    assert table.n_rows == 200
    assert table.column_names == generator.schema().names


@pytest.mark.parametrize("generator_cls", [
    CreditScoringGenerator, CensusIncomeGenerator,
    RecidivismGenerator, HiringFunnelGenerator,
])
def test_generators_reject_bad_n(generator_cls, rng):
    with pytest.raises(DataError):
        generator_cls().generate(0, rng)


def test_generators_are_seed_deterministic():
    generator = CreditScoringGenerator(label_bias=0.2, proxy_strength=0.5)
    a = generator.generate(300, np.random.default_rng(7))
    b = generator.generate(300, np.random.default_rng(7))
    assert a == b


def test_credit_unbiased_labels_equal_oracle(rng):
    table = CreditScoringGenerator(label_bias=0.0).generate(500, rng)
    np.testing.assert_allclose(table["approved"], table["qualified"])


def test_credit_label_bias_lowers_group_b_rate(rng):
    biased = CreditScoringGenerator(label_bias=0.5).generate(4000, rng)
    group_b = biased.filter(biased["group"] == "B")
    assert group_b["approved"].mean() < group_b["qualified"].mean() - 0.1
    group_a = biased.filter(biased["group"] == "A")
    np.testing.assert_allclose(group_a["approved"], group_a["qualified"])


def test_credit_latent_is_group_blind(rng):
    table = CreditScoringGenerator(label_bias=0.5).generate(8000, rng)
    rate_a = table.filter(table["group"] == "A")["qualified"].mean()
    rate_b = table.filter(table["group"] == "B")["qualified"].mean()
    assert abs(rate_a - rate_b) < 0.05


def test_credit_group_fraction(rng):
    table = CreditScoringGenerator(group_b_fraction=0.2).generate(5000, rng)
    assert np.mean(table["group"] == "B") == pytest.approx(0.2, abs=0.03)
    with pytest.raises(DataError):
        CreditScoringGenerator(group_b_fraction=1.5)


def test_recidivism_policing_gap_raises_measured_rate(rng):
    fair = RecidivismGenerator(policing_gap=0.0).generate(6000, rng)
    gapped = RecidivismGenerator(policing_gap=1.0).generate(6000, rng)

    def measured_gap(table):
        rate_b = table.filter(table["group"] == "B")["reoffended"].mean()
        rate_a = table.filter(table["group"] == "A")["reoffended"].mean()
        return rate_b - rate_a

    assert abs(measured_gap(fair)) < 0.05
    assert measured_gap(gapped) > 0.05


def test_recidivism_latent_unaffected_by_gap(rng):
    gapped = RecidivismGenerator(policing_gap=1.0).generate(6000, rng)
    latent_a = gapped.filter(gapped["group"] == "A")["reoffended_latent"].mean()
    latent_b = gapped.filter(gapped["group"] == "B")["reoffended_latent"].mean()
    assert abs(latent_a - latent_b) < 0.05


def test_hiring_funnel_is_monotone(rng):
    table = HiringFunnelGenerator().generate(2000, rng)
    assert np.all(table["passed_interview"] <= table["passed_screen"])
    np.testing.assert_allclose(table["hired"], table["passed_interview"])


def test_hiring_screen_bias_hits_group_b(rng):
    biased = HiringFunnelGenerator(screen_bias=1.5).generate(8000, rng)
    rate_a = biased.filter(biased["group"] == "A")["passed_screen"].mean()
    rate_b = biased.filter(biased["group"] == "B")["passed_screen"].mean()
    assert rate_a - rate_b > 0.1


def test_census_roles(rng):
    table = CensusIncomeGenerator().generate(100, rng)
    assert table.schema.sensitive_names == ["sex"]
    assert set(table.schema.quasi_identifier_names) == {
        "age", "occupation", "zipcode"
    }


def test_census_sex_gap_parameter(rng):
    gapped = CensusIncomeGenerator(sex_gap=2.0).generate(8000, rng)
    rate_f = gapped.filter(gapped["sex"] == "female")["high_income"].mean()
    rate_m = gapped.filter(gapped["sex"] == "male")["high_income"].mean()
    assert rate_m - rate_f > 0.1


def test_internet_minute_mix_matches_paper(rng):
    generator = InternetMinuteGenerator()
    table = generator.generate(50000, rng)
    total = sum(INTERNET_MINUTE_VOLUMES.values())
    for service, volume in INTERNET_MINUTE_VOLUMES.items():
        expected = volume / total
        observed = np.mean(table["service"] == service)
        assert observed == pytest.approx(expected, abs=0.02)


def test_internet_minute_stream_scaling(rng):
    generator = InternetMinuteGenerator(scale=1e-4, minutes=2)
    assert generator.expected_events_per_minute() == pytest.approx(1380, abs=5)
    stream = generator.generate_stream(rng)
    assert stream.n_rows == generator.expected_events_per_minute() * 2
    assert stream["timestamp"].max() <= 120.0


def test_internet_minute_timestamps_sorted(rng):
    stream = InternetMinuteGenerator().generate(500, rng)
    assert np.all(np.diff(stream["timestamp"]) >= 0)


def test_generator_repr_and_params():
    generator = CreditScoringGenerator(label_bias=0.3)
    assert "label_bias=0.3" in repr(generator)
    assert generator.params()["label_bias"] == 0.3


def test_choose_respects_per_row_probabilities(rng):
    from repro.data.synth.base import choose

    n = 6000
    probabilities = np.zeros((n, 3))
    probabilities[: n // 2] = [1.0, 0.0, 0.0]
    probabilities[n // 2:] = [0.0, 0.2, 0.8]
    values = choose(["x", "y", "z"], probabilities, rng)
    assert set(values[: n // 2]) == {"x"}
    second_half = values[n // 2:]
    assert np.mean(second_half == "z") == pytest.approx(0.8, abs=0.03)
    assert "x" not in set(second_half)


def test_choose_validation(rng):
    from repro.data.synth.base import choose
    from repro.exceptions import DataError

    with pytest.raises(DataError):
        choose(["a", "b"], np.ones((4, 3)), rng)


def _masked_sigmoid(z):
    """The logistic function as it was first written: one ``exp`` per sign."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    if out.ndim == 0:
        return float(out)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_form():
    tiny = np.finfo(np.float64).tiny
    edges = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny, -tiny,
        36.7, -36.7, 709.8, -709.8, 745.0, -745.0, 746.0, -746.0,
        1e300, -1e300,
    ])
    rng = np.random.default_rng(0)
    z = np.concatenate([edges, rng.normal(scale=10.0, size=4000),
                        rng.normal(scale=1e-3, size=4000)])
    with warnings.catch_warnings(), \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        assert sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()
        matrix = z[:4000].reshape(80, 50)
        assert sigmoid(matrix).shape == (80, 50)
        assert sigmoid(matrix).tobytes() == _masked_sigmoid(matrix).tobytes()
        assert sigmoid(np.array([])).shape == (0,)
        for value in (0.3, -2.0, np.float64(-745.0), np.inf):
            out = sigmoid(value)
            assert type(out) is float
            assert out == _masked_sigmoid(value)
