"""Golden-digest pins for DP releases, one per query kind.

Each digest was captured before the ``dp_*`` functions and the query
server were moved onto one stats/release kernel.  The offline digests
cover every ``dp_*`` function under one seeded generator per kind, with
NaN inputs, out-of-bound values, q at both ends and unsorted bins; the
served digests cover a Zipf workload answered with and without a batch
window.  Moving code between modules may change neither the answers nor
the order in which a generator is drawn.
"""

import hashlib

import numpy as np
import pytest

from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.queries import (
    dp_count,
    dp_histogram,
    dp_mean,
    dp_quantile,
    dp_sum,
)
from repro.data.synth import CensusIncomeGenerator
from repro.serve import QueryServer, ServeConfig
from repro.serve.loadgen import TABLE_NAME, zipf_workload

DP_GOLDEN = {
    "count": (
        "92a6380d01ac752ee5116d22befb74bf"
        "d63d4b28f8340e7d50a4c71942fe7a32"
    ),
    "sum": (
        "8705c21e557aea5ccb05d43249814137"
        "497ca0938b84ad61bfced548f76557a9"
    ),
    "mean": (
        "c5c66498011d21f2fa7e1d189959d171"
        "44b8a0272bba17687ba97a4e1a601e25"
    ),
    "quantile": (
        "a362341173f8c8b3f9d569c043785aba"
        "47cbf99cee1888c201c1eb0515f81c9a"
    ),
    "histogram": (
        "235570314ea1a7d43b7561762ae98689"
        "a942cb17fbb8a7a84c071807c59812a5"
    ),
}

SERVED_GOLDEN = (
    "1ad7d31ce71eaf8c6b235119fd4056c1"
    "206e362a66a01671f3173a2b5e2e3c75"
)


def _canonical(value):
    """Exact, type-insensitive encoding: floats by their hex form."""
    if isinstance(value, dict):
        return [[_canonical(key), _canonical(item)]
                for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _digest(values) -> str:
    return hashlib.sha256(repr(_canonical(values)).encode()).hexdigest()


def _numbers(seed: int) -> np.ndarray:
    """Values spilling past the bounds below, with ties and NaNs."""
    data = np.random.default_rng(seed)
    values = np.round(data.normal(50.0, 30.0, 400), 1)
    values[::37] = np.nan
    values[5:25] = 50.0
    return values


def _dp_outputs(kind: str) -> list:
    rng = np.random.default_rng(20190630)
    accountant = PrivacyAccountant(1e6)
    values = _numbers(11)
    if kind == "count":
        return [dp_count(n, epsilon, accountant, rng)
                for n in (0, 1, 17, 5_000) for epsilon in (0.05, 1.0)]
    if kind == "sum":
        return [dp_sum(data, lower, upper, epsilon, accountant, rng)
                for data in (values, values[~np.isnan(values)])
                for lower, upper in ((0.0, 100.0), (-20.0, 5.0))
                for epsilon in (0.1, 2.0)]
    if kind == "mean":
        return [dp_mean(data, lower, upper, epsilon, accountant, rng)
                for data in (values, values[~np.isnan(values)], values[:3])
                for lower, upper in ((0.0, 100.0), (-20.0, 5.0))
                for epsilon in (0.1, 2.0)]
    if kind == "quantile":
        return [dp_quantile(data, q, lower, upper, epsilon, accountant, rng)
                for data in (values, values[~np.isnan(values)], values[:0])
                for q in (0.0, 0.5, 1.0)
                for lower, upper in ((0.0, 100.0), (40.0, 60.0))
                for epsilon in (0.1, 5.0)]
    labels = np.random.default_rng(12).choice(
        ["north", "south", "east", "west"], size=300
    ).astype(object)
    outputs = [dp_histogram(labels, bins, epsilon, accountant, rng)
               for bins in (["west", "east", "north", "south"],
                            ["south", "nowhere", "east"])
               for epsilon in (0.1, 2.0)]
    outputs.append(dp_histogram(np.floor(values / 25.0), [3.0, 0.0, 2.0, -1.0],
                                0.5, accountant, rng))
    return outputs


@pytest.mark.parametrize("kind", sorted(DP_GOLDEN))
def test_dp_release_digests(kind):
    assert _digest(_dp_outputs(kind)) == DP_GOLDEN[kind]


@pytest.mark.parametrize("batch_window_ms", [0.0, 5.0])
def test_served_answer_digests(batch_window_ms):
    table = CensusIncomeGenerator().generate(
        2_000, np.random.default_rng(np.random.SeedSequence([3, 0x7AB]))
    )
    config = ServeConfig(workers=2, seed=3, batch_window_ms=batch_window_ms,
                         max_queue_depth=4_096, default_epsilon_budget=1e9)
    with QueryServer(config) as server:
        server.register_table(TABLE_NAME, table)
        results = server.submit_batch(zipf_workload(400, seed=3))
        ledgers = {
            tenant: sorted((entry.label, entry.epsilon) for entry in
                           server.budget.accountant(tenant).ledger)
            for tenant in sorted(server.budget.tenants)
        }
    answers = [(result.status, result.value) for result in results]
    assert _digest([answers, ledgers]) == SERVED_GOLDEN
