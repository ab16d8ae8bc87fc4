"""The federated query and the core estimators run one bit-pushing plan.

With no failure models, central randomness and one bit per client, a
:class:`FederatedMeanQuery` over single-valued clients draws exactly what
the core estimator draws at the same seed (the cohort is the whole
population and eliciting one value draws nothing), so the two must agree
to the last bit: the value, the pooled bit means and the pooled counts.
"""

import numpy as np
import pytest

from repro.core import AdaptiveBitPushing, BasicBitPushing, ClientBatch, FixedPointEncoder
from repro.federated import FederatedMeanQuery
from repro.privacy import RandomizedResponse

N_CLIENTS = 3_000
SEEDS = (3, 41)


def _cases():
    for seed in SEEDS:
        for epsilon in (None, 0.5, 2.0):
            for caching in (True, False):
                yield "basic", epsilon, caching, 0.0, seed
                for squash in (0.0, 1.5):
                    # Squashing filters DP noise: it needs a perturbation.
                    if squash == 0.0 or epsilon is not None:
                        yield "adaptive", epsilon, caching, squash, seed


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(2024)
    return np.clip(rng.normal(300.0, 60.0, size=N_CLIENTS), 0.0, None)


def _core_estimate(encoder, mode, epsilon, caching, squash, values, seed):
    perturbation = None if epsilon is None else RandomizedResponse(epsilon)
    if mode == "basic":
        estimator = BasicBitPushing(encoder, perturbation=perturbation)
    else:
        estimator = AdaptiveBitPushing(
            encoder, caching=caching, perturbation=perturbation, squash_multiple=squash
        )
    return estimator.estimate(values, rng=seed)


def _query_estimate(encoder, mode, epsilon, caching, squash, values, seed):
    query = FederatedMeanQuery(
        encoder,
        mode=mode,
        caching=caching,
        perturbation=None if epsilon is None else RandomizedResponse(epsilon),
        squash_multiple=squash,
    )
    return query.run(ClientBatch.from_values(values), rng=seed)


def _assert_same_bits(query_estimate, core_estimate):
    assert query_estimate.value == core_estimate.value
    np.testing.assert_array_equal(query_estimate.bit_means, core_estimate.bit_means)
    np.testing.assert_array_equal(query_estimate.counts, core_estimate.counts)


@pytest.mark.parametrize("mode,epsilon,caching,squash,seed", list(_cases()))
def test_query_matches_core_estimator(mode, epsilon, caching, squash, seed, values):
    encoder = FixedPointEncoder.for_integers(10)
    args = (encoder, mode, epsilon, caching, squash, values, seed)
    _assert_same_bits(_query_estimate(*args), _core_estimate(*args))


@pytest.mark.parametrize("mode", ["basic", "adaptive"])
def test_parity_holds_across_chunk_boundaries(mode, values, monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_CHUNK", "257")
    encoder = FixedPointEncoder.for_integers(10)
    squash = 1.5 if mode == "adaptive" else 0.0
    args = (encoder, mode, 1.0, True, squash, values, 9)
    _assert_same_bits(_query_estimate(*args), _core_estimate(*args))
