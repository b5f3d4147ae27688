"""Statistical equivalence of the hashed RR engine (``fast()``) against ``seed()``.

The hashed engine draws every coin from a hash of ``(entropy, slot, edge
key)`` instead of an RNG stream, so it cannot be bit-identical to the
seed engine; like the batched MC engine
(``tests/test_mc_engine_equivalence.py``) it is pinned with fixed-seed
statistical tests instead, across the IC, WC, Trivalency and topic-aware IC
models:

* a two-sample Kolmogorov–Smirnov test on the RR-set size distributions;
* tag frequencies within 3σ of the cpe weights ``cpe(i) / Γ``;
* per-(advertiser, node) membership frequencies — the quantity every
  revenue estimate is built from — within a Bonferroni-corrected normal
  bound of the seed engine's.

All samples are drawn on fixed seeds, so the suite is deterministic.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest

from repro.diffusion.models import (
    IndependentCascadeModel,
    TopicAwareICModel,
    TrivalencyModel,
    WeightedCascadeModel,
)
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy

MODELS = ("ic", "wc", "trivalency", "topic_ic")
CPES = [1.0, 2.0, 3.0]
COUNT = 6000
#: Family-wise significance of each test below.
ALPHA = 1e-3


@pytest.fixture(scope="module")
def graph():
    """An 80-node preferential-attachment graph."""
    return preferential_attachment_digraph(80, out_degree=3, seed=2)


def _advertiser_probabilities(model, graph):
    """One probability array per advertiser under ``model``."""
    if model == "ic":
        return [
            IndependentCascadeModel(graph, probability=p).edge_probabilities()
            for p in (0.1, 0.2, 0.3)
        ]
    if model == "wc":
        wc = WeightedCascadeModel(graph).edge_probabilities()
        return [wc, wc, wc]
    if model == "trivalency":
        return [
            TrivalencyModel(graph, values=(0.6, 0.3, 0.1), seed=seed).edge_probabilities()
            for seed in (4, 5, 6)
        ]
    topics = np.random.default_rng(9).uniform(0.0, 0.4, size=(3, graph.num_edges))
    tic = TopicAwareICModel(graph, topics)
    mixes = ([0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [1 / 3, 1 / 3, 1 / 3])
    return [tic.edge_probabilities(mix) for mix in mixes]


def _collections(model, graph):
    probabilities = [
        np.asarray(p, dtype=np.float64) for p in _advertiser_probabilities(model, graph)
    ]
    seed_engine = UniformRRSampler(
        graph, probabilities, CPES, seed=31, policy=ExecutionPolicy.seed()
    ).generate_collection(COUNT)
    hashed = UniformRRSampler(
        graph, probabilities, CPES, seed=31, policy=ExecutionPolicy.fast(n_jobs=1)
    ).generate_collection(COUNT)
    return seed_engine, hashed


def _ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    grid = np.union1d(sample_a, sample_b)
    cdf_a = np.searchsorted(np.sort(sample_a), grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(np.sort(sample_b), grid, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_threshold(n: int, m: int, alpha: float = ALPHA) -> float:
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


@pytest.fixture(scope="module", params=MODELS)
def pair(request, graph):
    return request.param, _collections(request.param, graph)


def test_set_size_distributions_agree(pair):
    model, (seed_engine, hashed) = pair
    a = seed_engine.set_sizes().astype(np.float64)
    b = hashed.set_sizes().astype(np.float64)
    assert _ks_statistic(a, b) <= _ks_threshold(a.size, b.size), model


def test_tag_frequencies_follow_cpe_weights(pair):
    model, (_, hashed) = pair
    weights = np.asarray(CPES) / sum(CPES)
    frequencies = hashed.count_per_advertiser() / len(hashed)
    sigma = np.sqrt(weights * (1.0 - weights) / len(hashed))
    assert np.all(np.abs(frequencies - weights) <= 3.0 * sigma), model


def test_membership_frequencies_agree(pair):
    model, (seed_engine, hashed) = pair
    h, n = seed_engine.membership_counts().shape
    z = NormalDist().inv_cdf(1.0 - ALPHA / (2.0 * h * n))
    for advertiser in range(h):
        sets_a = seed_engine.count_per_advertiser()[advertiser]
        sets_b = hashed.count_per_advertiser()[advertiser]
        freq_a = seed_engine.membership_counts()[advertiser] / sets_a
        freq_b = hashed.membership_counts()[advertiser] / sets_b
        pooled = (freq_a * sets_a + freq_b * sets_b) / (sets_a + sets_b)
        sigma = np.sqrt(pooled * (1.0 - pooled) * (1.0 / sets_a + 1.0 / sets_b))
        assert np.all(np.abs(freq_a - freq_b) <= z * sigma + 1e-12), (model, advertiser)
