"""Shared fixtures: tiny graphs, instances and oracles used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import ExactOracle, MonteCarloOracle, RRSetOracle
from repro.diffusion.models import IndependentCascadeModel, TopicAwareICModel
from repro.diffusion.topics import TopicDistribution
from repro.graph.builders import from_edge_list
from repro.rrsets.uniform import UniformRRSampler


@pytest.fixture
def pool_from_slots(monkeypatch):
    """``pool_from_slots(graph, slots=256)`` sends every slot call on
    ``graph`` of at least ``slots`` slots to the worker pool.

    ``run_slot_shards`` keeps a call in-process while its slots times its
    graph's mean in-degree stay below ``_INLINE_WORK``; on the small graphs
    of the pool, crash, shm and fork/spawn suites that would be every call.
    """
    from repro.parallel import rr

    def pin(graph, slots=256):
        degree = graph.num_edges / graph.num_nodes
        monkeypatch.setattr(rr, "_INLINE_WORK", (slots - 0.5) * degree)

    return pin


@pytest.fixture
def path_graph():
    """A directed path 0 -> 1 -> 2 -> 3."""
    return from_edge_list([(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star_graph():
    """Node 0 points to nodes 1..4."""
    return from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def diamond_graph():
    """0 -> {1, 2} -> 3 (two parallel paths)."""
    return from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def tiny_instance(diamond_graph):
    """Two advertisers on the diamond graph with deterministic edges (p = 1)."""
    model = IndependentCascadeModel(diamond_graph, probability=1.0)
    advertisers = [
        Advertiser(budget=10.0, cpe=1.0, name="a0"),
        Advertiser(budget=8.0, cpe=1.0, name="a1"),
    ]
    costs = np.full((2, diamond_graph.num_nodes), 1.0)
    return RMInstance(diamond_graph, model, advertisers, costs)


@pytest.fixture
def tiny_exact_oracle(tiny_instance):
    """Exact oracle on the tiny deterministic instance."""
    return ExactOracle(tiny_instance)


@pytest.fixture
def probabilistic_instance(diamond_graph):
    """Two advertisers on the diamond graph with p = 0.5 on every edge."""
    model = IndependentCascadeModel(diamond_graph, probability=0.5)
    advertisers = [
        Advertiser(budget=6.0, cpe=1.0, name="a0"),
        Advertiser(budget=5.0, cpe=2.0, name="a1"),
    ]
    costs = np.array(
        [
            [1.0, 1.5, 1.5, 2.0],
            [2.0, 1.0, 1.0, 1.0],
        ]
    )
    return RMInstance(diamond_graph, model, advertisers, costs)


@pytest.fixture
def single_advertiser_instance(star_graph):
    """One advertiser on the star graph, deterministic edges, unit costs."""
    model = IndependentCascadeModel(star_graph, probability=1.0)
    advertisers = [Advertiser(budget=7.0, cpe=1.0, name="solo")]
    costs = np.full((1, star_graph.num_nodes), 1.0)
    return RMInstance(star_graph, model, advertisers, costs)


@pytest.fixture
def topic_instance():
    """Three advertisers with distinct topic mixes on a 6-node TIC graph."""
    graph = from_edge_list(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)]
    )
    rng = np.random.default_rng(3)
    topic_matrix = rng.uniform(0.0, 0.8, size=(3, graph.num_edges))
    model = TopicAwareICModel(graph, topic_matrix)
    advertisers = [
        Advertiser(budget=12.0, cpe=1.0, topic_mix=TopicDistribution([0.8, 0.1, 0.1])),
        Advertiser(budget=10.0, cpe=1.5, topic_mix=TopicDistribution([0.1, 0.8, 0.1])),
        Advertiser(budget=9.0, cpe=2.0, topic_mix=TopicDistribution([0.1, 0.1, 0.8])),
    ]
    costs = rng.uniform(0.5, 2.0, size=(3, graph.num_nodes))
    return RMInstance(graph, model, advertisers, costs)


@pytest.fixture
def rr_oracle(probabilistic_instance):
    """RR-set oracle over a moderately sized uniform sample."""
    sampler = UniformRRSampler(
        probabilistic_instance.graph,
        probabilistic_instance.all_edge_probabilities(),
        probabilistic_instance.cpes(),
        seed=11,
    )
    collection = sampler.generate_collection(600)
    return RRSetOracle(collection, probabilistic_instance.gamma)


@pytest.fixture
def mc_oracle(probabilistic_instance):
    """Monte-Carlo oracle on the probabilistic instance."""
    return MonteCarloOracle(probabilistic_instance, num_simulations=300, seed=5)
