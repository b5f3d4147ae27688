"""Tests for the revenue oracles (exact, Monte-Carlo, RR-set)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertising.allocation import Allocation
from repro.advertising.oracle import ExactOracle, MonteCarloOracle, RRSetOracle
from repro.diffusion.simulation import exact_spread
from repro.exceptions import SolverError
from repro.rrsets.collection import RRCollection
from repro.rrsets.uniform import UniformRRSampler


class TestExactOracle:
    def test_revenue_matches_exact_spread(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        truth = exact_spread(
            probabilistic_instance.graph,
            probabilistic_instance.edge_probabilities(1),
            {0},
        )
        assert oracle.revenue(1, {0}) == pytest.approx(2.0 * truth)

    def test_empty_set_revenue_zero(self, tiny_exact_oracle):
        assert tiny_exact_oracle.revenue(0, set()) == 0.0

    def test_marginal_revenue_consistent(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        base = oracle.revenue(0, {1})
        extended = oracle.revenue(0, {1, 2})
        assert oracle.marginal_revenue(0, 2, {1}) == pytest.approx(extended - base)

    def test_marginal_of_existing_member_is_zero(self, tiny_exact_oracle):
        assert tiny_exact_oracle.marginal_revenue(0, 1, {1}) == 0.0

    def test_total_revenue_sums_over_advertisers(self, tiny_exact_oracle):
        allocation = Allocation.from_dict(2, {0: [0], 1: [3]})
        expected = tiny_exact_oracle.revenue(0, {0}) + tiny_exact_oracle.revenue(1, {3})
        assert tiny_exact_oracle.total_revenue(allocation) == pytest.approx(expected)

    def test_total_revenue_accepts_plain_dict(self, tiny_exact_oracle):
        assert tiny_exact_oracle.total_revenue({0: {0}}) == tiny_exact_oracle.revenue(0, {0})

    def test_spread_helper(self, tiny_exact_oracle):
        revenue = tiny_exact_oracle.revenue(0, {0})
        assert tiny_exact_oracle.spread(0, {0}, cpe=1.0) == pytest.approx(revenue)

    def test_large_graph_rejected(self, topic_instance):
        # topic_instance has 8 edges which is fine; force a lower cap instead.
        with pytest.raises(SolverError):
            ExactOracle(topic_instance, max_edges=2)


class TestMonteCarloOracle:
    def test_agrees_with_exact_oracle(self, probabilistic_instance):
        exact = ExactOracle(probabilistic_instance)
        monte = MonteCarloOracle(probabilistic_instance, num_simulations=4000, seed=1)
        assert monte.revenue(0, {0}) == pytest.approx(exact.revenue(0, {0}), rel=0.1)

    def test_monotone_in_seeds(self, mc_oracle):
        assert mc_oracle.revenue(0, {0, 1}) >= mc_oracle.revenue(0, {0}) - 1e-9

    def test_caches_queries(self, probabilistic_instance):
        oracle = MonteCarloOracle(probabilistic_instance, num_simulations=50, seed=1)
        first = oracle.revenue(0, {0, 1})
        second = oracle.revenue(0, {1, 0})
        assert first == second
        assert oracle.query_count == 1

    def test_invalid_simulation_count(self, probabilistic_instance):
        with pytest.raises(SolverError):
            MonteCarloOracle(probabilistic_instance, num_simulations=0)


class TestRRSetOracle:
    def test_scale_factor(self, probabilistic_instance):
        sampler = UniformRRSampler(
            probabilistic_instance.graph,
            probabilistic_instance.all_edge_probabilities(),
            probabilistic_instance.cpes(),
            seed=3,
        )
        collection = sampler.generate_collection(100)
        oracle = RRSetOracle(collection, probabilistic_instance.gamma)
        expected_scale = probabilistic_instance.num_nodes * probabilistic_instance.gamma / 100
        assert oracle.scale == pytest.approx(expected_scale)

    def test_agrees_with_exact_oracle_on_large_sample(self, probabilistic_instance):
        sampler = UniformRRSampler(
            probabilistic_instance.graph,
            probabilistic_instance.all_edge_probabilities(),
            probabilistic_instance.cpes(),
            seed=3,
        )
        collection = sampler.generate_collection(20000)
        oracle = RRSetOracle(collection, probabilistic_instance.gamma)
        exact = ExactOracle(probabilistic_instance)
        assert oracle.revenue(1, {0, 1}) == pytest.approx(exact.revenue(1, {0, 1}), rel=0.1)

    def test_marginal_consistency(self, rr_oracle):
        base = rr_oracle.revenue(0, {1})
        extended = rr_oracle.revenue(0, {1, 3})
        assert rr_oracle.marginal_revenue(0, 3, {1}) == pytest.approx(extended - base)

    def test_marginal_of_member_zero(self, rr_oracle):
        assert rr_oracle.marginal_revenue(0, 1, {1}) == 0.0

    def test_monotone_and_submodular(self, rr_oracle):
        empty_gain = rr_oracle.marginal_revenue(0, 2, set())
        later_gain = rr_oracle.marginal_revenue(0, 2, {0, 1})
        assert later_gain <= empty_gain + 1e-9
        assert rr_oracle.revenue(0, {0, 1, 2}) >= rr_oracle.revenue(0, {0, 1}) - 1e-9

    def test_empty_collection_rejected(self):
        with pytest.raises(SolverError):
            RRSetOracle(RRCollection(3, 1), gamma=1.0)

    def test_invalid_advertiser(self, rr_oracle):
        with pytest.raises(SolverError):
            rr_oracle.revenue(9, {0})


# --------------------------------------------------------------------------- #
# RRSetOracle exactness: every answer is scale × a set-union count
# --------------------------------------------------------------------------- #
@st.composite
def _tagged_collections(draw):
    num_nodes = draw(st.integers(1, 12))
    num_advertisers = draw(st.integers(1, 3))
    sets = draw(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, num_nodes - 1), min_size=1),
                st.integers(0, num_advertisers - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    collection = RRCollection(num_nodes, num_advertisers)
    for members, tag in sets:
        collection.add(np.array(sorted(members), dtype=np.int64), tag)
    node = st.integers(0, num_nodes - 1)
    # Lists, so seed sets repeat nodes; the empty list is the empty set.
    seeds = draw(st.lists(node, max_size=8))
    return collection, sets, draw(st.integers(0, num_advertisers - 1)), seeds, draw(node)


def _brute_force_count(sets, advertiser, seeds):
    seeds = set(seeds)
    return sum(1 for members, tag in sets if tag == advertiser and members & seeds)


@settings(max_examples=200, deadline=None)
@given(_tagged_collections(), st.booleans(), st.floats(0.1, 10.0))
def test_rr_oracle_is_scale_times_a_set_union_count(case, node_in_seeds, gamma):
    collection, sets, advertiser, seeds, node = case
    if node_in_seeds:
        seeds = seeds + [node]
    oracle = RRSetOracle(collection, gamma)
    count = _brute_force_count(sets, advertiser, seeds)
    with_node = _brute_force_count(sets, advertiser, seeds + [node])
    # What serve's spread op reports as covered_rr_sets.
    assert collection.coverage_count(advertiser, seeds) == count
    assert oracle.revenue(advertiser, seeds) == oracle.scale * count
    assert oracle.revenue(advertiser, iter(seeds)) == oracle.scale * count
    assert oracle.marginal_revenue(advertiser, node, seeds) == (
        oracle.scale * (with_node - count)
    )
    assert oracle.marginal_revenue(advertiser, node, iter(seeds)) == (
        oracle.scale * (with_node - count)
    )
    if node in seeds:
        assert oracle.marginal_revenue(advertiser, node, seeds) == 0.0
