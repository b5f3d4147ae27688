"""Edge cases and failure-injection tests for the solvers.

These cover degenerate instances the algorithms must survive gracefully:
budgets too small for any seed, disconnected graphs, zero-probability
propagation, single-node graphs, advertisers with identical parameters, and
candidate pools naming nodes outside the graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import ExactOracle, MonteCarloOracle, RRSetOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.baselines.ti_common import TIParameters
from repro.baselines.ti_csrm import ti_csrm
from repro.core.greedy import greedy_single_advertiser
from repro.core.oracle_solver import rm_with_oracle
from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
from repro.core.search import gamma_max
from repro.core.threshold_greedy import fill, threshold_greedy
from repro.diffusion.models import IndependentCascadeModel
from repro.exceptions import ProblemDefinitionError
from repro.graph.builders import from_edge_list
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy


def make_instance(edges, num_nodes, budgets, probability=0.5, costs=None, cpes=None):
    graph = from_edge_list(edges, num_nodes=num_nodes)
    model = IndependentCascadeModel(graph, probability=probability)
    cpes = cpes or [1.0] * len(budgets)
    advertisers = [Advertiser(budget=b, cpe=c) for b, c in zip(budgets, cpes)]
    if costs is None:
        costs = np.ones((len(budgets), num_nodes))
    return RMInstance(graph, model, advertisers, costs)


class TestDegenerateBudgets:
    def test_budget_too_small_for_any_seed_gives_empty_allocation(self):
        # Every node's cost + singleton revenue exceeds the budget of 1.5.
        instance = make_instance([(0, 1)], 3, budgets=[1.5, 1.5])
        oracle = ExactOracle(instance)
        result = rm_with_oracle(instance, oracle, tau=0.1)
        assert result.allocation.is_empty()
        assert result.revenue == 0.0

    def test_single_advertiser_tiny_budget(self):
        instance = make_instance([(0, 1)], 3, budgets=[1.5])
        oracle = ExactOracle(instance)
        best, selected, stopple = greedy_single_advertiser(instance, oracle, 0)
        assert best == set()

    def test_rma_with_tiny_budgets_returns_empty_but_valid(self):
        instance = make_instance([(0, 1), (1, 2)], 4, budgets=[1.2, 1.2])
        result = rm_without_oracle(
            instance, SamplingParameters(initial_rr_sets=64, max_rr_sets=128, seed=1)
        )
        assert result.allocation.total_seed_count() <= 1
        assert result.revenue >= 0.0

    def test_baselines_with_tiny_budgets(self):
        instance = make_instance([(0, 1), (1, 2)], 4, budgets=[1.2, 1.2])
        oracle = ExactOracle(instance)
        assert ca_greedy(instance, oracle).allocation.is_empty()
        assert cs_greedy(instance, oracle).allocation.is_empty()


class TestDegenerateGraphs:
    def test_graph_with_no_edges(self):
        instance = make_instance([], 5, budgets=[10.0, 10.0])
        oracle = ExactOracle(instance)
        result = rm_with_oracle(instance, oracle, tau=0.1)
        # Each selected node contributes exactly 1 engagement.
        for advertiser, seeds in result.allocation.items():
            revenue = oracle.revenue(advertiser, seeds)
            assert revenue == pytest.approx(float(len(seeds)))

    def test_zero_probability_edges(self):
        instance = make_instance([(0, 1), (1, 2)], 4, budgets=[8.0], probability=0.0)
        oracle = ExactOracle(instance)
        best, _, _ = greedy_single_advertiser(instance, oracle, 0)
        assert oracle.revenue(0, best) == pytest.approx(float(len(best)))

    def test_disconnected_components_both_used(self):
        # Two disjoint stars; with two advertisers both components carry seeds.
        edges = [(0, 1), (0, 2), (3, 4), (3, 5)]
        instance = make_instance(edges, 6, budgets=[6.0, 6.0], probability=1.0)
        oracle = ExactOracle(instance)
        result = rm_with_oracle(instance, oracle, tau=0.1)
        assigned = result.allocation.assigned_nodes()
        assert assigned & {0, 1, 2}
        assert assigned & {3, 4, 5}

    def test_single_node_graph(self):
        instance = make_instance([], 1, budgets=[5.0])
        oracle = ExactOracle(instance)
        best, _, _ = greedy_single_advertiser(instance, oracle, 0)
        assert best == {0}


class TestManyAdvertisers:
    def test_more_advertisers_than_attractive_nodes(self):
        edges = [(0, 1), (0, 2), (0, 3)]
        budgets = [6.0] * 6
        instance = make_instance(edges, 4, budgets=budgets, probability=1.0)
        oracle = ExactOracle(instance)
        result = rm_with_oracle(instance, oracle, tau=0.1)
        # Partition constraint: at most 4 nodes can be assigned in total.
        assert result.allocation.total_seed_count() <= 4

    def test_identical_advertisers_split_the_graph(self):
        edges = [(0, 1), (2, 3), (4, 5)]
        instance = make_instance(edges, 6, budgets=[4.0, 4.0, 4.0], probability=1.0)
        oracle = ExactOracle(instance)
        result = rm_with_oracle(instance, oracle, tau=0.1)
        sizes = [len(seeds) for _, seeds in result.allocation.items()]
        assert sum(sizes) >= 3

    def test_threshold_greedy_with_ten_advertisers(self):
        edges = [(i, (i + 1) % 12) for i in range(12)]
        instance = make_instance(edges, 12, budgets=[5.0] * 10, probability=0.3)
        oracle = MonteCarloOracle(instance, num_simulations=100, seed=1)
        allocation, depleted = threshold_greedy(instance, oracle, gamma=0.0)
        assert 0 <= depleted <= 10
        assert allocation.total_seed_count() <= 12


class TestHeterogeneousCpe:
    def test_high_cpe_advertiser_wins_contested_nodes(self):
        """With equal budgets and spread, the uniform sampler's cpe weighting
        plus the greedy gain rule should route the hub to the high-cpe ad."""
        edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
        graph = from_edge_list(edges, num_nodes=5)
        model = IndependentCascadeModel(graph, probability=1.0)
        advertisers = [Advertiser(budget=50.0, cpe=1.0), Advertiser(budget=50.0, cpe=3.0)]
        instance = RMInstance(graph, model, advertisers, np.ones((2, 5)))
        sampler = UniformRRSampler(
            graph, instance.all_edge_probabilities(), instance.cpes(), seed=4
        )
        oracle = RRSetOracle(sampler.generate_collection(2000), instance.gamma)
        result = rm_with_oracle(instance, oracle, tau=0.1)
        assert result.allocation.owner_of(0) == 1

    def test_ti_baseline_with_heterogeneous_cpe(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        instance = make_instance(
            edges, 5, budgets=[8.0, 12.0], probability=0.4, cpes=[1.0, 2.0]
        )
        result = ti_csrm(
            instance,
            TIParameters(epsilon=0.3, pilot_size=32, max_rr_sets_per_advertiser=128, seed=2),
        )
        assert result.revenue >= 0.0


class TestOutOfRangeCandidates:
    """Every greedy consumer validates its candidate pool the same way,
    whichever oracle (and so whichever greedy engine) it runs on."""

    SOLVERS = {
        "gamma_max": lambda instance, oracle, candidates: gamma_max(
            instance, oracle, candidates=candidates
        ),
        "threshold_greedy": lambda instance, oracle, candidates: threshold_greedy(
            instance, oracle, 0.0, candidates=candidates
        ),
        "fill": lambda instance, oracle, candidates: fill(
            instance, oracle, Allocation(instance.num_advertisers), candidates=candidates
        ),
        "greedy_single_advertiser": lambda instance, oracle, candidates: (
            greedy_single_advertiser(instance, oracle, 0, candidates=candidates)
        ),
        "ca_greedy": lambda instance, oracle, candidates: ca_greedy(
            instance, oracle, candidates=candidates
        ),
        "cs_greedy": lambda instance, oracle, candidates: cs_greedy(
            instance, oracle, candidates=candidates
        ),
    }

    @staticmethod
    def _oracle(kind, instance):
        if kind == "rr":
            sampler = UniformRRSampler(
                instance.graph,
                instance.all_edge_probabilities(),
                instance.cpes(),
                seed=3,
                policy=ExecutionPolicy.seed(),
            )
            return RRSetOracle(sampler.generate_collection(200), instance.gamma)
        return MonteCarloOracle(
            instance, num_simulations=10, seed=3, policy=ExecutionPolicy.seed()
        )

    @pytest.mark.parametrize("oracle_kind", ["rr", "monte_carlo"])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_out_of_range_candidate_raises_problem_definition_error(
        self, solver, oracle_kind
    ):
        instance = make_instance([(0, 1), (1, 2), (2, 3)], 4, budgets=[6.0, 6.0])
        oracle = self._oracle(oracle_kind, instance)
        for candidates in ([-1, 0, 1], [0, instance.num_nodes]):
            with pytest.raises(ProblemDefinitionError, match="out of range"):
                self.SOLVERS[solver](instance, oracle, candidates)
