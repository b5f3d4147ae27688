"""Monte-Carlo-oracle greedy results pinned to a golden file.

With a :class:`MonteCarloOracle` every distinct ``(advertiser, seed set)``
query draws fresh cascades from the oracle's one shared RNG, so a greedy
routine's result depends on the *order* in which it first asks each query —
not only on which element it selects.  The expected revenues and
allocations in ``tests/data/mc_oracle_golden.json`` were recorded with the
recipes below while each consumer still ran its own per-element scalar loop;
the test pins the query order of the single heap loop every consumer runs
now.  Each recipe builds a fresh oracle, so results do not depend on the
order the tests run in.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core.greedy import greedy_single_advertiser
from repro.core.oracle_solver import rm_with_oracle
from repro.core.search import gamma_max
from repro.core.threshold_greedy import fill, threshold_greedy
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.runtime import ExecutionPolicy

GOLDEN_PATH = Path(__file__).parent / "data" / "mc_oracle_golden.json"
SEED = ExecutionPolicy.seed()


def _instance() -> RMInstance:
    graph = preferential_attachment_digraph(40, out_degree=2, seed=2)
    h = 3
    advertisers = [
        Advertiser(budget=14.0 + 4.0 * i, cpe=1.0 + 0.5 * (i % 2)) for i in range(h)
    ]
    costs = np.random.default_rng(4).uniform(0.5, 3.0, size=(h, graph.num_nodes))
    return RMInstance(graph, WeightedCascadeModel(graph), advertisers, costs)


def _oracle(instance: RMInstance) -> MonteCarloOracle:
    return MonteCarloOracle(instance, num_simulations=40, seed=11, policy=SEED)


def _allocation(allocation: Allocation) -> dict:
    return {str(a): sorted(int(n) for n in s) for a, s in allocation.items()}


def _greedy(advertiser, candidates=None):
    def run(instance, oracle):
        best, selected, stopple = greedy_single_advertiser(
            instance, oracle, advertiser, candidates=candidates
        )
        return {
            "best": sorted(best),
            "selected": sorted(selected),
            "stopple": sorted(stopple),
            "revenue": oracle.revenue(advertiser, best) if best else 0.0,
        }

    return run


def _threshold(gamma):
    def run(instance, oracle):
        allocation, depleted = threshold_greedy(instance, oracle, gamma)
        return {
            "depleted": depleted,
            "revenue": oracle.total_revenue(allocation),
            "allocation": _allocation(allocation),
        }

    return run


def _fill_partial(instance, oracle):
    start = Allocation(instance.num_advertisers)
    for advertiser, node in [(0, 3), (0, 17), (1, 25), (2, 4), (2, 9)]:
        start.assign(node, advertiser)
    allocation = fill(instance, oracle, start)
    return {"revenue": oracle.total_revenue(allocation), "allocation": _allocation(allocation)}


def _rm_with_oracle(instance, oracle):
    result = rm_with_oracle(instance, oracle)
    return {
        "revenue": result.revenue,
        "allocation": _allocation(result.allocation),
        "search_iterations": result.metadata["search_iterations"],
    }


def _baseline(solver):
    def run(instance, oracle):
        result = solver(instance, oracle)
        return {
            "revenue": result.revenue,
            "allocation": _allocation(result.allocation),
            "depleted": result.depleted_budgets,
        }

    return run


def _gamma_max(instance, oracle):
    return {"gamma_max": gamma_max(instance, oracle)}


RECIPES = {
    "greedy_single_advertiser": _greedy(0),
    "greedy_single_advertiser_subset": _greedy(1, candidates=list(range(39, 0, -3))),
    "threshold_greedy_one_depleted": _threshold(12.0),
    "threshold_greedy_none_depleted": _threshold(16.0),
    "fill_partial": _fill_partial,
    "rm_with_oracle": _rm_with_oracle,
    "ca_greedy": _baseline(ca_greedy),
    "cs_greedy": _baseline(cs_greedy),
    "gamma_max": _gamma_max,
}


def record() -> dict:
    """Run every recipe on a fresh oracle (what the golden file holds)."""
    instance = _instance()
    return {name: recipe(instance, _oracle(instance)) for name, recipe in RECIPES.items()}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_monte_carlo_results_match_golden(name, golden):
    instance = _instance()
    assert RECIPES[name](instance, _oracle(instance)) == golden[name]
