"""The threshold search does each sub-solve once.

On a pure (RR-set coverage) engine ``Fill`` and ``total_revenue`` depend
only on the ordered assignment sequence of ThresholdGreedy's allocation, so
:func:`repro.core.search.search_threshold` fills a repeated outcome once and
hands later probes a copy; likewise a probe's Line 9-10 rescue depends only
on the depleted advertiser and the selected nodes, so a repeated rescue is
looked up, not rerun.  These tests pin that the reuse is invisible:
the search returns what the plain loop in ``tests/reference/search.py``
returns — allocations in assignment order, revenues, every
:class:`SearchByproducts` field and the diagnostics — and its allocations
alias each other exactly where the plain loop's do.  They also pin that
both reuses happen on the benchmark-sized solve, and that a Monte-Carlo
oracle, whose ``Fill`` and rescue draw from a shared RNG, is filled and
rescued on every probe.
"""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import search as reference
from repro.advertising.advertiser import Advertiser
from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle, RRSetOracle
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.runtime import ExecutionPolicy

# The package re-exports both functions under their modules' names.
search = importlib.import_module("repro.core.search")
threshold_greedy = importlib.import_module("repro.core.threshold_greedy")


def _rr_instance(nodes, h, count, seed, costs="uniform", budget=40.0):
    graph = preferential_attachment_digraph(nodes, out_degree=3, seed=seed)
    model = WeightedCascadeModel(graph)
    rng = np.random.default_rng(seed)
    advertisers = [
        Advertiser(budget=budget * (1.0 + 0.25 * i), cpe=1.0 + 0.5 * (i % 2))
        for i in range(h)
    ]
    if costs == "tied":
        cost_matrix = np.ones((h, nodes))
    elif costs == "few":
        cost_matrix = rng.choice([0.5, 1.0, 2.0], size=(h, nodes))
    else:
        cost_matrix = rng.uniform(0.5, 3.0, size=(h, nodes))
    instance = RMInstance(graph, model, advertisers, cost_matrix)
    probabilities = np.asarray(model.edge_probabilities(), dtype=np.float64)
    rr_sets = RRSetGenerator(graph, probabilities).generate_batch(count, rng=seed)
    collection = RRCollection(nodes, h)
    for rr_set, tag in zip(rr_sets, rng.integers(0, h, size=count)):
        collection.add(rr_set, int(tag))
    return instance, RRSetOracle(collection, instance.gamma)


def _pairs(allocation):
    return None if allocation is None else list(allocation.pairs())


def _assert_same_search(got, expected):
    """Same allocations (in assignment order), revenue, byproducts and
    diagnostics, and the same aliasing between the returned allocations."""
    allocation, revenue, byproducts, diagnostics = got
    ref_allocation, ref_revenue, ref_byproducts, ref_diagnostics = expected
    assert _pairs(allocation) == _pairs(ref_allocation)
    assert revenue == ref_revenue
    for field in dataclasses.fields(byproducts):
        value = getattr(byproducts, field.name)
        ref_value = getattr(ref_byproducts, field.name)
        if isinstance(ref_value, Allocation) or isinstance(value, Allocation):
            assert _pairs(value) == _pairs(ref_value), field.name
        else:
            assert value == ref_value, field.name
    assert diagnostics == ref_diagnostics
    objects = [allocation, byproducts.allocation_low, byproducts.allocation_high]
    ref_objects = [ref_allocation, ref_byproducts.allocation_low, ref_byproducts.allocation_high]
    for i in range(3):
        for j in range(i + 1, 3):
            if objects[i] is not None and objects[j] is not None:
                assert (objects[i] is objects[j]) == (ref_objects[i] is ref_objects[j])


@st.composite
def _search_cases(draw):
    h = draw(st.sampled_from([2, 3, 5]))
    nodes = draw(st.integers(20, 60))
    return {
        "h": h,
        "nodes": nodes,
        "count": draw(st.integers(60, 400)),
        "seed": draw(st.integers(0, 2**16)),
        "costs": draw(st.sampled_from(["uniform", "tied", "few"])),
        # Tight budgets deplete after a seed or two and make the search
        # probe many thresholds; at 200 nothing depletes at γ = 0.
        "budget": draw(st.sampled_from([2.0, 6.0, 20.0, 40.0, 200.0])),
        "tau": draw(st.sampled_from([0.05, 0.1, 0.5])),
        "b_min": draw(st.sampled_from([1, 2])),
        "candidates": draw(
            st.none() | st.lists(st.integers(0, nodes - 1), min_size=1, unique=True)
        ),
    }


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_search_cases())
def test_search_matches_the_plain_loop(case):
    instance, oracle = _rr_instance(
        case["nodes"], case["h"], case["count"], case["seed"], case["costs"], case["budget"]
    )
    arguments = dict(tau=case["tau"], b_min=case["b_min"], candidates=case["candidates"])
    _assert_same_search(
        search.search_threshold(instance, oracle, **arguments),
        reference.search_threshold(instance, oracle, **arguments),
    )


def _count_calls(monkeypatch):
    """Count ThresholdGreedy and Fill calls, wherever Fill is called from."""
    counts = {"threshold_greedy": 0, "fill": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return call

    fill = counted("fill", threshold_greedy.fill)
    monkeypatch.setattr(threshold_greedy, "fill", fill)
    monkeypatch.setattr(search, "fill", fill, raising=False)
    monkeypatch.setattr(
        search, "threshold_greedy", counted("threshold_greedy", search.threshold_greedy)
    )
    return counts


def test_a_solve_fills_fewer_outcomes_than_it_probes(monkeypatch):
    """The benchmark's RMA solve probes thresholds below every rate that
    matters, whose outcomes repeat: it fills fewer times than it probes."""
    from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
    from repro.datasets.registry import build_dataset

    data = build_dataset(
        "flixster_like", num_advertisers=5, scale=0.2, seed=7, singleton_rr_sets=500
    )
    params = SamplingParameters(
        epsilon=0.1,
        rho=0.1,
        tau=0.1,
        initial_rr_sets=512,
        max_rr_sets=4096,
        policy=ExecutionPolicy.fast(n_jobs=1),
        seed=1,
    )
    counts = _count_calls(monkeypatch)
    rm_without_oracle(data.instance, params)
    assert 0 < counts["fill"] < counts["threshold_greedy"]


def _count_rescues(monkeypatch):
    """Count the probes that deplete exactly one budget and the rescues
    (Algorithm 1 on the unselected nodes) ThresholdGreedy runs."""
    counts = {"single_depletions": 0, "rescues": 0, "inputs": set()}
    probe, rescue = search.threshold_greedy, threshold_greedy.greedy_with_revenue

    def counted_probe(*args, **kwargs):
        allocation, depleted = probe(*args, **kwargs)
        counts["single_depletions"] += depleted == 1
        return allocation, depleted

    def counted_rescue(instance, oracle, advertiser, candidates, budget):
        counts["rescues"] += 1
        counts["inputs"].add((advertiser, tuple(candidates), budget))
        return rescue(instance, oracle, advertiser, candidates=candidates, budget=budget)

    monkeypatch.setattr(search, "threshold_greedy", counted_probe)
    monkeypatch.setattr(threshold_greedy, "greedy_with_revenue", counted_rescue)
    return counts


def test_a_solve_rescues_fewer_times_than_it_depletes_one_budget(monkeypatch):
    """The benchmark's RMA solve repeats rescues within a search: it runs
    Algorithm 1 fewer times than it has probes that deplete one budget."""
    from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
    from repro.datasets.registry import build_dataset

    data = build_dataset(
        "flixster_like", num_advertisers=5, scale=0.2, seed=7, singleton_rr_sets=500
    )
    params = SamplingParameters(
        epsilon=0.1,
        rho=0.1,
        tau=0.1,
        initial_rr_sets=512,
        max_rr_sets=4096,
        policy=ExecutionPolicy.fast(n_jobs=1),
        seed=1,
    )
    counts = _count_rescues(monkeypatch)
    rm_without_oracle(data.instance, params)
    assert 0 < counts["rescues"] < counts["single_depletions"]


def _mc_instance(budgets=(6.0, 10.0, 14.0)):
    graph = preferential_attachment_digraph(40, out_degree=2, seed=2)
    # Tight budgets: two of this search's five ThresholdGreedy outcomes repeat.
    advertisers = [
        Advertiser(budget=budget, cpe=1.0 + 0.5 * (i % 2)) for i, budget in enumerate(budgets)
    ]
    costs = np.random.default_rng(4).uniform(0.5, 3.0, size=(3, graph.num_nodes))
    return RMInstance(graph, WeightedCascadeModel(graph), advertisers, costs)


def _mc_oracle(instance):
    return MonteCarloOracle(instance, num_simulations=40, seed=11, policy=ExecutionPolicy.seed())


def test_monte_carlo_search_fills_every_probe(monkeypatch):
    """A Monte-Carlo oracle's Fill draws from its shared RNG, so every probe
    is filled, and the search consumes the stream like the plain loop."""
    instance = _mc_instance()
    expected = reference.search_threshold(instance, _mc_oracle(instance), tau=0.1, b_min=1)
    counts = _count_calls(monkeypatch)
    got = search.search_threshold(instance, _mc_oracle(instance), tau=0.1, b_min=1)
    iterations = got[3]["search_iterations"]
    assert counts["fill"] == counts["threshold_greedy"] == iterations > 1
    _assert_same_search(got, expected)


def test_monte_carlo_search_rescues_on_every_single_depletion(monkeypatch):
    """A Monte-Carlo oracle's rescue draws from its shared RNG, so every
    probe that depletes one budget runs its own, even a repeated one."""
    # One tight budget: three probes deplete it alone, two of them with the
    # same selected nodes.
    instance = _mc_instance(budgets=(2.0, 20.0, 20.0))
    counts = _count_rescues(monkeypatch)
    search.search_threshold(instance, _mc_oracle(instance), tau=0.1, b_min=2)
    assert counts["rescues"] == counts["single_depletions"] > len(counts["inputs"])


def test_reused_fills_are_copies(monkeypatch):
    """Mutating a returned allocation leaves every allocation that is not
    the same probe's unchanged: a reused fill is handed out as a copy."""
    instance, oracle = _rr_instance(30, 3, 300, seed=3, budget=40.0)
    counts = _count_calls(monkeypatch)
    allocation, _, byproducts, _ = search.search_threshold(instance, oracle, tau=0.1, b_min=1)
    assert counts["fill"] < counts["threshold_greedy"]
    ref_allocation, _, ref_byproducts, _ = reference.search_threshold(
        instance, oracle, tau=0.1, b_min=1
    )
    others = {"low": byproducts.allocation_low, "high": byproducts.allocation_high}
    before = {name: _pairs(other) for name, other in others.items()}
    # The best probe's outcome repeats in another probe that is kept.
    assert any(
        other is not allocation and _pairs(other) == _pairs(allocation)
        for other in others.values()
    )
    node, _ = next(iter(allocation.pairs()))
    allocation.unassign(node)
    for name, other in others.items():
        same_probe = other is allocation
        assert same_probe == (
            getattr(ref_byproducts, f"allocation_{name}") is ref_allocation
        )
        if not same_probe:
            assert _pairs(other) == before[name], name
