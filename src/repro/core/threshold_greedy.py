"""Algorithms 2 and 3 — ``ThresholdGreedy(γ)`` and ``Fill(S⃗)``.

``ThresholdGreedy`` selects elements ``(u, i)`` in decreasing order of
*marginal gain* (like CA-Greedy) but only accepts an element whose *marginal
rate* clears the threshold ``γ / B_i``.  The first budget-overflowing node of
each advertiser is parked as the stopple node ``D_i``.  If exactly one budget
was depleted, Algorithm 1 is re-run on the unassigned nodes for that
advertiser (the ``A_i`` set of the paper's analysis).  ``Fill`` then spends
whatever budget is left, greedily by marginal rate.

Theorem 3.2 relates the revenue of the returned allocation to ``OPT`` through
the number ``b`` of depleted budgets, which is what the binary search of
Algorithm 4 exploits.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_for
from repro.core.greedy import greedy_single_advertiser, marginal_rate
from repro.exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy


class _GreedyState:
    """Bookkeeping shared by ThresholdGreedy and Fill.

    Tracks, per advertiser, the selected set ``S_i``, its revenue and its
    seeding cost, plus the global node-to-advertiser assignment so the
    partition constraint can be checked in O(1).
    """

    def __init__(self, instance: RMInstance, budgets: np.ndarray):
        self.instance = instance
        self.budgets = budgets
        h = instance.num_advertisers
        self.selected: Dict[int, Set[int]] = {i: set() for i in range(h)}
        self.stopple: Dict[int, Set[int]] = {i: set() for i in range(h)}
        self.revenue: Dict[int, float] = {i: 0.0 for i in range(h)}
        self.cost: Dict[int, float] = {i: 0.0 for i in range(h)}
        self.assigned: Set[int] = set()

    def try_add(self, node: int, advertiser: int, gain: float) -> str:
        """Attempt to add ``(node, advertiser)`` with marginal revenue ``gain``;
        returns 'selected' or 'stopple'."""
        node_cost = self.instance.cost(advertiser, node)
        new_cost = self.cost[advertiser] + node_cost
        new_revenue = self.revenue[advertiser] + gain
        if new_cost + new_revenue <= self.budgets[advertiser]:
            self.selected[advertiser].add(node)
            self.revenue[advertiser] = new_revenue
            self.cost[advertiser] = new_cost
            self.assigned.add(node)
            return "selected"
        self.stopple[advertiser].add(node)
        self.assigned.add(node)
        return "stopple"


def threshold_greedy(
    instance: RMInstance,
    oracle: RevenueOracle,
    gamma: float,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
    run_fill: bool = True,
    policy: Optional["ExecutionPolicy"] = None,
) -> Tuple[Allocation, int]:
    """Algorithm 2 — returns ``(allocation S⃗*, b)``.

    Parameters
    ----------
    gamma:
        The marginal-rate threshold γ ≥ 0.
    budgets:
        Optional per-advertiser budget overrides (the sampling solver passes
        the relaxed budgets here); defaults to the instance budgets.
    candidates:
        Candidate node pool; defaults to all nodes.
    run_fill:
        Whether to run the final ``Fill`` pass (Line 12).  Disabled only by
        ablation benchmarks.
    policy:
        Accepted for a uniform solver signature; no greedy loop depends on
        it — the evaluator follows the oracle
        (:func:`repro.core.batched_greedy.engine_for`).
    """
    if gamma < 0:
        raise SolverError("gamma must be non-negative")
    h = instance.num_advertisers
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    if budget_array.shape != (h,):
        raise SolverError(f"budgets must have length {h}")
    if np.any(budget_array <= 0):
        raise SolverError("budgets must be positive")

    state = _GreedyState(instance, budget_array)
    depleted: Set[int] = set()
    engine = engine_for(instance, oracle)
    n = instance.num_nodes
    heap = engine.heap(engine.gains)
    heap.push_array(engine.feasible_element_keys(budget_array, candidates))

    # Main loop (Lines 3-8): pop by max marginal gain, apply the three filters.
    while len(heap) and len(depleted) < h:
        popped = heap.pop_best()
        if popped is None:
            break
        key, _stale_gain = popped
        advertiser, node = divmod(key, n)
        # Filter 1: threshold on the marginal rate w.r.t. S_i ∪ D_i, and skip
        # advertisers whose budget is already depleted (D_i non-empty).
        if state.stopple[advertiser]:
            continue
        gain = engine.gain(advertiser, node)
        rate = marginal_rate(gain, instance.cost(advertiser, node))
        if rate < gamma / budget_array[advertiser]:
            continue
        # Filter 2: the node must not be assigned to any advertiser yet.
        if node in state.assigned:
            continue
        outcome = state.try_add(node, advertiser, gain)
        if outcome == "selected":
            engine.add_seed(advertiser, node)
            heap.advance_round()
        else:
            depleted.add(advertiser)

    # Line 9-10: when exactly one budget is depleted, re-run Greedy for it on
    # the still-unassigned nodes; its result backs the b = 1 case of Thm 3.2.
    rescue: Dict[int, Set[int]] = {i: set() for i in range(h)}
    if len(depleted) == 1:
        advertiser = next(iter(depleted))
        selected_nodes = set().union(*state.selected.values())
        unassigned = [
            node
            for node in (candidates if candidates is not None else range(instance.num_nodes))
            if int(node) not in selected_nodes
        ]
        best, _selected, _stopple = greedy_single_advertiser(
            instance,
            oracle,
            advertiser,
            candidates=unassigned,
            budget=float(budget_array[advertiser]),
        )
        rescue[advertiser] = best

    # Line 11: per advertiser keep the best of S_j, D_j, A_j.
    chosen: Dict[int, Set[int]] = {}
    for advertiser in range(h):
        options = [state.selected[advertiser], state.stopple[advertiser], rescue[advertiser]]
        revenues = [
            oracle.revenue(advertiser, option) if option else 0.0 for option in options
        ]
        chosen[advertiser] = set(options[int(np.argmax(revenues))])

    # The paper's Fill expects a partition; resolve cross-advertiser duplicates
    # (possible when a stopple node of one advertiser was selected by another)
    # by keeping the copy with the larger marginal contribution.
    _deduplicate(chosen, oracle)

    allocation = Allocation(h)
    for advertiser, nodes in chosen.items():
        for node in nodes:
            allocation.assign(node, advertiser)

    if run_fill:
        allocation = fill(
            instance, oracle, allocation, budgets=budget_array, candidates=candidates
        )
    return allocation, len(depleted)


def _deduplicate(chosen: Dict[int, Set[int]], oracle: RevenueOracle) -> None:
    """Ensure no node appears in two advertisers' chosen sets (keep best owner)."""
    owners: Dict[int, int] = {}
    for advertiser, nodes in chosen.items():
        for node in list(nodes):
            previous = owners.get(node)
            if previous is None:
                owners[node] = advertiser
                continue
            keep_gain = oracle.marginal_revenue(previous, node, chosen[previous] - {node})
            new_gain = oracle.marginal_revenue(advertiser, node, chosen[advertiser] - {node})
            if new_gain > keep_gain:
                chosen[previous].discard(node)
                owners[node] = advertiser
            else:
                chosen[advertiser].discard(node)


def fill(
    instance: RMInstance,
    oracle: RevenueOracle,
    allocation: Allocation,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
    policy: Optional["ExecutionPolicy"] = None,
) -> Allocation:
    """Algorithm 3 — greedily spend leftover budget by maximum marginal rate.

    Returns a new allocation extending ``allocation`` (the input is copied,
    not mutated).  ``policy`` is accepted for a uniform solver signature; the
    evaluator follows the oracle.
    """
    h = instance.num_advertisers
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    if budget_array.shape != (h,):
        raise SolverError(f"budgets must have length {h}")

    result = allocation.copy()
    revenue: Dict[int, float] = {}
    cost: Dict[int, float] = {}
    # Replay the incoming allocation into the engine so element gains are
    # marginals w.r.t. the seeds Fill starts from.
    engine = engine_for(instance, oracle)
    for advertiser, seeds in result.items():
        revenue[advertiser] = oracle.revenue(advertiser, seeds) if seeds else 0.0
        cost[advertiser] = instance.cost_of_set(advertiser, seeds)
        for node in seeds:
            engine.add_seed(advertiser, node)

    n = instance.num_nodes
    heap = engine.heap(engine.rates)
    heap.push_array(engine.feasible_element_keys(budget_array, candidates))

    while len(heap):
        popped = heap.pop_best()
        if popped is None:
            break
        key, _rate = popped
        advertiser, node = divmod(key, n)
        if result.is_assigned(node):
            continue
        gain = engine.gain(advertiser, node)
        node_cost = instance.cost(advertiser, node)
        if cost[advertiser] + node_cost + revenue[advertiser] + gain <= budget_array[advertiser]:
            result.assign(node, advertiser)
            engine.add_seed(advertiser, node)
            revenue[advertiser] += gain
            cost[advertiser] += node_cost
            heap.advance_round()
    return result
