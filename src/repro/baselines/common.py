"""Shared machinery of the CA-Greedy / CS-Greedy oracle baselines.

Both baselines run the same budgeted allocation loop and package the same
:class:`SolverResult`; they differ only in how elements are ranked (marginal
gain vs. marginal rate), so the loop and the result builder live here and a
fix lands once.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_for
from repro.core.result import SolverResult
from repro.exceptions import SolverError


def greedy_result(
    instance: RMInstance,
    oracle: RevenueOracle,
    allocation: Allocation,
    closed: Set[int],
    algorithm: str,
) -> SolverResult:
    """Package a finished CA/CS-Greedy allocation as a :class:`SolverResult`."""
    total_revenue = oracle.total_revenue(allocation)
    return SolverResult(
        allocation=allocation,
        revenue=total_revenue,
        per_advertiser_revenue={
            advertiser: (oracle.revenue(advertiser, seeds) if seeds else 0.0)
            for advertiser, seeds in allocation.items()
        },
        seeding_cost=instance.total_seeding_cost(allocation),
        algorithm=algorithm,
        depleted_budgets=len(closed),
        metadata={"closed_advertisers": len(closed)},
    )


def budgeted_allocation(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: Optional[np.ndarray],
    candidates: Optional[Iterable[int]],
    rank_by_rate: bool,
) -> Tuple[Allocation, Set[int]]:
    """The CA/CS-Greedy allocation loop.

    ``rank_by_rate`` selects the CS-Greedy ranking (marginal rate) over the
    CA-Greedy one (marginal gain); every other decision — singleton
    feasibility, the assigned/closed filters, the budget accept test and the
    advertiser-closing rule — is shared.  An advertiser is closed as soon as
    its top element no longer fits the budget.  ``budgets`` defaults to the
    instance budgets.
    """
    h = instance.num_advertisers
    if oracle.num_advertisers != h:
        raise SolverError("oracle and instance disagree on the number of advertisers")
    if budgets is None:
        budgets = instance.budgets()
    budgets = np.asarray(budgets, dtype=np.float64)
    n = instance.num_nodes
    engine = engine_for(instance, oracle)
    heap = engine.heap(engine.rates if rank_by_rate else engine.gains)
    heap.push_array(engine.feasible_element_keys(budgets, candidates))

    allocation = Allocation(h)
    revenue = {i: 0.0 for i in range(h)}
    cost = {i: 0.0 for i in range(h)}
    closed: Set[int] = set()
    while len(heap) and len(closed) < h:
        popped = heap.pop_best()
        if popped is None:
            break
        key, _value = popped
        advertiser, node = divmod(key, n)
        if advertiser in closed or allocation.is_assigned(node):
            continue
        gain = engine.gain(advertiser, node)
        node_cost = instance.cost(advertiser, node)
        if cost[advertiser] + node_cost + revenue[advertiser] + gain <= budgets[advertiser]:
            allocation.assign(node, advertiser)
            engine.add_seed(advertiser, node)
            revenue[advertiser] += gain
            cost[advertiser] += node_cost
            heap.advance_round()
        else:
            closed.add(advertiser)
    return allocation, closed
