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

On a ``pure`` (RR-set coverage) engine both loops drop every element that
can never be accepted again from the heap in one vectorized step per
acceptance, instead of surfacing and rejecting each one
(:class:`_DeadElements`; :mod:`repro.utils.lazy_heap` explains why this
leaves every allocation unchanged).

Revenues are read from the greedy engine, not queried from the oracle.
ThresholdGreedy's engine holds exactly ``S_i``, so Line 11's ``π(S_i)`` is
:meth:`~repro.core.batched_greedy.GreedyEngine.seeds_revenue`, ``π(D_i)``
of the one stopple node is
:meth:`~repro.core.batched_greedy.GreedyEngine.node_revenue` and the rescue
reports the revenue of the set it returns.  ``Fill`` replays its start
allocation with one ``add_seeds`` per advertiser and reads the start
revenues from the replay.  On an RR-set oracle these are
``scale × covered_count_for(i)`` and ``scale × membership[i, d]``: the
integers ``coverage_count`` would count, times the same scale, hence the
oracle's floats.  On any other oracle they are the same ``oracle.revenue``
calls as before.

:class:`SearchMemo` carries what the probes of one threshold search share
(:mod:`repro.core.search`).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import GreedyEngine, engine_for
from repro.core.greedy import greedy_with_revenue, marginal_rate
from repro.exceptions import SolverError
from repro.utils.lazy_heap import BatchedLazyGreedy


def _margin(num_nodes: int) -> float:
    """Relative margin the pruning masks keep from their scalar checks.

    A budget sum gains one rounding error (relative to ``B_a``) per seed
    accepted later, at most ``n`` of them, and a rate is within a few ulps
    of its exact value; an element is dropped only when it fails its check
    by more than that, so it fails it at every later step too.
    """
    return 4.0 * (num_nodes + 16) * np.finfo(np.float64).eps


class _Ground:
    """The singleton-feasible element keys of one (instance, oracle,
    budgets, candidates), advertiser-major: advertiser ``a``'s keys are
    ``keys[bounds[a]:bounds[a + 1]]``, in candidate order."""

    def __init__(
        self,
        engine: GreedyEngine,
        instance: RMInstance,
        budgets: np.ndarray,
        candidates: Optional[Iterable[int]],
    ):
        self.keys = engine.feasible_element_keys(budgets, candidates)
        self.bounds = np.searchsorted(
            self.keys // instance.num_nodes, np.arange(instance.num_advertisers + 1)
        )

    def segment(self, advertiser: int) -> np.ndarray:
        """``advertiser``'s keys."""
        return self.keys[self.bounds[advertiser]: self.bounds[advertiser + 1]]


class SearchMemo:
    """What the probes of one threshold search share, on a pure engine only
    (:mod:`repro.core.search` says why each entry is exact).

    ``ground`` with its initial ``gains`` and ``rates`` (every probe starts
    from the empty allocation); ``rescues`` maps ``(advertiser, selected
    nodes)`` to Algorithm 1's ``(best set, its revenue)``; ``fills`` maps a
    probe's ordered assignment sequence to its filled allocation and that
    allocation's revenue.
    """

    def __init__(
        self,
        instance: RMInstance,
        oracle: RevenueOracle,
        budgets: np.ndarray,
        candidates: Optional[Iterable[int]],
    ):
        engine = engine_for(instance, oracle)
        self.ground = _Ground(engine, instance, budgets, candidates)
        keys = self.ground.keys
        self.gains = engine.gains(keys)
        self.rates = engine.rates(keys)
        self.advertisers = keys // instance.num_nodes
        self.rescues: Dict[Tuple[int, FrozenSet[int]], Tuple[Set[int], float]] = {}
        self.fills: Dict[Tuple[Tuple[int, int], ...], Tuple[Allocation, float]] = {}


class _DeadElements:
    """Drops elements that can never be accepted again from a greedy heap.

    ``dead(advertiser, keys)`` masks the keys of ``advertiser`` whose
    rejection is permanent given the current solution.  Elements are dropped
    when pushed, when their node is taken, when their advertiser's solution
    grows (:meth:`recheck`) or is closed (:meth:`drop_advertiser`).  Off a
    ``pure`` engine every key is pushed and nothing is ever dropped.
    """

    def __init__(
        self,
        heap: BatchedLazyGreedy,
        engine: GreedyEngine,
        instance: RMInstance,
        dead: Callable[[int, np.ndarray], np.ndarray],
        taken: Iterable[int] = (),
    ):
        self._heap = heap
        self._enabled = engine.pure
        self._n = n = instance.num_nodes
        self._h = instance.num_advertisers
        self._dead = dead
        self._taken = np.zeros(n, dtype=bool)
        self._taken[list(taken)] = True
        self._node_keys = np.arange(self._h, dtype=np.int64) * n
        self._live: List[np.ndarray] = []

    def push(
        self,
        ground: _Ground,
        values: Optional[np.ndarray] = None,
        dead: Optional[np.ndarray] = None,
    ) -> None:
        """Push the live keys of ``ground`` onto the heap, keeping their order.

        ``values`` (the keys' heap values) and ``dead`` (their ``dead``
        mask) are passed when the caller already has them.
        """
        keys = ground.keys
        if self._enabled:
            if dead is None:
                dead = np.concatenate(
                    [self._dead(a, ground.segment(a)) for a in range(self._h)]
                )
            live = ~(dead | self._taken[keys % self._n])
            bounds = ground.bounds
            self._live = [
                ground.segment(a)[live[bounds[a]: bounds[a + 1]]] for a in range(self._h)
            ]
            keys = keys[live]
            if values is not None:
                values = values[live]
        self._heap.push_array(keys, values=values)

    def take(self, node: int) -> None:
        """``node`` is assigned: drop its element for every advertiser."""
        if self._enabled:
            self._taken[node] = True
            self._heap.discard(self._node_keys + node)

    def recheck(self, advertiser: int) -> None:
        """Drop ``advertiser``'s elements that died with its last seed."""
        if self._enabled:
            keys = self._live[advertiser]
            keys = keys[~self._taken[keys - advertiser * self._n]]
            dead = self._dead(advertiser, keys)
            self._heap.discard(keys[dead])
            self._live[advertiser] = keys[~dead]

    def drop_advertiser(self, advertiser: int) -> None:
        """Drop every element of ``advertiser``."""
        if self._enabled:
            self._heap.discard(self._live[advertiser])
            self._live[advertiser] = self._live[advertiser][:0]


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
    memo: Optional[SearchMemo] = None,
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
        Whether to run the final ``Fill`` pass (Line 12).  ``Search`` runs
        it itself, once per distinct outcome, so it passes ``False``
        (:mod:`repro.core.search`).
    memo:
        The calling search's :class:`SearchMemo`, built for the same
        instance, oracle, budgets and candidates.
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
    # Permanent rejections: a rate below γ/B_a (rates only fall), an assigned
    # node, a depleted advertiser.  A budget overflow is not one of them: it
    # parks the element as the stopple node D_a.
    thresholds = (gamma / budget_array) * (1.0 - _margin(n))
    pruner = _DeadElements(
        heap, engine, instance, lambda a, keys: engine.rates(keys) < thresholds[a]
    )
    if memo is None:
        pruner.push(_Ground(engine, instance, budget_array, candidates))
    else:
        # The initial gains and rates are the memo's: filter, don't evaluate.
        pruner.push(
            memo.ground, values=memo.gains, dead=memo.rates < thresholds[memo.advertisers]
        )

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
        pruner.take(node)
        if outcome == "selected":
            engine.add_seed(advertiser, node)
            heap.advance_round()
            pruner.recheck(advertiser)
        else:
            depleted.add(advertiser)
            pruner.drop_advertiser(advertiser)

    # Line 9-10: when exactly one budget is depleted, re-run Greedy for it on
    # the still-unassigned nodes; its result backs the b = 1 case of Thm 3.2.
    rescue: Dict[int, Set[int]] = {i: set() for i in range(h)}
    rescue_revenue = [0.0] * h
    if len(depleted) == 1:
        advertiser = next(iter(depleted))
        selected_nodes = set().union(*state.selected.values())
        key = (advertiser, frozenset(selected_nodes))
        found = memo.rescues.get(key) if memo is not None else None
        if found is None:
            unassigned = [
                node
                for node in (candidates if candidates is not None else range(instance.num_nodes))
                if int(node) not in selected_nodes
            ]
            best, _selected, _stopple, revenue = greedy_with_revenue(
                instance,
                oracle,
                advertiser,
                candidates=unassigned,
                budget=float(budget_array[advertiser]),
            )
            found = (best, revenue)
            if memo is not None:
                memo.rescues[key] = found
        rescue[advertiser], rescue_revenue[advertiser] = found

    # Line 11: per advertiser keep the best of S_j, D_j, A_j.
    chosen: Dict[int, Set[int]] = {}
    for advertiser in range(h):
        selected, stopple = state.selected[advertiser], state.stopple[advertiser]
        revenues = [
            engine.seeds_revenue(advertiser, selected),
            engine.node_revenue(advertiser, next(iter(stopple))) if stopple else 0.0,
            rescue_revenue[advertiser],
        ]
        options = [selected, stopple, rescue[advertiser]]
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
            instance, oracle, allocation, budgets=budget_array, candidates=candidates, memo=memo
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
    memo: Optional[SearchMemo] = None,
) -> Allocation:
    """Algorithm 3 — greedily spend leftover budget by maximum marginal rate.

    Returns a new allocation extending ``allocation`` (the input is copied,
    not mutated).  ``memo`` is the calling search's :class:`SearchMemo`,
    whose ground set Fill shares.
    """
    h = instance.num_advertisers
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    if budget_array.shape != (h,):
        raise SolverError(f"budgets must have length {h}")

    result = allocation.copy()
    revenue = [0.0] * h
    cost = [0.0] * h
    # Replay the incoming allocation into the engine so element gains are
    # marginals w.r.t. the seeds Fill starts from; the replay then holds
    # exactly each advertiser's seeds, hence their revenue.
    engine = engine_for(instance, oracle)
    for advertiser, seeds in result.items():
        cost[advertiser] = instance.cost_of_set(advertiser, seeds)
        engine.add_seeds(advertiser, seeds)
        revenue[advertiser] = engine.seeds_revenue(advertiser, seeds)

    n = instance.num_nodes
    heap = engine.heap(engine.rates)
    # Permanent rejections: an assigned node, and a budget check that fails,
    # since cost_a + c + π_a(S_a) + π_a(v | S_a) never decreases as S_a
    # grows.  The mask sums in the scalar check's order.
    cost_flat = instance.cost_matrix().ravel()
    limits = budget_array * (1.0 + _margin(n))

    def over_budget(advertiser: int, keys: np.ndarray) -> np.ndarray:
        totals = cost[advertiser] + cost_flat[keys]
        totals += revenue[advertiser]
        totals += engine.gains(keys)
        return totals > limits[advertiser]

    pruner = _DeadElements(heap, engine, instance, over_budget, result.assigned_nodes())
    pruner.push(
        memo.ground if memo is not None else _Ground(engine, instance, budget_array, candidates)
    )

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
            pruner.take(node)
            pruner.recheck(advertiser)
    return result
