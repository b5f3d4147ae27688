"""Algorithm 4 — binary search for a good threshold γ.

``Search(τ, b_min)`` runs ``ThresholdGreedy`` for a sequence of thresholds,
maintaining an interval ``[γ1, γ2]`` such that the lower end depletes at
least ``b_min`` budgets and the upper end does not.  The interval shrinks
geometrically until either ``(1+τ)·γ1 ≥ γ2`` or ``γ2`` falls below
``min_i cpe(i) / (h+6)``.  Theorems 3.3 and 3.4 turn this invariant into the
network-independent approximation ratios of the paper.

**Each sub-solve runs once per search.**  On a ``pure`` engine (RR-set
coverage) the search keeps one :class:`~repro.core.threshold_greedy.SearchMemo`
for the length of the call.  Instance, oracle, budgets and candidates are
fixed within one search, so it memoizes:

* the ground set every probe starts from — the singleton-feasible element
  keys with their initial gains and rates; each ThresholdGreedy probe only
  filters them by its own γ;
* the Line 9-10 rescue, keyed by ``(advertiser, selected nodes)``, which
  fixes Algorithm 1's candidate list and its order, with the revenue of the
  set it returns;
* each distinct ThresholdGreedy outcome's ``Fill`` and ``total_revenue``.
  Probes whose γ lies below every rate that matters accept the same
  elements in the same order.  Both results are deterministic functions of
  the outcome's *ordered* assignment sequence ``tuple(allocation.pairs())``,
  which fixes the order seed sets iterate in, the float sums of
  ``cost_of_set`` and the filled allocation's assignment order.  A repeat
  gets a copy of the stored result, so no two tried allocations share an
  object.

The memo lives for one call only: RMA grows its RR-set collection in place
between rounds, which changes every answer.  On any other engine nothing is
memoized and every probe runs its own rescue and fill: a Monte-Carlo
oracle's rescue and ``Fill`` draw from the oracle's shared RNG, and
skipping those draws would shift every later answer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_class, engine_for
from repro.core.result import SearchByproducts
from repro.core.threshold_greedy import SearchMemo, fill, threshold_greedy
from repro.exceptions import SolverError


def gamma_max(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
) -> float:
    """``γ_max = max{B_j · ζ_j(v | ∅) : v ∈ V, j ∈ [h]}`` (Eq. 6).

    A threshold above this value rejects every node, so the binary search
    never needs to look beyond ``(1+τ)·γ_max``.  The ``h·n`` singleton rates
    come from the greedy engine on the empty solution (one vectorized pass
    for an RR-set oracle).
    """
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    engine = engine_for(instance, oracle)
    nodes = engine.candidate_nodes(candidates)
    if nodes.size == 0:
        return 0.0
    best = 0.0
    for advertiser in range(instance.num_advertisers):
        rates = engine.node_rates(advertiser, nodes)
        best = max(best, float(budget_array[advertiser] * rates.max()))
    return best


def search_threshold(
    instance: RMInstance,
    oracle: RevenueOracle,
    tau: float,
    b_min: int,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
    max_iterations: int = 64,
) -> Tuple[Allocation, float, SearchByproducts, dict]:
    """Algorithm 4 — returns ``(best allocation, its revenue, byproducts, diagnostics)``.

    Parameters
    ----------
    tau:
        Accuracy/efficiency trade-off τ ∈ (0, 1); the interval stops shrinking
        once ``(1+τ)·γ1 ≥ γ2``.
    b_min:
        Budget-depletion target guiding the search direction (1 for
        ``2 ≤ h ≤ 3``, 2 for ``h ≥ 4``).
    max_iterations:
        Safety cap on the number of ThresholdGreedy invocations; the paper's
        stopping rule terminates in ``O(log(h·γ_max / min_i cpe(i)))``
        iterations, the cap only guards against degenerate inputs.
    """
    if not 0.0 < tau < 1.0:
        raise SolverError("tau must lie in (0, 1)")
    if b_min not in (1, 2):
        raise SolverError("b_min must be 1 or 2")
    if max_iterations <= 0:
        raise SolverError("max_iterations must be positive")

    h = instance.num_advertisers
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    min_cpe = float(min(instance.cpe(i) for i in range(h)))
    stop_gamma = min_cpe / (h + 6)

    gamma_upper_limit = (1.0 + tau) * gamma_max(instance, oracle, budget_array, candidates)
    gamma_low, gamma_high = 0.0, gamma_upper_limit
    gamma = gamma_low

    byproducts = SearchByproducts(b_min=b_min)
    byproducts.gamma_low, byproducts.gamma_high = gamma_low, gamma_high
    tried: list[Tuple[Allocation, float]] = []
    iterations = 0
    memo = (
        SearchMemo(instance, oracle, budget_array, candidates)
        if engine_class(instance, oracle).pure
        else None
    )

    while True:
        iterations += 1
        allocation, depleted = threshold_greedy(
            instance,
            oracle,
            gamma,
            budgets=budget_array,
            candidates=candidates,
            run_fill=False,
            memo=memo,
        )
        key = tuple(allocation.pairs()) if memo is not None else None
        if key is not None and key in memo.fills:
            stored, revenue = memo.fills[key]
            allocation = stored.copy()
        else:
            allocation = fill(
                instance, oracle, allocation, budgets=budget_array, candidates=candidates, memo=memo
            )
            revenue = oracle.total_revenue(allocation)
            if key is not None:
                memo.fills[key] = (allocation, revenue)
        tried.append((allocation, revenue))
        if depleted >= b_min:
            byproducts.allocation_low = allocation
            byproducts.b_low = depleted
            byproducts.gamma_low = gamma
            gamma_low = gamma
        else:
            byproducts.allocation_high = allocation
            byproducts.b_high = depleted
            byproducts.gamma_high = gamma
            gamma_high = gamma
        gamma = (gamma_low + gamma_high) / 2.0
        if (1.0 + tau) * gamma_low >= gamma_high or gamma_high <= stop_gamma:
            break
        if iterations >= max_iterations:
            break

    best_allocation, best_revenue = max(tried, key=lambda pair: pair[1])
    diagnostics = {
        "search_iterations": iterations,
        "gamma_max": gamma_upper_limit / (1.0 + tau),
        "final_gamma_low": gamma_low,
        "final_gamma_high": gamma_high,
    }
    return best_allocation, best_revenue, byproducts, diagnostics
