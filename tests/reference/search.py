"""The plain threshold search — the reference loop for the library search.

:func:`search_threshold` is Algorithm 4 as written: every probe runs
``ThresholdGreedy`` with its ``Fill`` and measures the filled allocation's
revenue, even when an earlier probe of the same search produced the same
outcome.  The library search (:func:`repro.core.search.search_threshold`)
fills each distinct outcome once on a pure engine and must return this
loop's allocations, revenues, byproducts and diagnostics exactly;
``tests/test_search_reuse.py`` compares the two.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.result import SearchByproducts
from repro.core.search import gamma_max
from repro.core.threshold_greedy import threshold_greedy


def search_threshold(
    instance: RMInstance,
    oracle: RevenueOracle,
    tau: float,
    b_min: int,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
    max_iterations: int = 64,
) -> Tuple[Allocation, float, SearchByproducts, dict]:
    """Algorithm 4 — returns ``(best allocation, its revenue, byproducts, diagnostics)``."""
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

    while True:
        iterations += 1
        allocation, depleted = threshold_greedy(
            instance, oracle, gamma, budgets=budget_array, candidates=candidates
        )
        revenue = oracle.total_revenue(allocation)
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
