"""Algorithm 5 — ``RM_with_Oracle(τ)`` and the approximation ratio λ.

The solver dispatches on the number of advertisers:

* ``h = 1``   → Algorithm 1 (``Greedy``), ratio 1/3,
* ``2 ≤ h ≤ 3`` → ``Search(τ, 1)``, ratio ``1 / (2(h+1)(1+τ))``,
* ``h ≥ 4``   → ``Search(τ, 2)``, ratio ``1 / ((h+6)(1+τ))``,

matching Theorem 3.5 / Eq. (1) of the paper.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.greedy import greedy_with_revenue
from repro.core.result import SearchByproducts, SolverResult
from repro.core.search import search_threshold
from repro.exceptions import SolverError


def approximation_ratio(num_advertisers: int, tau: float) -> float:
    """The ratio λ of Theorem 3.5 for ``h`` advertisers and trade-off τ."""
    if num_advertisers <= 0:
        raise SolverError("num_advertisers must be positive")
    if not 0.0 < tau < 1.0:
        raise SolverError("tau must lie in (0, 1)")
    if num_advertisers == 1:
        return 1.0 / 3.0
    if num_advertisers <= 3:
        return 1.0 / (2.0 * (num_advertisers + 1) * (1.0 + tau))
    return 1.0 / ((num_advertisers + 6) * (1.0 + tau))


def rm_with_oracle(
    instance: RMInstance,
    oracle: RevenueOracle,
    tau: float = 0.1,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
) -> SolverResult:
    """Algorithm 5 — solve the RM problem given a revenue oracle.

    Parameters
    ----------
    tau:
        Accuracy/efficiency trade-off of the threshold search.
    budgets:
        Per-advertiser budget overrides; the sampling solver passes the
        relaxed budgets ``(1 + ϱ/2)·B_i`` through this parameter.
    candidates:
        Optional candidate node pool (defaults to all nodes).

    Returns
    -------
    SolverResult
        Allocation, revenue (as measured by ``oracle``) and, for ``h ≥ 2``,
        the :class:`SearchByproducts` consumed by ``SeekUB``.
    """
    h = instance.num_advertisers
    if oracle.num_advertisers != h:
        raise SolverError("oracle and instance disagree on the number of advertisers")
    lam = approximation_ratio(h, tau)

    if h == 1:
        budget = float(budgets[0]) if budgets is not None else None
        best, selected, stopple, revenue = greedy_with_revenue(
            instance, oracle, 0, candidates=candidates, budget=budget
        )
        allocation = Allocation(1)
        for node in best:
            allocation.assign(node, 0)
        depleted = 1 if stopple else 0
        result = SolverResult(
            allocation=allocation,
            revenue=revenue,
            per_advertiser_revenue={0: revenue},
            seeding_cost=instance.cost_of_set(0, best),
            algorithm="RM_with_Oracle",
            depleted_budgets=depleted,
            search=None,
            metadata={"lambda": lam, "tau": tau, "h": h},
        )
        return result

    b_min = 1 if h <= 3 else 2
    allocation, revenue, byproducts, diagnostics = search_threshold(
        instance,
        oracle,
        tau=tau,
        b_min=b_min,
        budgets=budgets,
        candidates=candidates,
    )
    per_advertiser = {
        advertiser: (oracle.revenue(advertiser, seeds) if seeds else 0.0)
        for advertiser, seeds in allocation.items()
    }
    result = SolverResult(
        allocation=allocation,
        revenue=revenue,
        per_advertiser_revenue=per_advertiser,
        seeding_cost=instance.total_seeding_cost(allocation),
        algorithm="RM_with_Oracle",
        depleted_budgets=byproducts.b_low,
        search=byproducts,
        metadata={"lambda": lam, "tau": tau, "h": h, "b_min": b_min, **diagnostics},
    )
    return result
