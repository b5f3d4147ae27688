"""Result containers returned by the solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.advertising.allocation import Allocation


@dataclass
class SearchByproducts:
    """The two boundary solutions maintained by ``Search`` (Algorithm 4).

    ``SeekUB`` (Algorithm 7) consumes these to derive a tight upper bound on
    the sampling-space optimum.
    """

    #: solution returned by ThresholdGreedy at the lower threshold γ1
    allocation_low: Optional[Allocation] = None
    #: number of depleted budgets at γ1
    b_low: int = 0
    #: lower threshold γ1
    gamma_low: float = 0.0
    #: solution returned by ThresholdGreedy at the upper threshold γ2
    allocation_high: Optional[Allocation] = None
    #: number of depleted budgets at γ2
    b_high: int = 0
    #: upper threshold γ2
    gamma_high: float = 0.0
    #: the ``b_min`` parameter the search was run with
    b_min: int = 1


@dataclass
class SolverResult:
    """Outcome of one solver run.

    ``revenue`` is measured with the revenue function the solver itself used
    (the oracle for Section 3 algorithms, ``π̃(·, R1)`` for the sampling
    solvers).  The experiment harness always re-evaluates allocations with an
    independent estimator before reporting, exactly as the paper does.
    """

    allocation: Allocation
    revenue: float
    per_advertiser_revenue: Dict[int, float] = field(default_factory=dict)
    seeding_cost: float = 0.0
    algorithm: str = ""
    #: number of advertisers whose budget was depleted (the ``b`` of Theorem 3.2)
    depleted_budgets: int = 0
    #: byproducts of the threshold search, when the solver ran one
    search: Optional[SearchByproducts] = None
    #: solver-specific diagnostics (RR-set counts, iterations, bounds, ...)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def cap_note(self) -> Optional[str]:
        """Why the guarantee does not hold, when a sample cap stopped the solve.

        RMA's guarantee needs θ to grow until its own stopping rule passes
        (ratio test and R2 budget check).  A ``max_rr_sets`` cap below
        ``θ_max`` can end it first; this line says so, from the metadata,
        e.g. ``"capped at θ = 4,096 of θ_max = 7.9M; budget check not
        passed"``.  ``None`` when no cap bound.
        """
        meta = self.metadata
        cap = meta.get("rr_set_cap")
        theta_max = meta.get("theta_max_theoretical")
        if cap is None or theta_max is None or cap >= theta_max:
            return None
        failed = []
        if meta["beta"] < meta["lambda"] - meta["epsilon"]:
            failed.append("ratio test")
        if not meta["feasible"]:
            failed.append("budget check")
        if meta["rr_sets"] < cap or not failed:
            return None
        theta_max = (
            f"{theta_max / 1e6:.1f}M" if theta_max >= 1e6 else f"{math.ceil(theta_max):,}"
        )
        note = f"capped at θ = {meta['rr_sets']:,} of θ_max = {theta_max}; "
        note += " and ".join(failed) + " not passed"
        removed = sum(meta.get("seeds_removed_at_cap", {}).values())
        if removed:
            note += f"; {removed} seed{'s' * (removed != 1)} removed to fit the budgets"
        return note

    @property
    def total_payment(self) -> float:
        """Revenue plus seeding cost — what the advertisers pay in total."""
        return self.revenue + self.seeding_cost

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by the experiment reporters."""
        return {
            "algorithm": self.algorithm,
            "revenue": self.revenue,
            "seeding_cost": self.seeding_cost,
            "total_seeds": self.allocation.total_seed_count(),
            "depleted_budgets": self.depleted_budgets,
            **{f"meta_{key}": value for key, value in self.metadata.items()},
        }
