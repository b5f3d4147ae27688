"""CA-Greedy — the Cost-Agnostic greedy baseline of Aslay et al. [5] (oracle setting).

At every step the algorithm picks the unassigned ``(u, i)`` pair with the
largest *marginal gain* ``π_i(u | S_i)``, ignoring seeding costs.  When the
best element of an advertiser would violate its budget the advertiser is
closed, so a single expensive high-gain node can exhaust a budget — the
behaviour the paper's footnote 8 and the superlinear-cost experiments
illustrate.  The approximation ratio (Eq. 4) is instance dependent and can be
as bad as ``O(1/n)``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.baselines.common import budgeted_allocation, greedy_result
from repro.core.result import SolverResult


def ca_greedy(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
) -> SolverResult:
    """Run CA-Greedy and return a :class:`SolverResult`.

    The evaluator follows the oracle
    (:func:`repro.core.batched_greedy.engine_for`).
    """
    allocation, closed = budgeted_allocation(
        instance, oracle, budgets, candidates, rank_by_rate=False
    )
    return greedy_result(instance, oracle, allocation, closed, "CA-Greedy")
