"""CS-Greedy — the Cost-Sensitive greedy baseline of Aslay et al. [5] (oracle setting).

Identical loop structure to CA-Greedy but elements are ranked by the marginal
*rate* ``ζ_i(u | S_i)`` (revenue gained per unit of budget consumed), so
cheap, efficient nodes are preferred.  Its approximation ratio (Eq. 3)
depends on the network instance and can be arbitrarily small, which is the
main theoretical gap the paper closes.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.baselines.common import budgeted_allocation, greedy_result
from repro.core.result import SolverResult


def cs_greedy(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
) -> SolverResult:
    """Run CS-Greedy and return a :class:`SolverResult`.

    The evaluator follows the oracle
    (:func:`repro.core.batched_greedy.engine_for`).
    """
    allocation, closed = budgeted_allocation(
        instance, oracle, budgets, candidates, rank_by_rate=True
    )
    return greedy_result(instance, oracle, allocation, closed, "CS-Greedy")
