"""TIM-style sample sizing (Tang et al. [67]) used by TI-CARM / TI-CSRM.

TI-CARM and TI-CSRM extend TIM: for each advertiser they (i) estimate the
largest possible seed-set size ``k_i`` affordable under the budget, (ii)
estimate ``KPT_i`` — a lower bound on the expected spread of an optimal
``k_i``-seed set — from a pilot pool of RR-sets, and (iii) derive the pool
size ``θ_i ∝ n·(k_i·ln n + ln(1/δ)) / (ε²·KPT_i)``.  The ``1/ε²`` factor is
what makes the baselines' memory and running time blow up as ε shrinks
(Figure 4 of the paper).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.advertising.instance import RMInstance
from repro.exceptions import SolverError
from repro.rrsets.generator import RRSetBatch, RRSetGenerator
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


def estimate_max_seed_count(instance: RMInstance, advertiser: int) -> int:
    """``k_i`` — the largest number of seeds advertiser ``i`` could afford.

    Every seed costs at least its seeding cost plus one engagement (itself),
    so ``k_i ≤ B_i / (min_u c_i(u) + cpe(i))``, capped at ``n`` and floored at 1.
    """
    costs = instance.cost_matrix()[advertiser]
    cheapest = float(costs.min()) + instance.cpe(advertiser)
    affordable = instance.budget(advertiser) / cheapest
    return int(min(instance.num_nodes, max(1.0, math.floor(affordable))))


def estimate_kpt(
    rr_sets: RRSetBatch,
    num_nodes: int,
    seed_count: int,
) -> float:
    """Pilot estimate of ``KPT_i`` — expected spread of a good ``k``-seed set.

    Greedy max-coverage over the pilot pool gives a lower bound on the
    optimal coverage, whose scaled value lower-bounds the optimal spread.
    Every engine returns sorted, duplicate-free sets, so one ``np.bincount``
    over the pool's flat members counts the sets containing each node.
    """
    if not len(rr_sets):
        raise SolverError("KPT estimation needs a non-empty pilot pool")
    if seed_count <= 0:
        raise SolverError("seed_count must be positive")
    counts = np.bincount(rr_sets.members, minlength=num_nodes)
    # Greedy on singleton counts (no overlap correction) is a cheap lower bound
    # surrogate; it only has to get the order of magnitude right.
    top = np.sort(counts)[::-1][:seed_count]
    covered_estimate = min(float(top.sum()), float(len(rr_sets)))
    kpt = num_nodes * covered_estimate / len(rr_sets)
    return max(kpt, 1.0)


def tim_sample_size(
    num_nodes: int,
    seed_count: int,
    kpt: float,
    epsilon: float,
    delta: float,
) -> int:
    """``θ_i`` — the TIM sample size for one advertiser.

    Uses the standard TIM form ``θ = (8 + 2ε)·n·(ln(1/δ) + ln C(n, k)) / (ε²·KPT)``
    with ``ln C(n, k) ≤ k·ln n``.
    """
    if epsilon <= 0 or not 0 < delta < 1:
        raise SolverError("epsilon must be positive and delta in (0, 1)")
    if kpt <= 0 or num_nodes <= 0 or seed_count <= 0:
        raise SolverError("kpt, num_nodes and seed_count must be positive")
    log_choose = seed_count * math.log(num_nodes) if num_nodes > 1 else 1.0
    theta = (8.0 + 2.0 * epsilon) * num_nodes * (math.log(1.0 / delta) + log_choose)
    theta /= epsilon ** 2 * kpt
    return int(math.ceil(theta))


def pilot_pool(
    instance: RMInstance,
    advertiser: int,
    size: int = 256,
    rng: RandomSource = None,
    *,
    generator: Optional[RRSetGenerator] = None,
    policy: Optional["ExecutionPolicy"] = None,
    runtime: Optional["Runtime"] = None,
) -> RRSetBatch:
    """Generate the pilot RR-set pool used for KPT estimation.

    ``generator`` is the advertiser's generator, which the pool fill then
    reuses (a fresh one when ``None``).  Under the hashed engine
    (``policy.rr_engine == "subsim"``) the pilot is slots ``[0, size)`` of
    :meth:`RRSetGenerator.generate_batch_parallel` — a pilot is small
    enough to be drawn in-process, so it never reaches the pool.
    Otherwise it is :meth:`RRSetGenerator.generate_many` on ``rng``'s
    stream, the ``seed()`` reference path.
    """
    if size <= 0:
        raise SolverError("pilot pool size must be positive")
    if generator is None:
        generator = RRSetGenerator(instance.graph, instance.edge_probabilities(advertiser))
    rng = as_rng(rng)
    if policy is not None and policy.rr_engine == "subsim":
        return generator.generate_batch_parallel(size, rng, runtime=runtime, policy=policy)
    return RRSetBatch.from_sets(generator.generate_many(size, rng))
