"""Shared machinery of the TI-CARM and TI-CSRM baselines.

Both algorithms follow the same recipe (Aslay et al. [5]):

1. per advertiser, size an RR-set pool with TIM (``1/ε²`` dependence),
2. greedily allocate ``(node, advertiser)`` elements using estimates from the
   per-advertiser pools — ranked by marginal gain (CARM) or marginal rate
   (CSRM),
3. enforce budget feasibility *conservatively*: the estimated revenue is
   inflated by a concentration-bound penalty before being compared against
   the budget, so the allocation never relies on a lucky under-estimate.
   This is exactly the design decision that makes the baselines under-utilise
   budgets (Section 2.2.1, limitation (iv)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.baselines.tim import (
    estimate_kpt,
    estimate_max_seed_count,
    pilot_pool,
    tim_sample_size,
)
from repro.core.result import SolverResult
from repro.exceptions import SolverError
from repro.rrsets.collection import CoverageState, RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.runtime import ExecutionPolicy, Runtime, current_runtime, resolve_policy
from repro.utils.lazy_heap import BatchedLazyGreedy
from repro.utils.rng import RandomSource, as_rng


@dataclass
class TIParameters:
    """Parameters of the TI-CARM / TI-CSRM baselines.

    ``epsilon`` is the ε of Eq. (5) in the paper — the additive estimation
    error the baselines tolerate; their pool sizes scale as ``1/ε²``.
    ``max_rr_sets_per_advertiser`` caps the actually generated pools so that
    the pure-Python reproduction stays tractable; the uncapped theoretical
    requirement is always reported in the result metadata (it is what the
    Figure 4 memory comparison uses).

    ``policy`` is the configuration channel
    (:class:`repro.runtime.ExecutionPolicy`): ``rr_engine`` selects the
    engine of the pilot pools and the bulk pool fills — hashed slots under
    ``fast()``, so the pools do not depend on ``n_jobs`` — and ``n_jobs``
    shards the fills across worker processes (a pilot is too small for the
    pool and is drawn in-process).  ``None`` defaults to
    :meth:`ExecutionPolicy.fast`; pass :meth:`ExecutionPolicy.seed` for the
    serial seed-stream reference path.
    """

    epsilon: float = 0.1
    delta: float = 0.01
    pilot_size: int = 256
    max_rr_sets_per_advertiser: int = 4096
    seed: RandomSource = None
    policy: Optional[ExecutionPolicy] = None

    def resolved_policy(self) -> ExecutionPolicy:
        """The effective :class:`ExecutionPolicy` (``None`` → ``fast``)."""
        return resolve_policy(self.policy)

    def validate(self) -> None:
        """Raise :class:`SolverError` on inconsistent settings."""
        if self.epsilon <= 0:
            raise SolverError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise SolverError("delta must lie in (0, 1)")
        if self.pilot_size <= 0:
            raise SolverError("pilot_size must be positive")
        if self.max_rr_sets_per_advertiser <= 0:
            raise SolverError("max_rr_sets_per_advertiser must be positive")


class _AdvertiserPool:
    """Per-advertiser RR-set pool, flat, and its revenue-per-covered-set scale.

    ``members`` is every set's members concatenated and ``sizes`` the
    per-set cardinalities, the layout :meth:`RRCollection.from_shards`
    takes.
    """

    def __init__(self, members: np.ndarray, sizes: np.ndarray, num_nodes: int, cpe: float):
        self.members = members
        self.sizes = sizes
        self.cpe = cpe
        self.scale = cpe * num_nodes / max(1, len(sizes))


def _build_pools(
    instance: RMInstance,
    params: TIParameters,
    policy: ExecutionPolicy,
    rng,
    runtime: Optional[Runtime],
) -> tuple[Dict[int, _AdvertiserPool], Dict[str, object]]:
    pools: Dict[int, _AdvertiserPool] = {}
    required_total = 0
    generated_total = 0
    for advertiser in range(instance.num_advertisers):
        seed_count = estimate_max_seed_count(instance, advertiser)
        generator = RRSetGenerator(
            instance.graph, instance.edge_probabilities(advertiser)
        )
        pilot = pilot_pool(
            instance,
            advertiser,
            size=params.pilot_size,
            rng=rng,
            generator=generator,
            policy=policy,
            runtime=runtime,
        )
        kpt = estimate_kpt(pilot, instance.num_nodes, seed_count)
        required = tim_sample_size(
            instance.num_nodes, seed_count, kpt, params.epsilon, params.delta
        )
        required_total += required
        pool_size = min(required, params.max_rr_sets_per_advertiser)
        if pool_size > len(pilot):
            fill = generator.generate_batch_parallel(
                pool_size - len(pilot), rng, runtime=runtime, policy=policy
            )
            members = np.concatenate((pilot.members, fill.members))
            sizes = np.concatenate((pilot.sizes, fill.sizes))
        else:
            sizes = pilot.sizes[:pool_size]
            members = pilot.members[: int(sizes.sum())]
        generated_total += len(sizes)
        pools[advertiser] = _AdvertiserPool(
            members, sizes, instance.num_nodes, instance.cpe(advertiser)
        )
    generated_bytes = sum(pool.members.size * 8 for pool in pools.values())
    diagnostics = {
        "required_rr_sets_total": required_total,
        "generated_rr_sets_total": generated_total,
        "memory_proxy_bytes": generated_bytes,
        "required_memory_proxy_bytes": _required_memory_proxy(
            generated_bytes, required_total, generated_total
        ),
    }
    return pools, diagnostics


def _required_memory_proxy(
    generated_bytes: int, required_total: int, generated_total: int
) -> float:
    """Memory the baselines *would* need without the per-advertiser cap."""
    if generated_total == 0:
        return 0.0
    return generated_bytes * (required_total / generated_total)


def _run_allocation(
    instance: RMInstance,
    pools: Dict[int, _AdvertiserPool],
    penalties: Dict[int, float],
    budgets: np.ndarray,
    cost_sensitive: bool,
) -> tuple[Allocation, set[int], Dict[int, float]]:
    """The TI allocation loop over the merged per-advertiser pools.

    The pools are merged into one advertiser-tagged collection, so a
    :class:`CoverageState` tracks every pool's uncovered counts in its flat
    ``(h·n,)`` marginal matrix and a batch of stale candidates is refreshed
    with one gather (``scale_flat · marginal[keys]``).  Revenue estimates are
    ``scale × count`` with each pool's own scale.
    """
    h = instance.num_advertisers
    n = instance.num_nodes
    combined = RRCollection.from_shards(
        n,
        h,
        [
            (
                pools[advertiser].members,
                pools[advertiser].sizes,
                np.full(len(pools[advertiser].sizes), advertiser, dtype=np.int64),
            )
            for advertiser in range(h)
        ],
    )
    state = CoverageState(combined)
    marginal_flat = state.marginal_matrix().ravel()
    cost_flat = instance.cost_matrix().ravel()
    scales = np.array([pools[i].scale for i in range(h)], dtype=np.float64)
    scale_flat = np.repeat(scales, n)

    def batch_values(keys: np.ndarray) -> np.ndarray:
        gains = scale_flat[keys] * marginal_flat[keys]
        if not cost_sensitive:
            return gains
        positive = gains > 0.0
        rates = np.zeros(gains.shape, dtype=np.float64)
        np.divide(gains, cost_flat[keys] + gains, out=rates, where=positive)
        return rates

    # Singleton-feasible elements in advertiser-major order (the heap breaks
    # exact ties by insertion order): singleton revenue is scale × membership.
    membership_flat = combined.membership_counts().ravel()
    all_keys = np.arange(h * n, dtype=np.int64)
    feasible = cost_flat + scale_flat * membership_flat <= np.repeat(budgets, n)
    # A plain gather whose values change only across advance_round: a pure
    # heap parks the zero-valued keys in its FIFO zero tail.
    heap = BatchedLazyGreedy(batch_values, pure=True)
    heap.push_array(all_keys[feasible])

    allocation = Allocation(h)
    cost = {i: 0.0 for i in range(h)}
    closed: set[int] = set()
    while len(heap) and len(closed) < h:
        popped = heap.pop_best()
        if popped is None:
            break
        key, value = popped
        advertiser, node = divmod(key, n)
        if advertiser in closed or allocation.is_assigned(node) or value <= 0.0:
            continue
        gain = scales[advertiser] * int(marginal_flat[key])
        node_cost = instance.cost(advertiser, node)
        revenue = scales[advertiser] * state.covered_count_for(advertiser)
        projected_revenue = revenue + gain + penalties[advertiser]
        if cost[advertiser] + node_cost + projected_revenue <= budgets[advertiser]:
            allocation.assign(node, advertiser)
            state.add_seed(advertiser, node)
            cost[advertiser] += node_cost
            heap.advance_round()
        else:
            closed.add(advertiser)

    per_advertiser = {
        advertiser: scales[advertiser] * state.covered_count_for(advertiser)
        for advertiser in range(h)
    }
    return allocation, closed, per_advertiser


def run_ti_baseline(
    instance: RMInstance,
    params: Optional[TIParameters],
    cost_sensitive: bool,
    algorithm_name: str,
    runtime: Optional[Runtime] = None,
) -> SolverResult:
    """Common driver for TI-CARM (``cost_sensitive=False``) and TI-CSRM (True).

    ``runtime`` (or the ambient one) supplies a persistent worker pool for
    the sharded pool fills; when neither exists and the policy shards, the
    driver opens its own runtime for the duration of the call so all ``h``
    fills share one pool.
    """
    params = params or TIParameters()
    params.validate()
    policy = params.resolved_policy()
    rng = as_rng(params.seed)
    owned_runtime: Optional[Runtime] = None
    if runtime is None:
        runtime = current_runtime()
        if runtime is None:
            runtime = owned_runtime = Runtime(policy)
    try:
        pools, diagnostics = _build_pools(instance, params, policy, rng, runtime)
    finally:
        if owned_runtime is not None:
            owned_runtime.close()

    h = instance.num_advertisers
    budgets = instance.budgets()

    # Conservative upper-confidence penalty added to the revenue estimate when
    # checking budget feasibility (Hoeffding bound on the coverage fraction).
    penalties = {}
    for advertiser, pool in pools.items():
        pool_size = max(1, len(pool.sizes))
        fraction_error = math.sqrt(math.log(2.0 * h / params.delta) / (2.0 * pool_size))
        penalties[advertiser] = pool.cpe * instance.num_nodes * min(
            fraction_error, params.epsilon
        )

    allocation, closed, per_advertiser = _run_allocation(
        instance, pools, penalties, budgets, cost_sensitive
    )
    return SolverResult(
        allocation=allocation,
        revenue=sum(per_advertiser.values()),
        per_advertiser_revenue=per_advertiser,
        seeding_cost=instance.total_seeding_cost(allocation),
        algorithm=algorithm_name,
        depleted_budgets=len(closed),
        metadata={
            "epsilon": params.epsilon,
            "delta": params.delta,
            **diagnostics,
        },
    )
