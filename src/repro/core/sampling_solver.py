"""Algorithm 6 — ``RM_without_Oracle`` (RMA) and the one-batch variant.

The progressive solver keeps two independent RR-set collections ``R1`` and
``R2``.  In every round it

1. runs ``RM_with_Oracle`` on the sampling-space revenue ``π̃(·, R1)`` with
   the relaxed budgets ``(1 + ϱ/2)·B_i``,
2. derives an upper bound on the sampling-space optimum via ``SeekUB``,
3. validates the candidate solution against the *independent* collection
   ``R2``: per-advertiser budget feasibility under ``(1 + ϱ)·B_i`` and the
   approximation check ``LB(S⃗*) / UB(O⃗) ≥ λ − ε``,
4. returns on success, otherwise doubles both collections and repeats, up to
   the one-batch cap ``θ_max`` of Theorem 4.2.

Theorem 4.3 shows the returned solution is a ``(λ − ε)``-approximation that
overshoots each budget by at most a factor ``(1 + ϱ)``, with probability at
least ``1 − δ``.

Practicality note
-----------------
``θ_0`` and ``θ_max`` as defined in the paper target multi-million-edge
graphs run from C++.  On the scaled-down pure-Python instances of this
reproduction they can exceed what is worth generating, so
:class:`SamplingParameters` exposes ``initial_rr_sets`` and ``max_rr_sets``
caps.  The theoretical values are always computed and reported in the result
metadata; when the cap binds, the achieved empirical ratio β is reported so
the caller can see how far the guarantee was actually driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RRSetOracle
from repro.core.bounds import (
    lower_bound_from_estimate,
    theta_max as compute_theta_max,
    theta_zero as compute_theta_zero,
    upper_bound_from_estimate,
)
from repro.core.oracle_solver import approximation_ratio, rm_with_oracle
from repro.core.result import SolverResult
from repro.core.seek_ub import seek_upper_bound
from repro.exceptions import SolverError
from repro.rrsets.collection import RRCollection
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy, Runtime, current_runtime, resolve_policy
from repro.utils.rng import RandomSource, as_rng


@dataclass
class SamplingParameters:
    """Tunable parameters of the RMA solver.

    Attributes
    ----------
    epsilon:
        Approximation slack ε ∈ (0, λ); the guarantee is ``(λ − ε)·OPT``.
    delta:
        Failure probability δ ∈ (0, 1).
    tau:
        Threshold-search trade-off τ ∈ (0, 1).
    rho:
        Budget-overshoot control ϱ ∈ (0, ∞); solutions may spend up to
        ``(1 + ϱ)·B_i`` per advertiser.
    initial_rr_sets:
        Starting size of R1 and R2.  ``None`` uses the paper's ``θ_0``
        clipped to ``[min_initial_rr_sets, max_rr_sets]``.
    max_rr_sets:
        Hard cap on |R1| (and |R2|).  ``None`` uses the paper's ``θ_max``
        (can be astronomically large for small ε).
    min_initial_rr_sets:
        Lower clip applied when ``initial_rr_sets`` is derived from ``θ_0``.
    validation_ratio_check:
        Enables the empirical extension from Section 4.4: if
        ``π̃(S⃗*, R2) / π̃(S⃗*, R1)`` falls below ``validation_ratio`` on the
        final round, the collections are enlarged once more before returning.
    policy:
        :class:`repro.runtime.ExecutionPolicy` selecting the RR generator
        and the ``n_jobs`` sharding.  ``None`` defaults to
        :meth:`ExecutionPolicy.fast` — SUBSIM RR generation, batched MC,
        all cores.  Pass
        :meth:`ExecutionPolicy.seed` to pin the serial seed-stream
        reference path.  Fixed ``(seed, policy)`` runs are
        bit-reproducible; ``n_jobs>1`` draws different RNG substreams than
        the serial run (statistically equivalent collections).
    """

    epsilon: float = 0.1
    delta: float = 0.01
    tau: float = 0.1
    rho: float = 0.1
    initial_rr_sets: Optional[int] = None
    max_rr_sets: Optional[int] = 32768
    min_initial_rr_sets: int = 256
    validation_ratio_check: bool = False
    validation_ratio: float = 0.8
    validation_growth_factor: float = 4.0
    seed: RandomSource = None
    policy: Optional[ExecutionPolicy] = None

    def resolved_policy(self) -> ExecutionPolicy:
        """The effective :class:`ExecutionPolicy` (``None`` → ``fast``)."""
        return resolve_policy(self.policy)

    def validate(self) -> None:
        """Raise :class:`SolverError` on any inconsistent setting."""
        if self.epsilon <= 0:
            raise SolverError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise SolverError("delta must lie in (0, 1)")
        if not 0 < self.tau < 1:
            raise SolverError("tau must lie in (0, 1)")
        if self.rho <= 0:
            raise SolverError("rho must be positive")
        if self.initial_rr_sets is not None and self.initial_rr_sets <= 0:
            raise SolverError("initial_rr_sets must be positive")
        if self.max_rr_sets is not None and self.max_rr_sets <= 0:
            raise SolverError("max_rr_sets must be positive")
        if self.min_initial_rr_sets <= 0:
            raise SolverError("min_initial_rr_sets must be positive")
        if not 0 < self.validation_ratio <= 1:
            raise SolverError("validation_ratio must lie in (0, 1]")
        if self.validation_growth_factor < 1:
            raise SolverError("validation_growth_factor must be at least 1")


#: Log-confidence ``a`` (Lemma B.7, failure probability ``e^-a`` per
#: advertiser) of the R2 bound the at-cap repair enforces.  The
#: union-bounded ``q`` of the regular check is out of reach at practical
#: caps: at θ = 1,024 it strips two thirds of a solution's revenue.
CAP_REPAIR_CONFIDENCE = 1.0


def _build_sampler(
    instance: RMInstance, policy: ExecutionPolicy, rng, runtime: Optional[Runtime]
) -> UniformRRSampler:
    return UniformRRSampler(
        instance.graph,
        instance.all_edge_probabilities(),
        instance.cpes(),
        seed=rng,
        policy=policy,
        runtime=runtime,
    )


def _r2_violations(
    instance: RMInstance,
    allocation: Allocation,
    oracle_two: RRSetOracle,
    budgets: np.ndarray,
    bound: Callable[[float], float],
) -> List[int]:
    """Advertisers whose R2 revenue estimate, passed through ``bound``,
    exceeds their budget left after seeding costs."""
    violations = []
    for advertiser, seeds in allocation.items():
        estimate = oracle_two.revenue(advertiser, seeds) if seeds else 0.0
        if bound(estimate) > budgets[advertiser] - instance.cost_of_set(advertiser, seeds):
            violations.append(advertiser)
    return violations


def _repair_at_cap(
    instance: RMInstance,
    allocation: Allocation,
    oracle_two: RRSetOracle,
    budgets: np.ndarray,
    bound: Callable[[float], float],
) -> Tuple[Allocation, Dict[int, int]]:
    """Remove seeds in reverse acceptance order from every advertiser whose
    bounded R2 estimate exceeds its budget, until it fits; returns the
    allocation and the number of seeds removed per advertiser."""
    repaired = allocation.copy()
    removed: Dict[int, int] = {}

    def over(candidate: Allocation) -> List[int]:
        return _r2_violations(instance, candidate, oracle_two, budgets, bound)

    for advertiser in over(repaired):
        order = repaired.assignment_order(advertiser)
        while order and advertiser in over(repaired):
            repaired.unassign(order.pop())
            removed[advertiser] = removed.get(advertiser, 0) + 1
    return repaired, removed


def _allocation_estimates(
    oracle: RRSetOracle, allocation: Allocation
) -> Dict[int, float]:
    return {
        advertiser: (oracle.revenue(advertiser, seeds) if seeds else 0.0)
        for advertiser, seeds in allocation.items()
    }


def rm_without_oracle(
    instance: RMInstance,
    params: Optional[SamplingParameters] = None,
    runtime: Optional[Runtime] = None,
) -> SolverResult:
    """Algorithm 6 — the RMA progressive-sampling solver.

    Returns a :class:`SolverResult` whose ``revenue`` field is the
    sampling-space estimate ``π̃(S⃗*, R1)``; the metadata records the number
    of RR-sets used, the empirical ratio β, and the theoretical θ values.

    The paper's guarantee needs θ to grow up to θ_max; a practical
    ``max_rr_sets`` cap can stop it earlier.  When the capped round's
    allocation fails the R2 budget check (``feasible`` is False in the
    metadata), the solver repairs it instead of returning it as is: each
    advertiser whose R2 upper bound at log-confidence
    :data:`CAP_REPAIR_CONFIDENCE` exceeds its budget loses seeds in reverse
    acceptance order until the bound fits, and ``seeds_removed_at_cap``
    records how many per advertiser.  The one exception is a policy with
    ``rng_compat`` (``ExecutionPolicy.seed()``, serial), whose contract is
    to reproduce the seed tree's outputs exactly: it returns the capped
    round as the seed tree did, and ``feasible`` tells the caller.

    ``runtime`` (or the ambient :func:`repro.runtime.current_runtime`)
    supplies a persistent worker pool shared by every doubling round; when
    neither exists and the policy shards, the solver opens its own runtime
    for the duration of the call, so the pool is spawned at most once per
    run either way.
    """
    params = params or SamplingParameters()
    params.validate()
    policy = params.resolved_policy()
    rng = as_rng(params.seed)
    owned_runtime: Optional[Runtime] = None
    if runtime is None:
        runtime = current_runtime()
        if runtime is None:
            runtime = owned_runtime = Runtime(policy)
    try:
        return _rm_without_oracle_impl(instance, params, policy, rng, runtime)
    finally:
        if owned_runtime is not None:
            owned_runtime.close()


def _rm_without_oracle_impl(
    instance: RMInstance,
    params: SamplingParameters,
    policy: ExecutionPolicy,
    rng,
    runtime: Runtime,
) -> SolverResult:

    h = instance.num_advertisers
    n = instance.num_nodes
    gamma = instance.gamma
    scale_total = n * gamma
    lam = approximation_ratio(h, params.tau)
    epsilon = min(params.epsilon, lam * 0.999)

    delta_prime = params.delta / 4.0
    theoretical_theta_max = compute_theta_max(instance, lam, epsilon, params.delta, params.rho)
    theoretical_theta_zero = compute_theta_zero(instance, params.rho, delta_prime)

    if params.initial_rr_sets is not None:
        theta0 = int(params.initial_rr_sets)
    else:
        theta0 = int(math.ceil(theoretical_theta_zero))
        theta0 = max(params.min_initial_rr_sets, theta0)
    cap = int(math.ceil(theoretical_theta_max))
    if params.max_rr_sets is not None:
        cap = min(cap, int(params.max_rr_sets))
    theta0 = min(theta0, max(cap, params.min_initial_rr_sets))
    t_max = max(1, int(math.ceil(math.log2(max(2.0, cap / max(theta0, 1))))) + 1)
    q = math.log((h + 2) * t_max / delta_prime)

    sampler = _build_sampler(instance, policy, rng, runtime)
    collection_one = sampler.generate_collection(theta0)
    collection_two = sampler.generate_collection(theta0)

    relaxed_budgets = instance.budgets() * (1.0 + params.rho / 2.0)
    feasibility_budgets = instance.budgets() * (1.0 + params.rho)

    iterations = 0
    validation_retries = 0
    best_result: Optional[SolverResult] = None

    while True:
        iterations += 1
        oracle_one = RRSetOracle(collection_one, gamma)
        oracle_two = RRSetOracle(collection_two, gamma)

        inner = rm_with_oracle(
            instance,
            oracle_one,
            tau=params.tau,
            budgets=relaxed_budgets,
        )
        allocation = inner.allocation
        revenue_r1 = inner.revenue

        upper_z = seek_upper_bound(
            best_revenue=revenue_r1,
            byproducts=inner.search,
            num_advertisers=h,
            lam=lam,
            revenue_of=lambda alloc: oracle_one.total_revenue(alloc),
        )

        # Budget feasibility against the independent collection R2 (Lines 8-11).
        theta_two = len(collection_two)
        feasible = not _r2_violations(
            instance,
            allocation,
            oracle_two,
            feasibility_budgets,
            lambda estimate: upper_bound_from_estimate(estimate, theta_two, scale_total, q),
        )
        reached_cap = len(collection_one) >= cap
        removed_at_cap: Dict[int, int] = {}
        if reached_cap and not feasible and not policy.rng_compat:
            # θ cannot grow any further, so the union-bounded check may be
            # out of reach; hold each advertiser to a one-sided R2 bound at
            # CAP_REPAIR_CONFIDENCE instead.  A seed-compatible policy
            # replays the historical outputs.
            allocation, removed_at_cap = _repair_at_cap(
                instance,
                allocation,
                oracle_two,
                feasibility_budgets,
                lambda estimate: upper_bound_from_estimate(
                    estimate, theta_two, scale_total, CAP_REPAIR_CONFIDENCE
                ),
            )
            revenue_r1 = oracle_one.total_revenue(allocation)

        revenue_r2 = oracle_two.total_revenue(allocation)
        lower = lower_bound_from_estimate(revenue_r2, len(collection_two), scale_total, q)
        upper = upper_bound_from_estimate(upper_z, len(collection_one), scale_total, q)
        beta = lower / upper if upper > 0 else 0.0

        success = beta >= lam - epsilon and feasible

        metadata = {
            "rr_sets": len(collection_one),
            "rr_sets_per_advertiser": collection_one.count_per_advertiser().tolist(),
            "iterations": iterations,
            "beta": beta,
            "lambda": lam,
            "epsilon": epsilon,
            "rho": params.rho,
            "tau": params.tau,
            "feasible": feasible,
            "seeds_removed_at_cap": removed_at_cap,
            "theta_zero_theoretical": theoretical_theta_zero,
            "theta_max_theoretical": theoretical_theta_max,
            "rr_set_cap": cap,
            "revenue_r2": revenue_r2,
            "upper_bound_opt": upper,
            "lower_bound_solution": lower,
            "edges_examined": sampler.edges_examined(),
            "memory_proxy_bytes": collection_one.memory_proxy_bytes()
            + collection_two.memory_proxy_bytes(),
        }
        best_result = SolverResult(
            allocation=allocation,
            revenue=revenue_r1,
            per_advertiser_revenue=_allocation_estimates(oracle_one, allocation),
            seeding_cost=instance.total_seeding_cost(allocation),
            algorithm="RMA",
            depleted_budgets=inner.depleted_budgets,
            search=inner.search,
            metadata=metadata,
        )

        if success or reached_cap:
            needs_more = (
                params.validation_ratio_check
                and revenue_r1 > 0
                and revenue_r2 / revenue_r1 < params.validation_ratio
                and validation_retries == 0
                and not reached_cap
            )
            if not needs_more:
                return best_result
            validation_retries += 1
            growth = max(1, int(len(collection_one) * (params.validation_growth_factor - 1)))
            sampler.generate_collection(growth, into=collection_one)
            sampler.generate_collection(growth, into=collection_two)
            continue

        # Double both collections and try again (Line 16).
        additional = len(collection_one)
        sampler.generate_collection(additional, into=collection_one)
        sampler.generate_collection(additional, into=collection_two)


def one_batch_rm(
    instance: RMInstance,
    num_rr_sets: int,
    params: Optional[SamplingParameters] = None,
    runtime: Optional[Runtime] = None,
) -> SolverResult:
    """The one-batch algorithm of Section 4.3.

    Generates a single collection of ``num_rr_sets`` RR-sets with the uniform
    sampler and runs ``RM_with_Oracle`` on the resulting estimate with the
    relaxed budgets ``(1 + ϱ/2)·B_i``.  Theorem 4.2 gives the sample size
    under which this is a bicriteria approximation; callers typically pass a
    smaller, practical size.  ``runtime`` supplies the worker pool for a
    sharded policy, like :func:`rm_without_oracle`.
    """
    if num_rr_sets <= 0:
        raise SolverError("num_rr_sets must be positive")
    params = params or SamplingParameters()
    params.validate()
    policy = params.resolved_policy()
    rng = as_rng(params.seed)
    sampler = _build_sampler(instance, policy, rng, runtime)
    collection = sampler.generate_collection(num_rr_sets)
    oracle = RRSetOracle(collection, instance.gamma)
    relaxed_budgets = instance.budgets() * (1.0 + params.rho / 2.0)
    inner = rm_with_oracle(
        instance,
        oracle,
        tau=params.tau,
        budgets=relaxed_budgets,
    )
    result = SolverResult(
        allocation=inner.allocation,
        revenue=inner.revenue,
        per_advertiser_revenue=_allocation_estimates(oracle, inner.allocation),
        seeding_cost=instance.total_seeding_cost(inner.allocation),
        algorithm="OneBatchRM",
        depleted_budgets=inner.depleted_budgets,
        search=inner.search,
        metadata={
            "rr_sets": len(collection),
            "rr_sets_per_advertiser": collection.count_per_advertiser().tolist(),
            "rho": params.rho,
            "tau": params.tau,
            "edges_examined": sampler.edges_examined(),
            "memory_proxy_bytes": collection.memory_proxy_bytes(),
        },
    )
    return result
