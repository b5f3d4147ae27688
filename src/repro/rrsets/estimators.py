"""Unbiased revenue and spread estimators built on tagged RR-set collections.

Lemma 4.1 of the paper: with RR-sets drawn by the uniform advertiser
sampler, ``π(S⃗) = nΓ · E[Λ(S⃗, R)]`` where ``Λ`` indicates that the RR-set's
tagged advertiser ``j`` has ``S_j ∩ R ≠ ∅``.  The empirical analogues below
are therefore unbiased estimates of total and per-advertiser revenue.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import SamplingError
from repro.rrsets.collection import RRCollection

Allocation = Mapping[int, Iterable[int]]


def revenue_scale(collection: RRCollection, gamma: float) -> float:
    """Revenue per covered RR-set, ``nΓ / |R|``: revenue is this × a coverage count."""
    if len(collection) == 0:
        raise SamplingError("cannot estimate from an empty RR-set collection")
    if gamma <= 0:
        raise SamplingError("gamma must be positive")
    return collection.num_nodes * gamma / len(collection)


def estimate_total_revenue(
    collection: RRCollection, allocation: Allocation, gamma: float
) -> float:
    """Estimate ``π(S⃗)``: total expected revenue of an allocation.

    ``allocation`` maps advertiser index to an iterable of seed nodes.
    """
    covered = 0
    for advertiser, seeds in allocation.items():
        covered += collection.coverage_count(advertiser, seeds)
    return revenue_scale(collection, gamma) * covered


def estimate_advertiser_revenue(
    collection: RRCollection, advertiser: int, seeds: Iterable[int], gamma: float
) -> float:
    """Estimate ``π_i(S_i)`` for one advertiser."""
    covered = collection.coverage_count(advertiser, seeds)
    return revenue_scale(collection, gamma) * covered


def estimate_marginal_revenue(
    collection: RRCollection,
    advertiser: int,
    node: int,
    current_seeds: Iterable[int],
    gamma: float,
) -> float:
    """Estimate ``π_i(u | S_i)`` — marginal revenue of adding ``node``."""
    current = set(int(s) for s in current_seeds)
    containing = collection.sets_containing_array(advertiser, int(node))
    if current and containing.size:
        already = np.concatenate(
            [collection.sets_containing_array(advertiser, seed) for seed in current]
        )
        additional = np.count_nonzero(~np.isin(containing, already))
    else:
        additional = containing.size
    return revenue_scale(collection, gamma) * additional


def estimate_spread(
    rr_sets: Sequence[np.ndarray], seeds: Iterable[int], num_nodes: int
) -> float:
    """Plain single-ad spread estimate ``σ(A) ≈ n · (#hit RR-sets)/|R|``.

    Used by the TIM-style baselines, which keep untagged per-advertiser pools.
    """
    if not rr_sets:
        raise SamplingError("cannot estimate from an empty RR-set list")
    if num_nodes <= 0:
        raise SamplingError("num_nodes must be positive")
    seed_set = set(int(s) for s in seeds)
    if not seed_set:
        return 0.0
    in_range = [seed for seed in seed_set if 0 <= seed < num_nodes]
    if not in_range:
        return 0.0
    is_seed = np.zeros(num_nodes, dtype=bool)
    is_seed[in_range] = True
    hits = sum(
        1
        for rr_set in rr_sets
        if is_seed[np.asarray(rr_set, dtype=np.int64)].any()
    )
    return num_nodes * hits / len(rr_sets)


def coverage_counts_by_node(
    rr_sets: Sequence[np.ndarray], num_nodes: int
) -> np.ndarray:
    """Number of RR-sets containing each node (singleton coverage counts)."""
    if not rr_sets:
        return np.zeros(num_nodes, dtype=np.int64)
    # np.unique per set keeps the "once per RR-set" semantics for callers
    # passing member lists with duplicates.
    flat = np.concatenate([np.unique(np.asarray(rr_set, dtype=np.int64)) for rr_set in rr_sets])
    return np.bincount(flat, minlength=num_nodes)


def empirical_coverage_fraction(
    collection: RRCollection, allocation: Allocation
) -> float:
    """Fraction of RR-sets covered by an allocation (the raw ``Λ`` mean)."""
    if len(collection) == 0:
        raise SamplingError("cannot estimate from an empty RR-set collection")
    covered = 0
    for advertiser, seeds in allocation.items():
        covered += collection.coverage_count(advertiser, seeds)
    return covered / len(collection)


def per_advertiser_estimates(
    collection: RRCollection, allocation: Allocation, gamma: float
) -> Dict[int, float]:
    """Per-advertiser revenue estimates for every advertiser in ``allocation``."""
    return {
        advertiser: estimate_advertiser_revenue(collection, advertiser, seeds, gamma)
        for advertiser, seeds in allocation.items()
    }
