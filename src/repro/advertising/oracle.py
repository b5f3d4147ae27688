"""Revenue oracles.

The Section 3 algorithms assume an oracle returning the exact revenue
``π_i(S) = cpe(i)·σ_i(S)`` of any seed set.  Three interchangeable oracles
are provided:

* :class:`ExactOracle` — possible-world enumeration; only for tiny graphs,
  anchors correctness tests.
* :class:`MonteCarloOracle` — simulation-based estimates with caching; the
  practical stand-in for "an exact oracle" on small graphs.
* :class:`RRSetOracle` — the sampling-space revenue function
  ``π̃_i(·, R)`` of Section 4; this is what RMA plugs into the oracle
  algorithms.

All oracles share the :class:`RevenueOracle` interface so the Section 3
algorithms are written once and reused verbatim inside the sampling solver,
mirroring the structure of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.diffusion.simulation import exact_spread, monte_carlo_spread
from repro.exceptions import SolverError
from repro.rrsets.collection import RRCollection
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


class RevenueOracle(ABC):
    """Interface every revenue oracle implements."""

    @property
    @abstractmethod
    def num_advertisers(self) -> int:
        """Number of advertisers the oracle can answer for."""

    @abstractmethod
    def revenue(self, advertiser: int, seeds: Iterable[int]) -> float:
        """Expected revenue ``π_i(S)`` of assigning ``seeds`` to ``advertiser``."""

    def spread(self, advertiser: int, seeds: Iterable[int], cpe: float) -> float:
        """Expected spread ``σ_i(S) = π_i(S)/cpe(i)``."""
        if cpe <= 0:
            raise SolverError("cpe must be positive")
        return self.revenue(advertiser, seeds) / cpe

    def marginal_revenue(self, advertiser: int, node: int, seeds: Iterable[int]) -> float:
        """Marginal revenue ``π_i(u | S) = π_i(S ∪ {u}) − π_i(S)``."""
        seed_set = frozenset(int(s) for s in seeds)
        if int(node) in seed_set:
            return 0.0
        with_node = self.revenue(advertiser, seed_set | {int(node)})
        without_node = self.revenue(advertiser, seed_set)
        return max(0.0, with_node - without_node)

    def total_revenue(self, allocation: Allocation | Mapping[int, Iterable[int]]) -> float:
        """Total revenue ``π(S⃗) = Σ_i π_i(S_i)``."""
        return sum(
            self.revenue(advertiser, seeds) for advertiser, seeds in allocation.items()
        )


class MonteCarloOracle(RevenueOracle):
    """Monte-Carlo estimate of the revenue function, with memoisation.

    Parameters
    ----------
    instance:
        The RM instance (supplies graph, per-advertiser probabilities, cpe).
    num_simulations:
        Cascade simulations per distinct (advertiser, seed set) query.
    seed:
        RNG seed; queries are deterministic for a fixed seed because the
        oracle derives one child stream per cached query.
    policy:
        :class:`repro.runtime.ExecutionPolicy` selecting the cascade engine
        (``mc_engine``), the per-query sharding (``n_jobs``) and the batch
        size.  ``None`` resolves to :meth:`ExecutionPolicy.fast` — batched
        cascades across all cores; pass :meth:`ExecutionPolicy.seed` to
        reproduce the seed tree's sequential RNG stream exactly.  Sharding
        only engages when ``num_simulations >= MIN_SHARDED_SIMULATIONS``:
        the greedy loops issue many small queries whose serial cost is below
        the pool dispatch overhead — honouring ``n_jobs`` there would make
        "fast" runs slower.
    runtime:
        :class:`repro.runtime.Runtime` whose persistent worker pool sharded
        queries run on (falls back to the ambient runtime, then to per-call
        pools).
    """

    #: Minimum per-query simulation count before ``n_jobs`` engages (below
    #: this the pool-spawn overhead dominates the serial query cost).
    MIN_SHARDED_SIMULATIONS = 512

    def __init__(
        self,
        instance: RMInstance,
        num_simulations: int = 500,
        seed: RandomSource = None,
        policy: Optional["ExecutionPolicy"] = None,
        runtime: Optional["Runtime"] = None,
    ):
        from repro.runtime import resolve_policy

        if num_simulations <= 0:
            raise SolverError("num_simulations must be positive")
        self._instance = instance
        self._num_simulations = num_simulations
        self._rng = as_rng(seed)
        self._policy = resolve_policy(policy)
        self._runtime = runtime
        self._cache: Dict[Tuple[int, FrozenSet[int]], float] = {}

    @property
    def num_advertisers(self) -> int:
        return self._instance.num_advertisers

    @property
    def query_count(self) -> int:
        """Number of distinct (advertiser, seed-set) queries answered so far."""
        return len(self._cache)

    def revenue(self, advertiser: int, seeds: Iterable[int]) -> float:
        seed_set = frozenset(int(s) for s in seeds)
        if not seed_set:
            return 0.0
        key = (advertiser, seed_set)
        cached = self._cache.get(key)
        if cached is None:
            sharded = self._num_simulations >= self.MIN_SHARDED_SIMULATIONS
            spread = monte_carlo_spread(
                self._instance.graph,
                self._instance.edge_probabilities(advertiser),
                seed_set,
                num_simulations=self._num_simulations,
                rng=self._rng,
                use_batched=self._policy.mc_engine == "batched",
                batch_size=self._policy.mc_batch_size,
                n_jobs=self._policy.n_jobs if sharded else None,
                runtime=self._runtime,
            )
            cached = self._instance.cpe(advertiser) * spread
            self._cache[key] = cached
        return cached


class ExactOracle(RevenueOracle):
    """Exact revenue by enumerating live-edge worlds (tiny graphs only)."""

    def __init__(self, instance: RMInstance, max_edges: int = 18):
        if instance.graph.num_edges > max_edges:
            raise SolverError(
                f"ExactOracle supports at most {max_edges} edges, "
                f"graph has {instance.graph.num_edges}"
            )
        self._instance = instance
        self._max_edges = max_edges
        self._cache: Dict[Tuple[int, FrozenSet[int]], float] = {}

    @property
    def num_advertisers(self) -> int:
        return self._instance.num_advertisers

    def revenue(self, advertiser: int, seeds: Iterable[int]) -> float:
        seed_set = frozenset(int(s) for s in seeds)
        if not seed_set:
            return 0.0
        key = (advertiser, seed_set)
        cached = self._cache.get(key)
        if cached is None:
            spread = exact_spread(
                self._instance.graph,
                self._instance.edge_probabilities(advertiser),
                seed_set,
                max_edges=self._max_edges,
            )
            cached = self._instance.cpe(advertiser) * spread
            self._cache[key] = cached
        return cached


class RRSetOracle(RevenueOracle):
    """Sampling-space revenue function ``π̃_i(·, R)`` over a tagged RR collection.

    Every query is one :meth:`RRCollection.coverage_count` times
    :attr:`scale`: ``revenue`` is ``scale × count(S)`` and
    ``marginal_revenue`` is ``scale × (count(S ∪ {u}) − count(S))``.  Nothing
    is memoised, so an answer never depends on the queries before it.
    """

    def __init__(self, collection: RRCollection, gamma: float):
        if len(collection) == 0:
            raise SolverError("RRSetOracle needs a non-empty collection")
        if gamma <= 0:
            raise SolverError("gamma must be positive")
        self._collection = collection
        self._gamma = gamma
        self._scale = collection.num_nodes * gamma / len(collection)

    @property
    def num_advertisers(self) -> int:
        return self._collection.num_advertisers

    @property
    def collection(self) -> RRCollection:
        """The underlying RR-set collection."""
        return self._collection

    @property
    def gamma(self) -> float:
        """``Γ = Σ_i cpe(i)`` used for scaling."""
        return self._gamma

    @property
    def scale(self) -> float:
        """``nΓ / |R|`` — revenue contributed by each covered RR-set."""
        return self._scale

    def revenue(self, advertiser: int, seeds: Iterable[int]) -> float:
        if not 0 <= advertiser < self.num_advertisers:
            raise SolverError(f"advertiser {advertiser} out of range")
        return self._scale * self._collection.coverage_count(advertiser, seeds)

    def marginal_revenue(self, advertiser: int, node: int, seeds: Iterable[int]) -> float:
        seeds = [int(s) for s in seeds]
        count = self._collection.coverage_count
        gain = count(advertiser, seeds + [int(node)]) - count(advertiser, seeds)
        return self._scale * gain
