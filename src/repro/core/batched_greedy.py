"""Greedy engines — the one evaluation layer every lazy-greedy loop runs on.

Every greedy consumer in the repo (Algorithms 1-3, ``γ_max``, CA/CS-Greedy)
ranks ``(node, advertiser)`` elements by marginal gain or marginal rate on a
:class:`~repro.utils.lazy_heap.BatchedLazyGreedy` heap.  The consumer's loop
is the same for every oracle; only the engine that evaluates elements
differs, and :func:`engine_for` picks it from the oracle's type:

* **Element encoding** — an element ``(node, advertiser)`` is the int64 key
  ``advertiser · n + node``, i.e. the *flat index* into both the raveled
  ``(h, n)`` marginal matrix and the raveled ``(h, n)`` seeding-cost matrix.
* :class:`CoverageGreedyEngine` — for an
  :class:`~repro.advertising.oracle.RRSetOracle`.  Marginals are pure
  maximum-coverage counts, so the engine owns a fresh
  :class:`~repro.rrsets.collection.CoverageState` and a batch of stale
  candidates is refreshed with **one** gather ``scale · marginal[keys]``.
  Gains are ``scale × integer-count`` exactly like the oracle's own
  answers, so accept/reject decisions see the oracle's floats; so are the
  revenues of the engine's own seed sets (``seeds_revenue``, from the
  state's covered counts) and of single nodes (``node_revenue``, from the
  membership counts).  The engine
  is ``pure`` (deterministic, non-increasing marginals), which lets
  ThresholdGreedy and Fill drop dead elements in bulk.
* :class:`OracleGreedyEngine` — for every other oracle (Monte-Carlo,
  exact).  Each key is one ``oracle.marginal_revenue`` call, in key order,
  against the per-advertiser seed sets ``add_seed`` builds up.  Its heap
  refreshes one key at a time (``batch_size`` 1), so a Monte-Carlo oracle
  is queried lazily and in the same order as a plain CELF loop: the
  oracle's shared RNG stream is consumed identically.

Rates use one vectorized transform for both engines, elementwise identical
(IEEE-754) to the scalar :func:`repro.core.greedy.marginal_rate`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Type

import numpy as np

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle, RRSetOracle
from repro.exceptions import ProblemDefinitionError
from repro.rrsets.collection import CoverageState
from repro.utils.lazy_heap import BatchedLazyGreedy

#: default number of stale candidates refreshed per vectorized gather
DEFAULT_BATCH_SIZE = 64


class GreedyEngine:
    """Shared element encoding, rate transform and feasibility filters.

    Subclasses supply the marginal gains (:meth:`gains` / :meth:`gain`),
    the singleton revenues behind the feasibility filters, :meth:`add_seed`,
    the heap ``batch_size`` and whether evaluations are ``pure``.
    """

    batch_size = DEFAULT_BATCH_SIZE
    #: evaluations are side-effect free and never increase as seeds are
    #: added; only then may the greedy loops drop dead elements in bulk and
    #: the heap treat a zero as final (see :mod:`repro.utils.lazy_heap`)
    pure = False

    def __init__(self, instance: RMInstance):
        self._num_nodes = instance.num_nodes
        self._num_advertisers = instance.num_advertisers
        self._cost_flat = instance.cost_matrix().ravel()

    def gains(self, keys: np.ndarray) -> np.ndarray:
        """Marginal revenues ``π_i(u | S_i)`` for a batch of element keys."""
        raise NotImplementedError

    def gain(self, advertiser: int, node: int) -> float:
        """Marginal revenue of one element — the float the oracle answers."""
        raise NotImplementedError

    def add_seed(self, advertiser: int, node: int) -> None:
        """Assign ``node`` to ``advertiser`` for every later evaluation."""
        raise NotImplementedError

    def add_seeds(self, advertiser: int, nodes: Iterable[int]) -> None:
        """:meth:`add_seed` for every node of ``nodes``, in any order."""
        for node in nodes:
            self.add_seed(advertiser, node)

    def seeds_revenue(self, advertiser: int, seeds: Set[int]) -> float:
        """``π_i(S_i)``, where ``seeds`` are exactly the nodes added for
        ``advertiser`` — the float ``oracle.revenue`` answers."""
        raise NotImplementedError

    def node_revenue(self, advertiser: int, node: int) -> float:
        """``π_i({u})`` — the float ``oracle.revenue`` answers."""
        raise NotImplementedError

    def _singleton_revenues(self, keys: np.ndarray) -> np.ndarray:
        """``π_i({u})`` for a batch of keys (the feasibility filters' input)."""
        raise NotImplementedError

    def heap(self, evaluate: Callable[[np.ndarray], np.ndarray]) -> BatchedLazyGreedy:
        """A lazy-greedy heap over ``evaluate`` with this engine's batch size."""
        return BatchedLazyGreedy(evaluate, batch_size=self.batch_size, pure=self.pure)

    def rates(self, keys: np.ndarray) -> np.ndarray:
        """Marginal rates ``ζ = gain / (cost + gain)`` for a batch of keys."""
        gains = self.gains(keys)
        positive = gains > 0.0
        rates = np.zeros(gains.shape, dtype=np.float64)
        np.divide(
            gains, self._cost_flat[keys] + gains, out=rates, where=positive
        )
        return rates

    def node_rates(self, advertiser: int, nodes: np.ndarray) -> np.ndarray:
        """Marginal rates of ``nodes`` for a single advertiser."""
        return self.rates(advertiser * self._num_nodes + nodes)

    def candidate_nodes(self, candidates: Optional[Iterable[int]]) -> np.ndarray:
        """Candidate pool as an int64 array (defaults to all nodes), validated."""
        if candidates is None:
            return np.arange(self._num_nodes, dtype=np.int64)
        nodes = np.asarray([int(node) for node in candidates], dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            bad = nodes[(nodes < 0) | (nodes >= self._num_nodes)][0]
            raise ProblemDefinitionError(f"node {bad} out of range")
        return nodes

    def singleton_feasible_nodes(
        self, advertiser: int, budget: float, candidates: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Nodes whose singleton cost + revenue fits ``budget`` (Line 1 of Alg. 1)."""
        nodes = self.candidate_nodes(candidates)
        keys = advertiser * self._num_nodes + nodes
        return nodes[self._cost_flat[keys] + self._singleton_revenues(keys) <= budget]

    def feasible_element_keys(
        self,
        budgets: np.ndarray,
        candidates: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """All singleton-feasible element keys, advertiser-major.

        The order (advertiser-major, candidate order within each advertiser)
        is behaviour: the heap breaks exact ties by insertion order.
        """
        nodes = self.candidate_nodes(candidates)
        advertisers = np.arange(self._num_advertisers, dtype=np.int64)
        keys = (advertisers[:, None] * self._num_nodes + nodes).ravel()
        limits = np.repeat(np.asarray(budgets, dtype=np.float64), nodes.size)
        return keys[self._cost_flat[keys] + self._singleton_revenues(keys) <= limits]


class CoverageGreedyEngine(GreedyEngine):
    """Vectorized marginal evaluation over an RR-set oracle's coverage state.

    The engine builds its own :class:`CoverageState`, so the oracle's caches
    are left untouched and remain usable for final revenue queries.
    Coverage marginals are deterministic and only shrink, so the engine is
    ``pure``.
    """

    pure = True

    def __init__(self, instance: RMInstance, oracle: RRSetOracle):
        if not _covers(oracle, instance):
            raise ProblemDefinitionError(
                "CoverageGreedyEngine requires an RRSetOracle covering the instance"
            )
        super().__init__(instance)
        self._oracle = oracle
        self._scale = oracle.scale
        self._state = CoverageState(oracle.collection)
        self._membership_flat = oracle.collection.membership_counts().ravel()
        # A flat view sharing the state's buffer: marginal updates made by
        # add_seed are visible through _marginal_flat with no re-gather.
        self._marginal_flat = self._state.marginal_matrix().ravel()

    def gains(self, keys: np.ndarray) -> np.ndarray:
        return self._scale * self._marginal_flat[keys]

    def gain(self, advertiser: int, node: int) -> float:
        return self._scale * int(
            self._marginal_flat[advertiser * self._num_nodes + int(node)]
        )

    def _singleton_revenues(self, keys: np.ndarray) -> np.ndarray:
        # Singleton revenue is scale × membership count: one gather.
        return self._scale * self._membership_flat[keys]

    def add_seed(self, advertiser: int, node: int) -> None:
        # Only RR-sets tagged ``advertiser`` are covered (tags partition the
        # collection), so the other advertisers' marginal rows are untouched.
        self._state.add_seed(advertiser, int(node))

    def add_seeds(self, advertiser: int, nodes: Iterable[int]) -> None:
        self._state.add_seeds(advertiser, nodes)

    def seeds_revenue(self, advertiser: int, seeds: Set[int]) -> float:
        # The state covers exactly the sets ``seeds`` cover: the same count
        # the oracle's ``coverage_count`` would take.
        return self._scale * self._state.covered_count_for(advertiser)

    def node_revenue(self, advertiser: int, node: int) -> float:
        return self._scale * int(self._membership_flat[advertiser * self._num_nodes + int(node)])


class OracleGreedyEngine(GreedyEngine):
    """Per-key evaluation through ``oracle.marginal_revenue`` / ``revenue``.

    Keys are evaluated one at a time in key order, against the seed sets
    :meth:`add_seed` builds up (in insertion order).  ``batch_size`` is 1 so
    the heap evaluates only the element that surfaced: oracle queries stay
    lazy, and a Monte-Carlo oracle's shared RNG is drawn in CELF order.
    """

    batch_size = 1

    def __init__(self, instance: RMInstance, oracle: RevenueOracle):
        super().__init__(instance)
        self._oracle = oracle
        self._seeds: Dict[int, Set[int]] = {
            advertiser: set() for advertiser in range(instance.num_advertisers)
        }

    def gain(self, advertiser: int, node: int) -> float:
        return self._oracle.marginal_revenue(advertiser, int(node), self._seeds[advertiser])

    def gains(self, keys: np.ndarray) -> np.ndarray:
        n = self._num_nodes
        return np.array(
            [self.gain(*divmod(key, n)) for key in keys.tolist()], dtype=np.float64
        )

    def _singleton_revenues(self, keys: np.ndarray) -> np.ndarray:
        n = self._num_nodes
        return np.array(
            [
                self._oracle.revenue(advertiser, {node})
                for advertiser, node in (divmod(key, n) for key in keys.tolist())
            ],
            dtype=np.float64,
        )

    def add_seed(self, advertiser: int, node: int) -> None:
        self._seeds[advertiser].add(int(node))

    def seeds_revenue(self, advertiser: int, seeds: Set[int]) -> float:
        return self._oracle.revenue(advertiser, seeds) if seeds else 0.0

    def node_revenue(self, advertiser: int, node: int) -> float:
        return self._oracle.revenue(advertiser, {int(node)})


def _covers(oracle: RevenueOracle, instance: RMInstance) -> bool:
    return (
        isinstance(oracle, RRSetOracle)
        and oracle.num_advertisers >= instance.num_advertisers
    )


def engine_class(instance: RMInstance, oracle: RevenueOracle) -> Type[GreedyEngine]:
    """The engine type for ``oracle``: coverage gathers for an RR-set oracle
    that covers the instance, per-key oracle calls otherwise."""
    return CoverageGreedyEngine if _covers(oracle, instance) else OracleGreedyEngine


def engine_for(instance: RMInstance, oracle: RevenueOracle) -> GreedyEngine:
    """A fresh engine of :func:`engine_class` for ``oracle``."""
    return engine_class(instance, oracle)(instance, oracle)
