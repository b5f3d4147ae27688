"""Advertiser-aware RR-set samplers.

The key sampling idea of Section 4.2: instead of keeping ``h`` equally sized
per-advertiser pools, draw the advertiser of every RR-set at random with
probability proportional to its cpe, then generate the RR-set under that
advertiser's edge probabilities.  The resulting indicator variables are
identically distributed, which lets the solver use sharper concentration
bounds (Lemma 4.1).

:class:`PerAdvertiserRRSampler` implements the naive equal-pool strategy the
paper argues against; it backs both the TI-CARM/TI-CSRM baselines and the
sampling-strategy ablation benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type, TYPE_CHECKING

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.digraph import CSRDiGraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.rrsets.slots import slot_engine
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


class UniformRRSampler:
    """Uniform sampling of RR-sets across advertisers (Section 4.2).

    Under the ``fast()`` engine (``policy.rr_engine == "subsim"`` and no
    explicit ``generator_cls``) the sampler draws *slots* of the hashed
    sampler (:mod:`repro.rrsets.slots`): :meth:`generate_collection` draws
    slots ``[next, next + count)`` under one entropy taken from ``seed``,
    so every RR-set and tag is a pure function of ``(seed, slot)``.  The
    result is the same for any ``n_jobs``, with or without a pool, and
    whether a count is drawn in one call or split across several.

    With a per-set generator (the ``seed()`` policy, or an explicit
    ``generator_cls``) the serial sampler draws advertiser and RR-set
    interleaved on one RNG stream — bit-identical to the seed tree — and
    ``n_jobs>1`` draws slots of that generator instead, each on its own
    ``SeedSequence(entropy, spawn_key=(slot,))`` substream.

    Parameters
    ----------
    graph:
        The social graph.
    advertiser_edge_probabilities:
        One probability array per advertiser (length ``num_edges`` each).
    cpes:
        Cost-per-engagement values; the advertiser of each RR-set is drawn
        with probability ``cpe(i) / Γ``.
    generator_cls:
        Per-set RR-set generator class (:class:`RRSetGenerator` or
        :class:`~repro.rrsets.generator.SubsimRRGenerator`).  ``None`` (the
        default) resolves from ``policy``: the hashed sampler when
        ``policy.rr_engine == "subsim"`` (the ``fast`` default), the legacy
        reverse BFS otherwise.
    n_jobs:
        Shard :meth:`generate_collection` across this many worker processes
        (``None``/1 → serial; ``-1`` → all cores).  Defaults to
        ``policy.n_jobs`` when a policy is given.
    policy:
        :class:`repro.runtime.ExecutionPolicy` supplying the engine and
        ``n_jobs`` defaults; explicit arguments win over it.  ``None``
        resolves to :meth:`ExecutionPolicy.fast`.
    runtime:
        :class:`repro.runtime.Runtime` whose persistent worker pool the
        sharded path runs on (falls back to the ambient runtime, then to a
        per-call pool; results are bit-identical either way).
    """

    def __init__(
        self,
        graph: CSRDiGraph,
        advertiser_edge_probabilities: Sequence[np.ndarray],
        cpes: Sequence[float],
        generator_cls: Optional[Type[RRSetGenerator]] = None,
        seed: RandomSource = None,
        n_jobs: Optional[int] = None,
        policy: Optional["ExecutionPolicy"] = None,
        runtime: Optional["Runtime"] = None,
    ):
        if len(advertiser_edge_probabilities) != len(cpes):
            raise SamplingError("one edge-probability array per advertiser is required")
        if len(cpes) == 0:
            raise SamplingError("at least one advertiser is required")
        cpe_array = np.asarray(cpes, dtype=np.float64)
        if np.any(cpe_array <= 0):
            raise SamplingError("cpe values must be positive")
        from repro.parallel import resolve_n_jobs
        from repro.runtime import resolve_policy

        policy = resolve_policy(policy)
        if generator_cls is None and policy.rr_engine == "legacy":
            generator_cls = RRSetGenerator
        if n_jobs is None:
            n_jobs = policy.n_jobs
        self._runtime = runtime
        self._graph = graph
        self._cpes = cpe_array
        self._gamma = float(cpe_array.sum())
        self._weights = cpe_array / self._gamma
        self._rng = as_rng(seed)
        #: ``None`` selects the hashed slot engine.
        self._generator_cls = generator_cls
        self._probability_arrays = list(advertiser_edge_probabilities)
        self._n_jobs = resolve_n_jobs(n_jobs)
        self._generators: List[RRSetGenerator] = []
        self._edges_examined = 0
        if generator_cls is not None:
            self._generators = [
                generator_cls(graph, probabilities)
                for probabilities in self._probability_arrays
            ]
        self._slotted = generator_cls is None or self._n_jobs > 1
        self._next_slot = 0
        self._engine = None
        if self._slotted:
            self._entropy = int(self._rng.integers(0, 1 << 63))

    @property
    def num_advertisers(self) -> int:
        """Number of advertisers ``h``."""
        return len(self._probability_arrays)

    @property
    def gamma(self) -> float:
        """``Γ = Σ_i cpe(i)`` — the estimator scale factor numerator."""
        return self._gamma

    @property
    def graph(self) -> CSRDiGraph:
        """The underlying graph."""
        return self._graph

    def edges_examined(self) -> int:
        """Total in-edges examined by every RR-set drawn so far."""
        return self._edges_examined + sum(
            generator.edges_examined for generator in self._generators
        )

    def sample_advertiser(self) -> int:
        """Draw an advertiser index with probability proportional to cpe."""
        return int(self._rng.choice(self.num_advertisers, p=self._weights))

    def generate_one(self) -> tuple[np.ndarray, int]:
        """Generate the sampler's next ``(rr_set, advertiser)`` pair."""
        if self._slotted:
            collection = self.generate_collection(1)
            return collection.rr_set(0), collection.tag(0)
        advertiser = self.sample_advertiser()
        rr_set = self._generators[advertiser].generate(self._rng)
        return rr_set, advertiser

    def generate_collection(self, count: int, into: Optional[RRCollection] = None) -> RRCollection:
        """Generate ``count`` RR-sets, optionally appending to an existing collection.

        The slot-keyed path (see the class docstring) draws the next
        ``count`` slots through :func:`repro.parallel.rr.run_slot_shards`
        and merges the tagged shards with :meth:`RRCollection.from_shards` /
        :meth:`RRCollection.extend_from_shards`.  The executor comes from
        the sampler's :class:`~repro.runtime.Runtime` (or the ambient one),
        so RMA's doubling rounds reuse one persistent worker pool.  The
        serial per-set path keeps the advertiser and RR-set draws
        interleaved on one stream.
        """
        if count < 0:
            raise SamplingError("count must be non-negative")
        if self._slotted:
            return self._generate_slots(count, into)
        collection = into if into is not None else RRCollection(
            self._graph.num_nodes, self.num_advertisers
        )
        generate_one = self.generate_one
        add = collection.add
        for _ in range(count):
            rr_set, advertiser = generate_one()
            add(rr_set, advertiser)
        return collection

    def _generate_slots(self, count: int, into: Optional[RRCollection]) -> RRCollection:
        from repro.parallel.rr import run_slot_shards
        from repro.runtime import acquire_executor

        lo = self._next_slot
        self._next_slot += count
        executor = acquire_executor(self._n_jobs, self._runtime)
        shards = run_slot_shards(
            self._generator_cls,
            self._graph,
            self._probability_arrays,
            self._weights,
            self._entropy,
            (lo, lo + count),
            executor,
            engine=self._slot_engine,
        )
        for shard in shards:
            self._edges_examined += int(shard.edges_examined.sum())
        triples = [(shard.members, shard.sizes, shard.tags) for shard in shards]
        if into is None:
            return RRCollection.from_shards(
                self._graph.num_nodes, self.num_advertisers, triples
            )
        into.extend_from_shards(triples)
        return into

    def _slot_engine(self):
        """The slot engine of in-process draws, built once per sampler: a
        build is O(h·m), about as long as drawing 512 slots on a 10k-node
        graph."""
        if self._engine is None:
            self._engine = slot_engine(
                self._generator_cls, self._graph, self._probability_arrays, self._weights
            )
        return self._engine


class PerAdvertiserRRSampler:
    """Equal-sized per-advertiser RR-set pools (the strategy the paper improves on).

    Generates ``count`` RR-sets for *each* advertiser.  Used by the TI-CARM /
    TI-CSRM baselines (which extend TIM and keep one sample per ad) and by the
    sampling ablation.
    """

    def __init__(
        self,
        graph: CSRDiGraph,
        advertiser_edge_probabilities: Sequence[np.ndarray],
        generator_cls: Type[RRSetGenerator] = RRSetGenerator,
        seed: RandomSource = None,
    ):
        if len(advertiser_edge_probabilities) == 0:
            raise SamplingError("at least one advertiser is required")
        self._graph = graph
        self._rng = as_rng(seed)
        self._generators: List[RRSetGenerator] = [
            generator_cls(graph, probabilities)
            for probabilities in advertiser_edge_probabilities
        ]

    @property
    def num_advertisers(self) -> int:
        """Number of advertisers ``h``."""
        return len(self._generators)

    def edges_examined(self) -> int:
        """Total in-edges examined by all per-advertiser generators."""
        return sum(generator.edges_examined for generator in self._generators)

    def generate_pool(self, advertiser: int, count: int) -> List[np.ndarray]:
        """Generate ``count`` RR-sets for a single advertiser."""
        if not 0 <= advertiser < self.num_advertisers:
            raise SamplingError("advertiser index out of range")
        if count < 0:
            raise SamplingError("count must be non-negative")
        return self._generators[advertiser].generate_many(count, self._rng)

    def generate_collection(self, count_per_advertiser: int) -> RRCollection:
        """Generate equally sized pools for every advertiser in one tagged collection."""
        collection = RRCollection(self._graph.num_nodes, self.num_advertisers)
        for advertiser in range(self.num_advertisers):
            for rr_set in self.generate_pool(advertiser, count_per_advertiser):
                collection.add(rr_set, advertiser)
        return collection
