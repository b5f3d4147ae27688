"""Random reverse-reachable (RR) set generation — vectorized CSR engine.

A random RR-set for edge probabilities ``p`` is obtained by sampling a root
node uniformly at random and collecting every node that can reach the root in
a random graph where each edge ``(u, v)`` is kept independently with
probability ``p_(u,v)`` (Borgs et al. [12]).  The expected spread of a seed
set ``A`` equals ``n · Pr[A ∩ R ≠ ∅]``.

Two generators are provided:

* :class:`RRSetGenerator` — reverse BFS, one block of Bernoulli draws per
  frontier node.
* :class:`SubsimRRGenerator` — SUBSIM-style acceleration (Guo et al. [34]):
  when all in-edges of a node share the same probability (e.g. the
  Weighted-Cascade model), successful in-neighbours are located by geometric
  skipping, which touches only the successful edges instead of all of them.
  For heterogeneous probabilities it falls back to vectorised Bernoulli draws.

Both draw one RR-set at a time from an RNG stream.  The ``fast()`` policy
does not use them: its RR-sets are hashed slots sampled a batch at a time
(:mod:`repro.rrsets.slots`), reached from here through
:meth:`RRSetGenerator.generate_batch_parallel`.  ``SubsimRRGenerator``
remains for an explicit ``generator_cls`` and as the per-set baseline of
``benchmarks/bench_rr_engine.py``.

Implementation notes (the vectorized engine)
--------------------------------------------
The traversal keeps every per-element data structure in flat numpy arrays:

* the edge probabilities are gathered **once** into in-CSR order
  (``probabilities[graph.in_edge_id_array]``), so the per-node Bernoulli mask
  is a single contiguous slice comparison with no per-call gather;
* the visited set is an int64 *visit-stamp* array — one token per RR-set, no
  clearing between sets, no Python ``set`` churn;
* the DFS stack and the member accumulator are preallocated int64 arrays
  reused across RR-sets, which is what ``generate_batch`` amortises.

The engine draws randomness in exactly the same order as the reference
implementation preserved in :mod:`repro.rrsets.legacy` (one root draw, then
one block of ``degree`` uniforms per popped node, LIFO pop order), so a fixed
seed produces **bit-identical** RR-sets — the equivalence tests pin this.
``docs/architecture.md`` documents the convention (engine vs. legacy, the
RNG seed-stream-compatibility policy) and how this module's in-CSR gather
order feeds the tagged collections and the ``(h, n)`` coverage marginal
matrix downstream.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.digraph import CSRDiGraph
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


class RRProvenance(NamedTuple):
    """Per-RR-set generation provenance (optional :meth:`generate_batch` capture).

    ``root`` plus the returned member array are the full traversal signature:
    reverse traversal examines exactly the in-neighbourhoods of the members,
    so consumers like :class:`repro.rrsets.store.RRStore` can test staleness
    against a dirty region without re-running the traversal.
    ``edges_examined`` is the per-set slice of the generator's cost counter.
    """

    root: int
    edges_examined: int


class RRSetBatch:
    """RR-sets as one flat pair, with no per-set Python objects.

    ``members`` is every set's members concatenated and ``sizes`` the
    per-set cardinalities — the ``(members, sizes)`` layout
    :meth:`repro.rrsets.collection.RRCollection.from_shards` takes.
    ``len`` counts the sets and iterating yields each set as a read-only
    slice of ``members``.
    """

    __slots__ = ("members", "sizes")

    def __init__(self, members: np.ndarray, sizes: np.ndarray):
        self.members = members
        self.sizes = sizes

    @classmethod
    def from_sets(cls, rr_sets: List[np.ndarray]) -> "RRSetBatch":
        """The batch of ``rr_sets``, concatenated once into the flat pair."""
        sizes = np.fromiter((s.size for s in rr_sets), dtype=np.int64, count=len(rr_sets))
        members = np.concatenate(rr_sets) if rr_sets else np.empty(0, dtype=np.int64)
        return cls(members, sizes)

    def __len__(self) -> int:
        return int(self.sizes.size)

    def __iter__(self) -> Iterator[np.ndarray]:
        members = self.members.view()
        members.setflags(write=False)
        bounds = np.concatenate(([0], np.cumsum(self.sizes))).tolist()
        return (members[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))


class RRSetGenerator:
    """Standard reverse-BFS RR-set generator.

    Parameters
    ----------
    graph:
        The social graph.
    edge_probabilities:
        Activation probability of every edge in canonical order.  For the RM
        problem these are the probabilities of one specific advertiser.
    """

    def __init__(self, graph: CSRDiGraph, edge_probabilities: np.ndarray):
        probabilities = np.asarray(edge_probabilities, dtype=np.float64)
        if probabilities.shape != (graph.num_edges,):
            raise SamplingError("edge_probabilities must have one entry per edge")
        if probabilities.size and (probabilities.min() < 0 or probabilities.max() > 1):
            raise SamplingError("edge probabilities must lie in [0, 1]")
        self._graph = graph
        self._probabilities = probabilities
        self._edges_examined = 0
        in_offsets, in_sources, in_edge_ids = graph.in_csr()
        self._in_offsets = in_offsets
        self._in_sources = in_sources
        # Probabilities gathered into in-CSR order: one gather at construction
        # instead of one per visited node during traversal.
        self._in_probs = probabilities[in_edge_ids] if probabilities.size else probabilities
        # CSR offsets as a plain list: Python-int indexing in the traversal
        # loop is several times faster than numpy scalar indexing.
        self._in_offsets_list = in_offsets.tolist()
        n = graph.num_nodes
        self._stamp = np.zeros(n, dtype=np.int64)
        self._token = 0
        self._members = np.empty(n, dtype=np.int64)

    @property
    def graph(self) -> CSRDiGraph:
        """The graph RR-sets are generated on."""
        return self._graph

    @property
    def edge_probabilities(self) -> np.ndarray:
        """The per-edge probabilities in use."""
        return self._probabilities

    @property
    def edges_examined(self) -> int:
        """Total number of in-edges examined so far (cost counter)."""
        return self._edges_examined

    def record_edges_examined(self, count: int) -> None:
        """Fold in edges examined by an external run (e.g. a sharded worker)."""
        self._edges_examined += int(count)

    def generate(self, rng: RandomSource = None, root: Optional[int] = None) -> np.ndarray:
        """Generate one RR-set; returns sorted member node ids as an int64 array.

        ``root`` fixes the RR-set's root instead of sampling it uniformly,
        which is useful in tests.
        """
        generator = as_rng(rng)
        if self._graph.num_nodes == 0:
            raise SamplingError("cannot generate RR-sets on an empty graph")
        if root is None:
            root = int(generator.integers(0, self._graph.num_nodes))
        elif not 0 <= root < self._graph.num_nodes:
            raise SamplingError(f"root {root} out of range")
        return self._reverse_traverse(root, generator)

    def generate_many(self, count: int, rng: RandomSource = None) -> List[np.ndarray]:
        """Generate ``count`` independent RR-sets."""
        return self.generate_batch(count, rng)

    def generate_batch(
        self,
        count: int,
        rng: RandomSource = None,
        provenance: Optional[List[RRProvenance]] = None,
    ) -> List[np.ndarray]:
        """Generate ``count`` RR-sets, amortising buffer setup across the batch.

        Equivalent to ``count`` calls to :meth:`generate` on the same RNG
        stream (and bit-identical to them), but resolves the RNG and hot
        array references once for the whole batch.  Passing a list as
        ``provenance`` appends one :class:`RRProvenance` record per generated
        set (root, edges examined) without touching the draw order.
        """
        if count < 0:
            raise SamplingError("count must be non-negative")
        generator = as_rng(rng)
        n = self._graph.num_nodes
        if n == 0:
            if count == 0:
                return []
            raise SamplingError("cannot generate RR-sets on an empty graph")
        traverse = self._reverse_traverse
        integers = generator.integers
        if provenance is None:
            return [traverse(int(integers(0, n)), generator) for _ in range(count)]
        rr_sets: List[np.ndarray] = []
        for _ in range(count):
            root = int(integers(0, n))
            edges_before = self._edges_examined
            rr_sets.append(traverse(root, generator))
            provenance.append(
                RRProvenance(root=root, edges_examined=self._edges_examined - edges_before)
            )
        return rr_sets

    def generate_batch_parallel(
        self,
        count: int,
        rng: RandomSource = None,
        n_jobs: Optional[int] = None,
        runtime: Optional["Runtime"] = None,
        policy: Optional["ExecutionPolicy"] = None,
    ) -> RRSetBatch:
        """Generate ``count`` RR-sets, sharded across ``n_jobs`` worker processes.

        ``policy`` picks the engine.  Under ``rr_engine == "subsim"`` (the
        ``fast()`` engine) the sets are slots ``[0, count)`` of the hashed
        sampler (:mod:`repro.rrsets.slots`) over this generator's graph and
        probabilities, keyed by one entropy draw from ``rng``: ``n_jobs`` is
        then a pure speed knob.  Without a policy, or under ``"legacy"``,
        this generator's own per-set engine runs: ``n_jobs=1`` (or ``None``)
        is :meth:`generate_batch` untouched, and ``n_jobs>1`` gives each
        worker its own ``SeedSequence.spawn()`` substream, merged in worker
        order — bit-reproducible for a fixed ``(seed, n_jobs)`` pair, but not
        bit-identical to ``n_jobs=1``.  ``n_jobs`` defaults to
        ``policy.n_jobs``.  The workers' ``edges_examined`` counters are
        folded back into this generator.

        ``runtime`` (or the ambient :func:`repro.runtime.current_runtime`)
        supplies a persistent worker pool reused across calls; results are
        bit-identical with or without one.  The sets come back as one flat
        :class:`RRSetBatch`.
        """
        if count < 0:
            raise SamplingError("count must be non-negative")
        from repro.parallel.rr import merge_shards, run_generation_shards, run_slot_shards
        from repro.runtime import acquire_executor

        if n_jobs is None and policy is not None:
            n_jobs = policy.n_jobs
        executor = acquire_executor(n_jobs, runtime)
        if policy is not None and policy.rr_engine == "subsim":
            entropy = int(as_rng(rng).integers(0, 1 << 63))
            shards = run_slot_shards(
                None, self._graph, self._probabilities, None, entropy, (0, count), executor
            )
        elif executor.n_jobs <= 1 or count <= 1:
            return RRSetBatch.from_sets(self.generate_batch(count, rng))
        else:
            shards = run_generation_shards(
                type(self), self._graph, self._probabilities, count, rng, executor
            )
        for shard in shards:
            self.record_edges_examined(int(np.sum(shard.edges_examined)))
        return merge_shards(shards)

    # ------------------------------------------------------------------ #
    def _next_token(self) -> int:
        """Advance the visit stamp; recycles the stamp array on wraparound."""
        self._token += 1
        if self._token == np.iinfo(np.int64).max:  # pragma: no cover - 2^63 sets
            self._stamp.fill(0)
            self._token = 1
        return self._token

    def _reverse_traverse(self, root: int, rng: np.random.Generator) -> np.ndarray:
        """Reverse BFS from ``root``; returns the sorted member array."""
        offsets = self._in_offsets_list
        sources = self._in_sources
        probs = self._in_probs
        stamp = self._stamp
        members = self._members
        token = self._next_token()
        random = rng.random

        stamp[root] = token
        stack = [root]
        pop = stack.pop
        extend = stack.extend
        members[0] = root
        size = 1
        edges = 0
        while stack:
            node = pop()
            start = offsets[node]
            end = offsets[node + 1]
            degree = end - start
            if degree == 0:
                continue
            edges += degree
            hits = sources[start:end][random(degree) < probs[start:end]]
            if hits.size == 0:
                continue
            fresh = hits[stamp[hits] != token]
            k = fresh.size
            if k:
                stamp[fresh] = token
                extend(fresh.tolist())
                members[size: size + k] = fresh
                size += k
        self._edges_examined += edges
        out = members[:size].copy()
        out.sort()
        return out


class SubsimRRGenerator(RRSetGenerator):
    """RR-set generator with SUBSIM-style geometric skipping.

    For a node whose in-edges all carry the same probability ``p`` the number
    of edges skipped before the next success is geometric with parameter
    ``p``; sampling those skips directly touches only successful edges.  When
    the in-edge probabilities of a node differ, the generator falls back to a
    vectorised Bernoulli draw over that node's in-edges (still correct, just
    without the skipping gain).

    The ``edges_examined`` counter reports the edges actually touched: on the
    geometric path that is the number of *successful* edges — the final
    overshooting skip leaves the in-neighbourhood without examining an edge
    and is not counted.
    """

    def __init__(self, graph: CSRDiGraph, edge_probabilities: np.ndarray):
        super().__init__(graph, edge_probabilities)
        self._uniform_probability = self._detect_uniform_per_node()
        # Per-node log(1-p) for the geometric-skip path, plus plain-list
        # copies of both arrays for fast Python-int indexing in the loop.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q = np.log1p(-self._uniform_probability)
        self._uniform_list = self._uniform_probability.tolist()
        self._log_q_list = log_q.tolist()
        # Plain-list in-sources for the few-success scalar path below.
        self._in_sources_list = self._in_sources.tolist()

    def _detect_uniform_per_node(self) -> np.ndarray:
        """Per-node common in-edge probability, or NaN when heterogeneous.

        Vectorized: per-node min/max of the in-CSR probability array via
        ``np.ufunc.reduceat`` over the CSR offsets, then the same
        ``np.allclose``-style tolerance test as the reference implementation
        (``|p - p₀| ≤ atol + rtol·|p₀|`` against the node's first in-edge).
        """
        n = self._graph.num_nodes
        uniform = np.full(n, np.nan, dtype=np.float64)
        probs = self._in_probs
        if probs.size == 0 or n == 0:
            return uniform
        offsets = self._in_offsets
        degrees = np.diff(offsets)
        nonempty = degrees > 0
        starts = offsets[:-1][nonempty]
        mins = np.minimum.reduceat(probs, starts)
        maxs = np.maximum.reduceat(probs, starts)
        first = probs[starts]
        # np.allclose(probs, first) <=> max deviation from first within tol.
        rtol, atol = 1.0e-5, 1.0e-8
        deviation = np.maximum(maxs - first, first - mins)
        close = deviation <= atol + rtol * np.abs(first)
        uniform[np.flatnonzero(nonempty)[close]] = first[close]
        return uniform

    def _reverse_traverse(self, root: int, rng: np.random.Generator) -> np.ndarray:
        offsets = self._in_offsets_list
        sources = self._in_sources
        sources_list = self._in_sources_list
        probs = self._in_probs
        uniform = self._uniform_list
        log_qs = self._log_q_list
        stamp = self._stamp
        members = self._members
        token = self._next_token()
        random = rng.random
        log = math.log

        stamp[root] = token
        stack = [root]
        pop = stack.pop
        extend = stack.extend
        append_stack = stack.append
        members[0] = root
        size = 1
        edges = 0
        while stack:
            node = pop()
            start = offsets[node]
            end = offsets[node + 1]
            degree = end - start
            if degree == 0:
                continue
            common = uniform[node]
            if common != common:  # NaN: heterogeneous, vectorised Bernoulli
                edges += degree
                hits = sources[start:end][random(degree) < probs[start:end]]
            elif common <= 0.0:
                continue
            elif common >= 1.0:
                edges += degree
                hits = sources[start:end]
            else:
                # Geometric skipping: next success index advances by Geom(p).
                # ``int(log(u)/log_q)`` equals the reference engine's
                # ``int(np.floor(np.log(u)/log_q))``: the quotient is
                # non-negative, and a sub-ulp libm/numpy difference only
                # matters if it crosses an integer boundary (probability
                # ~1e-13 per draw; 0 hits in an 18M-draw sweep).
                positions: list[int] = []
                append = positions.append
                position = -1
                log_q = log_qs[node]
                while True:
                    position += int(log(max(random(), 1e-300)) / log_q) + 1
                    if position >= degree:
                        break
                    append(position)
                edges += len(positions)
                if not positions:
                    continue
                if len(positions) <= 8:
                    # Few successes (the typical SUBSIM case): scalar stamp
                    # checks beat constructing small numpy arrays.
                    for position in positions:
                        hit = sources_list[start + position]
                        if stamp[hit] != token:
                            stamp[hit] = token
                            append_stack(hit)
                            members[size] = hit
                            size += 1
                    continue
                hits = sources[start + np.asarray(positions, dtype=np.int64)]
            if hits.size == 0:
                continue
            fresh = hits[stamp[hits] != token]
            k = fresh.size
            if k:
                stamp[fresh] = token
                extend(fresh.tolist())
                members[size: size + k] = fresh
                size += k
        self._edges_examined += edges
        out = members[:size].copy()
        out.sort()
        return out
