"""Slot-keyed RR-set draws: every RR-set is a pure function of ``(entropy, slot)``.

A *slot* is the index of one RR-set in an endless, entropy-keyed sequence.
Drawing slots ``[lo, hi)`` — or any explicit slot array — yields the same
sets however the slots are split across calls, batches or worker shards,
which is what makes ``n_jobs`` a pure speed knob for every consumer built on
this module (:class:`~repro.rrsets.uniform.UniformRRSampler`, the TI pool
fill behind :meth:`~repro.rrsets.generator.RRSetGenerator.generate_batch_parallel`
and :class:`~repro.rrsets.store.RRStore`).

Two engines implement the slot function:

* :class:`HashedRRSampler` — the ``fast()`` engine.  Slot ``s``'s tag, its
  root and the coin of every in-edge come from a 64-bit mix of
  ``(entropy, s, packed edge key (u << 32) | v)`` turned into a 53-bit
  uniform; the edge is live iff its coin falls below its probability.  A
  reverse traversal examines each in-edge at most once, so a fixed coin per
  ``(slot, edge)`` is exactly the IC live-edge model — and IC, WC,
  Trivalency and topic-aware IC all belong to that family.  Keying by the
  edge key rather than the CSR edge id keeps a slot's coins stable when
  edges are inserted elsewhere, so a slot whose members' in-neighbourhoods
  are unchanged replays identically on an updated graph.  The sets of a
  whole batch are traversed level-synchronously on flat numpy arrays, the
  way :mod:`repro.diffusion.engine` runs cascades (see
  :meth:`HashedRRSampler.draw`).
* :class:`PerSetSlotEngine` — the ``seed()`` engines' slot function: slot
  ``s`` runs the per-set generator on its own
  ``SeedSequence(entropy, spawn_key=(s,))`` substream (:func:`draw_slot`).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.deltas import InEdgeEdit
from repro.graph.digraph import CSRDiGraph
from repro.rrsets.generator import RRSetGenerator

_MASK64 = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Salt of the key hash, so that key 0 does not hash to 0.
_KEY_SALT = 0x9E3779B97F4A7C15
#: Reserved keys of the per-slot tag and root uniforms.  Packed edge keys
#: stay below ``2**63`` (node ids are below ``2**31``), so they never collide.
_TAG_KEY = _MASK64
_ROOT_KEY = _MASK64 - 1
#: Largest number of slots traversed together.  The visited keys of a batch
#: are kept as one sorted array, re-merged once per level, so the batch
#: bounds that array rather than any ``batch · n`` bitmap.
_MAX_BATCH = 1 << 13
#: Largest number of edges one coin test expands; a wider level is tested
#: in pieces, which bounds the per-level arrays (~40 bytes per edge) when
#: sets are large.
_MAX_LEVEL_EDGES = 1 << 20
_UNIT53 = 1.0 / (1 << 53)

SlotRange = Union[Tuple[int, int], np.ndarray]


class SlotDraw(NamedTuple):
    """Flat result of drawing a run of slots, in slot order."""

    members: np.ndarray  #: every set's sorted members, concatenated
    sizes: np.ndarray  #: per-slot cardinalities aligned with ``members``
    tags: np.ndarray  #: advertiser tag per slot
    roots: np.ndarray  #: root node per slot
    edges_examined: np.ndarray  #: in-edges examined, per advertiser


def slot_array(slots: SlotRange) -> np.ndarray:
    """``slots`` as an int64 array; a ``(lo, hi)`` pair means ``[lo, hi)``."""
    if isinstance(slots, tuple):
        lo, hi = slots
        return np.arange(lo, hi, dtype=np.int64)
    return np.asarray(slots, dtype=np.int64)


# ---------------------------------------------------------------------- #
# hashing
# ---------------------------------------------------------------------- #
def _mix_int(x: int) -> int:
    """The splitmix64 finalizer on one Python int (mod ``2**64``)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array (wrapping)."""
    scratch = np.empty_like(x)
    np.right_shift(x, np.uint64(30), out=scratch)
    x ^= scratch
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=scratch)
    x ^= scratch
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def key_hashes(keys: np.ndarray) -> np.ndarray:
    """Hash of each packed key; a coin mixes it with its slot's hash."""
    return _mix(np.asarray(keys, dtype=np.uint64) ^ np.uint64(_KEY_SALT))


def slot_hashes(entropy: int, slots: np.ndarray) -> np.ndarray:
    """Per-slot hash of ``(entropy, slot)``: both components mixed, not added."""
    mixed = _mix(np.asarray(slots, dtype=np.uint64).copy())
    mixed ^= np.uint64(_mix_int(entropy))
    return _mix(mixed)


def _coin_bits(slot_hash: np.ndarray, key_hash: np.ndarray) -> np.ndarray:
    """53-bit integer coins of ``(slot, key)`` pairs; overwrites ``slot_hash``."""
    slot_hash ^= key_hash
    _mix(slot_hash)
    np.right_shift(slot_hash, np.uint64(11), out=slot_hash)
    return slot_hash


def _reserved_uniforms(slot_hash: np.ndarray, key: int) -> np.ndarray:
    """Uniforms in ``[0, 1)`` of one reserved key for every slot."""
    bits = _coin_bits(slot_hash.copy(), np.uint64(_mix_int(key ^ _KEY_SALT)))
    return bits.astype(np.float64) * _UNIT53


def _in_key_hashes(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Key hashes of in-edges ``sources[i] -> targets[i]``."""
    return key_hashes(
        (sources.astype(np.uint64) << np.uint64(32)) | targets.astype(np.uint64)
    )


def _thresholds(rows: np.ndarray) -> np.ndarray:
    """Integer coin thresholds of probabilities ``rows``.

    Live iff coin < p, with the coin a 53-bit integer u: u·2^-53 < p
    <=> u < ceil(p·2^53), exactly, and p = 1 always passes.
    """
    return np.ceil(rows * float(1 << 53)).astype(np.uint64)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by sort and neighbour compare (no hashing pass)."""
    keys.sort()
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


# ---------------------------------------------------------------------- #
# the hashed level-synchronous engine
# ---------------------------------------------------------------------- #
class HashedRRSampler:
    """Hashed live-edge RR-sets, traversed level-synchronously per batch.

    The engine holds per-in-edge arrays aligned with the graph's in-CSR: a
    key hash and one coin threshold per advertiser.  Building them costs
    O(h·m); :meth:`advance` follows a delta batch at the cost of the
    positions it touched instead, which is how
    :class:`~repro.rrsets.store.RRStore` keeps one engine across rounds.

    Parameters
    ----------
    graph:
        The social graph.
    probabilities:
        One per-edge probability array per advertiser (canonical edge
        order), or a single array for one advertiser.
    weights:
        Advertiser draw weights (summing to 1) — slot ``s``'s tag is drawn
        from them with its own uniform.  ``None`` tags every slot 0, which
        is how a single advertiser's pool is drawn.
    """

    def __init__(
        self,
        graph: CSRDiGraph,
        probabilities: Union[np.ndarray, Sequence[np.ndarray]],
        weights: Optional[np.ndarray] = None,
    ):
        if isinstance(probabilities, np.ndarray) and probabilities.ndim == 1:
            probabilities = [probabilities]
        m = graph.num_edges
        offsets, sources, edge_ids = graph.in_csr()
        rows = []
        for array in probabilities:
            array = np.asarray(array, dtype=np.float64)
            if array.shape != (m,):
                raise SamplingError("edge_probabilities must have one entry per edge")
            if m and (array.min() < 0 or array.max() > 1):
                raise SamplingError("edge probabilities must lie in [0, 1]")
            rows.append(array[edge_ids])
        if not rows:
            raise SamplingError("at least one advertiser is required")
        self._h = len(rows)
        self._adopt(graph)
        targets = np.repeat(np.arange(self._n, dtype=np.int64), self._degrees)
        self._key_hashes = _in_key_hashes(sources, targets)
        self._thresholds = _thresholds(np.stack(rows)).ravel()
        if weights is None or self._h == 1:
            self._cumulative = None
        else:
            self._cumulative = np.cumsum(np.asarray(weights, dtype=np.float64))

    def _adopt(self, graph: CSRDiGraph) -> None:
        """Point the engine at ``graph``'s in-CSR."""
        self._n = graph.num_nodes
        self._m = graph.num_edges
        self._offsets, self._sources, _ = graph.in_csr()
        self._degrees = np.diff(self._offsets)

    def advance(
        self,
        graph: CSRDiGraph,
        probabilities: Sequence[np.ndarray],
        edit: InEdgeEdit,
    ) -> None:
        """Follow the snapshot ``graph`` that ``edit`` turned this one into.

        The per-in-edge key hashes and threshold rows are spliced by the
        ``edit`` (:meth:`~repro.graph.deltas.InEdgeEdit.splice`); inserted
        and rewritten positions take their thresholds from
        ``probabilities`` (the new snapshot's, one array per advertiser).
        The result equals an engine built on ``graph`` from scratch, at the
        cost of the positions the batch touched plus one copy of each
        array.
        """
        offsets, sources, edge_ids = graph.in_csr()
        inserted = edit.inserted
        targets = np.searchsorted(offsets, inserted, side="right") - 1
        self._key_hashes = edit.splice(self._key_hashes)
        self._key_hashes[inserted] = _in_key_hashes(sources[inserted], targets)
        thresholds = edit.splice(self._thresholds.reshape(self._h, self._m))
        changed = np.concatenate((inserted, edit.updated))
        columns = edge_ids[changed]
        thresholds[:, changed] = _thresholds(
            np.stack([np.asarray(array, dtype=np.float64)[columns] for array in probabilities])
        )
        self._thresholds = thresholds.ravel()
        self._adopt(graph)

    def draw(self, entropy: int, slots: SlotRange) -> SlotDraw:
        """Draw ``slots`` under ``entropy``; results are in slot order.

        Each batch of at most :data:`_MAX_BATCH` slots is traversed one
        level at a time:

        1. expand the frontier of ``(set, node)`` pairs over its in-degrees
           with ``np.repeat`` into flat in-CSR edge positions;
        2. test every expanded edge's coin against its probability in one
           bulk comparison, the threshold row picked by the set's tag (in
           pieces of at most :data:`_MAX_LEVEL_EDGES` edges);
        3. deduplicate the live sources' ``set·n + node`` keys;
        4. drop the keys already visited by a ``searchsorted`` against the
           batch's sorted visited keys, then merge the fresh ones in.

        The visited keys end sorted by set, then node, which is each set's
        member array in order.
        """
        slots = slot_array(slots)
        count = int(slots.size)
        h = self._h
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return SlotDraw(empty, empty, empty, empty, np.zeros(h, dtype=np.int64))
        n = self._n
        if n == 0:
            raise SamplingError("cannot generate RR-sets on an empty graph")
        hashes = slot_hashes(entropy, slots)
        roots = np.minimum(
            (_reserved_uniforms(hashes, _ROOT_KEY) * n).astype(np.int64), n - 1
        )
        if self._cumulative is None:
            tags = np.zeros(count, dtype=np.int64)
        else:
            tags = np.minimum(
                np.searchsorted(
                    self._cumulative, _reserved_uniforms(hashes, _TAG_KEY), side="right"
                ),
                h - 1,
            ).astype(np.int64)
        parts = []
        for lo in range(0, count, _MAX_BATCH):
            hi = min(count, lo + _MAX_BATCH)
            keys = self._traverse(hashes[lo:hi], roots[lo:hi], tags[lo:hi])
            parts.append(keys + lo * n)
        keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
        sets = keys // n
        members = keys - sets * n
        sizes = np.bincount(sets, minlength=count)
        edges = np.bincount(
            tags[sets], weights=self._degrees[members], minlength=h
        ).astype(np.int64)
        return SlotDraw(members, sizes, tags, roots, edges)

    def _traverse(
        self, hashes: np.ndarray, roots: np.ndarray, tags: np.ndarray
    ) -> np.ndarray:
        """Sorted ``set·n + node`` keys of one batch's reverse-reachable sets."""
        n = self._n
        offsets = self._offsets
        row_starts = tags * self._m if self._h > 1 else None
        frontier_sets = np.arange(roots.size, dtype=np.int64)
        frontier_nodes = roots
        visited = frontier_sets * n + frontier_nodes
        while True:
            starts = offsets[frontier_nodes]
            degrees = offsets[frontier_nodes + 1] - starts
            ends = np.cumsum(degrees)
            pieces = []
            lo = 0
            while lo < ends.size:
                # The longest run of frontier entries within the edge budget
                # (at least one entry, however wide its block).
                limit = (int(ends[lo - 1]) if lo else 0) + _MAX_LEVEL_EDGES
                hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
                pieces.append(
                    self._live_sources(
                        hashes, row_starts, frontier_sets[lo:hi], starts[lo:hi], degrees[lo:hi]
                    )
                )
                lo = hi
            candidates = _sorted_unique(
                pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            )
            if candidates.size == 0:
                break
            at = np.searchsorted(visited, candidates)
            seen = at < visited.size
            seen[seen] = visited[at[seen]] == candidates[seen]
            fresh = candidates[~seen]
            if fresh.size == 0:
                break
            visited = np.concatenate((visited, fresh))
            visited.sort(kind="stable")  # two sorted runs: a linear merge
            frontier_sets = fresh // n
            frontier_nodes = fresh - frontier_sets * n
        return visited

    def _live_sources(
        self,
        hashes: np.ndarray,
        row_starts: Optional[np.ndarray],
        frontier_sets: np.ndarray,
        starts: np.ndarray,
        degrees: np.ndarray,
    ) -> np.ndarray:
        """``set·n + source`` keys of the live in-edges of a frontier piece."""
        ends = np.cumsum(degrees)
        total = int(ends[-1])
        # CSR expansion: each frontier entry's block start, repeated over its
        # block, plus the within-level ramp gives flat in-CSR positions.
        positions = np.repeat(starts - ends + degrees, degrees)
        positions += np.arange(total, dtype=np.int64)
        # np.take: several times faster than fancy indexing here.
        coins = _coin_bits(
            np.repeat(hashes[frontier_sets], degrees), np.take(self._key_hashes, positions)
        )
        if row_starts is None:
            live = coins < np.take(self._thresholds, positions)
        else:
            live = coins < np.take(
                self._thresholds, np.repeat(row_starts[frontier_sets], degrees) + positions
            )
        live = np.flatnonzero(live)
        # Few edges are live: find their frontier entries by bisection instead
        # of repeating the frontier over every expanded edge.
        owners = frontier_sets[np.searchsorted(ends, live, side="right")]
        return owners * self._n + self._sources[positions[live]]


# ---------------------------------------------------------------------- #
# the per-set engines' slot function
# ---------------------------------------------------------------------- #
def _slot_rng(entropy: int, slot: int) -> np.random.Generator:
    """The dedicated RNG substream of slot ``slot``."""
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(int(slot),)))


def draw_slot(
    generators: Sequence[RRSetGenerator],
    weights: np.ndarray,
    entropy: int,
    slot: int,
) -> Tuple[np.ndarray, int, int]:
    """Draw one slot with the per-set engines: ``(members, advertiser, root)``.

    The slot's substream gives one advertiser draw (cpe-weighted), one root
    draw, then the traversal's Bernoulli blocks.
    """
    rng = _slot_rng(entropy, slot)
    advertiser = int(rng.choice(len(generators), p=weights))
    generator = generators[advertiser]
    root = int(rng.integers(0, generator.graph.num_nodes))
    members = generator.generate(rng, root=root)
    return members, advertiser, root


class PerSetSlotEngine:
    """:func:`draw_slot` over per-advertiser generators of one class."""

    def __init__(
        self,
        generator_cls: Type[RRSetGenerator],
        graph: CSRDiGraph,
        probabilities: Sequence[np.ndarray],
        weights: np.ndarray,
    ):
        self._generators: List[RRSetGenerator] = [
            generator_cls(graph, array) for array in probabilities
        ]
        self._weights = weights

    def draw(self, entropy: int, slots: SlotRange) -> SlotDraw:
        """Draw ``slots`` one by one on their own substreams."""
        slots = slot_array(slots)
        generators = self._generators
        if slots.size and generators[0].graph.num_nodes == 0:
            raise SamplingError("cannot generate RR-sets on an empty graph")
        before = np.array([g.edges_examined for g in generators], dtype=np.int64)
        tags = np.empty(slots.size, dtype=np.int64)
        roots = np.empty(slots.size, dtype=np.int64)
        sets: List[np.ndarray] = []
        for index, slot in enumerate(slots.tolist()):
            members, tags[index], roots[index] = draw_slot(
                generators, self._weights, entropy, slot
            )
            sets.append(members)
        sizes = np.fromiter((s.size for s in sets), dtype=np.int64, count=len(sets))
        members = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        after = np.array([g.edges_examined for g in generators], dtype=np.int64)
        return SlotDraw(members, sizes, tags, roots, after - before)


def slot_engine(
    generator_cls: Optional[Type[RRSetGenerator]],
    graph: CSRDiGraph,
    probabilities: Union[np.ndarray, Sequence[np.ndarray]],
    weights: Optional[np.ndarray],
):
    """The slot engine for ``generator_cls`` — ``None`` means hashed."""
    if generator_cls is None:
        return HashedRRSampler(graph, probabilities, weights)
    return PerSetSlotEngine(generator_cls, graph, probabilities, weights)
