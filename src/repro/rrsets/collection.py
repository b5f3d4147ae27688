"""Collections of advertiser-tagged RR-sets and incremental coverage tracking.

The uniform sampling scheme of Section 4.2 tags every RR-set with the
advertiser it was generated for.  Revenue estimation and the greedy inner
loops of the solvers then reduce to weighted maximum coverage over the tagged
collection:

* ``π̃(S⃗, R) = nΓ · (#covered RR-sets) / |R|`` where an RR-set tagged ``j``
  is covered iff ``S_j`` intersects it (Lemma 4.1).
* The marginal gain of assigning node ``u`` to advertiser ``i`` is
  ``nΓ/|R|`` times the number of *uncovered* RR-sets tagged ``i`` that
  contain ``u``.

Storage layout
--------------
An :class:`RRCollection` *is* its flat arrays; it keeps no per-set Python
objects:

* ``member_array`` / ``set_offsets`` — every RR-set's members concatenated,
  with CSR offsets (RR-set ``k`` is ``member_array[set_offsets[k]:set_offsets[k+1]]``);
* ``tag_array`` — the advertiser tag of every RR-set;
* an inverted index from ``(advertiser, node)`` to the RR-sets containing
  the node under that tag: the set indices ordered by key and, within a
  key, by set, sliced by per-key offsets that one ``np.bincount`` yields.

Growth is append-only.  ``extend_from_shards`` appends a flat block and
merges its index into the old one at once; ``add`` buffers single sets,
which the next query appends as one block.  A block's own index is **one**
plain ``np.sort`` of the composite keys ``(tag·n + node)·b + set`` over its
``b`` sets.  Every new set index exceeds every old one, so within each key
the new entries go after the old: the merged index is two scatters into
the summed per-key offsets, never a re-sort of the old entries, and equals
a one-shot build of the same sets bit for bit.  ``compact`` splices
replaced and dropped sets out of the flat arrays with one gather
(:func:`splice_sets`).

:class:`CoverageState` maintains the greedy marginal counts on a flat
``(h·n,)`` int64 array (conceptually the ``(h, n)`` marginal matrix) plus a
boolean covered mask, so ``add_seed`` is a handful of fancy-indexing
operations and construction is a single ``np.bincount`` pass.

The flat layout is deliberate: entry ``advertiser·n + node`` of the raveled
marginal matrix is addressed by the same int64 key the batched lazy-greedy
engine (:mod:`repro.core.batched_greedy`) uses to encode greedy elements,
so re-evaluating a batch of CELF candidates is one fancy-index gather and
the seeding-cost lookup shares the key via the raveled ``(h, n)`` cost
matrix.  See ``docs/architecture.md`` for how the three flat-array engines
fit together.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SamplingError

_EMPTY_INDEX = np.empty(0, dtype=np.int64)
_EMPTY_INDEX.setflags(write=False)
_INT64_MAX = int(np.iinfo(np.int64).max)


def validate_flat_sets(
    members: np.ndarray,
    sizes: np.ndarray,
    tags: np.ndarray,
    num_nodes: int,
    num_advertisers: int,
) -> None:
    """Raise :class:`SamplingError` unless ``(members, sizes, tags)`` are RR-sets.

    Vectorised over the flat layout: ``sizes`` and ``tags`` are 1-D and
    aligned, the sizes sum to the member count, and every set is non-empty,
    tagged in ``[0, num_advertisers)`` and strictly increasing over node ids
    in ``[0, num_nodes)``.
    """
    if sizes.shape != tags.shape or sizes.ndim != 1:
        raise SamplingError("sizes and tags must be 1-D arrays of equal length")
    if int(sizes.sum()) != members.size:
        raise SamplingError("sizes must sum to the member-array length")
    if sizes.size == 0:
        return
    if sizes.min() <= 0:
        raise SamplingError("an RR-set always contains at least its root")
    if tags.min() < 0 or tags.max() >= num_advertisers:
        raise SamplingError("advertiser tag out of range")
    if members.min() < 0 or members.max() >= num_nodes:
        raise SamplingError("RR-set contains invalid node ids")
    if members.size > 1:
        # Strictly increasing within each set: non-positive diffs are only
        # allowed at set boundaries.
        non_increasing = np.diff(members) <= 0
        non_increasing[np.cumsum(sizes[:-1]) - 1] = False
        if non_increasing.any():
            raise SamplingError("RR-set members must be sorted and unique")


def splice_sets(
    members: np.ndarray,
    sizes: np.ndarray,
    replaced: np.ndarray,
    fresh_members: np.ndarray,
    fresh_sizes: np.ndarray,
    keep: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(members, sizes)`` after a splice, in one gather.

    The sets at the ascending indices ``replaced`` are swapped for the sets
    of ``fresh_members`` cut by ``fresh_sizes``, in order; then only the
    sets where the boolean mask ``keep`` is true survive, in order.  The
    result is a fresh buffer: it shares storage with neither input.
    """
    starts = np.cumsum(sizes) - sizes
    sizes = sizes.copy()
    sizes[replaced] = fresh_sizes
    starts[replaced] = np.cumsum(fresh_sizes) - fresh_sizes + members.size
    if keep is not None:
        starts, sizes = starts[keep], sizes[keep]
    gather = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    gather += np.arange(gather.size)
    return np.concatenate((members, fresh_members))[gather], sizes


class RRCollection:
    """An append-only collection of advertiser-tagged RR-sets on flat arrays.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the underlying graph (for validation and the
        estimator scale factor).
    num_advertisers:
        Number of advertisers ``h``; tags must lie in ``[0, h)``.
    """

    def __init__(self, num_nodes: int, num_advertisers: int):
        if num_nodes <= 0:
            raise SamplingError("num_nodes must be positive")
        if num_advertisers <= 0:
            raise SamplingError("num_advertisers must be positive")
        self._num_nodes = num_nodes
        self._num_advertisers = num_advertisers
        self._member_array = _EMPTY_INDEX
        self._set_offsets = np.zeros(1, dtype=np.int64)
        self._set_offsets.setflags(write=False)
        self._tag_array = _EMPTY_INDEX
        self._inverted_sets = _EMPTY_INDEX
        # The per-key arrays, (h·n + 1,) and (h, n): built by the first
        # append or query.
        self._key_offsets: Optional[np.ndarray] = None
        self._membership_counts: Optional[np.ndarray] = None
        # Sets added one at a time since the last query, appended by _flush.
        self._pending_sets: List[np.ndarray] = []
        self._pending_tags: List[int] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, rr_set: Sequence[int], advertiser: int) -> int:
        """Append one RR-set tagged with ``advertiser``; returns its index."""
        if not 0 <= advertiser < self._num_advertisers:
            raise SamplingError(f"advertiser tag {advertiser} out of range")
        members = np.asarray(rr_set, dtype=np.int64)
        if members.ndim == 1 and members.size and np.all(members[1:] > members[:-1]):
            members = members.copy()  # detach from the caller's buffer
        else:
            members = np.unique(members)
        if members.size == 0:
            raise SamplingError("an RR-set always contains at least its root")
        if members[0] < 0 or members[-1] >= self._num_nodes:
            raise SamplingError("RR-set contains invalid node ids")
        index = len(self)
        self._pending_sets.append(members)
        self._pending_tags.append(int(advertiser))
        return index

    def extend(self, rr_sets: Iterable[Tuple[Sequence[int], int]]) -> None:
        """Append many ``(rr_set, advertiser)`` pairs."""
        for rr_set, advertiser in rr_sets:
            self.add(rr_set, advertiser)

    @classmethod
    def from_shards(
        cls,
        num_nodes: int,
        num_advertisers: int,
        shards: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> "RRCollection":
        """Build a collection directly from per-shard flat arrays.

        Each shard is a ``(members, sizes, tags)`` triple: all the shard's
        RR-set members concatenated, the per-set cardinalities and the per-set
        advertiser tags.  Shards are concatenated in the given order and the
        CSR view + inverted index are built straight from the flat arrays.
        This is the merge step of the sharded generation pipeline
        (:mod:`repro.parallel.rr`); every member array must already be sorted
        and duplicate-free, as the generators guarantee.
        """
        collection = cls(num_nodes, num_advertisers)
        collection.extend_from_shards(shards)
        return collection

    def extend_from_shards(
        self, shards: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        """Append per-shard ``(members, sizes, tags)`` triples in shard order.

        Every shard is validated by :func:`validate_flat_sets`.  The shards
        land as one block whose index is merged into the collection's at
        once (see the module docstring); the caller's arrays are copied,
        never adopted.
        """
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for members, sizes, tags in shards:
            members = np.ascontiguousarray(members, dtype=np.int64)
            sizes = np.asarray(sizes, dtype=np.int64)
            tags = np.asarray(tags, dtype=np.int64)
            validate_flat_sets(members, sizes, tags, self._num_nodes, self._num_advertisers)
            if sizes.size:
                parts.append((members, sizes, tags))
        if parts:
            if self._pending_sets:
                self._flush()
            self._append(*map(list, zip(*parts)))

    def _flush(self) -> None:
        """Append the sets ``add`` buffered, as one block (on an empty,
        never-queried collection, an empty block builds the index)."""
        if self._pending_sets or self._key_offsets is None:
            sizes = np.array([s.size for s in self._pending_sets], dtype=np.int64)
            tags = np.array(self._pending_tags, dtype=np.int64)
            self._append(self._pending_sets, [sizes], [tags])
            self._pending_sets, self._pending_tags = [], []

    def _append(
        self,
        member_parts: List[np.ndarray],
        size_parts: List[np.ndarray],
        tag_parts: List[np.ndarray],
    ) -> None:
        """Append one block of sets and merge its inverted index in."""
        old_sets = self._tag_array.size
        sizes = np.concatenate(size_parts)
        count = old_sets + sizes.size
        if self._num_advertisers * self._num_nodes * count > _INT64_MAX:
            raise SamplingError(
                f"{count} RR-sets over {self._num_advertisers}×{self._num_nodes} "
                "(advertiser, node) keys overflow the int64 inverted-index keys"
            )
        members = np.concatenate([self._member_array, *member_parts])
        tags = np.concatenate([self._tag_array, *tag_parts])
        offsets = np.concatenate((self._set_offsets, self._set_offsets[-1] + np.cumsum(sizes)))
        # The block's index: one plain sort of the unique composite keys
        # key·block + set orders its entries by key and, within a key, by
        # ascending set index — the append order of the seed
        # implementation's per-node lists.
        block = sizes.size
        keys = np.repeat(tags[old_sets:], sizes) * self._num_nodes
        keys += members[self._member_array.size:]
        composite = keys * block
        composite += np.repeat(np.arange(block, dtype=np.int64), sizes)
        composite.sort()
        composite %= max(block, 1)
        composite += old_sets
        # Keys are dense ints in [0, h·n), so one bincount yields both the
        # membership counts and the per-key slice offsets.
        counts = np.bincount(keys, minlength=self._num_advertisers * self._num_nodes)
        inverted = composite
        if self._inverted_sets.size:
            # Within a key the old entries stay first: an old entry moves by
            # the block entries of the keys before its own, a block entry by
            # the old entries of its key and every key before it.
            old_counts = self._membership_counts.ravel()
            inverted = np.empty(self._inverted_sets.size + composite.size, dtype=np.int64)
            moved = np.repeat(np.cumsum(counts) - counts, old_counts)
            moved += np.arange(self._inverted_sets.size)
            inverted[moved] = self._inverted_sets
            moved = np.repeat(self._key_offsets[1:], counts)
            moved += np.arange(composite.size)
            inverted[moved] = composite
            counts += old_counts
        key_offsets = np.concatenate(([0], np.cumsum(counts)))
        self._member_array = members
        self._set_offsets = offsets
        self._tag_array = tags
        self._inverted_sets = inverted
        self._key_offsets = key_offsets
        self._membership_counts = counts.reshape(self._num_advertisers, self._num_nodes)
        # The query API hands out views of these arrays; freeze them so an
        # in-place caller mutation cannot corrupt the shared index.
        for array in (members, offsets, tags, inverted, key_offsets, self._membership_counts):
            array.setflags(write=False)

    def compact(
        self,
        replacements: Optional[Mapping[int, Tuple[Sequence[int], int]]] = None,
        drop: Iterable[int] = (),
    ) -> "RRCollection":
        """Tombstone-aware compaction: a new collection spliced from this one.

        ``drop`` tombstones RR-set indices out of the result; ``replacements``
        maps indices to ``(members, advertiser)`` pairs substituted in place.
        Surviving sets keep their relative order (replaced sets keep their
        exact index when nothing is dropped), so an incremental store that
        replaces invalidated sets slot-for-slot stays index-aligned with a
        freshly generated collection.  The flat arrays are spliced with one
        gather (:func:`splice_sets`) and the result is built by
        :meth:`from_shards` — no loop over the sets.
        """
        count = len(self)
        replaced = sorted((int(index), pair) for index, pair in (replacements or {}).items())
        indices = np.array([index for index, _ in replaced], dtype=np.int64)
        dropped = np.unique(np.fromiter(map(int, drop), dtype=np.int64))
        for kind, chosen in (("drop", dropped), ("replacement", indices)):
            outside = chosen[(chosen < 0) | (chosen >= count)]
            if outside.size:
                raise SamplingError(f"{kind} index {int(outside[0])} out of range")
        both = np.intersect1d(indices, dropped)
        if both.size:
            raise SamplingError(f"index {int(both[0])} cannot be both dropped and replaced")
        fresh = [np.unique(np.asarray(members, dtype=np.int64)) for _, (members, _) in replaced]
        keep = np.ones(count, dtype=bool)
        keep[dropped] = False
        members, sizes = splice_sets(
            self.member_array,
            self.set_sizes(),
            indices,
            np.concatenate([_EMPTY_INDEX, *fresh]),
            np.array([s.size for s in fresh], dtype=np.int64),
            keep,
        )
        tags = self._tag_array.copy()
        tags[indices] = [advertiser for _, (_, advertiser) in replaced]
        return RRCollection.from_shards(
            self._num_nodes, self._num_advertisers, [(members, sizes, tags[keep])]
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._tag_array.size + len(self._pending_tags)

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes this collection refers to."""
        return self._num_nodes

    @property
    def num_advertisers(self) -> int:
        """Number of advertiser tags."""
        return self._num_advertisers

    @property
    def total_size(self) -> int:
        """Sum of RR-set cardinalities (memory/work proxy)."""
        return int(self.member_array.size)

    def rr_set(self, index: int) -> np.ndarray:
        """The node members of RR-set ``index`` (a read-only, sorted slice)."""
        index = range(len(self))[index]
        offsets = self.set_offsets
        return self._member_array[offsets[index]: offsets[index + 1]]

    def tag(self, index: int) -> int:
        """The advertiser tag of RR-set ``index``."""
        return int(self.tag_array[index])

    def tags(self) -> np.ndarray:
        """All advertiser tags as a read-only array aligned with RR-set indices."""
        return self.tag_array

    def count_per_advertiser(self) -> np.ndarray:
        """Number of RR-sets tagged with each advertiser."""
        return np.bincount(self.tag_array, minlength=self._num_advertisers)

    # -- CSR view ------------------------------------------------------- #
    @property
    def member_array(self) -> np.ndarray:
        """All RR-set members concatenated (CSR values)."""
        self._flush()
        return self._member_array

    @property
    def set_offsets(self) -> np.ndarray:
        """CSR offsets into :attr:`member_array`, length ``len(self) + 1``."""
        self._flush()
        return self._set_offsets

    @property
    def tag_array(self) -> np.ndarray:
        """Advertiser tag per RR-set as an int64 array (CSR view)."""
        self._flush()
        return self._tag_array

    def set_sizes(self) -> np.ndarray:
        """Cardinality of every RR-set."""
        return np.diff(self.set_offsets)

    def membership_counts(self) -> np.ndarray:
        """The ``(h, n)`` matrix counting RR-sets tagged ``i`` containing ``u``.

        Equals the initial marginal matrix of :class:`CoverageState`; kept
        up to date by every append.
        """
        self._flush()
        return self._membership_counts

    def sets_containing_array(self, advertiser: int, node: int) -> np.ndarray:
        """Indices of RR-sets tagged ``advertiser`` containing ``node`` (sorted array).

        Returns a read-only slice of the inverted index — no copies on the
        greedy hot path.
        """
        if not (0 <= node < self._num_nodes and 0 <= advertiser < self._num_advertisers):
            return _EMPTY_INDEX
        if self._pending_sets or self._key_offsets is None:
            self._flush()
        key = advertiser * self._num_nodes + node
        offsets = self._key_offsets
        return self._inverted_sets[offsets[key]: offsets[key + 1]]

    def sets_containing(self, advertiser: int, node: int) -> List[int]:
        """Indices of RR-sets tagged ``advertiser`` that contain ``node``."""
        return self.sets_containing_array(advertiser, int(node)).tolist()

    def coverage_count(self, advertiser: int, nodes: Iterable[int]) -> int:
        """Number of RR-sets tagged ``advertiser`` intersecting ``nodes``.

        Gathers the nodes' inverted-index slices, marks them in one
        ``len(self)`` bool mask and counts it.  A single node needs only its
        slice size: a slice never repeats an RR-set.
        """
        slices = [
            self.sets_containing_array(advertiser, node)
            for node in {int(node) for node in nodes}
        ]
        slices = [s for s in slices if s.size]
        if not slices:
            return 0
        if len(slices) == 1:
            return int(slices[0].size)
        covered = np.zeros(len(self), dtype=bool)
        covered[np.concatenate(slices)] = True
        return int(np.count_nonzero(covered))

    def memory_proxy_bytes(self) -> int:
        """Approximate memory footprint of the stored RR-sets, in bytes."""
        return self.total_size * 8 + len(self) * 64


class CoverageState:
    """Incremental coverage bookkeeping for greedy selection on a collection.

    The state tracks, for every ``(advertiser, node)`` pair, how many RR-sets
    tagged with that advertiser contain the node and are not yet covered by
    the current allocation.  Adding a node to an advertiser's seed set marks
    the relevant RR-sets covered and decrements the counts of every other
    node they contain — the textbook maximum-coverage update, done with
    ``np.subtract.at`` on the flat marginal matrix instead of per-int dict
    updates.
    """

    def __init__(self, collection: RRCollection):
        self._collection = collection
        self._num_nodes = collection.num_nodes
        self._covered = np.zeros(len(collection), dtype=bool)
        self._marginal = collection.membership_counts().ravel().astype(np.int64)
        self._covered_count = 0
        self._covered_per_advertiser = np.zeros(collection.num_advertisers, dtype=np.int64)

    @property
    def collection(self) -> RRCollection:
        """The underlying RR-set collection."""
        return self._collection

    @property
    def covered_count(self) -> int:
        """Total number of covered RR-sets."""
        return self._covered_count

    def covered_count_for(self, advertiser: int) -> int:
        """Number of covered RR-sets tagged ``advertiser``."""
        return int(self._covered_per_advertiser[advertiser])

    def marginal_coverage(self, advertiser: int, node: int) -> int:
        """Uncovered RR-sets tagged ``advertiser`` that contain ``node``."""
        return int(self._marginal[advertiser * self._num_nodes + int(node)])

    def marginal_matrix(self) -> np.ndarray:
        """The full ``(h, n)`` marginal-coverage matrix (read-only view)."""
        view = self._marginal.reshape(
            self._collection.num_advertisers, self._num_nodes
        ).view()
        view.setflags(write=False)
        return view

    def is_covered(self, index: int) -> bool:
        """Whether RR-set ``index`` is already covered."""
        return bool(self._covered[index])

    def add_seed(self, advertiser: int, node: int) -> int:
        """Assign ``node`` to ``advertiser`` and return the newly covered count."""
        containing = self._collection.sets_containing_array(advertiser, int(node))
        return self._cover(advertiser, containing[~self._covered[containing]])

    def add_seeds(self, advertiser: int, nodes: Iterable[int]) -> int:
        """Assign every node of ``nodes`` to ``advertiser`` with one scatter.

        Coverage does not depend on the order seeds arrive in, so this leaves
        the marginals, the covered mask and the counts exactly as one
        :meth:`add_seed` per node would; returns the newly covered count.
        """
        collection = self._collection
        slices = [collection.sets_containing_array(advertiser, int(node)) for node in nodes]
        if not slices:
            return 0
        # A set holding several of the nodes is marked once; a mask over
        # the collection is cheaper than sorting the slices at large θ.
        fresh = np.zeros_like(self._covered)
        fresh[np.concatenate(slices)] = True
        fresh &= ~self._covered
        return self._cover(advertiser, np.flatnonzero(fresh))

    def _cover(self, advertiser: int, fresh: np.ndarray) -> int:
        """Mark the uncovered, distinct sets ``fresh`` (all tagged
        ``advertiser``) covered and return how many there are."""
        newly_covered = int(fresh.size)
        if newly_covered == 0:
            return 0
        self._covered[fresh] = True
        # Gather the members of every newly covered RR-set from the CSR view
        # and decrement their marginals, all in ``advertiser``'s row, in one
        # scatter.
        collection = self._collection
        offsets = collection.set_offsets
        starts = offsets[fresh]
        sizes = offsets[fresh + 1] - starts
        ends = np.cumsum(sizes)
        gather = np.repeat(starts - (ends - sizes), sizes)
        gather += np.arange(int(ends[-1]))
        row = self._marginal[advertiser * self._num_nodes: (advertiser + 1) * self._num_nodes]
        np.subtract.at(row, collection.member_array[gather], 1)
        self._covered_count += newly_covered
        self._covered_per_advertiser[advertiser] += newly_covered
        return newly_covered

    def copy(self) -> "CoverageState":
        """Deep copy of the state (used when a solver explores alternatives)."""
        clone = CoverageState.__new__(CoverageState)
        clone._collection = self._collection
        clone._num_nodes = self._num_nodes
        clone._covered = self._covered.copy()
        clone._marginal = self._marginal.copy()
        clone._covered_count = self._covered_count
        clone._covered_per_advertiser = self._covered_per_advertiser.copy()
        return clone
