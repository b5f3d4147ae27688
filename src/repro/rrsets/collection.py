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
:class:`RRCollection` keeps the append-only list API but backs all queries
with a frozen CSR view built lazily on first query and invalidated by
``add``:

* ``member_array`` / ``set_offsets`` — every RR-set's members concatenated,
  with CSR offsets (RR-set ``k`` is ``member_array[set_offsets[k]:set_offsets[k+1]]``);
* ``tag_array`` — the advertiser tag of every RR-set;
* an inverted index from ``(advertiser, node)`` to the RR-sets containing
  the node under that tag, built by **one** plain ``np.sort`` of the unique
  composite keys ``(tag·n + node)·count + set`` and sliced by per-key
  offsets from one ``np.bincount`` — replacing the seed implementation's
  per-node dict appends.

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
_INT64_MAX = int(np.iinfo(np.int64).max)


def split_by_sizes(flat: np.ndarray, sizes: np.ndarray) -> List[np.ndarray]:
    """Views of ``flat`` per set, for consecutive sets of the given sizes.

    Plain slices over precomputed bounds: ``np.split`` costs several
    microseconds per piece, which dominates at tens of thousands of sets.
    """
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    bounds = bounds.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


class RRCollection:
    """An append-only list of RR-sets, each tagged with an advertiser index.

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
        self._sets: List[np.ndarray] = []
        self._tags: List[int] = []
        self._total_size = 0
        # Lazily built CSR view + inverted index (invalidated by add()).
        self._csr_size = -1  # number of sets the cached CSR covers; -1 = none
        self._member_array = _EMPTY_INDEX
        self._set_offsets = np.zeros(1, dtype=np.int64)
        self._tag_array = _EMPTY_INDEX
        self._inverted_sets = _EMPTY_INDEX
        self._key_offsets = np.zeros(1, dtype=np.int64)  # allocated in _ensure_csr
        self._membership_counts: Optional[np.ndarray] = None

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
        index = len(self._sets)
        self._sets.append(members)
        self._tags.append(int(advertiser))
        self._total_size += int(members.size)
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
        CSR view + inverted index are built straight from the flat arrays —
        no per-set ``add`` calls, no intermediate Python-list round-trip.
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

        Validation is vectorised over each shard (node-id range, tag range,
        non-empty sets, strictly increasing members within every set).  When
        the collection was empty the CSR view and inverted index are built
        eagerly from the concatenated shard arrays; when appending to a
        non-empty collection the cached view is invalidated and rebuilt
        lazily on the next query, like :meth:`add`.
        """
        was_empty = not self._sets
        flats: List[np.ndarray] = []
        size_parts: List[np.ndarray] = []
        tag_parts: List[np.ndarray] = []
        for members, sizes, tags in shards:
            members = np.ascontiguousarray(members, dtype=np.int64)
            sizes = np.asarray(sizes, dtype=np.int64)
            tags = np.asarray(tags, dtype=np.int64)
            if sizes.shape != tags.shape or sizes.ndim != 1:
                raise SamplingError("sizes and tags must be 1-D arrays of equal length")
            if int(sizes.sum()) != members.size:
                raise SamplingError("sizes must sum to the member-array length")
            if sizes.size == 0:
                continue
            if sizes.min() <= 0:
                raise SamplingError("an RR-set always contains at least its root")
            if tags.min() < 0 or tags.max() >= self._num_advertisers:
                raise SamplingError("advertiser tag out of range")
            if members.min() < 0 or members.max() >= self._num_nodes:
                raise SamplingError("RR-set contains invalid node ids")
            if members.size > 1:
                # Strictly increasing within each set: non-positive diffs are
                # only allowed at set boundaries.
                non_increasing = np.diff(members) <= 0
                boundaries = np.cumsum(sizes[:-1]) - 1
                non_increasing[boundaries] = False
                if non_increasing.any():
                    raise SamplingError("RR-set members must be sorted and unique")
            flats.append(members)
            size_parts.append(sizes)
            tag_parts.append(tags)
        if not flats:
            return
        # Fresh buffers in both branches (concatenate always copies) for the
        # arrays _build_csr freezes, so a caller's array never has its write
        # flag flipped.
        flat = flats[0].copy() if len(flats) == 1 else np.concatenate(flats)
        sizes = size_parts[0] if len(size_parts) == 1 else np.concatenate(size_parts)
        tags = tag_parts[0].copy() if len(tag_parts) == 1 else np.concatenate(tag_parts)
        # The list API (rr_set / add interleaving) stays available: per-set
        # views into the flat buffer, no per-element copies.  Freeze the
        # buffer first so the views are read-only — they share storage with
        # the CSR member array.
        flat.setflags(write=False)
        self._sets.extend(split_by_sizes(flat, sizes))
        self._tags.extend(tags.tolist())
        self._total_size += int(flat.size)
        if was_empty:
            self._build_csr(flat, sizes, tags)
        else:
            self._csr_size = -1

    def compact(
        self,
        replacements: Optional[Mapping[int, Tuple[Sequence[int], int]]] = None,
        drop: Iterable[int] = (),
    ) -> "RRCollection":
        """Tombstone-aware compaction: rebuild the collection on the flat layout.

        ``drop`` tombstones RR-set indices out of the result; ``replacements``
        maps indices to ``(members, advertiser)`` pairs substituted in place.
        Surviving sets keep their relative order (replaced sets keep their
        exact index when nothing is dropped), so an incremental store that
        replaces invalidated sets slot-for-slot stays index-aligned with a
        freshly generated collection.  The result is built through the
        :meth:`extend_from_shards` flat-array path — one concatenation, one
        eager CSR/inverted-index build, no per-set ``add`` calls.
        """
        count = len(self._sets)
        drop_set = {int(index) for index in drop}
        for index in drop_set:
            if not 0 <= index < count:
                raise SamplingError(f"drop index {index} out of range")
        normalized: dict = {}
        if replacements:
            for index, (members, advertiser) in replacements.items():
                index = int(index)
                if not 0 <= index < count:
                    raise SamplingError(f"replacement index {index} out of range")
                if index in drop_set:
                    raise SamplingError(
                        f"index {index} cannot be both dropped and replaced"
                    )
                normalized[index] = (
                    np.unique(np.asarray(members, dtype=np.int64)),
                    int(advertiser),
                )
        kept: List[np.ndarray] = []
        sizes: List[int] = []
        tags: List[int] = []
        for index in range(count):
            if index in drop_set:
                continue
            members, tag = normalized.get(index, (None, None))
            if members is None:
                members, tag = self._sets[index], self._tags[index]
            kept.append(members)
            sizes.append(int(members.size))
            tags.append(int(tag))
        compacted = RRCollection(self._num_nodes, self._num_advertisers)
        flat = np.concatenate(kept) if kept else _EMPTY_INDEX
        compacted.extend_from_shards(
            [(
                flat,
                np.asarray(sizes, dtype=np.int64),
                np.asarray(tags, dtype=np.int64),
            )]
        )
        return compacted

    def _ensure_csr(self) -> None:
        """(Re)build the frozen CSR view and inverted index if stale."""
        count = len(self._sets)
        if self._csr_size == count:
            return
        sizes = np.fromiter((s.size for s in self._sets), dtype=np.int64, count=count)
        flat = (
            np.concatenate(self._sets) if count else _EMPTY_INDEX
        ).astype(np.int64, copy=False)
        tags = np.asarray(self._tags, dtype=np.int64)
        self._build_csr(flat, sizes, tags)

    def _build_csr(self, flat: np.ndarray, sizes: np.ndarray, tags: np.ndarray) -> None:
        """Build the CSR view + inverted index from pre-flattened arrays."""
        count = int(sizes.size)
        if self._num_advertisers * self._num_nodes * count > _INT64_MAX:
            raise SamplingError(
                f"{count} RR-sets over {self._num_advertisers}×{self._num_nodes} "
                "(advertiser, node) keys overflow the int64 inverted-index keys"
            )
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        keys = np.repeat(tags, sizes) * self._num_nodes + flat
        # One plain sort of the unique composite keys key·count + set index
        # orders the entries by key and, within a key, by ascending RR-set
        # index — the append order of the seed implementation's per-node
        # lists, which a stable argsort of the keys would also give.
        composite = keys * count
        composite += np.repeat(np.arange(count, dtype=np.int64), sizes)
        composite.sort()
        composite %= max(count, 1)
        self._member_array = flat
        self._set_offsets = offsets
        self._tag_array = tags
        self._inverted_sets = composite
        # Keys are dense ints in [0, h·n), so one bincount yields both the
        # membership-count matrix and the per-key slice offsets — queries
        # become plain indexing, no per-query searchsorted.
        counts = np.bincount(keys, minlength=self._num_advertisers * self._num_nodes)
        self._membership_counts = counts.reshape(self._num_advertisers, self._num_nodes)
        key_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=key_offsets[1:])
        self._key_offsets = key_offsets
        # The query API hands out views of these arrays; freeze them so an
        # in-place caller mutation cannot corrupt the shared index.
        for array in (self._member_array, self._set_offsets, self._tag_array,
                      self._inverted_sets, self._membership_counts):
            array.setflags(write=False)
        self._csr_size = count

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._sets)

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
        return self._total_size

    def rr_set(self, index: int) -> np.ndarray:
        """The node members of RR-set ``index`` (sorted, unique)."""
        return self._sets[index]

    def tag(self, index: int) -> int:
        """The advertiser tag of RR-set ``index``."""
        return self._tags[index]

    def tags(self) -> np.ndarray:
        """All advertiser tags as an array aligned with RR-set indices."""
        return np.asarray(self._tags, dtype=np.int64)

    def count_per_advertiser(self) -> np.ndarray:
        """Number of RR-sets tagged with each advertiser."""
        return np.bincount(
            np.asarray(self._tags, dtype=np.int64), minlength=self._num_advertisers
        )

    # -- CSR view ------------------------------------------------------- #
    @property
    def member_array(self) -> np.ndarray:
        """All RR-set members concatenated (CSR values; triggers a lazy build)."""
        self._ensure_csr()
        return self._member_array

    @property
    def set_offsets(self) -> np.ndarray:
        """CSR offsets into :attr:`member_array`, length ``len(self) + 1``."""
        self._ensure_csr()
        return self._set_offsets

    @property
    def tag_array(self) -> np.ndarray:
        """Advertiser tag per RR-set as an int64 array (CSR view)."""
        self._ensure_csr()
        return self._tag_array

    def set_sizes(self) -> np.ndarray:
        """Cardinality of every RR-set."""
        return np.diff(self.set_offsets)

    def membership_counts(self) -> np.ndarray:
        """The ``(h, n)`` matrix counting RR-sets tagged ``i`` containing ``u``.

        Equals the initial marginal matrix of :class:`CoverageState`; computed
        by one ``np.bincount`` during the CSR build and cached until the next
        ``add``.
        """
        self._ensure_csr()
        return self._membership_counts

    def sets_containing_array(self, advertiser: int, node: int) -> np.ndarray:
        """Indices of RR-sets tagged ``advertiser`` containing ``node`` (sorted array).

        Returns a read-only slice of the inverted index — no copies on the
        greedy hot path.
        """
        if not (0 <= node < self._num_nodes and 0 <= advertiser < self._num_advertisers):
            return _EMPTY_INDEX
        if self._csr_size != len(self._sets):
            self._ensure_csr()
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
        return self._total_size * 8 + len(self._sets) * 64


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
        collection = self._collection
        containing = collection.sets_containing_array(advertiser, int(node))
        if containing.size == 0:
            return 0
        fresh = containing[~self._covered[containing]]
        newly_covered = int(fresh.size)
        if newly_covered == 0:
            return 0
        self._covered[fresh] = True
        # Gather the members of every newly covered RR-set from the CSR view
        # and decrement their (tag, member) marginals in one scatter-add.
        offsets = collection.set_offsets
        sizes = offsets[fresh + 1] - offsets[fresh]
        total = int(sizes.sum())
        ends = np.cumsum(sizes)
        gather = np.repeat(offsets[fresh] - (ends - sizes), sizes) + np.arange(total)
        members = collection.member_array[gather]
        tags = np.repeat(collection.tag_array[fresh], sizes)
        np.subtract.at(self._marginal, tags * self._num_nodes + members, 1)
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
