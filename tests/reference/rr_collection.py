"""The list-based RR-set collection — the reference for the flat collection.

:class:`ListCollection` keeps one array per RR-set and one tag per set, as
the library collection once did.  Its :meth:`~ListCollection.compact` is
the per-set loop the library's vectorized splice replaced, and
:func:`one_shot_index` is the whole-collection inverted-index build that
every append once repeated.  ``tests/test_rr_collection_flat.py`` checks
that any sequence of appends, queries and compactions of a
:class:`repro.rrsets.collection.RRCollection` leaves exactly these arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def one_shot_index(
    members: np.ndarray,
    sizes: np.ndarray,
    tags: np.ndarray,
    num_nodes: int,
    num_advertisers: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(inverted_sets, key_offsets, membership_counts)`` of the sets, built
    at once: one sort of the composite keys ``(tag·n + node)·count + set``."""
    count = int(sizes.size)
    keys = np.repeat(tags, sizes) * num_nodes + members
    composite = keys * count + np.repeat(np.arange(count, dtype=np.int64), sizes)
    composite.sort()
    composite %= max(count, 1)
    counts = np.bincount(keys, minlength=num_advertisers * num_nodes)
    key_offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=key_offsets[1:])
    return composite, key_offsets, counts.reshape(num_advertisers, num_nodes)


class ListCollection:
    """Tagged RR-sets as a Python list of sorted, duplicate-free arrays."""

    def __init__(self, num_nodes: int, num_advertisers: int):
        self.num_nodes = num_nodes
        self.num_advertisers = num_advertisers
        self.sets: List[np.ndarray] = []
        self.tags: List[int] = []

    def add(self, rr_set: Sequence[int], advertiser: int) -> None:
        self.sets.append(np.unique(np.asarray(rr_set, dtype=np.int64)))
        self.tags.append(int(advertiser))

    def extend_from_shards(
        self, shards: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        for members, sizes, tags in shards:
            bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
            for lo, hi, tag in zip(bounds[:-1], bounds[1:], np.asarray(tags).tolist()):
                self.add(members[lo:hi], tag)

    def compact(
        self,
        replacements: Optional[Mapping[int, Tuple[Sequence[int], int]]] = None,
        drop: Iterable[int] = (),
    ) -> "ListCollection":
        """The surviving sets in order, replaced sets swapped in place."""
        drop_set = {int(index) for index in drop}
        normalized: Dict[int, Tuple[np.ndarray, int]] = {
            int(index): (np.unique(np.asarray(members, dtype=np.int64)), int(advertiser))
            for index, (members, advertiser) in (replacements or {}).items()
        }
        compacted = ListCollection(self.num_nodes, self.num_advertisers)
        for index in range(len(self.sets)):
            if index in drop_set:
                continue
            members, tag = normalized.get(index, (self.sets[index], self.tags[index]))
            compacted.sets.append(members)
            compacted.tags.append(tag)
        return compacted

    def flat(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(members, sizes, tags)`` of every set, concatenated."""
        sizes = np.array([s.size for s in self.sets], dtype=np.int64)
        members = np.concatenate(self.sets) if self.sets else np.empty(0, dtype=np.int64)
        return members, sizes, np.array(self.tags, dtype=np.int64)
