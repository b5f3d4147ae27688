"""The scalar lazy-greedy heap — the reference schedule for the library heap.

:class:`LazyMarginalHeap` is the textbook CELF heap over hashable keys: every
insert and every stale refresh is one Python callback.  The library runs all
greedy loops on :class:`repro.utils.lazy_heap.BatchedLazyGreedy`, which must
reproduce this heap's pop sequence tie for tie;
``tests/test_greedy_engine_equivalence.py`` compares the two.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Hashable, Iterable, Optional, Tuple, TypeVar

KeyT = TypeVar("KeyT", bound=Hashable)


@dataclass(order=True)
class HeapEntry(Generic[KeyT]):
    """Internal heap record; ordered by ``(-value, tiebreak)`` for a max-heap."""

    sort_key: Tuple[float, int]
    key: KeyT = field(compare=False)
    value: float = field(compare=False)
    round_evaluated: int = field(compare=False)


class LazyMarginalHeap(Generic[KeyT]):
    """Max-heap with lazy re-evaluation of marginal values.

    Parameters
    ----------
    evaluate:
        Callable returning the *current* marginal value of a key.  It is
        invoked at insert time and whenever a stale top-of-heap entry needs to
        be refreshed.
    """

    def __init__(self, evaluate: Callable[[KeyT], float]):
        self._evaluate = evaluate
        self._heap: list[HeapEntry[KeyT]] = []
        self._removed: set[KeyT] = set()
        self._round = 0
        self._counter = itertools.count()
        self._members: Dict[KeyT, float] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: KeyT) -> bool:
        return key in self._members

    def push(self, key: KeyT, value: Optional[float] = None) -> None:
        """Insert ``key``; if ``value`` is None it is computed via ``evaluate``."""
        if key in self._removed:
            self._removed.discard(key)
        actual = self._evaluate(key) if value is None else value
        entry = HeapEntry(
            sort_key=(-actual, next(self._counter)),
            key=key,
            value=actual,
            round_evaluated=self._round,
        )
        heapq.heappush(self._heap, entry)
        self._members[key] = actual

    def push_many(self, keys: Iterable[KeyT]) -> None:
        """Insert every key in ``keys`` with freshly evaluated values."""
        for key in keys:
            self.push(key)

    def remove(self, key: KeyT) -> None:
        """Mark ``key`` as removed; it will be skipped when it surfaces."""
        if key in self._members:
            del self._members[key]
            self._removed.add(key)

    def advance_round(self) -> None:
        """Signal that the underlying solution changed.

        Entries evaluated before this call are considered stale and will be
        re-evaluated when they reach the top of the heap.
        """
        self._round += 1

    def pop_best(self) -> Optional[Tuple[KeyT, float]]:
        """Pop the key with the largest *current* marginal value.

        Returns ``None`` when the heap is empty.  The popped key is removed
        from the heap; callers re-insert it if they decide not to use it.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            key = entry.key
            if key in self._removed:
                self._removed.discard(key)
                continue
            if key not in self._members:
                continue
            if entry.round_evaluated == self._round:
                del self._members[key]
                return key, entry.value
            # Stale: re-evaluate and push back.
            fresh = self._evaluate(key)
            refreshed = HeapEntry(
                sort_key=(-fresh, next(self._counter)),
                key=key,
                value=fresh,
                round_evaluated=self._round,
            )
            heapq.heappush(self._heap, refreshed)
            self._members[key] = fresh
        return None
