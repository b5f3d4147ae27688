"""Lazy-greedy (CELF-style) priority queue over int64-encoded elements.

The greedy algorithms in the paper repeatedly select the element with the
largest marginal gain (or marginal rate) of a monotone submodular function.
Because marginal gains only shrink as the solution grows, a stale upper bound
stored in a max-heap is still an upper bound; re-evaluating only the current
top element ("lazy evaluation", Leskovec et al. 2007 / CELF) gives exactly the
same selections as the eager arg-max while avoiding most re-evaluations.

:class:`BatchedLazyGreedy` is the one heap every greedy consumer runs on.
When a stale entry surfaces, it and up to ``batch_size - 1`` other stale
entries read in place from the shallow heap slots are refreshed with **one**
call to a vectorized ``batch_evaluate`` (for the RR-set consumers, a single
numpy gather against the ``(h, n)`` marginal matrix of
:class:`~repro.rrsets.collection.CoverageState`) instead of K Python
callback round-trips.  Bulk insertion (``push_array``) likewise evaluates the
whole candidate set in one call and heapifies once.

The heap *replays the plain CELF schedule exactly*: speculative batch
evaluations are cached, but each refresh is committed one entry at a time in
surfacing order with the counter sequence a one-at-a-time heap would assign,
so ties between equal values resolve by insertion order and the pop sequence
does not depend on ``batch_size`` — provided ``batch_evaluate`` is pure
(values only change together with ``advance_round``, which every greedy
consumer guarantees by advancing immediately after each accepted seed).
With ``batch_size=1`` only the surfacing entry is evaluated, which keeps
impure evaluators (a Monte-Carlo oracle drawing from a shared RNG) lazy and
in CELF order.  The test suite pins the schedule against a scalar reference
heap kept in ``tests/reference/lazy_heap.py``.

**Dead elements.**  A consumer may :meth:`~BatchedLazyGreedy.discard` keys
in bulk.  Removing an element the consumer would only ever reject leaves the
pop sequence of every other element unchanged: entries compare by their
unique ``(-value, counter)`` pair, so an entry that is never returned only
ever consumed counter values, never reordered the rest.  Which rejections
are permanent is the consumer's business (:mod:`repro.core.threshold_greedy`):

* ``Fill`` rejects ``(v, a)`` when ``v`` is assigned or when
  ``cost_a + c_a(v) + π_a(S_a) + π_a(v | S_a)`` exceeds ``B_a``.  Both are
  permanent: assignments are never undone, and that sum never decreases as
  ``S_a`` grows (cost is additive, ``π_a(S_a) + π_a(v | S_a) = π_a(S_a ∪ v)``
  is monotone).
* ``ThresholdGreedy`` rejects permanently when the rate
  ``ζ_a(v | S_a)`` falls below ``γ / B_a`` (rates only fall), when ``v`` is
  assigned, and every key of a depleted advertiser.  A budget overflow is
  *not* a rejection there: the overflowing element is parked as the
  stopple node ``D_a``, which changes the result, so it must surface.

Both loops drop dead elements only on an engine that declares ``pure``
evaluations (RR-set coverage: deterministic and non-increasing between
rounds).  A per-key oracle engine may draw from a shared RNG, so there every
element surfaces and is evaluated exactly as in a plain CELF loop.  The
floats of the budget sum accumulate rounding, so pruning keeps a small
relative margin; an element inside it survives and is rejected when popped.

**The zero tail.**  On a ``pure`` heap a marginal that reached 0 stays 0,
so zero-valued entries leave ``_heap`` for a FIFO and are never evaluated
again.  Zeros sort after every positive entry, by counter, and counters
are drawn in time order, so their round stamps never decrease along that
order: the zeros form a queue of a *stale* prefix (stamped before this
round) followed by the zeros stamped this round.  Once no positive entry
is left, a one-at-a-time heap would re-stamp the stale prefix, in order,
behind the current zeros and return the front.  The queue does the same
with one ``rotate`` by the stale count, which :meth:`advance_round` sets
to the queue's length (so a fully stale queue rotates onto itself).  A
refresh to 0, or a pushed 0, joins the back, as its new counter would put
it.  Zeros are therefore popped in exactly the plain CELF order, without
the O(k log k) re-stamping of all k zeros on every pop that returns one.

**The bulk tail.**  A consumer that pushes tens of thousands of keys and
pops a few hundred (TI-CARM) should not pay for a Python tuple per key.  A
bulk push of more than ``_PREFIX`` live keys keeps them as numpy arrays (the
*tail*) and moves only the best ``_PREFIX`` of them, chosen by one
``argpartition``, into ``_heap``.  A sentinel entry carrying the tail's
best ``(-value, counter)`` pair sits in ``_heap`` in its place; when it
surfaces, the next ``_PREFIX`` tail entries move in.  An entry therefore
reaches the heap before anything it sorts after is popped, and any valid
heap over the same entries pops them in the same order, so the tail leaves
the pop sequence unchanged.  A tail key gets its ``_members`` entry only
when it moves into ``_heap``: until then a boolean column marks it live,
and :meth:`~BatchedLazyGreedy.discard` finds tail keys through a sorted
copy of the tail's keys, built on the first discard that needs it.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice, repeat
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: live keys a bulk push turns into heap entries; the rest wait in the tail
_PREFIX = 2048
#: key of the sentinel entry standing for the tail (element keys are >= 0)
_TAIL = -1


class BatchedLazyGreedy:
    """Vectorized CELF heap over int64-encoded elements.

    Parameters
    ----------
    batch_evaluate:
        Callable mapping an int64 array of element keys to a float64 array of
        their *current* marginal values, evaluated in one vectorized pass.
        For the coverage consumers this is a fancy-index gather against the
        flat ``(h·n,)`` marginal matrix, so refreshing a batch of K stale
        candidates costs one numpy call instead of K Python round-trips.
    batch_size:
        Maximum number of stale entries refreshed per evaluation call.
    pure:
        ``batch_evaluate`` is side-effect free and its values are
        non-negative and never increase from one round to the next, so a
        zero is final: zero entries wait in the zero tail and are never
        evaluated again.

    ``advance_round`` marks every entry stale, ``pop_best`` returns the
    element with the largest current value, popped keys leave the heap, and
    exact value ties resolve by insertion order.  The schedule is the plain
    one-at-a-time CELF schedule whatever the batch size, because
    *speculation* is separated from *commitment*: when a stale entry
    surfaces, other stale candidates near the top of the heap are evaluated
    in the same vectorized call and cached, but each refresh is committed
    one entry at a time exactly when (and only when) a one-at-a-time heap
    would perform it, drawing the same counter sequence.  Speculative values
    the schedule never demands are simply discarded — evaluation is a pure
    gather, so over-evaluating costs vector width, not correctness.  On a
    ``pure`` heap, zero-valued entries wait in a FIFO zero tail instead of
    the heap (see the module docstring) and are popped in the same order.

    The purity contract: values returned by ``batch_evaluate`` may only
    change together with an ``advance_round`` call (every greedy consumer
    advances immediately after each accepted seed, so this holds).  The
    speculation cache is invalidated by ``advance_round``.

    The instrumentation counters ``evaluation_calls`` /
    ``elements_evaluated`` record how much callback traffic the batching
    saved; the benchmark reports them.
    """

    def __init__(
        self,
        batch_evaluate: Callable[[np.ndarray], np.ndarray],
        batch_size: int = 64,
        pure: bool = False,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._batch_evaluate = batch_evaluate
        self._batch_size = int(batch_size)
        self._pure = bool(pure)
        # Entries are plain tuples (-value, counter, key, round_evaluated):
        # tuple comparison gives the (-value, counter) max-heap order without
        # dataclass overhead on the hot path.  An entry whose key is no
        # longer in ``_members`` is dead and skipped when it surfaces.
        self._heap: List[Tuple[float, int, int, int]] = []
        # Pure heaps only: keys whose value is 0, in counter order; the
        # first ``_stale`` were stamped before the current round.
        self._zeros: Deque[int] = deque()
        self._stale = 0
        # Bulk-pushed entries not yet in ``_heap``, as parallel arrays
        # (-value, counter, key, round, live) in no particular order; a
        # discarded entry stays until a refill or compaction, marked dead.
        self._tail: Tuple[np.ndarray, ...] = ()
        self._tail_count = 0  # live tail entries
        # (argsort, sorted keys) of the tail's keys, built by _tail_positions.
        self._tail_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._members: Dict[int, float] = {}
        # Speculative evaluations for the current round: key -> value.
        self._pending: Dict[int, float] = {}
        self._round = 0
        self._next_counter = 0
        self.evaluation_calls = 0
        self.elements_evaluated = 0

    def __len__(self) -> int:
        return len(self._members) + self._tail_count

    def __contains__(self, key: int) -> bool:
        key = int(key)
        return key in self._members or bool(
            self._tail_count and self._tail_positions(np.array([key])).size
        )

    def _tail_positions(self, keys: np.ndarray) -> np.ndarray:
        """Tail positions of the live tail entries of ``keys`` (unique)."""
        tail_keys, live = self._tail[2], self._tail[4]
        if self._tail_index is None:
            order = np.argsort(tail_keys, kind="stable")
            self._tail_index = (order, tail_keys[order])
        order, sorted_keys = self._tail_index
        at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
        positions = np.unique(order[at[sorted_keys[at] == keys]])
        return positions[live[positions]]

    def _evaluate(self, keys: np.ndarray) -> np.ndarray:
        values = np.asarray(self._batch_evaluate(keys), dtype=np.float64)
        if values.shape != keys.shape:
            raise ValueError(
                f"batch_evaluate returned shape {values.shape} for {keys.shape} keys"
            )
        self.evaluation_calls += 1
        self.elements_evaluated += int(keys.size)
        return values

    def push_array(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> None:
        """Bulk-insert ``keys``; values come from one ``batch_evaluate`` call.

        When the heap is empty this heapifies once instead of pushing one
        entry at a time, and beyond ``_PREFIX`` live keys the rest wait in
        the bulk tail (see the module docstring).  Ties between equal values
        resolve by insertion order, exactly like one push per key; on a pure
        heap the zeros join the back of the zero tail in that order.
        """
        key_array = np.ascontiguousarray(keys, dtype=np.int64)
        if key_array.size == 0:
            return
        if values is None:
            values = self._evaluate(key_array)
        else:
            values = np.asarray(values, dtype=np.float64)
        base = self._next_counter
        self._next_counter = base + key_array.size
        counters = np.arange(base, self._next_counter, dtype=np.int64)
        if self._pure:
            zero = values == 0.0
            if zero.any():
                # Zeros join the tail in insertion order; the rest keep the
                # counters of their insertion positions.
                zero_keys = key_array[zero].tolist()
                self._zeros.extend(zero_keys)
                self._members.update(zip(zero_keys, values[zero].tolist()))
                live = ~zero
                key_array, values, counters = key_array[live], values[live], counters[live]
        if key_array.size > _PREFIX:
            size = key_array.size
            rounds = np.full(size, self._round, dtype=np.int64)
            fresh = (-values, counters, key_array, rounds, np.ones(size, dtype=bool))
            self._tail = tuple(map(np.concatenate, zip(self._tail, fresh))) if self._tail else fresh
            self._tail_count += size
            self._refill()
            return
        self._members.update(zip(key_array.tolist(), values.tolist()))
        entries = list(
            zip(
                (-values).tolist(),
                counters.tolist(),
                key_array.tolist(),
                repeat(self._round, key_array.size),
            )
        )
        if self._heap:
            for entry in entries:
                heapq.heappush(self._heap, entry)
        else:
            self._heap = entries
            heapq.heapify(self._heap)

    def _refill(self) -> None:
        """Move the best ``_PREFIX`` tail entries into the heap, then stand
        a sentinel for the best entry left in the tail.

        Moving entries early never reorders pops, so a sentinel left behind
        by a later push or refill only triggers an early refill."""
        if not self._tail:
            return
        tail = self._tail
        if self._tail_count < tail[0].size:
            tail = tuple(column[tail[4]] for column in tail)
        negated = tail[0]
        moved = np.zeros(negated.size, dtype=bool)
        if negated.size > _PREFIX:
            moved[np.argpartition(negated, _PREFIX - 1)[:_PREFIX]] = True
        else:
            moved[:] = True
        entries = [column[moved].tolist() for column in tail[:4]]
        self._members.update(zip(entries[2], (-negated[moved]).tolist()))
        heap = self._heap
        heap.extend(zip(*entries))
        self._tail = tuple(column[~moved] for column in tail)
        self._tail_count -= len(entries[2])
        self._tail_index = None
        self._stand_sentinel()
        heapq.heapify(heap)

    def _stand_sentinel(self) -> None:
        """Push the tail's best ``(-value, counter)`` as a ``_TAIL`` entry,
        or forget an empty tail."""
        if not self._tail_count:
            self._tail = ()
            return
        negated, counters, _, _, live = self._tail
        if self._tail_count < negated.size:
            negated, counters = negated[live], counters[live]
        best = negated.min()
        self._heap.append((float(best), int(counters[negated == best].min()), _TAIL, 0))

    def remove(self, key: int) -> None:
        """Remove ``key``; it will be skipped when it surfaces."""
        self.discard((key,))

    def discard(self, keys: Iterable[int]) -> None:
        """Remove every queued key in ``keys`` (keys not queued are ignored).

        Entries die lazily; once dead entries outnumber live ones the heap
        and the zero tail are compacted in one pass each.  That keeps the pop
        sequence: entries compare by their unique ``(-value, counter)`` pair,
        so any valid heap layout of the same entries pops them in the same
        order, and the zero tail keeps its order and its stale prefix.
        """
        members = self._members
        keys = np.asarray(keys, dtype=np.int64).tolist()
        elsewhere = [key for key in keys if members.pop(key, None) is None]
        if elsewhere and self._tail_count:
            positions = self._tail_positions(np.asarray(elsewhere, dtype=np.int64))
            self._tail[4][positions] = False
            self._tail_count -= int(positions.size)
        heap, zeros = self._heap, self._zeros
        queued = len(heap) + len(zeros) + (self._tail[0].size if self._tail else 0)
        if queued > 2 * len(self) + self._batch_size:
            heap[:] = [entry for entry in heap if entry[2] in members]
            if self._tail:
                live = self._tail[4]
                self._tail = tuple(column[live] for column in self._tail)
                self._tail_index = None
                self._stand_sentinel()
            heapq.heapify(heap)
            self._stale = sum(key in members for key in islice(zeros, self._stale))
            self._zeros = deque(key for key in zeros if key in members)

    def advance_round(self) -> None:
        """Signal that the underlying solution changed (stales every entry)."""
        self._round += 1
        self._pending.clear()
        self._stale = len(self._zeros)

    def _speculate(self, key: int) -> float:
        """Batch-evaluate ``key`` plus lookahead candidates; return its value.

        Called on a pending-cache miss.  Alongside ``key``, up to
        ``batch_size - 1`` stale entries are read in place from the first
        ``batch_size`` heap slots — the shallow levels, where the next
        entries to surface live — and evaluated in the same vectorized call,
        then cached for this round.  Nothing is popped or pushed: a cached
        value only becomes a committed refresh when the entry itself
        surfaces in :meth:`pop_best`, which is what keeps the schedule (and
        the tie-breaking counters) independent of the batch size.
        """
        batch = [key]
        if self._batch_size > 1:
            members, pending, current_round = self._members, self._pending, self._round
            for _negated, _counter, other, evaluated in self._heap[: self._batch_size]:
                if (
                    evaluated != current_round
                    and other in members
                    and other not in pending
                ):
                    batch.append(other)
                    if len(batch) == self._batch_size:
                        break
        keys = np.fromiter(batch, dtype=np.int64, count=len(batch))
        values = self._evaluate(keys)
        self._pending.update(zip(batch, values.tolist()))
        return self._pending[key]

    def pop_best(self) -> Optional[Tuple[int, float]]:
        """Pop the key with the largest current marginal value (or ``None``).

        Pop/skip/refresh decisions follow the one-at-a-time CELF heap step
        for step; only the *evaluations* are batched (see
        :meth:`_speculate`).  On a pure heap, refreshes to 0 join the zero
        tail, which is served in CELF order once ``_heap`` is exhausted.
        """
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        members, pending, pure = self._members, self._pending, self._pure
        while heap:
            entry = heappop(heap)
            key = entry[2]
            if key not in members:
                if key == _TAIL:
                    self._refill()
                continue  # discarded, or a superseded duplicate entry
            if entry[3] == self._round:
                del members[key]
                return key, -entry[0]
            # Stale: commit a refresh exactly like a one-at-a-time heap would.
            value = pending.get(key)
            if value is None:
                value = self._speculate(key)
            members[key] = value
            if pure and value == 0.0:
                self._zeros.append(key)
            else:
                heappush(heap, (-value, self._next_counter, key, self._round))
                self._next_counter += 1
        # Only zeros are left: re-stamp the stale prefix behind the current
        # zeros, then the front live key is the CELF pick.
        zeros = self._zeros
        zeros.rotate(-self._stale)
        self._stale = 0
        while zeros:
            key = zeros.popleft()
            if key in members:
                return key, members.pop(key)
        return None
