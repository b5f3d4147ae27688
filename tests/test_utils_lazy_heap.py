"""Tests for the lazy-greedy heap, including equivalence with an eager arg-max."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.lazy_heap import BatchedLazyGreedy


def _heap(values, batch_size=64):
    """A heap whose evaluator reads the current ``values`` table."""
    return BatchedLazyGreedy(
        lambda keys: np.array([values[int(key)] for key in keys], dtype=np.float64),
        batch_size=batch_size,
    )


def _keys(values):
    return np.fromiter(values, dtype=np.int64, count=len(values))


class TestBasicOperations:
    def test_pop_returns_largest(self):
        values = {0: 1.0, 1: 5.0, 2: 3.0}
        heap = _heap(values)
        heap.push_array(_keys(values))
        assert heap.pop_best()[0] == 1

    def test_pop_order_is_descending_when_static(self):
        values = {0: 1.0, 1: 5.0, 2: 3.0}
        heap = _heap(values)
        heap.push_array(_keys(values))
        order = [heap.pop_best()[0] for _ in range(3)]
        assert order == [1, 2, 0]

    def test_empty_heap_returns_none(self):
        heap = _heap({})
        assert heap.pop_best() is None

    def test_len_and_contains(self):
        values = {7: 1.0}
        heap = _heap(values)
        heap.push_array(_keys(values))
        assert len(heap) == 1
        assert 7 in heap
        heap.pop_best()
        assert len(heap) == 0
        assert 7 not in heap

    def test_remove_skips_key(self):
        values = {0: 1.0, 1: 5.0}
        heap = _heap(values)
        heap.push_array(_keys(values))
        heap.remove(1)
        assert heap.pop_best()[0] == 0

    def test_push_with_explicit_value(self):
        heap = _heap({0: 0.0})
        heap.push_array(np.array([0], dtype=np.int64), np.array([9.0]))
        key, value = heap.pop_best()
        assert key == 0
        assert value == 9.0
        assert heap.evaluation_calls == 0


class TestLazyRefresh:
    def test_stale_values_are_refreshed_after_round_advance(self):
        values = {0: 10.0, 1: 8.0}
        heap = _heap(values)
        heap.push_array(_keys(values))
        # Simulate submodular decay: key 0 loses most of its value.
        values[0] = 1.0
        heap.advance_round()
        assert heap.pop_best()[0] == 1

    def test_refresh_keeps_all_keys(self):
        values = {0: 10.0, 1: 8.0, 2: 6.0}
        heap = _heap(values)
        heap.push_array(_keys(values))
        values[0] = 0.0
        heap.advance_round()
        popped = {heap.pop_best()[0] for _ in range(3)}
        assert popped == {0, 1, 2}


@settings(max_examples=60, deadline=None)
@given(
    initial=st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    decays=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=12),
    batch_size=st.sampled_from([1, 4, 64]),
)
def test_lazy_selection_matches_eager_argmax(initial, decays, batch_size):
    """Lazy selection must equal an eager arg-max when values only decrease.

    This mirrors how the greedy algorithms use the heap: after every
    selection, the remaining values may shrink (submodularity) and the heap is
    told via ``advance_round``.
    """
    values = dict(initial)
    heap = _heap(values, batch_size)
    heap.push_array(_keys(values))

    eager_keys = set(values)
    selections_lazy = []
    selections_eager = []
    decay_iter = iter(decays * (len(values) // len(decays) + 1))

    for _ in range(len(initial)):
        popped = heap.pop_best()
        assert popped is not None
        selections_lazy.append(popped[0])

        best_eager = max(sorted(eager_keys), key=lambda key: (values[key]))
        selections_eager.append(best_eager)
        eager_keys.discard(best_eager)

        # Apply a uniform decay to every remaining value (keeps ordering
        # identical between the two strategies while still exercising
        # re-evaluation).
        factor = next(decay_iter)
        for key in eager_keys:
            values[key] *= factor
        heap.advance_round()

    lazy_values = sorted(initial[key] for key in selections_lazy)
    eager_values = sorted(initial[key] for key in selections_eager)
    assert np.allclose(lazy_values, eager_values)
