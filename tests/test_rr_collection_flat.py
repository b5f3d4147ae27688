"""The flat, append-only ``RRCollection`` equals a one-shot build.

``RRCollection`` keeps its sets only as flat ``(members, offsets, tags)``
arrays and merges each appended block's inverted index into the old one
instead of rebuilding it.  Whatever sequence of ``add``,
``extend_from_shards``, queries and ``compact`` calls produced a
collection, its arrays — ``member_array``, ``set_offsets``, ``tag_array``,
``membership_counts``, the inverted index and its key offsets — must equal
those of the same sets built at once, and ``compact`` must splice exactly
what the list-based reference (``tests/reference/rr_collection.py``) keeps.
The last test grows a collection on the worker pool, round by round.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.models import WeightedCascadeModel
from repro.exceptions import SamplingError
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy, Runtime
from reference.rr_collection import ListCollection, one_shot_index


def assert_equals_one_shot_build(collection: RRCollection, model: ListCollection) -> None:
    """Every array of ``collection`` equals a one-shot build of ``model``'s sets."""
    members, sizes, tags = model.flat()
    inverted, key_offsets, counts = one_shot_index(
        members, sizes, tags, model.num_nodes, model.num_advertisers
    )
    assert len(collection) == len(model.sets)
    assert collection.total_size == members.size
    assert np.array_equal(collection.member_array, members)
    assert np.array_equal(collection.set_offsets, np.concatenate(([0], np.cumsum(sizes))))
    assert np.array_equal(collection.tag_array, tags)
    assert np.array_equal(collection.membership_counts(), counts)
    assert np.array_equal(collection._inverted_sets, inverted)
    assert np.array_equal(collection._key_offsets, key_offsets)
    assert np.array_equal(
        collection.count_per_advertiser(), np.bincount(tags, minlength=model.num_advertisers)
    )
    for index, (rr_set, tag) in enumerate(zip(model.sets, model.tags)):
        assert np.array_equal(collection.rr_set(index), rr_set)
        assert collection.tag(index) == tag
    for array in (collection.member_array, collection._inverted_sets, collection.tag_array):
        assert array.dtype == np.int64 and not array.flags.writeable


def _sets(draw, n: int, h: int, max_size: int):
    """``(set, tag)`` pairs: non-empty, sorted, duplicate-free sets."""
    return draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted),
                st.integers(0, h - 1),
            ),
            max_size=max_size,
        )
    )


def _shard(pairs):
    sizes = np.array([len(rr_set) for rr_set, _ in pairs], dtype=np.int64)
    members = np.array([node for rr_set, _ in pairs for node in rr_set], dtype=np.int64)
    return members, sizes, np.array([tag for _, tag in pairs], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_sequence_of_appends_and_compactions_equals_a_one_shot_build(data):
    n = data.draw(st.integers(1, 12), label="n")
    h = data.draw(st.integers(1, 4), label="h")
    collection = RRCollection(n, h)
    model = ListCollection(n, h)
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        step = data.draw(st.sampled_from(["add", "extend", "query", "compact"]))
        if step == "add":
            for rr_set, tag in _sets(data.draw, n, h, 4):
                # Unsorted input with duplicates: add normalises it.
                collection.add(list(reversed(rr_set)) + rr_set[:1], tag)
                model.add(rr_set, tag)
        elif step == "extend":
            shards = [
                _shard(_sets(data.draw, n, h, 6))
                for _ in range(data.draw(st.integers(0, 3)))
            ]
            collection.extend_from_shards(shards)
            model.extend_from_shards(shards)
        elif step == "query":
            assert_equals_one_shot_build(collection, model)
        else:
            count = len(model.sets)
            fates = data.draw(
                st.lists(st.sampled_from(["keep", "drop", "replace"]), min_size=count, max_size=count)
            )
            fresh = _sets(data.draw, n, h, fates.count("replace"))
            replaced = [index for index, fate in enumerate(fates) if fate == "replace"]
            replacements = dict(zip(replaced, fresh))
            drop = [index for index, fate in enumerate(fates) if fate == "drop"]
            collection = collection.compact(replacements=replacements, drop=drop)
            model = model.compact(replacements=replacements, drop=drop)
    assert_equals_one_shot_build(collection, model)


def test_an_append_keeps_the_old_index_arrays_intact():
    """Arrays a caller read before an append still describe the old sets."""
    collection = RRCollection(4, 2)
    collection.extend_from_shards([_shard([([0, 1], 0), ([1, 3], 1)])])
    old = collection.sets_containing_array(0, 1), collection.member_array
    collection.extend_from_shards([_shard([([1], 0), ([2, 3], 1)])])
    assert old[0].tolist() == [0] and old[1].tolist() == [0, 1, 1, 3]
    assert collection.sets_containing_array(0, 1).tolist() == [0, 2]
    assert collection.sets_containing_array(1, 3).tolist() == [1, 3]


def test_compact_matches_the_list_reference_on_out_of_order_replacements():
    model = ListCollection(6, 2)
    for rr_set, tag in [([0, 1], 0), ([2], 1), ([3, 4, 5], 0), ([1, 5], 1), ([0], 0)]:
        model.add(rr_set, tag)
    collection = RRCollection.from_shards(6, 2, [model.flat()])
    replacements = {3: ([5, 2, 2], 0), 0: ([4], 1)}
    assert_equals_one_shot_build(
        collection.compact(replacements=replacements, drop=[2, 2]),
        model.compact(replacements=replacements, drop=[2]),
    )


def test_compact_rejects_an_empty_replacement():
    collection = RRCollection.from_shards(3, 1, [_shard([([0], 0), ([1, 2], 0)])])
    with pytest.raises(SamplingError, match="at least its root"):
        collection.compact(replacements={1: ([], 0)})


def test_a_collection_grown_on_the_pool_equals_one_drawn_at_once(pool_from_slots):
    """RMA's doubling rounds: slot blocks drawn on the worker pool and merged
    into a queried collection equal one block of all the same slots."""
    graph = preferential_attachment_digraph(80, out_degree=3, seed=4)
    probabilities = [
        np.asarray(WeightedCascadeModel(graph).edge_probabilities(), dtype=np.float64)
    ] * 3
    pool_from_slots(graph, slots=64)
    policy = ExecutionPolicy.fast(n_jobs=2)
    with Runtime(policy) as runtime:
        sampler = UniformRRSampler(
            graph, probabilities, [1.0, 2.0, 3.0], seed=6, policy=policy, runtime=runtime
        )
        grown = sampler.generate_collection(64)
        for count in (64, 128, 256):
            grown.membership_counts()
            sampler.generate_collection(count, into=grown)
        assert runtime.pool_spawn_count == 1
    whole = UniformRRSampler(
        graph, probabilities, [1.0, 2.0, 3.0], seed=6, policy=ExecutionPolicy.fast(n_jobs=1)
    ).generate_collection(512)
    model = ListCollection(graph.num_nodes, 3)
    model.extend_from_shards([(whole.member_array, whole.set_sizes(), whole.tag_array)])
    assert_equals_one_shot_build(grown, model)
