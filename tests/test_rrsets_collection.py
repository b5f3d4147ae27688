"""Tests for RRCollection and CoverageState."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SamplingError
from repro.rrsets.collection import CoverageState, RRCollection


@pytest.fixture
def collection():
    """A small hand-built collection over 5 nodes and 2 advertisers."""
    coll = RRCollection(num_nodes=5, num_advertisers=2)
    coll.add([0, 1], advertiser=0)
    coll.add([1, 2], advertiser=0)
    coll.add([3], advertiser=1)
    coll.add([2, 3, 4], advertiser=1)
    return coll


class TestRRCollection:
    def test_len_and_total_size(self, collection):
        assert len(collection) == 4
        assert collection.total_size == 8

    def test_tags(self, collection):
        assert collection.tags().tolist() == [0, 0, 1, 1]
        assert collection.tag(2) == 1

    def test_count_per_advertiser(self, collection):
        assert collection.count_per_advertiser().tolist() == [2, 2]

    def test_sets_containing(self, collection):
        assert collection.sets_containing(0, 1) == [0, 1]
        assert collection.sets_containing(1, 3) == [2, 3]
        assert collection.sets_containing(0, 3) == []

    def test_coverage_count(self, collection):
        assert collection.coverage_count(0, [1]) == 2
        assert collection.coverage_count(0, [0, 2]) == 2
        assert collection.coverage_count(1, [4]) == 1
        assert collection.coverage_count(1, []) == 0

    def test_rr_set_members_are_unique_and_sorted(self):
        coll = RRCollection(4, 1)
        coll.add([2, 2, 0], advertiser=0)
        assert coll.rr_set(0).tolist() == [0, 2]

    def test_invalid_tag_rejected(self):
        coll = RRCollection(4, 1)
        with pytest.raises(SamplingError):
            coll.add([0], advertiser=5)

    def test_invalid_node_rejected(self):
        coll = RRCollection(4, 1)
        with pytest.raises(SamplingError):
            coll.add([9], advertiser=0)

    def test_empty_rr_set_rejected(self):
        coll = RRCollection(4, 1)
        with pytest.raises(SamplingError):
            coll.add([], advertiser=0)

    def test_extend(self):
        coll = RRCollection(4, 2)
        coll.extend([([0], 0), ([1, 2], 1)])
        assert len(coll) == 2

    def test_memory_proxy_positive(self, collection):
        assert collection.memory_proxy_bytes() > 0

    def test_invalid_construction(self):
        with pytest.raises(SamplingError):
            RRCollection(0, 1)
        with pytest.raises(SamplingError):
            RRCollection(5, 0)


class TestShardAndCompactAPI:
    def _empty_shard(self):
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty.copy(), empty.copy())

    def test_extend_from_shards_skips_zero_length_shards(self):
        coll = RRCollection(5, 2)
        coll.extend_from_shards([self._empty_shard()])
        assert len(coll) == 0
        coll.extend_from_shards(
            [
                self._empty_shard(),
                (
                    np.array([0, 1, 2], dtype=np.int64),
                    np.array([2, 1], dtype=np.int64),
                    np.array([0, 1], dtype=np.int64),
                ),
                self._empty_shard(),
            ]
        )
        assert len(coll) == 2
        assert coll.rr_set(0).tolist() == [0, 1]
        assert coll.rr_set(1).tolist() == [2]
        assert coll.tags().tolist() == [0, 1]

    def test_extend_from_shards_rejects_empty_member_sets(self):
        coll = RRCollection(5, 2)
        with pytest.raises(SamplingError):
            coll.extend_from_shards(
                [
                    (
                        np.array([0], dtype=np.int64),
                        np.array([1, 0], dtype=np.int64),
                        np.array([0, 0], dtype=np.int64),
                    )
                ]
            )

    def test_extend_from_shards_rejects_mismatched_sizes(self):
        with pytest.raises(SamplingError):
            RRCollection(5, 2).extend_from_shards(
                [
                    (
                        np.array([0, 1], dtype=np.int64),
                        np.array([1], dtype=np.int64),
                        np.array([0], dtype=np.int64),
                    )
                ]
            )

    def test_compact_drop_preserves_order(self, collection):
        compacted = collection.compact(drop=[1, 3])
        assert len(compacted) == 2
        assert compacted.rr_set(0).tolist() == [0, 1]
        assert compacted.rr_set(1).tolist() == [3]
        assert compacted.tags().tolist() == [0, 1]

    def test_compact_replace_keeps_indices(self, collection):
        compacted = collection.compact(replacements={1: ([4, 0], 1)})
        assert len(compacted) == len(collection)
        assert compacted.rr_set(1).tolist() == [0, 4]
        assert compacted.tag(1) == 1
        for index in (0, 2, 3):
            assert compacted.rr_set(index).tolist() == collection.rr_set(index).tolist()
            assert compacted.tag(index) == collection.tag(index)

    def test_compact_rebuilds_inverted_index(self, collection):
        compacted = collection.compact(drop=[0])
        # Old set 1 ([1, 2], advertiser 0) is now index 0.
        assert compacted.sets_containing(0, 1) == [0]
        assert compacted.sets_containing(0, 0) == []

    def test_compact_validation(self, collection):
        with pytest.raises(SamplingError):
            collection.compact(drop=[99])
        with pytest.raises(SamplingError):
            collection.compact(replacements={99: ([0], 0)})
        with pytest.raises(SamplingError):
            collection.compact(drop=[1], replacements={1: ([0], 0)})

    def test_compact_everything_dropped_is_empty(self, collection):
        compacted = collection.compact(drop=range(len(collection)))
        assert len(compacted) == 0


@st.composite
def tagged_collections(draw):
    """``(n, h, sets, tags)``: sorted, duplicate-free sets over ``n`` nodes."""
    n = draw(st.integers(1, 12))
    h = draw(st.integers(1, 4))
    count = draw(st.integers(1, 30))
    sets = [
        sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        for _ in range(count)
    ]
    tags = [draw(st.integers(0, h - 1)) for _ in range(count)]
    return n, h, sets, tags


class TestInvertedIndex:
    """The one-sort inverted index against a stable-argsort reference."""

    @staticmethod
    def _reference(n, h, sets, tags):
        sizes = np.array([len(s) for s in sets], dtype=np.int64)
        flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in sets])
        keys = np.repeat(np.asarray(tags, dtype=np.int64), sizes) * n + flat
        order = np.argsort(keys, kind="stable")
        inverted = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)[order]
        counts = np.bincount(keys, minlength=h * n)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return inverted, offsets, counts.reshape(h, n)

    def _check(self, n, h, sets, tags):
        inverted, offsets, counts = self._reference(n, h, sets, tags)
        built = [RRCollection(n, h), RRCollection(n, h)]
        for rr_set, tag in zip(sets, tags):
            built[0].add(rr_set, tag)  # lazy build through _ensure_csr
        sizes = np.array([len(s) for s in sets], dtype=np.int64)
        built[1].extend_from_shards(
            [(np.concatenate([np.asarray(s) for s in sets]), sizes, np.asarray(tags))]
        )
        for collection in built:
            np.testing.assert_array_equal(collection.membership_counts(), counts)
            np.testing.assert_array_equal(collection._inverted_sets, inverted)
            np.testing.assert_array_equal(collection._key_offsets, offsets)
            for key in range(h * n):
                advertiser, node = divmod(key, n)
                np.testing.assert_array_equal(
                    collection.sets_containing_array(advertiser, node),
                    inverted[offsets[key]: offsets[key + 1]],
                )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tagged_collections())
    def test_matches_stable_argsort(self, case):
        self._check(*case)

    def test_single_set(self):
        self._check(6, 2, [[0, 2, 5]], [1])

    def test_single_node(self):
        self._check(1, 3, [[0]] * 5, [2, 0, 2, 1, 2])

    def test_overflowing_keys_rejected(self):
        # h·n·count = 2·2^62·2 = 2^64 composite keys do not fit in int64.
        collection = RRCollection(num_nodes=1 << 62, num_advertisers=2)
        with pytest.raises(SamplingError, match="overflow"):
            collection.extend_from_shards(
                [(np.array([0, 5], dtype=np.int64), np.array([1, 1]), np.array([0, 1]))]
            )


class TestCoverageState:
    def test_initial_marginals_match_membership(self, collection):
        state = CoverageState(collection)
        assert state.marginal_coverage(0, 1) == 2
        assert state.marginal_coverage(1, 3) == 2
        assert state.marginal_coverage(0, 4) == 0

    def test_add_seed_covers_sets(self, collection):
        state = CoverageState(collection)
        newly = state.add_seed(0, 1)
        assert newly == 2
        assert state.covered_count == 2
        assert state.covered_count_for(0) == 2
        assert state.is_covered(0) and state.is_covered(1)

    def test_marginals_decrease_after_seed(self, collection):
        state = CoverageState(collection)
        state.add_seed(0, 1)
        # Node 2 appeared in RR-set 1 (advertiser 0), now covered.
        assert state.marginal_coverage(0, 2) == 0
        # Advertiser 1 marginals untouched.
        assert state.marginal_coverage(1, 2) == 1

    def test_adding_same_seed_twice_adds_nothing(self, collection):
        state = CoverageState(collection)
        state.add_seed(0, 1)
        assert state.add_seed(0, 1) == 0

    def test_copy_is_independent(self, collection):
        state = CoverageState(collection)
        clone = state.copy()
        state.add_seed(0, 1)
        assert clone.covered_count == 0
        assert clone.marginal_coverage(0, 1) == 2

    def test_covered_count_never_exceeds_collection_size(self, collection):
        state = CoverageState(collection)
        for node in range(5):
            for advertiser in range(2):
                state.add_seed(advertiser, node)
        assert state.covered_count == len(collection)


@st.composite
def _seed_batches(draw):
    """A random tagged collection and a few (advertiser, nodes) batches,
    some repeating nodes or re-seeding covered sets."""
    n = draw(st.integers(1, 15))
    h = draw(st.integers(1, 4))
    sets = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
                st.integers(0, h - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    batches = draw(
        st.lists(
            st.tuples(st.integers(0, h - 1), st.lists(st.integers(0, n - 1), max_size=2 * n)),
            max_size=6,
        )
    )
    return n, h, sets, batches


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_seed_batches())
def test_add_seeds_equals_one_add_seed_per_node(case):
    """One scatter per batch leaves the state exactly as one ``add_seed``
    per node: marginals, covered mask and counts, batch by batch."""
    n, h, sets, batches = case
    collection = RRCollection(num_nodes=n, num_advertisers=h)
    for members, tag in sets:
        collection.add(members, advertiser=tag)
    batched, sequential = CoverageState(collection), CoverageState(collection)
    for advertiser, nodes in batches:
        newly = batched.add_seeds(advertiser, nodes)
        assert newly == sum(sequential.add_seed(advertiser, node) for node in nodes)
        assert np.array_equal(batched.marginal_matrix(), sequential.marginal_matrix())
        assert np.array_equal(batched._covered, sequential._covered)
        assert batched.covered_count == sequential.covered_count
        for tag in range(h):
            assert batched.covered_count_for(tag) == sequential.covered_count_for(tag)
