"""Slot-keyed RR-set draws: exactness of the hashed engine and ``n_jobs``-freedom.

Every RR-set of the ``fast()`` engine is a pure function of
``(entropy, slot)`` (:mod:`repro.rrsets.slots`).  This suite pins that
contract at each consumer:

1. **Exactness** — the level-synchronous traversal returns exactly the
   reverse-reachable set of the live-edge graph its coins define (checked
   against a plain BFS over the same coins), for any slot range or array.
2. **Split invariance** — slots ``[0, N/3)`` plus ``[N/3, N)`` reproduce
   ``[0, N)``, and successive ``generate_collection`` calls reproduce one.
3. **``n_jobs``-freedom** — ``UniformRRSampler`` collections, the TI pools,
   ``RRStore.generate`` / ``apply_deltas`` and full ``solve`` output are
   identical for ``n_jobs`` in ``{1, 2, 3, -1}`` and under
   ``REPRO_MAX_JOBS=1``.

The suite runs in the fork/spawn ``fault-tolerance`` CI matrix.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.baselines.ti_common import TIParameters, run_ti_baseline
from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
from repro.exceptions import SamplingError
from repro.graph import CSRDiGraph, preferential_attachment_digraph
from repro.graph.builders import from_edge_list
from repro.graph.deltas import AddEdge, MutableGraphView, UpdateProbability
from repro.parallel.executor import MAX_JOBS_ENV
from repro.rrsets import slots as slot_module
from repro.rrsets.generator import RRSetGenerator
from repro.rrsets.slots import HashedRRSampler, key_hashes, slot_hashes
from repro.rrsets.store import RRStore
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy, Runtime

#: ``n_jobs`` settings whose results must agree, plus the REPRO_MAX_JOBS=1
#: cap (a sharded layout executed in-process).
JOBS = (1, 2, 3, -1)


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_digraph(60, out_degree=3, seed=5)


@pytest.fixture(scope="module")
def probabilities(graph):
    rng = np.random.default_rng(8)
    return [rng.uniform(0.05, 0.5, graph.num_edges) for _ in range(3)]


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets.registry import build_dataset

    return build_dataset(
        "lastfm_like", num_advertisers=3, scale=0.15, seed=1, singleton_rr_sets=200
    )


def _weights():
    cpes = np.array([1.0, 2.0, 3.0])
    return cpes / cpes.sum()


def _brute_force(graph, probabilities, entropy, slot, weights):
    """Reverse BFS over the live-edge graph that slot ``slot``'s coins define."""
    n = graph.num_nodes
    h = len(probabilities)
    slot_hash = slot_hashes(entropy, np.array([slot]))
    root_u = slot_module._reserved_uniforms(slot_hash, slot_module._ROOT_KEY)[0]
    root = min(int(root_u * n), n - 1)
    tag = 0
    if h > 1:
        tag_u = slot_module._reserved_uniforms(slot_hash, slot_module._TAG_KEY)[0]
        tag = min(int(np.searchsorted(np.cumsum(weights), tag_u, side="right")), h - 1)
    sources, targets = graph.sources, graph.targets
    keys = (sources.astype(np.uint64) << np.uint64(32)) | targets.astype(np.uint64)
    coins = slot_module._coin_bits(
        np.repeat(slot_hash, graph.num_edges), key_hashes(keys)
    ).astype(np.float64) * slot_module._UNIT53
    live = coins < probabilities[tag]
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for edge in graph.in_edge_ids(node):
            source = int(sources[edge])
            if live[edge] and source not in seen:
                seen.add(source)
                queue.append(source)
    return sorted(seen), tag, root


# --------------------------------------------------------------------------- #
# 1-2. the hashed engine itself
# --------------------------------------------------------------------------- #
class TestHashedEngine:
    def test_matches_brute_force_live_edge_reachability(self, graph, probabilities):
        sampler = HashedRRSampler(graph, probabilities, _weights())
        slots = np.array([0, 1, 2, 7, 99, 1000, 123456], dtype=np.int64)
        drawn = sampler.draw(42, slots)
        sets = np.split(drawn.members, np.cumsum(drawn.sizes[:-1]))
        degrees = graph.in_degrees()
        for index, slot in enumerate(slots.tolist()):
            members, tag, root = _brute_force(graph, probabilities, 42, slot, _weights())
            assert sets[index].tolist() == members
            assert drawn.tags[index] == tag and drawn.roots[index] == root
        edges = np.zeros(3, dtype=np.int64)
        for index in range(slots.size):
            edges[drawn.tags[index]] += int(degrees[sets[index]].sum())
        assert np.array_equal(drawn.edges_examined, edges)

    def test_split_and_array_invariance(self, graph, probabilities, monkeypatch):
        sampler = HashedRRSampler(graph, probabilities, _weights())
        whole = sampler.draw(7, (0, 300))
        first, second = sampler.draw(7, (0, 100)), sampler.draw(7, (100, 300))
        assert np.array_equal(whole.members, np.concatenate([first.members, second.members]))
        assert np.array_equal(whole.sizes, np.concatenate([first.sizes, second.sizes]))
        assert np.array_equal(whole.tags, np.concatenate([first.tags, second.tags]))
        picked = np.array([250, 3, 3, 120], dtype=np.int64)
        explicit = sampler.draw(7, picked)
        sets = np.split(whole.members, np.cumsum(whole.sizes[:-1]))
        again = np.split(explicit.members, np.cumsum(explicit.sizes[:-1]))
        for index, slot in enumerate(picked.tolist()):
            assert np.array_equal(again[index], sets[slot])
        # Traversal batches and level pieces are implementation details too.
        monkeypatch.setattr(slot_module, "_MAX_BATCH", 7)
        monkeypatch.setattr(slot_module, "_MAX_LEVEL_EDGES", 5)
        small = sampler.draw(7, (0, 300))
        assert np.array_equal(small.members, whole.members)
        assert np.array_equal(small.edges_examined, whole.edges_examined)

    def test_entropy_and_slot_both_matter(self, graph, probabilities):
        sampler = HashedRRSampler(graph, probabilities, _weights())
        base = sampler.draw(1, (0, 200))
        other = sampler.draw(2, (0, 200))
        shifted = sampler.draw(1, (1, 201))
        assert not np.array_equal(base.roots, other.roots)
        # Slot s is slot s, wherever the drawn window starts.
        assert np.array_equal(shifted.roots[:-1], base.roots[1:])
        assert np.array_equal(shifted.tags[:-1], base.tags[1:])
        assert not np.array_equal(shifted.roots, base.roots)

    def test_extreme_probabilities(self):
        path = from_edge_list([(0, 1), (1, 2), (2, 3)])
        sure = HashedRRSampler(path, np.ones(path.num_edges)).draw(3, (0, 50))
        never = HashedRRSampler(path, np.zeros(path.num_edges)).draw(3, (0, 50))
        assert np.array_equal(sure.sizes, sure.roots + 1)
        assert np.array_equal(never.sizes, np.ones(50, dtype=np.int64))
        assert np.array_equal(never.members, never.roots)

    def test_coins_follow_edge_keys_not_edge_ids(self, graph, probabilities):
        """Inserting an edge leaves every slot whose members' in-edges are
        untouched bit-identical — the CSR ids shift, the keys do not."""
        view = MutableGraphView(graph, probabilities)
        before = HashedRRSampler(view.graph, view.advertiser_edge_probabilities, _weights())
        drawn = before.draw(5, (0, 400))
        target = int(np.argmin(graph.in_degrees()))
        source = next(
            u for u in range(graph.num_nodes) if u != target and not graph.has_edge(u, target)
        )
        view.apply([AddEdge(source, target, (0.4, 0.4, 0.4))])
        after = HashedRRSampler(view.graph, view.advertiser_edge_probabilities, _weights())
        redrawn = after.draw(5, (0, 400))
        old_sets = np.split(drawn.members, np.cumsum(drawn.sizes[:-1]))
        new_sets = np.split(redrawn.members, np.cumsum(redrawn.sizes[:-1]))
        untouched = [i for i, s in enumerate(old_sets) if target not in s]
        assert len(untouched) > 300
        for index in untouched:
            assert np.array_equal(old_sets[index], new_sets[index])

    def test_validation(self, graph):
        with pytest.raises(SamplingError):
            HashedRRSampler(graph, [np.full(graph.num_edges, 1.5)])
        with pytest.raises(SamplingError):
            HashedRRSampler(graph, [np.ones(3)])
        empty = CSRDiGraph(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(SamplingError):
            HashedRRSampler(empty, [np.empty(0)]).draw(0, (0, 1))
        drawn = HashedRRSampler(graph, [np.ones(graph.num_edges)]).draw(0, (4, 4))
        assert drawn.members.size == drawn.sizes.size == 0


# --------------------------------------------------------------------------- #
# 3. n_jobs-freedom of every consumer
# --------------------------------------------------------------------------- #
def _jobs_variants(monkeypatch):
    """Yield once per ``n_jobs`` setting, then once under REPRO_MAX_JOBS=1."""
    for n_jobs in JOBS:
        yield n_jobs
    monkeypatch.setenv(MAX_JOBS_ENV, "1")
    yield 3
    monkeypatch.delenv(MAX_JOBS_ENV)


def _collection_signature(collection):
    return (
        collection.member_array.tobytes(),
        collection.set_offsets.tobytes(),
        collection.tag_array.tobytes(),
    )


class TestJobsIndependence:
    @pytest.fixture(autouse=True)
    def _sharded(self, graph, pool_from_slots):
        # Slot calls of 256+ slots go to the pool, so n_jobs really shards them.
        pool_from_slots(graph)

    def test_uniform_sampler_collections(self, graph, probabilities, monkeypatch):
        signatures = set()
        edges = set()
        for n_jobs in _jobs_variants(monkeypatch):
            sampler = UniformRRSampler(
                graph, probabilities, [1.0, 2.0, 3.0], seed=11,
                policy=ExecutionPolicy.fast(n_jobs=n_jobs),
            )
            # Calls of 256+ slots, so that n_jobs really shards them.
            collection = sampler.generate_collection(300)
            sampler.generate_collection(260, into=collection)
            signatures.add(_collection_signature(collection))
            edges.add(sampler.edges_examined())
        # One call for the total count draws the same slots.
        whole = UniformRRSampler(
            graph, probabilities, [1.0, 2.0, 3.0], seed=11,
            policy=ExecutionPolicy.fast(n_jobs=2),
        )
        signatures.add(_collection_signature(whole.generate_collection(560)))
        assert len(signatures) == 1 and len(edges) == 1

    def test_uniform_sampler_on_a_shared_runtime(self, graph, probabilities):
        policy = ExecutionPolicy.fast(n_jobs=2)
        with Runtime(policy) as runtime:
            pooled = UniformRRSampler(
                graph, probabilities, [1.0, 2.0, 3.0], seed=4, policy=policy, runtime=runtime
            ).generate_collection(300)
            assert runtime.pool_spawn_count == 1
        serial = UniformRRSampler(
            graph, probabilities, [1.0, 2.0, 3.0], seed=4,
            policy=ExecutionPolicy.fast(n_jobs=1),
        ).generate_collection(300)
        assert _collection_signature(pooled) == _collection_signature(serial)

    def test_ti_pools(self, graph, probabilities, monkeypatch):
        pools = set()
        for n_jobs in _jobs_variants(monkeypatch):
            generator = RRSetGenerator(graph, probabilities[0])
            rr_sets = generator.generate_batch_parallel(
                300, rng=np.random.default_rng(3), policy=ExecutionPolicy.fast(n_jobs=n_jobs)
            )
            pools.add((b"".join(s.tobytes() for s in rr_sets), generator.edges_examined))
        assert len(pools) == 1

    def test_rr_store_generate_and_apply(self, graph, probabilities, monkeypatch):
        states = set()
        for n_jobs in _jobs_variants(monkeypatch):
            view = MutableGraphView(graph, probabilities)
            store = RRStore(
                view, [1.0, 2.0, 3.0], seed=21, policy=ExecutionPolicy.fast(n_jobs=n_jobs)
            )
            store.generate(300)
            store.generate(260)
            edges = view.edges()
            report = store.apply_deltas(
                [
                    UpdateProbability(*edges[0], 0.9),
                    UpdateProbability(*edges[5], 0.1, advertiser=1),
                ]
            )
            assert report.redrawn > 0
            flat, sizes, tags, roots = store.export_slots()
            states.add(
                (flat.tobytes(), sizes.tobytes(), tags.tobytes(), roots.tobytes(), report.redrawn)
            )
        assert len(states) == 1

    @pytest.mark.parametrize("algorithm", ["RMA", "TI-CARM"])
    def test_solve_output(self, dataset, algorithm, monkeypatch, pool_from_slots):
        pool_from_slots(dataset.instance.graph)
        outputs = set()
        for n_jobs in _jobs_variants(monkeypatch):
            policy = ExecutionPolicy.fast(n_jobs=n_jobs)
            if algorithm == "RMA":
                result = rm_without_oracle(
                    dataset.instance,
                    SamplingParameters(initial_rr_sets=128, max_rr_sets=512, seed=1, policy=policy),
                )
            else:
                result = run_ti_baseline(
                    dataset.instance,
                    TIParameters(
                        pilot_size=32, max_rr_sets_per_advertiser=512, seed=1, policy=policy
                    ),
                    cost_sensitive=False,
                    algorithm_name="TI-CARM",
                )
            outputs.add(
                (
                    result.revenue,
                    tuple(sorted(result.allocation.pairs())),
                    result.metadata.get("edges_examined"),
                )
            )
        assert len(outputs) == 1
