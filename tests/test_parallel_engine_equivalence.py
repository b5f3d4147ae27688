"""Equivalence harness for the sharded parallel execution engine.

Three tiers, mirroring the RR / MC / greedy engine suites:

1. **Serial fall-back bit-identity** — ``n_jobs=1`` (or ``None``) must route
   through the untouched in-process engines: identical RR-sets, identical
   spread floats, identical solver results.
2. **Fixed-``(seed, n_jobs)`` bit-reproducibility** — the sharded paths are
   a pure function of the seed material and the shard layout: repeated runs
   match bit for bit, and the ``REPRO_MAX_JOBS`` process cap (which shrinks
   the pool without touching the shard layout) must not change any result.
3. **Statistical equivalence** — ``n_jobs>1`` draws different RNG substreams
   than the serial engines, so parallel Monte-Carlo estimates are pinned
   against the serial batched engine with a two-sample Kolmogorov–Smirnov
   test over repeated estimates and mean-within-3σ checks.

All thresholds are evaluated on fixed seeds, so the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
from repro.diffusion.engine import (
    monte_carlo_spread as engine_monte_carlo_spread,
    simulate_cascades_batch,
    singleton_spreads_monte_carlo as engine_singleton_spreads,
)
from repro.diffusion.models import WeightedCascadeModel
from repro.exceptions import PolicyError, SamplingError, SolverError
from repro.graph.builders import from_edge_list
from repro.graph.generators import preferential_attachment_digraph
from repro.parallel import (
    MAX_JOBS_ENV,
    ShardedExecutor,
    resolve_n_jobs,
    shard_counts,
    worker_process_cap,
)
from repro.parallel.executor import _default_start_method
from repro.parallel.mc import sharded_spread
from repro.parallel.rr import merge_shards, run_generation_shards
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator, SubsimRRGenerator
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy

GENERATORS = [RRSetGenerator, SubsimRRGenerator]


@pytest.fixture(scope="module")
def micro_graph():
    """A 60-node preferential-attachment micro-graph."""
    return preferential_attachment_digraph(60, out_degree=3, seed=2)


@pytest.fixture(scope="module")
def wc_probabilities(micro_graph):
    return np.asarray(
        WeightedCascadeModel(micro_graph).edge_probabilities(), dtype=np.float64
    )


def _ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (no scipy dependency)."""
    grid = np.union1d(sample_a, sample_b)
    cdf_a = np.searchsorted(np.sort(sample_a), grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(np.sort(sample_b), grid, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_threshold(n: int, m: int, alpha: float = 1e-3) -> float:
    """Critical KS distance at significance ``alpha`` (asymptotic form)."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


# --------------------------------------------------------------------------- #
# executor plumbing
# --------------------------------------------------------------------------- #
class TestExecutorPlumbing:
    def test_resolve_n_jobs(self):
        import os

        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4
        assert resolve_n_jobs(-1) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)

    def test_shard_counts_partition(self):
        counts = shard_counts(10, 4)
        assert counts.sum() == 10
        assert counts.tolist() == [3, 3, 2, 2]

    def test_shard_counts_trims_empty_shards(self):
        assert shard_counts(2, 4).tolist() == [1, 1]
        assert shard_counts(0, 4).size == 0

    def test_shard_counts_depends_only_on_inputs(self):
        assert np.array_equal(shard_counts(1000, 3), shard_counts(1000, 3))

    def test_shard_counts_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_counts(-1, 2)
        with pytest.raises(ValueError):
            shard_counts(5, 0)

    def test_worker_process_cap_env(self, monkeypatch):
        monkeypatch.delenv(MAX_JOBS_ENV, raising=False)
        assert worker_process_cap() is None
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        assert worker_process_cap() == 2
        # Invalid values are rejected with a warning naming the offender.
        monkeypatch.setenv(MAX_JOBS_ENV, "not-a-number")
        with pytest.warns(RuntimeWarning, match="not-a-number"):
            assert worker_process_cap() is None
        monkeypatch.setenv(MAX_JOBS_ENV, "0")
        with pytest.warns(RuntimeWarning, match="positive"):
            assert worker_process_cap() is None

    def test_default_start_method_is_valid(self):
        import multiprocessing

        assert _default_start_method() in multiprocessing.get_all_start_methods()

    def test_start_method_env_override_validated(self, monkeypatch):
        from repro.exceptions import ExecutionError
        from repro.parallel import START_METHOD_ENV

        monkeypatch.setenv(START_METHOD_ENV, "fork")
        assert _default_start_method() == "fork"
        monkeypatch.setenv(START_METHOD_ENV, "teleport")
        with pytest.raises(ExecutionError, match="teleport"):
            _default_start_method()

    def test_executor_preserves_shard_order(self):
        executor = ShardedExecutor(2)
        results = executor.run(_echo_task, 10, list(range(7)))
        assert results == [10 + shard for shard in range(7)]

    def test_executor_inline_when_single_shard(self):
        executor = ShardedExecutor(4)
        assert executor.run(_echo_task, 1, [5]) == [6]
        assert executor.run(_echo_task, 1, []) == []


def _echo_task(payload, shard):
    return payload + shard


# --------------------------------------------------------------------------- #
# 1 + 2. RR generation: serial identity and sharded reproducibility
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("generator_cls", GENERATORS, ids=lambda c: c.__name__)
class TestParallelGeneration:
    def test_n_jobs_one_bit_identical_to_serial(
        self, micro_graph, wc_probabilities, generator_cls
    ):
        parallel = generator_cls(micro_graph, wc_probabilities).generate_batch_parallel(
            40, rng=7, n_jobs=1
        )
        serial = generator_cls(micro_graph, wc_probabilities).generate_batch(40, rng=7)
        assert len(parallel) == len(serial)
        for a, b in zip(parallel, serial):
            assert np.array_equal(a, b)

    def test_default_n_jobs_is_serial(self, micro_graph, wc_probabilities, generator_cls):
        parallel = generator_cls(micro_graph, wc_probabilities).generate_batch_parallel(
            15, rng=3
        )
        serial = generator_cls(micro_graph, wc_probabilities).generate_batch(15, rng=3)
        for a, b in zip(parallel, serial):
            assert np.array_equal(a, b)

    def test_fixed_seed_jobs_bit_reproducible(
        self, micro_graph, wc_probabilities, generator_cls
    ):
        first = generator_cls(micro_graph, wc_probabilities)
        second = generator_cls(micro_graph, wc_probabilities)
        a = first.generate_batch_parallel(60, rng=11, n_jobs=3)
        b = second.generate_batch_parallel(60, rng=11, n_jobs=3)
        assert len(a) == len(b) == 60
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert first.edges_examined == second.edges_examined > 0

    def test_process_cap_does_not_change_results(
        self, micro_graph, wc_probabilities, generator_cls, monkeypatch
    ):
        uncapped = generator_cls(micro_graph, wc_probabilities).generate_batch_parallel(
            30, rng=5, n_jobs=4
        )
        monkeypatch.setenv(MAX_JOBS_ENV, "1")
        capped = generator_cls(micro_graph, wc_probabilities).generate_batch_parallel(
            30, rng=5, n_jobs=4
        )
        for a, b in zip(uncapped, capped):
            assert np.array_equal(a, b)

    def test_parallel_sets_are_valid_rr_sets(
        self, micro_graph, wc_probabilities, generator_cls
    ):
        rr_sets = generator_cls(micro_graph, wc_probabilities).generate_batch_parallel(
            50, rng=2, n_jobs=3
        )
        for rr_set in rr_sets:
            assert rr_set.size >= 1
            assert rr_set.min() >= 0 and rr_set.max() < micro_graph.num_nodes
            assert np.all(np.diff(rr_set) > 0)  # sorted, unique

    def test_negative_count_rejected(self, micro_graph, wc_probabilities, generator_cls):
        with pytest.raises(SamplingError):
            generator_cls(micro_graph, wc_probabilities).generate_batch_parallel(
                -1, rng=0, n_jobs=2
            )


def test_generation_shards_partition_count(micro_graph, wc_probabilities):
    shards = run_generation_shards(
        SubsimRRGenerator, micro_graph, wc_probabilities, 25, 7, ShardedExecutor(4)
    )
    assert len(shards) == 4
    assert sum(shard.sizes.size for shard in shards) == 25
    for shard in shards:
        assert shard.members.size == int(shard.sizes.sum())
        assert shard.cpu_seconds >= 0.0
        rebuilt = list(merge_shards([shard]))
        assert len(rebuilt) == shard.sizes.size


# --------------------------------------------------------------------------- #
# shard-merge collection construction
# --------------------------------------------------------------------------- #
class TestCollectionFromShards:
    @staticmethod
    def _shard_triples(rr_sets, tags, parts):
        """Split (rr_sets, tags) into ``parts`` contiguous shard triples."""
        bounds = np.linspace(0, len(rr_sets), parts + 1).astype(int)
        triples = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            chunk = rr_sets[lo:hi]
            sizes = np.fromiter((s.size for s in chunk), np.int64, len(chunk))
            members = np.concatenate(chunk) if chunk else np.empty(0, np.int64)
            triples.append((members, sizes, np.asarray(tags[lo:hi], dtype=np.int64)))
        return triples

    @pytest.fixture(scope="class")
    def rr_sets_and_tags(self, micro_graph, wc_probabilities):
        rr_sets = SubsimRRGenerator(micro_graph, wc_probabilities).generate_batch(
            80, rng=13
        )
        tags = [index % 3 for index in range(80)]
        return rr_sets, tags

    def test_matches_add_built_collection(self, micro_graph, rr_sets_and_tags):
        rr_sets, tags = rr_sets_and_tags
        reference = RRCollection(micro_graph.num_nodes, 3)
        for rr_set, tag in zip(rr_sets, tags):
            reference.add(rr_set, tag)
        merged = RRCollection.from_shards(
            micro_graph.num_nodes, 3, self._shard_triples(rr_sets, tags, 4)
        )
        assert len(merged) == len(reference)
        assert merged.total_size == reference.total_size
        assert np.array_equal(merged.member_array, reference.member_array)
        assert np.array_equal(merged.set_offsets, reference.set_offsets)
        assert np.array_equal(merged.tag_array, reference.tag_array)
        assert np.array_equal(merged.membership_counts(), reference.membership_counts())
        for advertiser in range(3):
            for node in range(micro_graph.num_nodes):
                assert np.array_equal(
                    merged.sets_containing_array(advertiser, node),
                    reference.sets_containing_array(advertiser, node),
                )

    def test_list_api_still_works(self, micro_graph, rr_sets_and_tags):
        rr_sets, tags = rr_sets_and_tags
        merged = RRCollection.from_shards(
            micro_graph.num_nodes, 3, self._shard_triples(rr_sets, tags, 2)
        )
        assert np.array_equal(merged.rr_set(5), rr_sets[5])
        assert merged.tag(5) == tags[5]
        # add() after a shard build invalidates and rebuilds the CSR view.
        merged.add(rr_sets[0], 2)
        assert len(merged) == 81
        assert merged.tag_array[-1] == 2

    def test_extend_from_shards_appends(self, micro_graph, rr_sets_and_tags):
        rr_sets, tags = rr_sets_and_tags
        collection = RRCollection(micro_graph.num_nodes, 3)
        collection.add(rr_sets[0], 0)
        collection.extend_from_shards(self._shard_triples(rr_sets[1:], tags[1:], 3))
        assert len(collection) == 80
        reference = RRCollection(micro_graph.num_nodes, 3)
        reference.add(rr_sets[0], 0)
        for rr_set, tag in zip(rr_sets[1:], tags[1:]):
            reference.add(rr_set, tag)
        assert np.array_equal(collection.member_array, reference.member_array)
        assert np.array_equal(collection.tag_array, reference.tag_array)

    def test_validation_errors(self, micro_graph):
        n = micro_graph.num_nodes
        ok_members = np.array([0, 1, 2], dtype=np.int64)
        ok_sizes = np.array([3], dtype=np.int64)
        with pytest.raises(SamplingError):  # tag out of range
            RRCollection.from_shards(n, 2, [(ok_members, ok_sizes, np.array([2]))])
        with pytest.raises(SamplingError):  # node out of range
            RRCollection.from_shards(
                n, 2, [(np.array([0, n], dtype=np.int64), np.array([2]), np.array([0]))]
            )
        with pytest.raises(SamplingError):  # unsorted members
            RRCollection.from_shards(
                n, 2, [(np.array([2, 1], dtype=np.int64), np.array([2]), np.array([0]))]
            )
        with pytest.raises(SamplingError):  # empty RR-set
            RRCollection.from_shards(
                n, 2, [(np.empty(0, np.int64), np.array([0]), np.array([0]))]
            )
        with pytest.raises(SamplingError):  # sizes/members mismatch
            RRCollection.from_shards(n, 2, [(ok_members, np.array([2]), np.array([0]))])
        with pytest.raises(SamplingError):  # empty sizes but non-empty members
            RRCollection.from_shards(
                n, 2, [(ok_members, np.empty(0, np.int64), np.empty(0, np.int64))]
            )

    def test_empty_shards_allowed(self, micro_graph):
        empty = RRCollection.from_shards(micro_graph.num_nodes, 2, [])
        assert len(empty) == 0

    def test_single_shard_does_not_freeze_caller_arrays(self, micro_graph):
        """Regression: the CSR build freezes its arrays, but a caller's
        members/tags arrays must stay writable after a one-shard build."""
        members = np.array([0, 1, 2], dtype=np.int64)
        sizes = np.array([3], dtype=np.int64)
        tags = np.array([0], dtype=np.int64)
        collection = RRCollection.from_shards(micro_graph.num_nodes, 2, [(members, sizes, tags)])
        collection.membership_counts()
        members[0] = 5
        tags[0] = 1
        sizes[0] = 7
        assert collection.tag(0) == 0  # detached from the caller's buffers


# --------------------------------------------------------------------------- #
# uniform sampler sharding
# --------------------------------------------------------------------------- #
class TestUniformSamplerSharded:
    @pytest.fixture(autouse=True)
    def _sharded(self, micro_graph, pool_from_slots):
        # Slot calls of 256+ slots go to the pool, so n_jobs really shards them.
        pool_from_slots(micro_graph)

    def _sampler(self, graph, probabilities, seed, n_jobs):
        # The seed policy keeps n_jobs=None meaning "serial" (the fast
        # default would resolve it to all cores); explicit n_jobs wins.
        return UniformRRSampler(
            graph,
            [probabilities, probabilities * 0.8],
            [1.0, 3.0],
            generator_cls=SubsimRRGenerator,
            seed=seed,
            n_jobs=n_jobs,
            policy=ExecutionPolicy.seed(),
        )

    def test_n_jobs_one_bit_identical_to_serial(self, micro_graph, wc_probabilities):
        serial = self._sampler(micro_graph, wc_probabilities, 5, None).generate_collection(30)
        one_job = self._sampler(micro_graph, wc_probabilities, 5, 1).generate_collection(30)
        assert np.array_equal(serial.member_array, one_job.member_array)
        assert np.array_equal(serial.tag_array, one_job.tag_array)

    def test_fixed_seed_jobs_bit_reproducible(self, micro_graph, wc_probabilities):
        first = self._sampler(micro_graph, wc_probabilities, 5, 3)
        second = self._sampler(micro_graph, wc_probabilities, 5, 3)
        # 300 slots: calls of fewer than 256 slots run in-process, unsharded.
        a = first.generate_collection(300)
        b = second.generate_collection(300)
        assert np.array_equal(a.member_array, b.member_array)
        assert np.array_equal(a.set_offsets, b.set_offsets)
        assert np.array_equal(a.tag_array, b.tag_array)
        assert first.edges_examined() == second.edges_examined() > 0

    def test_incremental_growth_into_existing_collection(
        self, micro_graph, wc_probabilities
    ):
        sampler = self._sampler(micro_graph, wc_probabilities, 9, 2)
        collection = sampler.generate_collection(300)
        sampler.generate_collection(260, into=collection)
        assert len(collection) == 560
        assert collection.count_per_advertiser().sum() == 560
        # The grown collection still answers queries consistently.
        state_rows = collection.membership_counts()
        assert state_rows.shape == (2, micro_graph.num_nodes)

    def test_advertiser_distribution_follows_cpes(self, micro_graph, wc_probabilities):
        collection = self._sampler(micro_graph, wc_probabilities, 31, 4).generate_collection(
            400
        )
        counts = collection.count_per_advertiser()
        # cpe weights 1:3 — advertiser 1 should dominate clearly.
        assert counts.sum() == 400
        assert counts[1] > 2 * counts[0]


# --------------------------------------------------------------------------- #
# Monte-Carlo estimation: identity, reproducibility, KS / 3σ equivalence
# --------------------------------------------------------------------------- #
class TestParallelMonteCarlo:
    SEEDS = [0, 3, 7]

    def test_n_jobs_one_bit_identical_to_serial(self, micro_graph, wc_probabilities):
        serial = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 300, rng=9
        )
        one_job = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 300, rng=9, n_jobs=1
        )
        assert serial == one_job

    def test_fixed_seed_jobs_bit_reproducible(self, micro_graph, wc_probabilities):
        a = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 300, rng=9, n_jobs=3
        )
        b = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 300, rng=9, n_jobs=3
        )
        assert a == b

    def test_process_cap_does_not_change_results(
        self, micro_graph, wc_probabilities, monkeypatch
    ):
        uncapped = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 200, rng=4, n_jobs=4
        )
        monkeypatch.setenv(MAX_JOBS_ENV, "1")
        capped = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 200, rng=4, n_jobs=4
        )
        assert uncapped == capped

    def test_parallel_mean_within_three_sigma(self, micro_graph, wc_probabilities):
        count = 600
        serial = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, count, rng=21
        )
        parallel = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, count, rng=21, n_jobs=3
        )
        sizes = (
            simulate_cascades_batch(
                micro_graph, wc_probabilities, self.SEEDS, 400, rng=17
            )
            .sum(axis=1)
            .astype(np.float64)
        )
        sigma = float(sizes.std()) * np.sqrt(2.0 / count)
        assert abs(serial - parallel) <= 3.0 * sigma + 1e-9

    def test_parallel_estimates_ks_close_to_serial(self, micro_graph, wc_probabilities):
        """KS over repeated estimates: the parallel estimator's sampling
        distribution matches the serial batched engine's."""
        repeats, sims = 24, 50
        serial = np.array(
            [
                engine_monte_carlo_spread(
                    micro_graph, wc_probabilities, self.SEEDS, sims, rng=100 + r
                )
                for r in range(repeats)
            ]
        )
        parallel = np.array(
            [
                engine_monte_carlo_spread(
                    micro_graph, wc_probabilities, self.SEEDS, sims, rng=100 + r, n_jobs=2
                )
                for r in range(repeats)
            ]
        )
        statistic = _ks_statistic(serial, parallel)
        assert statistic <= _ks_threshold(repeats, repeats)

    def test_sharded_spread_helper_matches_n_jobs_path(
        self, micro_graph, wc_probabilities
    ):
        executor = ShardedExecutor(3)
        direct = sharded_spread(
            micro_graph,
            wc_probabilities,
            np.asarray(self.SEEDS, dtype=np.int64),
            300,
            9,
            executor,
        )
        via_engine = engine_monte_carlo_spread(
            micro_graph, wc_probabilities, self.SEEDS, 300, rng=9, n_jobs=3
        )
        assert direct == via_engine

    def test_empty_seed_set_is_zero(self, micro_graph, wc_probabilities):
        assert (
            engine_monte_carlo_spread(micro_graph, wc_probabilities, [], 50, rng=1, n_jobs=2)
            == 0.0
        )


class TestParallelSingletons:
    def test_n_jobs_one_bit_identical_to_serial(self, micro_graph, wc_probabilities):
        serial = engine_singleton_spreads(
            micro_graph, wc_probabilities, 40, rng=4, nodes=range(20)
        )
        one_job = engine_singleton_spreads(
            micro_graph, wc_probabilities, 40, rng=4, nodes=range(20), n_jobs=1
        )
        assert np.array_equal(serial, one_job)

    def test_fixed_seed_jobs_bit_reproducible(self, micro_graph, wc_probabilities):
        a = engine_singleton_spreads(
            micro_graph, wc_probabilities, 40, rng=4, nodes=range(25), n_jobs=3
        )
        b = engine_singleton_spreads(
            micro_graph, wc_probabilities, 40, rng=4, nodes=range(25), n_jobs=3
        )
        assert np.array_equal(a, b)
        assert a.size == 25

    def test_isolated_node_spread_is_exactly_one(self, wc_probabilities):
        graph = from_edge_list([(0, 1), (1, 2)], num_nodes=4)
        probabilities = np.zeros(graph.num_edges, dtype=np.float64)
        spreads = engine_singleton_spreads(
            graph, probabilities, 30, rng=0, nodes=[0, 3], n_jobs=2
        )
        assert np.array_equal(spreads, np.ones(2))

    def test_parallel_mean_within_three_sigma(self, micro_graph, wc_probabilities):
        nodes = list(range(30))
        sims = 200
        serial = engine_singleton_spreads(
            micro_graph, wc_probabilities, sims, rng=8, nodes=nodes
        )
        parallel = engine_singleton_spreads(
            micro_graph, wc_probabilities, sims, rng=8, nodes=nodes, n_jobs=3
        )
        # Mean singleton spread over the node panel: each estimate averages
        # len(nodes)·sims cascade sizes; bound the difference with the
        # per-cascade singleton-size variance.
        per_cascade = []
        for node in nodes[:10]:
            sizes = simulate_cascades_batch(
                micro_graph, wc_probabilities, [node], 50, rng=node
            ).sum(axis=1)
            per_cascade.append(sizes.astype(np.float64))
        sigma_one = float(np.concatenate(per_cascade).std())
        sigma_mean = sigma_one * np.sqrt(2.0 / (len(nodes) * sims))
        assert abs(float(serial.mean()) - float(parallel.mean())) <= 3.0 * sigma_mean + 1e-9


# --------------------------------------------------------------------------- #
# end-to-end: solver + parameters
# --------------------------------------------------------------------------- #
class TestEndToEnd:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.datasets.registry import build_dataset

        return build_dataset(
            "lastfm_like", num_advertisers=3, scale=0.15, seed=1, singleton_rr_sets=200
        )

    @staticmethod
    def _params(n_jobs):
        return SamplingParameters(
            initial_rr_sets=128,
            max_rr_sets=256,
            seed=1,
            policy=ExecutionPolicy(rr_engine="subsim", n_jobs=n_jobs),
        )

    def test_n_jobs_validation(self):
        with pytest.raises(PolicyError):
            ExecutionPolicy(n_jobs=0)
        with pytest.raises(PolicyError):
            ExecutionPolicy(n_jobs=-3)
        SamplingParameters(policy=ExecutionPolicy(n_jobs=-1)).validate()
        from repro.baselines.ti_common import TIParameters

        TIParameters(policy=ExecutionPolicy(n_jobs=4)).validate()

    def test_rma_n_jobs_one_matches_serial(self, dataset):
        serial = rm_without_oracle(dataset.instance, self._params(None))
        one_job = rm_without_oracle(dataset.instance, self._params(1))
        assert serial.revenue == one_job.revenue
        assert all(
            serial.allocation.seeds(i) == one_job.allocation.seeds(i) for i in range(3)
        )

    def test_rma_sharded_bit_reproducible(self, dataset):
        first = rm_without_oracle(dataset.instance, self._params(2))
        second = rm_without_oracle(dataset.instance, self._params(2))
        assert first.revenue == second.revenue
        assert all(
            first.allocation.seeds(i) == second.allocation.seeds(i) for i in range(3)
        )
        assert first.metadata["rr_sets"] == second.metadata["rr_sets"]

    def test_run_algorithm_fast_policy(self, dataset, pool_from_slots):
        from repro.experiments.runner import run_algorithm

        pool_from_slots(dataset.instance.graph)

        params = SamplingParameters(initial_rr_sets=128, max_rr_sets=256, seed=1)
        run = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=params,
            policy=ExecutionPolicy.fast(n_jobs=2),
            evaluation_rr_sets=1000,
            seed=3,
        )
        assert run.evaluation.revenue > 0
        # an explicit policy copies the caller's parameters instead of mutating them
        assert params.policy is None

    def test_run_algorithm_pinned_jobs(self, dataset, pool_from_slots):
        from repro.experiments.runner import run_algorithm

        pool_from_slots(dataset.instance.graph)

        run = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=SamplingParameters(
                initial_rr_sets=128,
                max_rr_sets=256,
                seed=1,
                policy=ExecutionPolicy(rr_engine="subsim", n_jobs=2),
            ),
            evaluation_rr_sets=1000,
            seed=3,
        )
        assert run.evaluation.revenue > 0

    def test_monte_carlo_oracle_sharded_deterministic(self, dataset):
        from repro.advertising.oracle import MonteCarloOracle

        sims = MonteCarloOracle.MIN_SHARDED_SIMULATIONS  # large enough to shard
        sharded = ExecutionPolicy.seed(n_jobs=2).evolve(mc_engine="batched")
        first = MonteCarloOracle(
            dataset.instance, num_simulations=sims, seed=5, policy=sharded
        )
        second = MonteCarloOracle(
            dataset.instance, num_simulations=sims, seed=5, policy=sharded
        )
        assert first.revenue(0, [0, 1]) == second.revenue(0, [0, 1])

    def test_monte_carlo_oracle_small_queries_stay_serial(self, dataset):
        """Below MIN_SHARDED_SIMULATIONS the pool-spawn overhead dominates,
        so n_jobs is ignored and small queries match the serial oracle
        bit for bit."""
        from repro.advertising.oracle import MonteCarloOracle

        sharded = MonteCarloOracle(
            dataset.instance,
            num_simulations=60,
            seed=5,
            policy=ExecutionPolicy.fast(n_jobs=4),
        )
        serial = MonteCarloOracle(
            dataset.instance, num_simulations=60, seed=5, policy=ExecutionPolicy.fast(n_jobs=1)
        )
        assert sharded.revenue(0, [0, 1]) == serial.revenue(0, [0, 1])

    def test_monte_carlo_oracle_rejects_bad_n_jobs_eagerly(self, dataset):
        from repro.advertising.oracle import MonteCarloOracle

        with pytest.raises(PolicyError):
            MonteCarloOracle(dataset.instance, policy=ExecutionPolicy(n_jobs=0))
        with pytest.raises(PolicyError):
            MonteCarloOracle(dataset.instance, policy=ExecutionPolicy(n_jobs=-4))

    def test_ti_baseline_sharded_reproducible(self, dataset):
        from repro.baselines.ti_common import TIParameters
        from repro.baselines.ti_carm import ti_carm

        params = dict(
            pilot_size=32,
            max_rr_sets_per_advertiser=128,
            seed=2,
            policy=ExecutionPolicy.seed(n_jobs=2),
        )
        first = ti_carm(dataset.instance, TIParameters(**params))
        second = ti_carm(dataset.instance, TIParameters(**params))
        assert first.revenue == second.revenue
        assert all(
            first.allocation.seeds(i) == second.allocation.seeds(i) for i in range(3)
        )
