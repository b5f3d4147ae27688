"""Policy & runtime equivalence tier.

Pins the contracts of the :mod:`repro.runtime` layer after the default
flip to :meth:`ExecutionPolicy.fast`:

1. **Policy algebra** — presets, field validation, the derived
   ``rng_compat`` guarantee, and :func:`resolve_policy` (the single place
   "no policy" is defined to mean ``fast``).
2. **Default resolution** — every entry point resolves ``policy=None`` to
   the fast engines; ``ExecutionPolicy.seed()`` stays available as the
   explicit bit-reproducible escape hatch.
3. **Pool reuse** — a :class:`~repro.runtime.Runtime` block spawns its
   worker pool at most once across all of RMA's doubling rounds, and the
   persistent pool is bit-identical to per-call pools.

All seeds are fixed; the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.oracle import MonteCarloOracle, RRSetOracle
from repro.baselines.ti_carm import ti_carm
from repro.baselines.ti_csrm import ti_csrm
from repro.baselines.ti_common import TIParameters
from repro.core.oracle_solver import rm_with_oracle
from repro.core.sampling_solver import (
    SamplingParameters,
    one_batch_rm,
    rm_without_oracle,
)
from repro.datasets.registry import build_dataset
from repro.diffusion.engine import monte_carlo_spread as engine_monte_carlo_spread
from repro.exceptions import PolicyError
from repro.experiments.runner import run_algorithm
from repro.parallel import MAX_JOBS_ENV
from repro.rrsets.generator import RRSetGenerator
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import (
    ExecutionPolicy,
    Runtime,
    acquire_executor,
    current_runtime,
    resolve_policy,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        "lastfm_like", num_advertisers=3, scale=0.15, seed=1, singleton_rr_sets=200
    )


@pytest.fixture(scope="module")
def rr_oracle(dataset):
    sampler = UniformRRSampler(
        dataset.instance.graph,
        dataset.instance.all_edge_probabilities(),
        dataset.instance.cpes(),
        seed=7,
        policy=ExecutionPolicy.seed(),
    )
    return RRSetOracle(sampler.generate_collection(800), dataset.instance.gamma)


def _add_task(payload, shard):
    """Module-level (picklable) toy task for executor-level tests."""
    return payload + shard


def _same_result(a, b, num_advertisers=3):
    assert a.revenue == b.revenue
    assert all(a.allocation.seeds(i) == b.allocation.seeds(i) for i in range(num_advertisers))


# --------------------------------------------------------------------------- #
# policy algebra
# --------------------------------------------------------------------------- #
class TestExecutionPolicy:
    def test_seed_preset(self):
        policy = ExecutionPolicy.seed()
        assert policy.rr_engine == "legacy"
        assert policy.mc_engine == "legacy"
        assert policy.n_jobs is None
        assert policy.rng_compat is True

    def test_fast_preset(self):
        policy = ExecutionPolicy.fast(n_jobs=4)
        assert policy.rr_engine == "subsim"
        assert policy.mc_engine == "batched"
        assert policy.n_jobs == 4
        assert policy.rng_compat is False

    def test_preset_lookup(self):
        assert ExecutionPolicy.preset("seed") == ExecutionPolicy.seed()
        assert ExecutionPolicy.preset("fast") == ExecutionPolicy.fast()
        assert ExecutionPolicy.preset("fast", n_jobs=2).n_jobs == 2
        with pytest.raises(PolicyError):
            ExecutionPolicy.preset("warp")

    def test_resolve_policy_defaults_to_fast(self):
        assert resolve_policy(None) == ExecutionPolicy.fast()
        pinned = ExecutionPolicy.seed()
        assert resolve_policy(pinned) is pinned

    def test_fast_default_uses_all_cores(self):
        assert ExecutionPolicy.fast().n_jobs == -1

    def test_field_validation(self):
        with pytest.raises(PolicyError):
            ExecutionPolicy(rr_engine="warp")
        with pytest.raises(PolicyError):
            ExecutionPolicy(mc_engine="warp")
        with pytest.raises(PolicyError):
            ExecutionPolicy(n_jobs=0)
        with pytest.raises(PolicyError):
            ExecutionPolicy(mc_batch_size=0)

    def test_rng_compat_is_derived_and_validated(self):
        assert ExecutionPolicy(n_jobs=1).rng_compat is True
        assert ExecutionPolicy(n_jobs=2).rng_compat is False
        assert ExecutionPolicy(rr_engine="subsim").rng_compat is False
        with pytest.raises(PolicyError, match="rng_compat"):
            ExecutionPolicy(mc_engine="batched", rng_compat=True)

    def test_evolve_rederives_rng_compat(self):
        seed = ExecutionPolicy.seed()
        evolved = seed.evolve(rr_engine="subsim")
        assert evolved.rr_engine == "subsim" and evolved.rng_compat is False
        back = evolved.evolve(rr_engine="legacy")
        assert back.rng_compat is True

    def test_describe_names_presets(self):
        assert ExecutionPolicy.seed().describe().startswith("seed:")
        assert ExecutionPolicy.fast().describe().startswith("fast:")
        assert "n_jobs=serial" in ExecutionPolicy.seed().describe()

    def test_maintenance_knob_is_retired(self):
        # Where a store redraw runs follows from its size, never from a knob.
        assert not hasattr(ExecutionPolicy(), "maintenance")
        assert "maintenance" not in ExecutionPolicy().describe()
        with pytest.raises(TypeError, match="maintenance"):
            ExecutionPolicy(maintenance="inline")


# --------------------------------------------------------------------------- #
# parameter objects
# --------------------------------------------------------------------------- #
class TestParameterObjects:
    def test_sampling_defaults_resolve_to_fast(self):
        assert SamplingParameters().resolved_policy() == ExecutionPolicy.fast()

    def test_sampling_policy_field_wins(self):
        policy = ExecutionPolicy.seed(n_jobs=2)
        assert SamplingParameters(policy=policy).resolved_policy() is policy

    def test_ti_defaults_resolve_to_fast(self):
        assert TIParameters().resolved_policy() == ExecutionPolicy.fast()

    def test_ti_policy_field_wins(self):
        policy = ExecutionPolicy.seed()
        assert TIParameters(policy=policy).resolved_policy() is policy

    def test_legacy_fields_are_gone(self):
        with pytest.raises(TypeError):
            SamplingParameters(use_subsim=True)
        with pytest.raises(TypeError):
            SamplingParameters(n_jobs=2)
        with pytest.raises(TypeError):
            TIParameters(use_batched_greedy=True)


# --------------------------------------------------------------------------- #
# default resolution across entry points
# --------------------------------------------------------------------------- #
class TestDefaultResolution:
    @staticmethod
    def _sampling(policy=None):
        return SamplingParameters(
            initial_rr_sets=128, max_rr_sets=256, seed=1, policy=policy
        )

    def test_rma_no_args_matches_explicit_fast(self, dataset):
        _same_result(
            rm_without_oracle(dataset.instance, self._sampling()),
            rm_without_oracle(dataset.instance, self._sampling(ExecutionPolicy.fast())),
        )

    def test_one_batch_no_args_matches_explicit_fast(self, dataset):
        _same_result(
            one_batch_rm(dataset.instance, 256, self._sampling()),
            one_batch_rm(dataset.instance, 256, self._sampling(ExecutionPolicy.fast())),
        )

    @pytest.mark.parametrize("baseline", [ti_carm, ti_csrm])
    def test_ti_no_args_matches_explicit_fast(self, dataset, baseline):
        base = dict(pilot_size=32, max_rr_sets_per_advertiser=128, seed=2)
        _same_result(
            baseline(dataset.instance, TIParameters(**base)),
            baseline(dataset.instance, TIParameters(**base, policy=ExecutionPolicy.fast())),
        )

    def test_oracle_solver_no_args_matches_explicit_fast(self, dataset, rr_oracle):
        # rm_with_oracle takes no policy: a fast runtime in scope changes nothing.
        with Runtime(ExecutionPolicy.fast()):
            under_fast = rm_with_oracle(dataset.instance, rr_oracle)
        _same_result(rm_with_oracle(dataset.instance, rr_oracle), under_fast)

    def test_uniform_sampler_defaults_to_subsim(self, dataset):
        instance = dataset.instance
        sampler = UniformRRSampler(
            instance.graph, instance.all_edge_probabilities(), instance.cpes(), seed=3
        )
        # The fast default draws hashed slots, not per-set SUBSIM sets.
        assert sampler._generator_cls is None
        pinned = UniformRRSampler(
            instance.graph,
            instance.all_edge_probabilities(),
            instance.cpes(),
            seed=3,
            policy=ExecutionPolicy.seed(),
        )
        assert pinned._generator_cls is RRSetGenerator

    def test_monte_carlo_oracle_defaults_to_batched(self, dataset):
        oracle = MonteCarloOracle(dataset.instance, num_simulations=10, seed=5)
        assert oracle._policy == ExecutionPolicy.fast()

    def test_run_algorithm_no_args_matches_explicit_fast(self, dataset):
        default = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=self._sampling(),
            evaluation_rr_sets=1000,
            seed=3,
        )
        fast = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=self._sampling(),
            policy=ExecutionPolicy.fast(),
            evaluation_rr_sets=1000,
            seed=3,
        )
        assert default.evaluation.revenue == fast.evaluation.revenue
        _same_result(default.solver_result, fast.solver_result)

    def test_run_algorithm_seed_policy_is_the_escape_hatch(self, dataset):
        seeded = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=self._sampling(),
            policy=ExecutionPolicy.seed(),
            evaluation_rr_sets=1000,
            seed=3,
        )
        again = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=self._sampling(),
            policy=ExecutionPolicy.seed(),
            evaluation_rr_sets=1000,
            seed=3,
        )
        assert seeded.evaluation.revenue == again.evaluation.revenue
        _same_result(seeded.solver_result, again.solver_result)


# --------------------------------------------------------------------------- #
# run_algorithm conflict handling
# --------------------------------------------------------------------------- #
class TestRunAlgorithmConflicts:
    def test_policy_never_silently_overrides_params_policy(self, dataset):
        conflicting = SamplingParameters(
            initial_rr_sets=64, max_rr_sets=128, seed=1, policy=ExecutionPolicy.fast(n_jobs=1)
        )
        with pytest.raises(ValueError, match="disagrees"):
            run_algorithm(
                "RMA",
                dataset.instance,
                sampling_params=conflicting,
                policy=ExecutionPolicy.seed(),
            )
        # the same policy on both levels is redundant, not contradictory
        run = run_algorithm(
            "RMA",
            dataset.instance,
            sampling_params=conflicting,
            policy=ExecutionPolicy.fast(n_jobs=1),
            evaluation_rr_sets=500,
            seed=3,
        )
        assert run.evaluation.revenue > 0

    def test_legacy_kwargs_raise_type_error(self, dataset):
        with pytest.raises(TypeError):
            run_algorithm("RMA", dataset.instance, fast=True)
        with pytest.raises(TypeError):
            run_algorithm("RMA", dataset.instance, n_jobs=2)
        with pytest.raises(TypeError):
            run_algorithm("RMA", dataset.instance, use_batched_mc=True)


# --------------------------------------------------------------------------- #
# runtime & persistent pool
# --------------------------------------------------------------------------- #
class TestRuntime:
    def test_current_runtime_stacking(self):
        assert current_runtime() is None
        with Runtime() as outer:
            assert current_runtime() is outer
            with Runtime() as inner:
                assert current_runtime() is inner
            assert current_runtime() is outer
        assert current_runtime() is None

    def test_runtime_default_policy_is_fast(self):
        rt = Runtime()
        assert rt.policy == ExecutionPolicy.fast()
        rt.close()

    def test_acquire_executor_prefers_explicit_then_ambient(self):
        ephemeral = acquire_executor(2)
        assert ephemeral.n_jobs == 2
        with Runtime() as ambient:
            bound = acquire_executor(2)
            assert bound._pool is ambient.pool
            other = Runtime()
            assert acquire_executor(2, other)._pool is other.pool
            other.close()

    def test_pool_spawned_at_most_once_across_collections(
        self, dataset, monkeypatch, pool_from_slots
    ):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        pool_from_slots(dataset.instance.graph)
        instance = dataset.instance

        def build(runtime=None):
            return UniformRRSampler(
                instance.graph,
                instance.all_edge_probabilities(),
                instance.cpes(),
                seed=11,
                policy=ExecutionPolicy.seed(n_jobs=2),
                runtime=runtime,
            )

        with Runtime(ExecutionPolicy.seed(n_jobs=2)) as rt:
            sampler = build(rt)
            persistent = sampler.generate_collection(200)
            for _ in range(3):  # doubling-style growth on one pool
                sampler.generate_collection(len(persistent), into=persistent)
            assert rt.pool_spawn_count == 1
            # the same payload was broadcast exactly once
            assert len(rt.pool._tokens) == 1

        ephemeral_sampler = build()
        ephemeral = ephemeral_sampler.generate_collection(200)
        for _ in range(3):
            ephemeral_sampler.generate_collection(len(ephemeral), into=ephemeral)
        assert np.array_equal(persistent.member_array, ephemeral.member_array)
        assert np.array_equal(persistent.tag_array, ephemeral.tag_array)

    def test_rma_doubling_rounds_share_one_pool(self, dataset, monkeypatch, pool_from_slots):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        pool_from_slots(dataset.instance.graph)
        params = SamplingParameters(
            epsilon=0.05,
            initial_rr_sets=64,
            max_rr_sets=512,
            seed=1,
            policy=ExecutionPolicy.seed(n_jobs=2),
        )
        with Runtime(params.policy) as rt:
            result = rm_without_oracle(dataset.instance, params, runtime=rt)
            assert result.metadata["iterations"] >= 2  # the pool was needed repeatedly
            assert rt.pool_spawn_count == 1
        serial_pooling = rm_without_oracle(dataset.instance, params)  # per-call runtime
        _same_result(result, serial_pooling)

    def test_ambient_runtime_is_picked_up_without_threading(
        self, dataset, monkeypatch, pool_from_slots
    ):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        pool_from_slots(dataset.instance.graph)
        params = SamplingParameters(
            initial_rr_sets=256,  # slot calls of fewer than 256 run in-process
            max_rr_sets=512,
            seed=1,
            policy=ExecutionPolicy.seed(n_jobs=2),
        )
        with Runtime(params.policy) as rt:
            result = rm_without_oracle(dataset.instance, params)  # no runtime= passed
            assert rt.pool_spawn_count == 1
        _same_result(result, rm_without_oracle(dataset.instance, params))

    def test_sharded_mc_spread_persistent_matches_ephemeral(self, dataset, monkeypatch):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        instance = dataset.instance
        seeds = np.arange(8, dtype=np.int64)
        probabilities = instance.edge_probabilities(0)
        ephemeral = engine_monte_carlo_spread(
            instance.graph, probabilities, seeds, 64, rng=9, n_jobs=2
        )
        with Runtime(ExecutionPolicy.seed(n_jobs=2)) as rt:
            persistent = engine_monte_carlo_spread(
                instance.graph, probabilities, seeds, 64, rng=9, n_jobs=2, runtime=rt
            )
            again = engine_monte_carlo_spread(
                instance.graph, probabilities, seeds, 64, rng=9, n_jobs=2
            )  # ambient pickup
            assert rt.pool_spawn_count == 1
        assert persistent == ephemeral == again

    def test_process_cap_of_one_keeps_pool_down(self, dataset, monkeypatch):
        monkeypatch.setenv(MAX_JOBS_ENV, "1")
        instance = dataset.instance
        seeds = np.arange(8, dtype=np.int64)
        probabilities = instance.edge_probabilities(0)
        with Runtime(ExecutionPolicy.seed(n_jobs=2)) as rt:
            capped = engine_monte_carlo_spread(
                instance.graph, probabilities, seeds, 64, rng=9, n_jobs=2, runtime=rt
            )
            assert rt.pool_spawn_count == 0  # inline execution, same shard layout
        monkeypatch.delenv(MAX_JOBS_ENV)
        uncapped = engine_monte_carlo_spread(
            instance.graph, probabilities, seeds, 64, rng=9, n_jobs=2
        )
        assert capped == uncapped

    def test_runtime_close_allows_respawn(self, monkeypatch):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        rt = Runtime(ExecutionPolicy.seed(n_jobs=2))
        executor = rt.sharded_executor(2)
        assert executor.run(_add_task, 10, [1, 2]) == [11, 12]
        assert rt.pool_spawn_count == 1
        rt.close()
        assert rt.pool.processes == 0
        assert executor.run(_add_task, 10, [3, 4]) == [13, 14]
        assert rt.pool_spawn_count == 2
        rt.close()

    def test_runtime_presence_never_changes_results(self, dataset, monkeypatch):
        """Entering a Runtime must not upgrade n_jobs=None calls to the
        runtime policy's n_jobs — MonteCarloOracle deliberately keeps
        queries below MIN_SHARDED_SIMULATIONS serial, runtime or not."""
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        sharded_policy = ExecutionPolicy(mc_engine="batched", n_jobs=2)
        sims = 60  # < MIN_SHARDED_SIMULATIONS
        baseline = MonteCarloOracle(
            dataset.instance, num_simulations=sims, seed=5, policy=sharded_policy
        ).revenue(0, [0, 1, 2])
        with Runtime(sharded_policy) as rt:
            inside = MonteCarloOracle(
                dataset.instance, num_simulations=sims, seed=5, policy=sharded_policy
            ).revenue(0, [0, 1, 2])
            assert rt.pool_spawn_count == 0  # small query stayed serial
        assert inside == baseline

    def test_explicit_use_batched_false_beats_policy(self, dataset):
        from repro.diffusion.simulation import monte_carlo_spread

        instance = dataset.instance
        probabilities = instance.edge_probabilities(0)
        sequential = monte_carlo_spread(
            instance.graph, probabilities, [0, 1], num_simulations=40, rng=9
        )
        pinned = monte_carlo_spread(
            instance.graph,
            probabilities,
            [0, 1],
            num_simulations=40,
            rng=9,
            use_batched=False,
            policy=ExecutionPolicy(mc_engine="batched"),
        )
        assert pinned == sequential  # bit-identical: the legacy engine ran

    def test_run_algorithm_reuses_ambient_runtime(self, dataset, monkeypatch, pool_from_slots):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        pool_from_slots(dataset.instance.graph)
        params = SamplingParameters(
            initial_rr_sets=128,
            max_rr_sets=256,
            seed=1,
            policy=ExecutionPolicy.seed(n_jobs=2),
        )
        with Runtime(params.policy) as rt:
            run = run_algorithm(
                "RMA",
                dataset.instance,
                sampling_params=params,
                evaluation_rr_sets=500,
                seed=3,
            )
            assert rt.pool_spawn_count == 1
        assert run.evaluation.revenue > 0

    def test_reentrant_with_blocks_keep_pool_alive(self, monkeypatch):
        """One Runtime entered twice (nested) closes only on the last exit."""
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        rt = Runtime(ExecutionPolicy.seed(n_jobs=2))
        with rt:
            assert rt.sharded_executor(2).run(_add_task, 1, [1, 2]) == [2, 3]
            with rt:  # re-entrant: same object on the ambient stack twice
                assert current_runtime() is rt
                assert rt.sharded_executor(2).run(_add_task, 1, [3]) == [4]
            # Inner exit must not tear down the pool of the outer block.
            assert current_runtime() is rt
            assert rt.pool.processes == 2
            assert rt.pool_spawn_count == 1
        assert current_runtime() is None
        assert rt.pool.processes == 0  # the outermost exit closed it

    def test_close_then_respawn_increments_spawn_count(self, monkeypatch):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        with Runtime(ExecutionPolicy.seed(n_jobs=2)) as rt:
            executor = rt.sharded_executor(2)
            assert executor.run(_add_task, 0, [1, 2]) == [1, 2]
            assert rt.pool_spawn_count == 1
            rt.close()  # mid-block close: the runtime stays usable
            assert rt.pool.processes == 0
            assert executor.run(_add_task, 0, [5, 6]) == [5, 6]
            assert rt.pool_spawn_count == 2
            assert rt.recovery_stats.events == 0  # deliberate closes aren't failures

    def test_acquire_executor_falls_back_to_ephemeral_after_exit(self, monkeypatch):
        monkeypatch.setenv(MAX_JOBS_ENV, "2")
        with Runtime(ExecutionPolicy.seed(n_jobs=2)) as rt:
            assert acquire_executor(2)._pool is rt.pool
        # After the ambient runtime exits, callers get ephemeral executors
        # that still produce the same results (no stale pool reference).
        fallback = acquire_executor(2)
        assert fallback._pool is None
        assert fallback.run(_add_task, 10, [1, 2]) == [11, 12]
