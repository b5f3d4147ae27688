"""Tests for TIM sample sizing and the TI-CARM / TI-CSRM baselines."""

import numpy as np
import pytest

from repro.advertising.oracle import ExactOracle
from repro.baselines.ti_carm import ti_carm
from repro.baselines.ti_common import TIParameters
from repro.baselines.ti_csrm import ti_csrm
from repro.baselines.tim import (
    estimate_kpt,
    estimate_max_seed_count,
    pilot_pool,
    tim_sample_size,
)
from repro.exceptions import SolverError


def quick_ti(**overrides):
    defaults = dict(epsilon=0.2, delta=0.05, pilot_size=64, max_rr_sets_per_advertiser=256, seed=2)
    defaults.update(overrides)
    return TIParameters(**defaults)


class TestTIMComponents:
    def test_max_seed_count_bounds(self, probabilistic_instance):
        for advertiser in range(probabilistic_instance.num_advertisers):
            k = estimate_max_seed_count(probabilistic_instance, advertiser)
            assert 1 <= k <= probabilistic_instance.num_nodes

    def test_max_seed_count_grows_with_budget(self, probabilistic_instance):
        bigger = probabilistic_instance.with_scaled_budgets(3.0)
        assert estimate_max_seed_count(bigger, 0) >= estimate_max_seed_count(
            probabilistic_instance, 0
        )

    def test_pilot_pool_size(self, probabilistic_instance):
        pool = pilot_pool(probabilistic_instance, 0, size=32, rng=1)
        assert len(pool) == 32

    def test_kpt_estimate_positive_and_bounded(self, probabilistic_instance):
        pool = pilot_pool(probabilistic_instance, 0, size=200, rng=1)
        kpt = estimate_kpt(pool, probabilistic_instance.num_nodes, seed_count=2)
        assert 1.0 <= kpt <= probabilistic_instance.num_nodes

    def test_kpt_requires_pool(self):
        with pytest.raises(SolverError):
            estimate_kpt([], 10, 1)

    def test_sample_size_scales_inverse_epsilon_squared(self):
        small = tim_sample_size(1000, 5, 50.0, epsilon=0.1, delta=0.01)
        large = tim_sample_size(1000, 5, 50.0, epsilon=0.2, delta=0.01)
        assert small / large == pytest.approx(4.0, rel=0.1)

    def test_sample_size_invalid_parameters(self):
        with pytest.raises(SolverError):
            tim_sample_size(1000, 5, 50.0, epsilon=0.0, delta=0.01)
        with pytest.raises(SolverError):
            tim_sample_size(1000, 5, 0.0, epsilon=0.1, delta=0.01)


class TestTIBaselines:
    def test_ti_csrm_runs_and_is_feasible(self, probabilistic_instance):
        result = ti_csrm(probabilistic_instance, quick_ti())
        oracle = ExactOracle(probabilistic_instance)
        assert result.algorithm == "TI-CSRM"
        for advertiser, seeds in result.allocation.items():
            if seeds:
                payment = probabilistic_instance.cost_of_set(advertiser, seeds) + oracle.revenue(
                    advertiser, seeds
                )
                # The conservative upper bound keeps true payments within budget
                # up to residual estimation noise on this tiny sample.
                assert payment <= probabilistic_instance.budget(advertiser) * 1.2

    def test_ti_carm_runs(self, probabilistic_instance):
        result = ti_carm(probabilistic_instance, quick_ti())
        assert result.algorithm == "TI-CARM"
        assert result.revenue >= 0.0

    def test_partition_constraint(self, topic_instance):
        result = ti_csrm(topic_instance, quick_ti())
        nodes = [node for _, seeds in result.allocation.items() for node in seeds]
        assert len(nodes) == len(set(nodes))

    def test_metadata_reports_required_rr_sets(self, probabilistic_instance):
        result = ti_csrm(probabilistic_instance, quick_ti())
        assert result.metadata["required_rr_sets_total"] >= result.metadata[
            "generated_rr_sets_total"
        ] or result.metadata["generated_rr_sets_total"] <= 2 * 256 + 2 * 64

    def test_required_rr_sets_grow_as_epsilon_shrinks(self, probabilistic_instance):
        loose = ti_csrm(probabilistic_instance, quick_ti(epsilon=0.3, seed=4))
        tight = ti_csrm(probabilistic_instance, quick_ti(epsilon=0.05, seed=4))
        assert (
            tight.metadata["required_rr_sets_total"] > loose.metadata["required_rr_sets_total"]
        )

    def test_invalid_parameters_rejected(self, probabilistic_instance):
        with pytest.raises(SolverError):
            ti_csrm(probabilistic_instance, TIParameters(epsilon=0.0))
        with pytest.raises(SolverError):
            ti_carm(probabilistic_instance, TIParameters(pilot_size=0))

    def test_subsim_variant_runs(self, probabilistic_instance):
        from repro.runtime import ExecutionPolicy

        result = ti_csrm(
            probabilistic_instance, quick_ti(policy=ExecutionPolicy(rr_engine="subsim"))
        )
        assert result.revenue >= 0.0

    def test_conservative_budget_usage_lower_than_rma(self, topic_instance):
        """The TI baselines' conservatism should under-utilise budgets vs RMA."""
        from repro.core.sampling_solver import SamplingParameters, rm_without_oracle

        ti_result = ti_csrm(topic_instance, quick_ti())
        rma_result = rm_without_oracle(
            topic_instance,
            SamplingParameters(initial_rr_sets=512, max_rr_sets=1024, rho=0.2, seed=2),
        )
        oracle = ExactOracle(topic_instance)
        def usage(result):
            total = 0.0
            for advertiser, seeds in result.allocation.items():
                total += topic_instance.cost_of_set(advertiser, seeds)
                total += oracle.revenue(advertiser, seeds) if seeds else 0.0
            return total / topic_instance.budgets().sum()
        assert usage(rma_result) >= usage(ti_result) * 0.8


class TestHashedPools:
    """Under ``fast()`` a TI solve draws only hashed slots, wherever it runs."""

    @pytest.fixture(scope="class")
    def flixster(self):
        from repro.datasets.registry import build_dataset

        return build_dataset(
            "flixster_like", num_advertisers=2, scale=0.05, seed=7, singleton_rr_sets=50
        )

    def test_fast_solve_never_runs_the_per_set_traversal(self, flixster, monkeypatch):
        from repro.rrsets.generator import RRSetGenerator
        from repro.runtime import ExecutionPolicy

        def refuse(self, root, rng):
            raise AssertionError("per-set traversal reached under fast()")

        monkeypatch.setattr(RRSetGenerator, "_reverse_traverse", refuse)
        params = quick_ti(
            pilot_size=64, max_rr_sets_per_advertiser=512,
            policy=ExecutionPolicy.fast(n_jobs=1),
        )
        result = ti_carm(flixster.instance, params)
        assert result.metadata["generated_rr_sets_total"] == 2 * 512

    def test_hashed_pilots_do_not_depend_on_n_jobs(self, flixster):
        from repro.runtime import ExecutionPolicy

        pilots = []
        for n_jobs in (1, 2, 3, -1):
            pilot = pilot_pool(
                flixster.instance, 1, size=300, rng=9,
                policy=ExecutionPolicy.fast(n_jobs=n_jobs),
            )
            assert len(pilot) == pilot.sizes.size == 300
            assert [rr.tolist() for rr in pilot] == [
                rr.tolist() for rr in np.split(pilot.members, np.cumsum(pilot.sizes)[:-1])
            ]
            pilots.append((pilot.members.tolist(), pilot.sizes.tolist()))
        assert all(pilot == pilots[0] for pilot in pilots)

    @pytest.mark.parametrize("solver", [ti_carm, ti_csrm])
    def test_allocation_does_not_depend_on_n_jobs(
        self, flixster, solver, pool_from_slots, monkeypatch
    ):
        from repro.parallel.executor import PersistentPool
        from repro.runtime import ExecutionPolicy

        # Fills of ≥ 256 slots go to the pool; the 64-slot pilots never do.
        pool_from_slots(flixster.instance.graph)
        pool_calls = []
        original = PersistentPool.run

        def counted(self, *args, **kwargs):
            pool_calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PersistentPool, "run", counted)
        results = []
        for n_jobs in (1, 2, 3, -1):
            pool_calls.clear()
            params = quick_ti(
                pilot_size=64, max_rr_sets_per_advertiser=512,
                policy=ExecutionPolicy.fast(n_jobs=n_jobs),
            )
            result = solver(flixster.instance, params)
            if n_jobs == 2:
                assert len(pool_calls) == flixster.instance.num_advertisers
            results.append((
                {advertiser: sorted(seeds) for advertiser, seeds in result.allocation.items()},
                result.revenue,
                result.metadata,
            ))
        assert all(result == results[0] for result in results)

