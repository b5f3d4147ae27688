"""Tests for the RMA progressive solver (Algorithm 6) and the one-batch variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertising.oracle import ExactOracle
from repro.core.oracle_solver import approximation_ratio
from repro.core.sampling_solver import SamplingParameters, one_batch_rm, rm_without_oracle
from repro.exceptions import SolverError
from tests.test_core_search_and_solver import brute_force_optimum


def quick_params(**overrides):
    defaults = dict(
        epsilon=0.1,
        delta=0.05,
        tau=0.1,
        rho=0.2,
        initial_rr_sets=256,
        max_rr_sets=2048,
        seed=3,
    )
    defaults.update(overrides)
    return SamplingParameters(**defaults)


class TestSamplingParameters:
    def test_defaults_validate(self):
        SamplingParameters().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epsilon", 0.0),
            ("delta", 1.5),
            ("tau", 0.0),
            ("rho", -1.0),
            ("initial_rr_sets", 0),
            ("max_rr_sets", 0),
            ("min_initial_rr_sets", 0),
            ("validation_ratio", 0.0),
            ("validation_growth_factor", 0.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        params = SamplingParameters()
        setattr(params, field, value)
        with pytest.raises(SolverError):
            params.validate()


class TestRMWithoutOracle:
    def test_returns_allocation_with_metadata(self, probabilistic_instance):
        result = rm_without_oracle(probabilistic_instance, quick_params())
        assert result.algorithm == "RMA"
        assert result.metadata["rr_sets"] >= 256
        assert result.metadata["iterations"] >= 1
        assert 0.0 <= result.metadata["beta"]
        assert result.revenue >= 0.0

    def test_bicriteria_budget_feasibility(self, probabilistic_instance):
        """The true payment must stay within (1 + rho) x budget per advertiser."""
        params = quick_params(rho=0.3, initial_rr_sets=1024, max_rr_sets=4096)
        result = rm_without_oracle(probabilistic_instance, params)
        oracle = ExactOracle(probabilistic_instance)
        for advertiser, seeds in result.allocation.items():
            if not seeds:
                continue
            payment = probabilistic_instance.cost_of_set(advertiser, seeds) + oracle.revenue(
                advertiser, seeds
            )
            limit = (1.0 + params.rho) * probabilistic_instance.budget(advertiser)
            # Allow a small slack for residual estimation error on the tiny sample.
            assert payment <= limit * 1.15

    def test_revenue_close_to_optimum_on_tiny_instance(self, probabilistic_instance):
        result = rm_without_oracle(
            probabilistic_instance, quick_params(initial_rr_sets=2048, max_rr_sets=8192)
        )
        oracle = ExactOracle(probabilistic_instance)
        true_revenue = oracle.total_revenue(result.allocation)
        optimum = brute_force_optimum(probabilistic_instance, oracle)
        lam = approximation_ratio(probabilistic_instance.num_advertisers, 0.1)
        assert true_revenue >= (lam - 0.1) * optimum

    def test_partition_constraint(self, topic_instance):
        result = rm_without_oracle(topic_instance, quick_params())
        nodes = [node for _, seeds in result.allocation.items() for node in seeds]
        assert len(nodes) == len(set(nodes))

    def test_doubling_stops_at_cap(self, probabilistic_instance):
        params = quick_params(epsilon=1e-6, initial_rr_sets=64, max_rr_sets=256)
        result = rm_without_oracle(probabilistic_instance, params)
        assert result.metadata["rr_sets"] <= 256 * 2

    def test_reproducible_with_seed(self, probabilistic_instance):
        first = rm_without_oracle(probabilistic_instance, quick_params(seed=11))
        second = rm_without_oracle(probabilistic_instance, quick_params(seed=11))
        assert first.allocation.as_dict() == second.allocation.as_dict()

    def test_subsim_generator_path(self, probabilistic_instance):
        from repro.runtime import ExecutionPolicy

        result = rm_without_oracle(
            probabilistic_instance, quick_params(policy=ExecutionPolicy(rr_engine="subsim"))
        )
        assert result.revenue >= 0.0

    def test_validation_ratio_check_path(self, probabilistic_instance):
        params = quick_params(validation_ratio_check=True, validation_ratio=1.0)
        result = rm_without_oracle(probabilistic_instance, params)
        assert result.metadata["rr_sets"] >= 256

    def test_theoretical_thetas_reported(self, probabilistic_instance):
        result = rm_without_oracle(probabilistic_instance, quick_params())
        assert result.metadata["theta_max_theoretical"] > 0
        assert result.metadata["theta_zero_theoretical"] > 0

    def test_single_advertiser_instance(self, single_advertiser_instance):
        result = rm_without_oracle(single_advertiser_instance, quick_params())
        assert result.metadata["lambda"] == pytest.approx(1 / 3)
        assert result.allocation.num_advertisers == 1


class TestOneBatch:
    def test_basic_run(self, probabilistic_instance):
        result = one_batch_rm(probabilistic_instance, num_rr_sets=512, params=quick_params())
        assert result.algorithm == "OneBatchRM"
        assert result.metadata["rr_sets"] == 512

    def test_invalid_rr_count(self, probabilistic_instance):
        with pytest.raises(SolverError):
            one_batch_rm(probabilistic_instance, num_rr_sets=0)

    def test_more_samples_do_not_hurt_much(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        small = one_batch_rm(probabilistic_instance, 64, quick_params(seed=5))
        large = one_batch_rm(probabilistic_instance, 2048, quick_params(seed=5))
        revenue_small = oracle.total_revenue(small.allocation)
        revenue_large = oracle.total_revenue(large.allocation)
        assert revenue_large >= revenue_small * 0.8


# --------------------------------------------------------------------------- #
# the R2 budget check holds for every returned allocation, even at a cap
# --------------------------------------------------------------------------- #
_DATASETS = {}


def _cap_dataset():
    if "lastfm" not in _DATASETS:
        from repro.datasets.registry import build_dataset

        _DATASETS["lastfm"] = build_dataset(
            "lastfm_like", num_advertisers=3, scale=0.15, seed=1, singleton_rr_sets=200
        )
    return _DATASETS["lastfm"]


def _replayed_r2(instance, params, iterations):
    """The solver's R2 collection, rebuilt by replaying its sampler calls."""
    from repro.rrsets.uniform import UniformRRSampler
    from repro.utils.rng import as_rng

    sampler = UniformRRSampler(
        instance.graph,
        instance.all_edge_probabilities(),
        instance.cpes(),
        seed=as_rng(params.seed),
        policy=params.resolved_policy(),
    )
    theta0 = params.initial_rr_sets
    collection_one = sampler.generate_collection(theta0)
    collection_two = sampler.generate_collection(theta0)
    for _ in range(iterations - 1):
        grow = len(collection_one)
        sampler.generate_collection(grow, into=collection_one)
        sampler.generate_collection(grow, into=collection_two)
    return collection_two


class TestFeasibilityAtCap:
    """Every returned allocation passes its own R2 budget check — the
    union-bounded one of Lines 8-11, or, once θ hit the cap without passing
    it, the one-sided bound of the at-cap repair."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cap=st.sampled_from([32, 64, 128, 512]),
        jobs=st.sampled_from([1, 2]),
    )
    def test_every_allocation_passes_its_own_r2_check(self, seed, cap, jobs):
        import math

        from repro.advertising.oracle import RRSetOracle
        from repro.core.bounds import upper_bound_from_estimate
        from repro.core.sampling_solver import CAP_REPAIR_CONFIDENCE
        from repro.runtime import ExecutionPolicy

        instance = _cap_dataset().instance
        params = quick_params(
            initial_rr_sets=16,
            max_rr_sets=cap,
            seed=seed,
            policy=ExecutionPolicy.fast(n_jobs=jobs),
        )
        result = rm_without_oracle(instance, params)
        meta = result.metadata
        assert meta["rr_sets"] <= cap
        if meta["rr_sets"] < meta["rr_set_cap"]:
            assert meta["feasible"]
        r2 = _replayed_r2(instance, params, meta["iterations"])
        assert len(r2) == meta["rr_sets"]
        oracle = RRSetOracle(r2, instance.gamma)
        h = instance.num_advertisers
        t_max = max(1, math.ceil(math.log2(max(2.0, meta["rr_set_cap"] / 16)))) + 1
        q = math.log((h + 2) * t_max / (params.delta / 4.0))
        confidence = q if meta["feasible"] else CAP_REPAIR_CONFIDENCE
        budgets = instance.budgets() * (1.0 + params.rho)
        for advertiser, seeds in result.allocation.items():
            if not seeds:
                continue  # an advertiser without seeds spends nothing
            ub = upper_bound_from_estimate(
                oracle.revenue(advertiser, seeds),
                len(r2),
                instance.num_nodes * instance.gamma,
                confidence,
            )
            assert ub <= budgets[advertiser] - instance.cost_of_set(advertiser, seeds)
        if meta["feasible"]:
            assert meta["seeds_removed_at_cap"] == {}

    def test_seed_policy_replays_the_capped_round(self):
        """``seed()`` promises the seed tree's outputs, so it keeps the
        capped round and reports it as infeasible instead of repairing it."""
        from repro.runtime import ExecutionPolicy

        params = quick_params(
            initial_rr_sets=16, max_rr_sets=32, seed=5, policy=ExecutionPolicy.seed()
        )
        result = rm_without_oracle(_cap_dataset().instance, params)
        assert result.metadata["seeds_removed_at_cap"] == {}
        assert result.metadata["feasible"] is False


class TestCapNote:
    """``SolverResult.cap_note`` says when a sample cap, not RMA's own
    stopping rule, ended the solve."""

    @staticmethod
    def _result(**meta):
        from repro.advertising.allocation import Allocation
        from repro.core.result import SolverResult

        metadata = dict(
            rr_sets=4096, rr_set_cap=4096, theta_max_theoretical=7.9e6,
            beta=0.5, **{"lambda": 0.083}, epsilon=0.08, feasible=False,
            seeds_removed_at_cap={},
        )
        metadata.update(meta)
        return SolverResult(allocation=Allocation(2), revenue=1.0, metadata=metadata)

    def test_states_the_cap_and_the_failed_check(self):
        assert self._result().cap_note == (
            "capped at θ = 4,096 of θ_max = 7.9M; budget check not passed"
        )
        note = self._result(beta=0.0, seeds_removed_at_cap={0: 2, 1: 1}).cap_note
        assert note == (
            "capped at θ = 4,096 of θ_max = 7.9M; ratio test and budget check "
            "not passed; 3 seeds removed to fit the budgets"
        )
        assert "θ_max = 12,001;" in self._result(theta_max_theoretical=12000.5).cap_note

    def test_silent_when_no_cap_bound(self):
        assert self._result(feasible=True).cap_note is None  # stopped by its rule
        assert self._result(rr_sets=2048).cap_note is None  # below the cap
        assert self._result(rr_set_cap=8e6).cap_note is None  # the cap is θ_max
        from repro.advertising.allocation import Allocation
        from repro.core.result import SolverResult

        assert SolverResult(allocation=Allocation(2), revenue=1.0).cap_note is None

    def test_a_capped_rma_solve_reports_it(self):
        result = rm_without_oracle(
            _cap_dataset().instance, quick_params(initial_rr_sets=64, max_rr_sets=128)
        )
        meta = result.metadata
        assert meta["rr_sets"] == meta["rr_set_cap"] == 128
        if meta["feasible"] and meta["beta"] >= meta["lambda"] - meta["epsilon"]:
            assert result.cap_note is None
        else:
            assert result.cap_note.startswith("capped at θ = 128 of θ_max = ")
