"""Post-flip equivalence suite (the default-policy bugfix contract).

Two guarantees pin the flip of the default from the serial seed path to
:meth:`ExecutionPolicy.fast`:

1. **The escape hatch is intact** — ``ExecutionPolicy.seed()`` reproduces the
   pre-flip no-args defaults bit-for-bit.  The expected revenues and
   allocations were recorded in ``tests/data/preflip_golden.json`` by running
   the exact recipes below on the commit *before* the flip, when a
   parameter object with no policy meant the legacy serial engines.
2. **The shims are gone** — every call site that used to accept the legacy
   per-flag kwargs (``use_subsim`` / ``use_batched_mc`` /
   ``use_batched_greedy`` / loose ``n_jobs`` / ``fast``) now raises
   ``TypeError``, so old code fails loudly instead of silently running on
   different engines.  The same holds for the retired ``greedy_engine``
   policy field: the greedy evaluator follows the oracle, with no knob —
   and for the ``policy=`` the pure greedy routines (Greedy,
   ThresholdGreedy, Fill, ``γ_max``, Search) never read.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.advertising.oracle import MonteCarloOracle, RRSetOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.baselines.ti_carm import ti_carm
from repro.baselines.ti_csrm import ti_csrm
from repro.baselines.ti_common import TIParameters
from repro.core.greedy import greedy_single_advertiser
from repro.core.oracle_solver import rm_with_oracle
from repro.core.sampling_solver import (
    SamplingParameters,
    one_batch_rm,
    rm_without_oracle,
)
from repro.core.search import gamma_max, search_threshold
from repro.core.threshold_greedy import fill, threshold_greedy
from repro.datasets.registry import build_dataset
from repro.experiments.runner import run_algorithm
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy, Runtime

GOLDEN_PATH = Path(__file__).parent / "data" / "preflip_golden.json"
SEED = ExecutionPolicy.seed()


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        "lastfm_like", num_advertisers=3, scale=0.15, seed=1, singleton_rr_sets=200
    )


@pytest.fixture(scope="module")
def rr_oracle(dataset):
    # Same recipe the golden file was recorded with; the sampler must be
    # pinned to the seed policy now that its default is SUBSIM.
    instance = dataset.instance
    sampler = UniformRRSampler(
        instance.graph,
        instance.all_edge_probabilities(),
        instance.cpes(),
        seed=7,
        policy=SEED,
    )
    return RRSetOracle(sampler.generate_collection(800), instance.gamma)


def _fingerprint(result):
    return {
        "revenue": result.revenue,
        "allocation": {
            str(a): sorted(int(n) for n in s) for a, s in result.allocation.items()
        },
    }


def _sampling():
    return SamplingParameters(initial_rr_sets=128, max_rr_sets=256, seed=1, policy=SEED)


def _ti():
    return TIParameters(pilot_size=32, max_rr_sets_per_advertiser=128, seed=2, policy=SEED)


# --------------------------------------------------------------------------- #
# seed() reproduces the pre-flip no-args defaults bit-for-bit
# --------------------------------------------------------------------------- #
class TestSeedPolicyMatchesPreflipGolden:
    def test_rma(self, dataset, golden):
        result = rm_without_oracle(dataset.instance, _sampling())
        assert _fingerprint(result) == golden["RMA"]

    def test_one_batch(self, dataset, golden):
        result = one_batch_rm(dataset.instance, 256, _sampling())
        assert _fingerprint(result) == golden["OneBatchRM"]

    def test_ti_carm(self, dataset, golden):
        assert _fingerprint(ti_carm(dataset.instance, _ti())) == golden["TI-CARM"]

    def test_ti_csrm(self, dataset, golden):
        assert _fingerprint(ti_csrm(dataset.instance, _ti())) == golden["TI-CSRM"]

    def test_cs_greedy(self, dataset, golden, rr_oracle):
        result = cs_greedy(dataset.instance, rr_oracle)
        assert _fingerprint(result) == golden["CS-Greedy"]

    def test_ca_greedy(self, dataset, golden, rr_oracle):
        result = ca_greedy(dataset.instance, rr_oracle)
        assert _fingerprint(result) == golden["CA-Greedy"]

    def test_greedy_engines_agree_on_golden_allocations(self, dataset, golden, rr_oracle):
        """The greedy loops take no policy, so even under a fast runtime they
        reproduce the golden *allocations* when the oracle's RR-set
        collection is pinned to the seed sampler."""
        with Runtime(ExecutionPolicy.fast()):
            assert _fingerprint(cs_greedy(dataset.instance, rr_oracle)) == golden["CS-Greedy"]
            assert _fingerprint(ca_greedy(dataset.instance, rr_oracle)) == golden["CA-Greedy"]


# --------------------------------------------------------------------------- #
# every former shim site fails loudly
# --------------------------------------------------------------------------- #
class TestLegacyKwargsRaiseTypeError:
    def test_sampling_parameters(self):
        for kwargs in (
            {"use_subsim": True},
            {"use_batched_mc": True},
            {"use_batched_greedy": True},
            {"greedy_engine": "batched"},
            {"n_jobs": 2},
            {"fast": True},
        ):
            with pytest.raises(TypeError):
                SamplingParameters(**kwargs)

    def test_ti_parameters(self):
        for kwargs in (
            {"use_subsim": True},
            {"use_batched_greedy": True},
            {"greedy_engine": "batched"},
            {"n_jobs": 2},
        ):
            with pytest.raises(TypeError):
                TIParameters(**kwargs)

    def test_monte_carlo_oracle(self, dataset):
        with pytest.raises(TypeError):
            MonteCarloOracle(dataset.instance, use_batched_mc=True)
        with pytest.raises(TypeError):
            MonteCarloOracle(dataset.instance, n_jobs=2)

    def test_execution_policy(self):
        for engine in ("scalar", "batched"):
            with pytest.raises(TypeError):
                ExecutionPolicy(greedy_engine=engine)
            with pytest.raises(TypeError):
                ExecutionPolicy.fast().evolve(greedy_engine=engine)

    def test_oracle_solver(self, dataset, rr_oracle):
        for kwargs in (
            {"use_batched_greedy": True},
            {"greedy_engine": "batched"},
            {"policy": ExecutionPolicy.seed()},
        ):
            with pytest.raises(TypeError):
                rm_with_oracle(dataset.instance, rr_oracle, **kwargs)

    def test_greedy_family(self, dataset, rr_oracle):
        # The pure greedy routines never read a policy, so they take none.
        instance = dataset.instance
        for kwargs in (
            {"use_batched_greedy": True},
            {"greedy_engine": "batched"},
            {"policy": ExecutionPolicy.seed()},
        ):
            with pytest.raises(TypeError):
                greedy_single_advertiser(
                    instance, rr_oracle, 0, instance.budget(0), **kwargs
                )
            with pytest.raises(TypeError):
                threshold_greedy(instance, rr_oracle, 1.0, **kwargs)
            with pytest.raises(TypeError):
                fill(instance, rr_oracle, object(), **kwargs)
            with pytest.raises(TypeError):
                gamma_max(instance, rr_oracle, **kwargs)
            with pytest.raises(TypeError):
                search_threshold(instance, rr_oracle, 0.1, 1, **kwargs)

    def test_baselines(self, dataset, rr_oracle):
        for kwargs in (
            {"use_batched_greedy": True},
            {"greedy_engine": "batched"},
            {"policy": ExecutionPolicy.seed()},
        ):
            with pytest.raises(TypeError):
                cs_greedy(dataset.instance, rr_oracle, **kwargs)
            with pytest.raises(TypeError):
                ca_greedy(dataset.instance, rr_oracle, **kwargs)

    def test_uniform_sampler(self, dataset):
        instance = dataset.instance
        with pytest.raises(TypeError):
            UniformRRSampler(
                instance.graph,
                instance.all_edge_probabilities(),
                instance.cpes(),
                use_subsim=True,
            )

    def test_run_algorithm(self, dataset):
        for kwargs in (
            {"fast": True},
            {"n_jobs": 2},
            {"use_subsim": True},
            {"use_batched_mc": True},
            {"use_batched_greedy": True},
            {"greedy_engine": "batched"},
        ):
            with pytest.raises(TypeError):
                run_algorithm("RMA", dataset.instance, **kwargs)
