"""Where a slot call runs: in-process when the pool cannot win, else on the pool.

``repro.parallel.rr.run_slot_shards`` keeps a call in-process while its
slots times its graph's mean in-degree stay below ``_INLINE_WORK``.  These
tests pin that split with the call shapes the library really makes:

* an RMA solve on ``flixster_like`` scale 0.2 (300 nodes, 2.2k edges,
  512 to 4,096 RR-sets) never reaches the pool, and its allocation is the
  same for every ``n_jobs``;
* a TI-CARM solve on ``snap_scale`` scale 0.01 (10k nodes, 106.5k edges)
  fills each advertiser's pool (3,968 slots) on the pool and draws its
  128-slot pilots in-process;
* a 4,000-slot ``RRStore.generate`` on that graph uses the pool, and a
  redraw of fewer than 256 slots stays in-process.

Results never depend on the split (every slot is a pure function of
``(entropy, slot)``); these tests only pin where the work runs.
"""

from __future__ import annotations

import pytest

from repro.baselines.ti_common import TIParameters, run_ti_baseline
from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
from repro.datasets.registry import build_dataset
from repro.graph.deltas import MutableGraphView, UpdateProbability
from repro.parallel.executor import MAX_JOBS_ENV, PersistentPool
from repro.parallel.rr import _INLINE_WORK
from repro.rrsets.store import RRStore
from repro.runtime import ExecutionPolicy, Runtime


@pytest.fixture
def pool_runs(monkeypatch):
    """A list that gains one entry per ``PersistentPool.run`` call."""
    monkeypatch.setenv(MAX_JOBS_ENV, "2")
    runs = []
    original = PersistentPool.run

    def counted(self, *args, **kwargs):
        runs.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PersistentPool, "run", counted)
    return runs


@pytest.fixture(scope="module")
def flixster():
    return build_dataset(
        "flixster_like", num_advertisers=5, scale=0.2, seed=7, singleton_rr_sets=500
    )


@pytest.fixture(scope="module")
def snap():
    return build_dataset(
        "snap_scale", num_advertisers=5, scale=0.01, seed=7, singleton_rr_sets=128
    )


def test_rma_solve_stays_in_process_for_every_n_jobs(flixster, pool_runs):
    instance = flixster.instance
    graph = instance.graph
    # The largest round doubles 2,048 RR-sets to 4,096.
    assert 2048 * graph.num_edges / graph.num_nodes < _INLINE_WORK
    allocations = set()
    for n_jobs in (1, 2, 3):
        policy = ExecutionPolicy.fast(n_jobs=n_jobs)
        params = SamplingParameters(
            epsilon=0.1, rho=0.1, tau=0.1, initial_rr_sets=512, max_rr_sets=4096,
            policy=policy, seed=5,
        )
        with Runtime(policy) as runtime:
            result = rm_without_oracle(instance, params, runtime=runtime)
            assert runtime.pool_spawn_count == 0
        assert result.metadata["rr_sets"] == 4096
        allocations.add((result.revenue, tuple(sorted(result.allocation.pairs()))))
    assert not pool_runs
    assert len(allocations) == 1


def test_ti_carm_pool_fills_use_the_pool(snap, pool_runs):
    instance = snap.instance.with_scaled_budgets(1.1)
    policy = ExecutionPolicy.fast(n_jobs=2)
    params = TIParameters(
        epsilon=0.1, pilot_size=128, max_rr_sets_per_advertiser=4096, policy=policy, seed=5
    )
    with Runtime(policy) as runtime:
        result = run_ti_baseline(
            instance, params, runtime=runtime, cost_sensitive=False, algorithm_name="TI-CARM"
        )
    # One 3,968-slot fill per advertiser, each a pool call; the pilots
    # (128 slots × mean in-degree 10.7) stay in-process.
    assert result.metadata["generated_rr_sets_total"] == 4096 * instance.num_advertisers
    assert len(pool_runs) == instance.num_advertisers


def test_store_generate_uses_the_pool_and_small_redraws_do_not(snap, pool_runs):
    instance = snap.instance
    policy = ExecutionPolicy.fast(n_jobs=2)
    with Runtime(policy) as runtime:
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=5, policy=policy, runtime=runtime)
        store.generate(4000)
        assert len(pool_runs) == 1
        u, v = view.edges()[0]
        report = store.apply_deltas([UpdateProbability(u, v, 0.9)])
        assert 0 < report.redrawn < 256
        assert len(pool_runs) == 1
