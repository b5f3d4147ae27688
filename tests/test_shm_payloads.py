"""Zero-copy shared-memory payload transport: bit-identity + lifecycle.

Two contracts, matrixed over fork and spawn:

1. **Transport never influences results** — RR generation, sharded MC
   spread and full greedy allocations are bit-identical under
   ``payload="shm"`` and ``payload="pickle"`` for the same
   ``(seed, n_jobs)``.
2. **No segment outlives its pool** — ``/dev/shm`` is clean after a plain
   close, after crash-driven respawns (SIGKILL-equivalent worker death via
   the fault injector), and after a SIGTERM drain of ``repro serve``
   running with ``--payload shm``; crash respawn reuses the *same* live
   segment instead of repacking.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core.sampling_solver import SamplingParameters, rm_without_oracle
from repro.diffusion.models import WeightedCascadeModel
from repro.exceptions import ExecutionError
from repro.graph import storage
from repro.graph.generators import preferential_attachment_digraph
from repro.parallel import (
    FailurePolicy,
    FaultInjector,
    PersistentPool,
    ShardedExecutor,
)
from repro.parallel.executor import (
    AUTO_SHM_MIN_BYTES,
    PAYLOAD_MODES,
    _close_attached_segments,
    _decode_shm_payload,
    _encode_shm_payload,
    validate_payload_mode,
)
from repro.parallel.mc import sharded_spread
from repro.parallel.rr import run_generation_shards
from repro.rrsets.generator import SubsimRRGenerator
from repro.runtime import ExecutionPolicy, Runtime

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Start methods to matrix over (fork is Linux-only).
START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

DEGRADE = FailurePolicy(retry_backoff_s=0.01)


@pytest.fixture(scope="module")
def micro_graph():
    return preferential_attachment_digraph(60, out_degree=3, seed=2)


@pytest.fixture(scope="module")
def wc_probabilities(micro_graph):
    return np.asarray(
        WeightedCascadeModel(micro_graph).edge_probabilities(), dtype=np.float64
    )


def _rr_signature(shards):
    return tuple(
        (tuple(shard.members.tolist()), tuple(shard.sizes.tolist()))
        for shard in shards
    )


def _new_segments(baseline):
    return sorted(set(storage.active_segments()) - set(baseline))


@pytest.fixture()
def segment_baseline():
    """Pre-existing segments (should be none, but don't fail on neighbours)."""
    return storage.active_segments()


# --------------------------------------------------------------------------- #
# payload-mode validation & auto threshold
# --------------------------------------------------------------------------- #
class TestPayloadModeKnob:
    def test_modes(self):
        assert set(PAYLOAD_MODES) == {"auto", "pickle", "shm"}
        for mode in PAYLOAD_MODES:
            assert validate_payload_mode(mode) == mode
        with pytest.raises(ExecutionError):
            validate_payload_mode("carrier-pigeon")

    def test_pool_rejects_bad_mode(self):
        with pytest.raises(ExecutionError):
            PersistentPool(payload_mode="nope")

    def test_auto_small_payload_uses_pickle(self, segment_baseline):
        pool = PersistentPool(payload_mode="auto")
        try:
            assert pool.broadcast(np.arange(16), processes=2)
            assert _new_segments(segment_baseline) == []
        finally:
            pool.close()

    def test_auto_large_payload_uses_shm(self, segment_baseline):
        big = np.zeros(AUTO_SHM_MIN_BYTES // 8 + 16, dtype=np.float64)
        pool = PersistentPool(payload_mode="auto")
        try:
            assert pool.broadcast(big, processes=2)
            assert len(_new_segments(segment_baseline)) == 1
        finally:
            pool.close()
        assert _new_segments(segment_baseline) == []


# --------------------------------------------------------------------------- #
# bit-identity: shm vs pickle vs serial, fork and spawn
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("start_method", START_METHODS)
class TestBitIdentity:
    def _executor(self, start_method, payload_mode, pool_holder):
        pool = PersistentPool(start_method=start_method, payload_mode=payload_mode)
        pool_holder.append(pool)
        return ShardedExecutor(2, pool=pool)

    def test_rr_generation(self, start_method, micro_graph, wc_probabilities):
        serial = run_generation_shards(
            SubsimRRGenerator, micro_graph, wc_probabilities, 120, 7,
            ShardedExecutor(2),
        )
        pools = []
        try:
            signatures = {
                mode: _rr_signature(
                    run_generation_shards(
                        SubsimRRGenerator, micro_graph, wc_probabilities, 120, 7,
                        self._executor(start_method, mode, pools),
                    )
                )
                for mode in ("pickle", "shm")
            }
        finally:
            for pool in pools:
                pool.close()
        assert signatures["pickle"] == signatures["shm"] == _rr_signature(serial)

    def test_mc_spread(self, start_method, micro_graph, wc_probabilities):
        seeds = np.array([0, 3, 11], dtype=np.int64)
        pools = []
        try:
            spreads = {
                mode: sharded_spread(
                    micro_graph, wc_probabilities, seeds, 400, 5,
                    self._executor(start_method, mode, pools),
                )
                for mode in ("pickle", "shm")
            }
        finally:
            for pool in pools:
                pool.close()
        assert spreads["pickle"] == spreads["shm"]

    def test_greedy_allocations(self, start_method, pool_from_slots):
        from repro.datasets.registry import build_dataset

        dataset = build_dataset(
            "lastfm_like", num_advertisers=3, scale=0.15, seed=1,
            singleton_rr_sets=200,
        )
        pool_from_slots(dataset.instance.graph)
        results = {}
        for mode in ("pickle", "shm"):
            params = SamplingParameters(
                initial_rr_sets=256,  # calls of fewer than 256 run in-process
                max_rr_sets=512,
                seed=1,
                policy=ExecutionPolicy(rr_engine="subsim", n_jobs=2, payload=mode),
            )
            with Runtime(params.policy, start_method=start_method) as rt:
                results[mode] = rm_without_oracle(
                    dataset.instance, params, runtime=rt
                )
                assert rt.pool_spawn_count == 1
        pickle_run, shm_run = results["pickle"], results["shm"]
        assert pickle_run.revenue == shm_run.revenue
        assert all(
            pickle_run.allocation.seeds(i) == shm_run.allocation.seeds(i)
            for i in range(3)
        )
        assert pickle_run.metadata["rr_sets"] == shm_run.metadata["rr_sets"]


# --------------------------------------------------------------------------- #
# segment lifecycle: close, crash respawn, worker SIGKILL
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("start_method", START_METHODS)
class TestSegmentLifecycle:
    def test_close_unlinks_segments(
        self, start_method, micro_graph, wc_probabilities, segment_baseline
    ):
        pool = PersistentPool(start_method=start_method, payload_mode="shm")
        executor = ShardedExecutor(2, pool=pool)
        run_generation_shards(
            SubsimRRGenerator, micro_graph, wc_probabilities, 60, 7, executor
        )
        created = _new_segments(segment_baseline)
        assert len(created) == 1
        assert storage.segment_exists(created[0])
        pool.close()
        assert _new_segments(segment_baseline) == []
        assert not storage.segment_exists(created[0])

    def test_crash_respawn_reuses_live_segment(
        self, start_method, micro_graph, wc_probabilities, segment_baseline
    ):
        """A SIGKILL-equivalent worker death (os._exit) must not lose or leak
        the segment: the respawned pool re-broadcasts the same one."""
        expected = _rr_signature(
            run_generation_shards(
                SubsimRRGenerator, micro_graph, wc_probabilities, 60, 7,
                ShardedExecutor(2),
            )
        )
        pool = PersistentPool(start_method=start_method, payload_mode="shm")
        try:
            executor = ShardedExecutor(2, pool=pool, failure=DEGRADE)
            injector = FaultInjector(context=multiprocessing.get_context(start_method))
            injector.kill_worker(shard=0, when="before")
            with warnings.catch_warnings(), injector:
                warnings.simplefilter("ignore", RuntimeWarning)
                recovered = _rr_signature(
                    run_generation_shards(
                        SubsimRRGenerator, micro_graph, wc_probabilities, 60, 7,
                        executor,
                    )
                )
            assert recovered == expected
            assert pool.spawn_count == 2  # initial spawn + recovery respawn
            assert pool.recovery_stats.pool_respawns >= 1
            created = _new_segments(segment_baseline)
            assert len(created) == 1
            # The recovered pool keeps serving the same bits off the same
            # segment: the post-respawn re-broadcast reused it, no repack.
            clean = _rr_signature(
                run_generation_shards(
                    SubsimRRGenerator, micro_graph, wc_probabilities, 60, 7,
                    executor,
                )
            )
            assert clean == expected
            assert _new_segments(segment_baseline) == created
        finally:
            pool.close()
        assert _new_segments(segment_baseline) == []


def test_payload_packing_holds_no_reference_cycle(micro_graph, segment_baseline):
    """A packed payload's arrays, and the views decoded from its segment,
    die with their last reference instead of waiting for a cyclic
    collection; long-lived pools stream one payload per graph snapshot."""
    probabilities = np.full(micro_graph.num_edges, 0.3)
    packed = weakref.ref(probabilities)
    gc.disable()
    try:
        segment, wire = _encode_shm_payload((micro_graph, [probabilities]))
        try:
            decoded = _decode_shm_payload(wire)
            view = weakref.ref(decoded[1][0])
            del decoded, probabilities
            assert packed() is None
            assert view() is None
        finally:
            _close_attached_segments()
            segment.unlink()
    finally:
        gc.enable()
    assert _new_segments(segment_baseline) == []


# --------------------------------------------------------------------------- #
# SIGTERM drain of `repro serve --payload shm`
# --------------------------------------------------------------------------- #
class TestServeDrain:
    def test_sigterm_drain_leaves_no_segments(self, segment_baseline):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                # A 4,000-slot store on 450 nodes: enough work to use the pool.
                "--dataset", "flixster_like", "--scale", "0.3",
                "--advertisers", "2", "--rr-sets", "4000", "--seed", "11",
                "--jobs", "2", "--payload", "shm",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            for line in proc.stderr:
                if "serving:" in line:
                    break
            # The store was drawn on the pool, through shared memory.
            assert _new_segments(segment_baseline)
            proc.stdin.write(json.dumps({"op": "allocate", "id": 1, "tau": 0.1}) + "\n")
            proc.stdin.flush()
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:  # pragma: no cover - hard timeout
            proc.kill()
            raise
        assert proc.returncode == 0
        replies = [json.loads(line) for line in stdout.splitlines() if line]
        assert any(r["id"] == 1 and r["ok"] for r in replies), replies
        assert _new_segments(segment_baseline) == []
