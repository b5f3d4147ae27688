"""Durability suite: checksummed checkpoints, WAL journal, kill -9 recovery.

The acceptance contract (e): a server killed with ``SIGKILL`` between delta
batches restarts — from its checkpoint plus the write-ahead journal — with
an RR-store **bit-identical** to replaying the acknowledged deltas on a
fresh store.  The write-ahead ordering (journal fsync *before* apply,
reply after) is what makes "acknowledged" well-defined across the kill.

Also covered: atomic checkpoint writes (a reader never sees a torn file),
payload checksum verification, torn-journal-tail tolerance vs mid-journal
corruption, and epoch-gap detection.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import CheckpointError, SamplingError
from repro.graph.deltas import AddNode, MutableGraphView, UpdateProbability
from repro.rrsets.store import RRStore
from repro.runtime import ExecutionPolicy
from repro.serve import AllocationServer, CheckpointManager
from repro.serve.checkpoint import DeltaJournal

from test_serve import SERIAL, build_instance, edge_update

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def instance():
    return build_instance()


def fresh_replay(instance, delta_batches, rr_sets=300, seed=11):
    """A store built from scratch and fed the same batches (the reference)."""
    view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
    store = RRStore(view, instance.cpes(), seed=seed, policy=SERIAL)
    store.generate(rr_sets)
    for batch in delta_batches:
        store.apply_deltas(batch)
    return store


def assert_stores_bit_identical(left, right):
    """Slot arrays + entropy define the store; view epochs are relative
    counters (a restored view restarts at 0 under the checkpoint's base)."""
    for a, b in zip(left.export_slots(), right.export_slots()):
        assert np.array_equal(a, b)
    assert left.seed == right.seed
    assert left.view.num_nodes == right.view.num_nodes


# --------------------------------------------------------------------------- #
# checkpoint file format
# --------------------------------------------------------------------------- #
class TestCheckpointFormat:
    def test_roundtrip(self, instance, tmp_path):
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=11, policy=SERIAL)
        store.generate(200)
        manager = CheckpointManager(tmp_path)
        assert not manager.has_checkpoint()
        manager.save_state(view, store, epoch=0)
        assert manager.has_checkpoint()
        restored = manager.restore(policy=SERIAL)
        assert restored.base_epoch == 0
        assert restored.replayed_batches == 0
        assert not restored.dropped_torn_tail
        assert_stores_bit_identical(store, restored.store)
        # The restored store is live: it can absorb further deltas.
        restored.store.apply_deltas([AddNode(count=1)])
        assert restored.view.epoch == 1

    def test_checkpoint_includes_isolated_nodes(self, instance, tmp_path):
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=11, policy=SERIAL)
        store.generate(100)
        store.apply_deltas([AddNode(count=3)])
        manager = CheckpointManager(tmp_path)
        manager.save_state(view, store, epoch=1)
        restored = manager.restore(policy=SERIAL)
        assert restored.view.num_nodes == instance.num_nodes + 3
        assert_stores_bit_identical(store, restored.store)

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointManager(tmp_path).load()

    def test_corrupt_payload_detected(self, instance, tmp_path):
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=11, policy=SERIAL)
        store.generate(50)
        manager = CheckpointManager(tmp_path)
        path = manager.save_state(view, store, epoch=0)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            manager.load()

    def test_truncated_payload_detected(self, instance, tmp_path):
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=11, policy=SERIAL)
        store.generate(50)
        manager = CheckpointManager(tmp_path)
        path = manager.save_state(view, store, epoch=0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            manager.load()

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "store.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            CheckpointManager(tmp_path).load()


# --------------------------------------------------------------------------- #
# delta journal
# --------------------------------------------------------------------------- #
class TestDeltaJournal:
    def test_append_and_replay(self, tmp_path):
        journal = DeltaJournal(tmp_path / "deltas.wal")
        journal.append(1, [UpdateProbability(0, 1, 0.5)])
        journal.append(2, [AddNode(count=2)])
        journal.close()
        entries, torn = journal.entries()
        assert not torn
        assert [epoch for epoch, _ in entries] == [1, 2]
        assert entries[0][1] == [UpdateProbability(0, 1, 0.5)]
        assert entries[1][1] == [AddNode(count=2)]

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        journal = DeltaJournal(tmp_path / "deltas.wal")
        journal.append(1, [UpdateProbability(0, 1, 0.5)])
        journal.close()
        with open(tmp_path / "deltas.wal", "ab") as handle:
            handle.write(b'deadbeef {"epoch": 2, "deltas": [{"kind": "add_')
        entries, torn = journal.entries()
        assert torn
        assert [epoch for epoch, _ in entries] == [1]

    def test_mid_journal_corruption_raises(self, tmp_path):
        journal = DeltaJournal(tmp_path / "deltas.wal")
        journal.append(1, [UpdateProbability(0, 1, 0.5)])
        journal.append(2, [AddNode(count=1)])
        journal.close()
        lines = (tmp_path / "deltas.wal").read_bytes().split(b"\n")
        lines[0] = b"00000000 " + lines[0].split(b" ", 1)[1]  # break line 1 CRC
        (tmp_path / "deltas.wal").write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="corrupt at line 1"):
            journal.entries()

    def test_reset_truncates(self, tmp_path):
        journal = DeltaJournal(tmp_path / "deltas.wal")
        journal.append(1, [AddNode()])
        journal.reset()
        entries, torn = journal.entries()
        assert entries == [] and not torn
        journal.append(2, [AddNode()])  # reusable after reset
        assert [e for e, _ in journal.entries()[0]] == [2]

    def test_epoch_gap_detected_on_restore(self, instance, tmp_path):
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=11, policy=SERIAL)
        store.generate(50)
        manager = CheckpointManager(tmp_path)
        manager.save_state(view, store, epoch=0)
        manager.journal.append(2, [AddNode()])  # epoch 1 is missing
        manager.journal.close()
        with pytest.raises(CheckpointError, match="skips from epoch"):
            manager.restore(policy=SERIAL)


# --------------------------------------------------------------------------- #
# (e) crash recovery == fresh replay, bit for bit
# --------------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_abandoned_server_restarts_bit_identical(self, instance, tmp_path):
        """In-process kill -9 model: drop the server (no drain, no final
        checkpoint) after acknowledged batches; recovery must equal a fresh
        store replaying the same batches."""
        batches_json = [
            [edge_update(instance, edge_id=0, probability=0.05)],
            [edge_update(instance, edge_id=1, probability=0.4)],
            [{"kind": "add_node", "count": 2}],
        ]
        server = AllocationServer(
            instance, policy=SERIAL, rr_sets=300, seed=11, checkpoint_dir=tmp_path
        )
        server.start()
        for batch in batches_json:
            reply = server.request({"op": "refresh", "deltas": batch})
            assert reply["ok"] is True
        allocation_before = server.request({"op": "allocate", "id": "a"})
        server.runtime.close()  # abandon without drain: simulated SIGKILL

        recovered = AllocationServer(
            instance, policy=SERIAL, rr_sets=300, seed=11, checkpoint_dir=tmp_path
        )
        with recovered:
            assert recovered.restored
            assert recovered.replayed_batches == 3
            assert recovered.epoch == 3
            from repro.serve.protocol import delta_from_json

            reference = fresh_replay(
                instance,
                [[delta_from_json(d) for d in batch] for batch in batches_json],
            )
            assert_stores_bit_identical(recovered.store, reference)
            allocation_after = recovered.request({"op": "allocate", "id": "a"})
            assert allocation_before["result"] == allocation_after["result"]

    def test_checkpoint_rotation_keeps_equivalence(self, instance, tmp_path):
        """With checkpoint_every=1 every batch rotates the journal; recovery
        must still match the full fresh replay."""
        from repro.serve import ServicePolicy
        from repro.serve.protocol import delta_from_json

        batches_json = [
            [edge_update(instance, edge_id=2, probability=0.01)],
            [edge_update(instance, edge_id=3, probability=0.33)],
        ]
        service = ServicePolicy(checkpoint_every=1)
        server = AllocationServer(
            instance,
            policy=SERIAL,
            rr_sets=300,
            seed=11,
            checkpoint_dir=tmp_path,
            service=service,
        )
        server.start()
        for batch in batches_json:
            assert server.request({"op": "refresh", "deltas": batch})["ok"]
        server.runtime.close()

        recovered = AllocationServer(
            instance, policy=SERIAL, rr_sets=300, seed=11, checkpoint_dir=tmp_path
        )
        with recovered:
            assert recovered.restored
            # Journal was rotated after every batch: nothing left to replay.
            assert recovered.replayed_batches == 0
            assert recovered.epoch == 2
            reference = fresh_replay(
                instance,
                [[delta_from_json(d) for d in batch] for batch in batches_json],
            )
            assert_stores_bit_identical(recovered.store, reference)

    def test_explicit_checkpoint_op(self, instance, tmp_path):
        server = AllocationServer(
            instance, policy=SERIAL, rr_sets=200, seed=11, checkpoint_dir=tmp_path
        )
        with server:
            assert server.request({"op": "refresh", "deltas": [edge_update(instance)]})["ok"]
            reply = server.request({"op": "checkpoint"})
            assert reply["ok"] is True
            assert reply["result"]["epoch"] == 1
            assert Path(reply["result"]["path"]).exists()

    def test_checkpoint_op_without_directory_is_bad_request(self, instance):
        with AllocationServer(instance, policy=SERIAL, rr_sets=100, seed=11) as server:
            reply = server.request({"op": "checkpoint"})
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-request"

    def test_pending_maintenance_is_not_exportable(self, instance):
        """Checkpointing never captures a half-maintained store: export
        refuses while maintenance is pending."""
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=11, policy=SERIAL)
        store.generate(50)
        store._pending_maintenance = (view.epoch, None, np.array([0]), "test")
        with pytest.raises(SamplingError, match="interrupted mid-redraw"):
            store.export_slots()


# --------------------------------------------------------------------------- #
# (e) the real thing: SIGKILL a serve subprocess between batches
# --------------------------------------------------------------------------- #
class TestKillNine:
    def test_sigkill_between_batches_recovers_bit_identical(self, tmp_path):
        """Full acceptance (e): spawn ``repro serve`` with a checkpoint dir,
        stream delta batches over stdio, ``kill -9`` after the second ack,
        restart with recovery and compare against a fresh replay of exactly
        the acknowledged, journaled batches."""
        checkpoint_dir = tmp_path / "state"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--dataset",
            "lastfm_like",
            "--scale",
            "0.05",
            "--advertisers",
            "2",
            "--rr-sets",
            "200",
            "--seed",
            "11",
            "--jobs",
            "1",
            "--checkpoint-dir",
            str(checkpoint_dir),
        ]
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # The server builds its instance from the dataset registry; the
            # deltas below only touch node 0 -> * probabilities, which every
            # graph in the family has.
            batches = [
                [{"kind": "add_node", "count": 1}],
                [{"kind": "add_node", "count": 2}],
            ]
            acked = []
            for index, batch in enumerate(batches):
                proc.stdin.write(
                    json.dumps({"op": "refresh", "id": index, "deltas": batch})
                    + "\n"
                )
                proc.stdin.flush()
                reply = json.loads(proc.stdout.readline())
                assert reply["ok"] is True, reply
                acked.append(batch)
            # SIGKILL with acknowledged batches in the journal: no drain, no
            # final checkpoint, exactly the crash recovery must cover.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGKILL
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=30)

        from repro.datasets.registry import build_dataset
        from repro.serve.protocol import delta_from_json

        data = build_dataset(
            "lastfm_like",
            num_advertisers=2,
            incentive="linear",
            alpha=0.1,
            scale=0.05,
            seed=11,
            singleton_rr_sets=128,
        )
        recovered = AllocationServer(
            data.instance,
            policy=SERIAL,
            rr_sets=200,
            seed=11,
            checkpoint_dir=checkpoint_dir,
        )
        with recovered:
            assert recovered.restored
            assert recovered.epoch == len(acked)
            reference = fresh_replay(
                data.instance,
                [[delta_from_json(d) for d in batch] for batch in acked],
                rr_sets=200,
                seed=11,
            )
            assert_stores_bit_identical(recovered.store, reference)
            # And the recovered server still serves.
            assert recovered.request({"op": "allocate"})["ok"] is True
