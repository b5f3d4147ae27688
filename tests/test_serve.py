"""Behavioural suite for the allocation server (``repro.serve``).

Covers the service acceptance contract in-process (the CLI/transport layer
has its own suite in ``test_serve_cli.py``):

* (a) allocation replies are **byte-identical** with and without an
  injected worker crash mid-request (degrade-mode recovery + slot purity);
* (b) a deadline-exceeding request returns a structured
  ``deadline-exceeded`` error within 2× its deadline and the server keeps
  serving afterwards;
* (c) admission beyond ``queue_depth`` sheds with a structured
  ``overloaded`` reply instead of growing memory;
* (d) draining finishes in-flight requests, rejects new ones with
  ``draining`` and reaches ``stopped``;
* plus protocol validation, coalescing, refresh/epoch bookkeeping and the
  recovery envelope.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
import threading
import time

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RRSetOracle
from repro.core.oracle_solver import rm_with_oracle
from repro.diffusion.models import IndependentCascadeModel
from repro.exceptions import PolicyError, ServiceError
from repro.graph.generators import preferential_attachment_digraph
from repro.parallel import FailurePolicy, FaultInjector
from repro.rrsets.collection import RRCollection
from repro.rrsets.estimators import estimate_advertiser_revenue
from repro.runtime import ExecutionPolicy
from repro.serve import (
    AllocationServer,
    ServicePolicy,
    SocketListener,
    request_over_socket,
    server as server_module,
)
from repro.serve.protocol import encode_reply

#: Serial in-process policy — deterministic and pool-free for the protocol
#: and lifecycle tests.
SERIAL = ExecutionPolicy()

#: Pool-backed policy with fast degrade recovery for the fault tests.
POOLED = ExecutionPolicy(n_jobs=2, failure=FailurePolicy(retry_backoff_s=0.01))


def build_instance(num_nodes: int = 40):
    graph = preferential_attachment_digraph(num_nodes, out_degree=3, seed=2)
    model = IndependentCascadeModel(graph, probability=0.2)
    advertisers = [
        Advertiser(budget=6.0, cpe=1.0, name="a0"),
        Advertiser(budget=5.0, cpe=1.5, name="a1"),
    ]
    costs = np.full((2, graph.num_nodes), 1.0)
    return RMInstance(graph, model, advertisers, costs)


@pytest.fixture(scope="module")
def instance():
    return build_instance()


@pytest.fixture()
def server(instance):
    with AllocationServer(instance, policy=SERIAL, rr_sets=300, seed=11) as srv:
        yield srv


#: A delta that grows the node space, so its batch redraws the whole store —
#: 300 slots, enough to run on the pool once a test pins it from 256 slots
#: (smaller redraws run in-process).
GROW = {"kind": "add_node", "count": 1}


def edge_update(instance, edge_id=0, probability=0.05):
    graph = instance.graph
    return {
        "kind": "update_probability",
        "source": int(graph.sources[edge_id]),
        "target": int(graph.targets[edge_id]),
        "probability": probability,
    }


# --------------------------------------------------------------------------- #
# service policy validation
# --------------------------------------------------------------------------- #
class TestServicePolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"queue_depth": 0},
            {"max_inflight": 0},
            {"drain_grace_s": 0.0},
            {"request_retries": -1},
            {"checkpoint_every": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            ServicePolicy(**kwargs)

    def test_describe_mentions_every_knob(self):
        text = ServicePolicy(deadline_s=2.0, queue_depth=8).describe()
        for token in ("deadline=2s", "queue_depth=8", "max_inflight", "drain_grace"):
            assert token in text


# --------------------------------------------------------------------------- #
# protocol basics and the reply envelope
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_ping_envelope(self, server):
        reply = server.request({"op": "ping", "id": "abc"})
        assert reply["ok"] is True
        assert reply["id"] == "abc"
        assert reply["state"] == "serving"
        assert reply["epoch"] == 0
        assert reply["result"] == {"pong": True, "slots": 300}
        assert set(reply["recovery"]) == {
            "worker_crashes",
            "shard_timeouts",
            "pool_respawns",
            "shards_rerun",
            "serial_fallbacks",
        }

    @pytest.mark.parametrize(
        "request_obj",
        [
            {"id": 1},  # missing op
            {"op": "frobnicate"},  # unknown op
            {"op": "ping", "id": [1, 2]},  # non-scalar id
            {"op": "ping", "deadline_s": -2},  # invalid deadline
            {"op": "ping", "deadline_s": "soon"},
        ],
    )
    def test_bad_envelope_rejected(self, server, request_obj):
        reply = server.request(request_obj)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    def test_submit_text_parses_lines(self, server):
        reply = server.submit_text('{"op": "ping", "id": 9}').wait(30)
        assert reply["ok"] is True and reply["id"] == 9

    def test_submit_text_rejects_garbage_with_reply(self, server):
        reply = server.submit_text("{not json").wait(30)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    @pytest.mark.parametrize(
        "delta",
        [
            {"kind": "warp_edge"},
            {"kind": "add_edge", "source": 0},  # missing fields
            {"kind": "remove_node"},
            "not-an-object",
        ],
    )
    def test_bad_delta_rejected(self, server, delta):
        reply = server.request({"op": "refresh", "deltas": [delta]})
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    def test_op_parameter_validation(self, server, instance):
        n = instance.num_nodes
        cases = [
            {"op": "spread", "advertiser": 99, "seeds": [0]},
            {"op": "spread", "advertiser": 0, "seeds": [n + 5]},
            {"op": "spread", "advertiser": "zero", "seeds": [0]},
            {"op": "allocate", "tau": 2.0},
            {"op": "allocate", "budget_scale": -1},
            {"op": "burn", "seconds": -0.5},
        ]
        for request in cases:
            reply = server.request(request)
            assert reply["ok"] is False, request
            assert reply["error"]["code"] == "bad-request", request


# --------------------------------------------------------------------------- #
# query results match the direct engine calls
# --------------------------------------------------------------------------- #
class TestQueries:
    def test_allocate_matches_direct_solver(self, server, instance):
        reply = server.request({"op": "allocate", "tau": 0.1})
        assert reply["ok"] is True
        oracle = RRSetOracle(server.store.collection, server.store.gamma)
        direct = rm_with_oracle(instance, oracle, tau=0.1)
        expected = {
            str(advertiser): sorted(int(node) for node in seeds)
            for advertiser, seeds in direct.allocation.items()
        }
        assert reply["result"]["allocation"] == expected
        assert reply["result"]["revenue"] == pytest.approx(direct.revenue)

    def test_spread_matches_estimator(self, server):
        store = server.store
        reply = server.request(
            {"op": "spread", "advertiser": 1, "seeds": [0, 3, 5]}
        )
        expected = estimate_advertiser_revenue(
            store.collection, 1, [0, 3, 5], store.gamma
        )
        assert reply["result"]["revenue"] == pytest.approx(expected)
        assert reply["result"]["rr_sets"] == len(store.collection)

    def test_spread_counts_coverage_once(self, server, monkeypatch):
        store = server.store
        seeds = [0, 3, 5, 3]
        expected = estimate_advertiser_revenue(store.collection, 1, seeds, store.gamma)
        covered = store.collection.coverage_count(1, seeds)
        calls = []
        original = RRCollection.coverage_count

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RRCollection, "coverage_count", counted)
        reply = server.request({"op": "spread", "advertiser": 1, "seeds": seeds})
        assert len(calls) == 1
        assert reply["result"]["revenue"] == expected  # the same float, not approx
        assert reply["result"]["covered_rr_sets"] == covered

    def test_refresh_advances_epoch_and_reports(self, server, instance):
        reply = server.request(
            {"op": "refresh", "deltas": [edge_update(instance)]}
        )
        assert reply["ok"] is True
        assert reply["epoch"] == 1
        result = reply["result"]
        assert result["total"] == 300
        assert result["invalidated"] == result["redrawn"]
        assert result["kept"] == result["total"] - result["redrawn"]
        assert result["reason"] in ("clean", "localized")
        # Subsequent queries serve the refreshed store at the new epoch.
        assert server.request({"op": "ping"})["epoch"] == 1

    def test_stats_counters(self, server):
        server.request({"op": "ping"})
        reply = server.request({"op": "stats"})
        result = reply["result"]
        assert result["slots"] == 300
        assert result["requests"]["accepted"] >= 2
        assert result["service"]["queue_depth"] == 64
        assert result["checkpoint"] == {"enabled": False}
        assert result["pool_spawns"] == 0  # inline policy never spawned


# --------------------------------------------------------------------------- #
# (b) deadlines: structured timeout within 2x, server survives
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_burn_deadline_within_2x_and_server_keeps_serving(self, server):
        deadline = 0.2
        start = time.monotonic()
        reply = server.request(
            {"op": "burn", "seconds": 5.0, "deadline_s": deadline}
        )
        elapsed = time.monotonic() - start
        assert reply["ok"] is False
        assert reply["error"]["code"] == "deadline-exceeded"
        assert elapsed < 2 * deadline
        # The server is still healthy afterwards.
        assert server.request({"op": "ping"})["ok"] is True
        assert server.state == "serving"

    def test_queueing_time_counts_against_deadline(self, server):
        # A long burn occupies dispatch; the deadline-bearing request
        # expires in the queue and is answered without ever running.
        slow = server.submit({"op": "burn", "seconds": 0.5})
        fast = server.submit({"op": "ping", "deadline_s": 0.05})
        reply = fast.wait(30)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "deadline-exceeded"
        assert slow.wait(30)["ok"] is True

    def test_sharded_deadline_through_supervision(self, instance, pool_from_slots):
        pool_from_slots(instance.graph)
        # The deadline must cut through *pool* work: a wildcard delay fault
        # stalls the redraw shard past the deadline, the per-request
        # fail-fast override surfaces it, and the server answers a
        # structured timeout — then finishes the maintenance out-of-band
        # and keeps serving the (fully applied) batch.
        deadline = 0.6
        with AllocationServer(
            instance, policy=POOLED, rr_sets=300, seed=11
        ) as srv:
            # Faults arm at pool spawn: release the startup pool so the
            # refresh below spawns a fresh, fault-armed one.
            srv.runtime.close()
            injector = FaultInjector()
            injector.delay_shard(None, seconds=deadline + 2.0, times=1)
            start = time.monotonic()
            with injector:
                reply = srv.request(
                    {
                        "op": "refresh",
                        "deadline_s": deadline,
                        "deltas": [edge_update(instance), GROW],
                    },
                    timeout=60,
                )
            elapsed = time.monotonic() - start
            assert reply["ok"] is False
            assert reply["error"]["code"] == "deadline-exceeded"
            assert elapsed < 2 * deadline
            # The stalled shard ran on the pool, and its supervision saw it.
            assert srv.runtime.recovery_stats.shard_timeouts >= 1
            follow_up = srv.request({"op": "ping"}, timeout=60)
            assert follow_up["ok"] is True
            assert follow_up["epoch"] == 1  # the journaled batch stayed applied


# --------------------------------------------------------------------------- #
# (c) bounded admission: overload sheds, memory stays bounded
# --------------------------------------------------------------------------- #
class TestOverload:
    def test_overload_returns_structured_error(self, instance):
        service = ServicePolicy(queue_depth=2, max_inflight=1)
        with AllocationServer(
            instance, policy=SERIAL, rr_sets=200, seed=11, service=service
        ) as srv:
            # Occupy dispatch so the queue can actually fill.
            blocker = srv.submit({"op": "burn", "seconds": 0.4})
            time.sleep(0.1)  # let dispatch pick the blocker up
            tickets = [srv.submit({"op": "ping", "id": i}) for i in range(8)]
            replies = [ticket.wait(30) for ticket in tickets]
            shed = [r for r in replies if not r["ok"]]
            served = [r for r in replies if r["ok"]]
            assert shed, "queue_depth=2 must shed some of 8 concurrent pings"
            for reply in shed:
                assert reply["error"]["code"] == "overloaded"
                assert "queue_depth=2" in reply["error"]["message"]
            # Accepted tickets (at most queue_depth at any instant) all serve.
            assert len(served) >= 1
            assert blocker.wait(30)["ok"] is True
            assert srv.stats.shed == len(shed)
            assert srv.request({"op": "ping"})["ok"] is True

    def test_shed_reply_is_immediate(self, instance):
        service = ServicePolicy(queue_depth=1, max_inflight=1)
        with AllocationServer(
            instance, policy=SERIAL, rr_sets=200, seed=11, service=service
        ) as srv:
            srv.submit({"op": "burn", "seconds": 0.4})
            time.sleep(0.1)
            srv.submit({"op": "ping"})  # fills the queue
            start = time.monotonic()
            reply = srv.submit({"op": "ping"}).wait(5)
            if reply["ok"]:  # dispatch drained the queue between submits
                pytest.skip("queue drained too fast to observe shedding")
            assert time.monotonic() - start < 0.1
            assert reply["error"]["code"] == "overloaded"


# --------------------------------------------------------------------------- #
# coalescing
# --------------------------------------------------------------------------- #
class TestCoalescing:
    def test_identical_queries_share_one_pass(self, instance):
        service = ServicePolicy(queue_depth=16, max_inflight=8)
        with AllocationServer(
            instance, policy=SERIAL, rr_sets=200, seed=11, service=service
        ) as srv:
            srv.submit({"op": "burn", "seconds": 0.3})
            time.sleep(0.1)  # dispatch is busy; the next submits queue up
            tickets = [
                srv.submit({"op": "spread", "advertiser": 0, "seeds": [0], "id": i})
                for i in range(4)
            ]
            replies = [ticket.wait(30) for ticket in tickets]
            revenues = {r["result"]["revenue"] for r in replies}
            assert len(revenues) == 1  # identical answers
            assert {r["id"] for r in replies} == {0, 1, 2, 3}  # own envelopes
            assert srv.stats.coalesced >= 1

    def test_refresh_never_coalesced(self, instance, server):
        first = server.request({"op": "refresh", "deltas": []})
        second = server.request({"op": "refresh", "deltas": []})
        assert first["result"]["epoch"] + 1 == second["result"]["epoch"]


# --------------------------------------------------------------------------- #
# (d) drain: in-flight finishes, new requests rejected, state machine lands
# --------------------------------------------------------------------------- #
class TestDrain:
    def test_drain_finishes_inflight_then_rejects(self, instance):
        with AllocationServer(instance, policy=SERIAL, rr_sets=200, seed=11) as srv:
            inflight = srv.submit({"op": "burn", "seconds": 0.3})
            time.sleep(0.1)
            srv.initiate_drain()
            late = srv.submit({"op": "ping"})
            late_reply = late.wait(10)
            assert late_reply["ok"] is False
            assert late_reply["error"]["code"] == "draining"
            assert inflight.wait(10)["ok"] is True  # in-flight completed
            assert srv.wait_stopped(10)
            assert srv.state == "stopped"

    def test_shutdown_op_drains(self, instance):
        with AllocationServer(instance, policy=SERIAL, rr_sets=200, seed=11) as srv:
            reply = srv.request({"op": "shutdown"})
            assert reply["ok"] is True and reply["result"] == {"draining": True}
            assert srv.wait_stopped(10)
            assert srv.state == "stopped"

    def test_drain_grace_bounds_queued_work(self, instance):
        service = ServicePolicy(queue_depth=16, max_inflight=1, drain_grace_s=0.3)
        with AllocationServer(
            instance, policy=SERIAL, rr_sets=200, seed=11, service=service
        ) as srv:
            tickets = [
                srv.submit({"op": "burn", "seconds": 0.25, "id": i})
                for i in range(8)
            ]
            srv.initiate_drain()
            assert srv.wait_stopped(15)
            replies = [ticket.wait(5) for ticket in tickets]
            outcomes = {
                (r["ok"], r.get("error", {}).get("code")) for r in replies
            }
            # Early tickets completed inside the grace window, late ones were
            # released with a structured draining error — never left hanging.
            assert all(ticket.done.is_set() for ticket in tickets)
            assert (False, "draining") in outcomes

    def test_lifecycle_misuse_raises(self, instance):
        srv = AllocationServer(instance, policy=SERIAL, rr_sets=100, seed=11)
        srv.start()
        with pytest.raises(ServiceError, match="already started"):
            srv.start()
        srv.close()
        assert srv.state == "stopped"
        with pytest.raises(ServiceError, match="already stopped"):
            srv.start()


# --------------------------------------------------------------------------- #
# (a) worker crashes: bit-identical replies, recovery in the envelope
# --------------------------------------------------------------------------- #
class TestCrashBitIdentity:
    def _run_session(self, instance, inject_crash: bool):
        """One serve session: refresh a batch, then allocate; returns the
        canonical reply lines (ids fixed, so byte-comparable)."""
        with AllocationServer(
            instance, policy=POOLED, rr_sets=300, seed=11
        ) as srv:
            refresh = {
                "op": "refresh",
                "id": "r1",
                "deltas": [edge_update(instance), GROW],
            }
            if inject_crash:
                # Faults arm at pool spawn: release the startup pool so the
                # refresh below spawns a fresh, fault-armed one.
                srv.runtime.close()
                injector = FaultInjector()
                injector.kill_worker(None, when="before", times=1)
                with injector:
                    first = srv.request(refresh, timeout=120)
            else:
                first = srv.request(refresh, timeout=120)
            second = srv.request({"op": "allocate", "id": "a1"}, timeout=120)
            crashes = srv.runtime.recovery_stats.worker_crashes
        return first, second, crashes

    def test_allocation_reply_bit_identical_under_worker_crash(self, instance, pool_from_slots):
        pool_from_slots(instance.graph)
        clean_refresh, clean_alloc, clean_crashes = self._run_session(
            instance, inject_crash=False
        )
        crash_refresh, crash_alloc, crash_count = self._run_session(
            instance, inject_crash=True
        )
        assert clean_crashes == 0
        assert crash_count >= 1  # the fault really fired
        # The recovery envelope differs by design; everything the client
        # computes from — result, epoch, ok — must be byte-identical.
        for clean, crashed in ((clean_refresh, crash_refresh), (clean_alloc, crash_alloc)):
            clean = {k: v for k, v in clean.items() if k != "recovery"}
            crashed = {k: v for k, v in crashed.items() if k != "recovery"}
            assert encode_reply(clean) == encode_reply(crashed)
        # And the crash is visible where it should be: the envelope.
        assert crash_alloc["recovery"]["worker_crashes"] >= 1


# --------------------------------------------------------------------------- #
# concurrency smoke: parallel submitters, single dispatch, no lost tickets
# --------------------------------------------------------------------------- #
class TestConcurrentClients:
    def test_every_ticket_resolves_exactly_once(self, instance):
        service = ServicePolicy(queue_depth=32, max_inflight=4)
        with AllocationServer(
            instance, policy=SERIAL, rr_sets=200, seed=11, service=service
        ) as srv:
            replies = []
            lock = threading.Lock()

            def client(worker_id):
                for i in range(5):
                    reply = srv.request(
                        {"op": "ping", "id": f"{worker_id}-{i}"}, timeout=60
                    )
                    with lock:
                        replies.append(reply)

            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            ids = [reply["id"] for reply in replies]
            assert len(ids) == 20 and len(set(ids)) == 20
            assert all(
                reply["ok"] or reply["error"]["code"] == "overloaded"
                for reply in replies
            )


# --------------------------------------------------------------------------- #
# socket transports: pipelined requests on one connection
# --------------------------------------------------------------------------- #
class TestPipelinedSockets:
    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_every_pipelined_request_gets_one_reply(self, instance, tmp_path, transport):
        """Requests sent in one ``sendall`` reach the server even while the
        connection's writer thread is replying to the first ones."""
        count = 400
        with AllocationServer(instance, policy=SERIAL, rr_sets=100, seed=11) as srv:
            if transport == "unix":
                listener = SocketListener(srv, unix_path=str(tmp_path / "serve.sock"))
            else:
                listener = SocketListener(srv, port=0)
            try:
                lines = [json.dumps({"op": "ping", "id": i}) for i in range(count)]
                replies = [
                    json.loads(line) for line in request_over_socket(listener.address, lines)
                ]
            finally:
                listener.close()
        # A request lost or cut short shows as a missing id (a cut line
        # parses as a bad request with no id).
        assert Counter(reply.get("id") for reply in replies) == Counter(range(count))
        assert all(
            reply["ok"] or reply["error"]["code"] == "overloaded" for reply in replies
        )


# --------------------------------------------------------------------------- #
# GIL hand-offs: a short switch interval while any server dispatches
# --------------------------------------------------------------------------- #
class TestSwitchInterval:
    def test_lowered_while_any_server_dispatches_then_restored(self, instance):
        before = sys.getswitchinterval()
        lowered = pytest.approx(min(before, server_module._SWITCH_INTERVAL_S))
        first = AllocationServer(instance, policy=SERIAL, rr_sets=100, seed=11)
        second = AllocationServer(instance, policy=SERIAL, rr_sets=100, seed=11)
        try:
            for srv in (first, second):
                srv.start()
                # A reply comes from inside the dispatch loop.
                assert srv.request({"op": "ping"})["ok"] is True
                assert sys.getswitchinterval() == lowered
            first.close()
            assert sys.getswitchinterval() == lowered  # second still serves
        finally:
            first.close()
            second.close()
        assert sys.getswitchinterval() == before
