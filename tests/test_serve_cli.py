"""End-to-end tests for ``repro serve``: stdio, sockets, SIGTERM drain.

These run the real CLI in a subprocess — the same processes the
acceptance criteria talk about.  Every wait carries a hard timeout so a
hung server fails the test instead of the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import AllocationServer, SocketListener, request_over_socket

from test_serve import SERIAL, build_instance

REPO_ROOT = Path(__file__).resolve().parent.parent

SERVE_ARGS = [
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
    "150",
    "--seed",
    "11",
    "--jobs",
    "1",
]


def spawn_serve(*extra_args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.Popen(
        SERVE_ARGS + list(extra_args),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def instance():
    return build_instance()


# --------------------------------------------------------------------------- #
# stdio transport
# --------------------------------------------------------------------------- #
class TestStdio:
    def test_request_reply_and_clean_shutdown(self):
        proc = spawn_serve()
        try:
            requests = [
                {"op": "ping", "id": 1},
                {"op": "allocate", "id": 2, "tau": 0.1},
                {"op": "shutdown", "id": 3},
            ]
            stdin_payload = "".join(json.dumps(r) + "\n" for r in requests)
            stdout, stderr = proc.communicate(stdin_payload, timeout=120)
        except subprocess.TimeoutExpired:  # pragma: no cover - hard timeout
            proc.kill()
            raise
        replies = [json.loads(line) for line in stdout.splitlines() if line]
        assert proc.returncode == 0, stderr
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert all(r["ok"] for r in replies), replies
        assert replies[0]["result"]["pong"] is True
        assert replies[1]["result"]["allocation"]
        assert "serving:" in stderr
        assert "drained:" in stderr

    def test_eof_drains_and_exits_zero(self):
        proc = spawn_serve()
        try:
            stdout, stderr = proc.communicate(
                json.dumps({"op": "ping", "id": "only"}) + "\n", timeout=120
            )
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise
        assert proc.returncode == 0, stderr
        assert json.loads(stdout.splitlines()[0])["ok"] is True

    def test_malformed_line_gets_structured_error(self):
        proc = spawn_serve()
        try:
            stdout, stderr = proc.communicate("this is not json\n", timeout=120)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise
        assert proc.returncode == 0, stderr
        reply = json.loads(stdout.splitlines()[0])
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"


# --------------------------------------------------------------------------- #
# SIGTERM drain (acceptance d)
# --------------------------------------------------------------------------- #
class TestSigtermDrain:
    def test_sigterm_finishes_inflight_and_exits_zero(self):
        """SIGTERM mid-burn: the in-flight request completes, its reply is
        emitted, the process exits 0 — all inside a hard wall-clock bound."""
        proc = spawn_serve()
        start = time.monotonic()
        try:
            # Wait until the server announces readiness on stderr.
            for line in proc.stderr:
                if "serving:" in line:
                    break
            proc.stdin.write(
                json.dumps({"op": "burn", "id": "inflight", "seconds": 1.0}) + "\n"
            )
            proc.stdin.flush()
            time.sleep(0.3)  # let the burn start executing
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover - hard timeout
            proc.kill()
            raise
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        replies = [json.loads(line) for line in stdout.splitlines() if line]
        assert any(r["id"] == "inflight" and r["ok"] for r in replies), replies
        assert elapsed < 60.0

    def test_sigint_equivalent_to_sigterm(self):
        proc = spawn_serve()
        try:
            for line in proc.stderr:
                if "serving:" in line:
                    break
            proc.send_signal(signal.SIGINT)
            stdout, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise
        assert proc.returncode == 0


# --------------------------------------------------------------------------- #
# socket transports
# --------------------------------------------------------------------------- #
class TestSockets:
    def test_tcp_round_trip(self, instance):
        server = AllocationServer(instance, policy=SERIAL, rr_sets=200, seed=11)
        server.start()
        listener = SocketListener(server, port=0)
        try:
            replies = request_over_socket(
                listener.address,
                [
                    json.dumps({"op": "ping", "id": 1}),
                    json.dumps({"op": "stats", "id": 2}),
                ],
            )
            assert len(replies) == 2
            assert all(json.loads(r)["ok"] for r in replies)
        finally:
            listener.close()
            server.close()

    def test_tcp_many_connections(self, instance):
        server = AllocationServer(instance, policy=SERIAL, rr_sets=200, seed=11)
        server.start()
        listener = SocketListener(server, port=0)
        try:
            for index in range(5):
                (reply,) = request_over_socket(
                    listener.address, [json.dumps({"op": "ping", "id": index})]
                )
                assert json.loads(reply)["id"] == index
        finally:
            listener.close()
            server.close()

    def test_unix_socket_round_trip(self, instance, tmp_path):
        path = tmp_path / "serve.sock"
        server = AllocationServer(instance, policy=SERIAL, rr_sets=200, seed=11)
        server.start()
        listener = SocketListener(server, unix_path=str(path))
        try:
            (reply,) = request_over_socket(
                str(path), [json.dumps({"op": "ping", "id": "ux"})]
            )
            assert json.loads(reply)["ok"] is True
        finally:
            listener.close()
            server.close()
        assert not path.exists()  # unlinked on close

    def test_port_and_unix_socket_are_mutually_exclusive(self):
        proc = spawn_serve("--port", "0", "--unix-socket", "/tmp/x.sock")
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise
        assert proc.returncode != 0
        assert "mutually exclusive" in stderr
