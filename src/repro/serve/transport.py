"""Transports feeding the allocation server: stdio, TCP and Unix sockets.

All transports speak the same line protocol (:mod:`repro.serve.protocol`)
and share one shape: a reader thread pumps request lines into
:meth:`~repro.serve.server.AllocationServer.submit_text`, each ticket's
``on_done`` callback queues its reply for the output stream's writer thread
(:class:`_ReplyWriter`), and the foreground call returns once the server
reaches ``stopped``.  EOF on a transport's input initiates a drain —
closing stdin (or every connection going away after a ``shutdown``) is the
polite way to stop a server; SIGTERM/SIGINT are wired to the same drain by
the CLI.

The foreground wait polls the stopped event in short slices so POSIX
signals keep interrupting the main thread promptly (a bare ``Event.wait()``
would also work on Linux, but the sliced wait is portable and keeps signal
handlers timely under every start method).
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from typing import IO, Any, List, Optional, Tuple, Union

from repro.exceptions import ServiceError
from repro.serve.lifecycle import Ticket
from repro.serve.protocol import encode_reply
from repro.serve.server import AllocationServer

#: Foreground poll slice — long enough to be cheap, short enough that a
#: signal-initiated drain is observed without perceptible lag.
_WAIT_SLICE_S = 0.2


def _wait_until_stopped(server: AllocationServer) -> None:
    while not server.wait_stopped(_WAIT_SLICE_S):
        pass


class _ReplyWriter:
    """Writes one output stream's replies, one line each, in resolve order.

    The dispatch thread only queues a reply (:meth:`emit` is the tickets'
    ``on_done`` callback); encoding and the blocking write run on the
    writer's own thread, so a client that reads slowly never stalls the
    dispatch of every other client's requests.
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._replies: "queue.SimpleQueue[Optional[dict]]" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-writer", daemon=True
        )
        self._thread.start()

    def emit(self, ticket: Ticket) -> None:
        self._replies.put(ticket.reply)

    def _run(self) -> None:
        while True:
            reply = self._replies.get()
            if reply is None:
                return
            try:
                self._stream.write(encode_reply(reply))
                self._stream.flush()
            except (OSError, ValueError):  # reader went away; reply is lost
                pass

    def close(self, timeout: Optional[float] = None) -> None:
        """Write every queued reply, then stop the writer thread."""
        self._replies.put(None)
        self._thread.join(timeout)


def serve_stdio(
    server: AllocationServer,
    input_stream: IO[str],
    output_stream: IO[str],
) -> None:
    """Serve requests from ``input_stream`` until EOF or an external drain.

    Blocks until the server is fully stopped; the caller owns server
    startup and :meth:`~repro.serve.server.AllocationServer.close`.
    """
    writer = _ReplyWriter(output_stream)

    def pump() -> None:
        try:
            for line in input_stream:
                line = line.strip()
                if not line:
                    continue
                server.submit_text(line, on_done=writer.emit)
                if server.wait_stopped(0):
                    break
        except (OSError, ValueError):  # stdin closed abruptly
            pass
        server.initiate_drain()

    reader = threading.Thread(target=pump, name="repro-serve-stdin", daemon=True)
    reader.start()
    _wait_until_stopped(server)
    writer.close()


class SocketListener:
    """A TCP or Unix-domain listener multiplexing connections onto a server.

    Parameters
    ----------
    server:
        The (started) :class:`~repro.serve.server.AllocationServer`.
    host, port:
        TCP endpoint; ``port=0`` binds an ephemeral port (read it back from
        :attr:`address` — the test suite relies on this).
    unix_path:
        Unix-domain socket path; mutually exclusive with ``host``/``port``.
    """

    def __init__(
        self,
        server: AllocationServer,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
    ):
        if (port is None) == (unix_path is None):
            raise ServiceError("exactly one of port or unix_path is required")
        self._server = server
        self._unix_path = unix_path
        if unix_path is not None:
            if os.path.exists(unix_path):
                os.unlink(unix_path)
            self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._socket.bind(unix_path)
        else:
            self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._socket.bind((host, int(port)))
        self._socket.listen(16)
        self._closed = False
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._acceptor.start()

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """The bound endpoint: ``(host, port)`` for TCP, the path for Unix."""
        if self._unix_path is not None:
            return self._unix_path
        host, port = self._socket.getsockname()[:2]
        return host, port

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                connection, _ = self._socket.accept()
            except OSError:  # listener closed
                return
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repro-serve-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        # One reader file and one writer file: a shared read-write text
        # stream drops the input it has decoded but not yet returned
        # whenever the writer thread writes a reply, losing pipelined
        # requests.
        reader = connection.makefile("r", encoding="utf-8", newline="\n")
        stream = connection.makefile("w", encoding="utf-8", newline="\n")
        writer = _ReplyWriter(stream)
        pending: List[Ticket] = []
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                pending.append(self._server.submit_text(line, on_done=writer.emit))
        except (OSError, ValueError):
            pass
        # Client half-closed (or disconnected): wait for in-flight replies
        # so a well-behaved client that shut down its write side still
        # receives everything it asked for.
        for ticket in pending:
            ticket.done.wait(self._server.service.drain_grace_s)
        writer.close(self._server.service.drain_grace_s)
        for file in (reader, stream):
            try:
                file.close()
            except (OSError, ValueError):
                pass
        connection.close()

    def serve_until_stopped(self) -> None:
        """Block until the server stops, then close the listener."""
        _wait_until_stopped(self._server)
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.close()
        finally:
            if self._unix_path is not None and os.path.exists(self._unix_path):
                os.unlink(self._unix_path)


def request_over_socket(
    address: Union[Tuple[str, int], str], lines: List[str], timeout: float = 30.0
) -> List[str]:
    """Send protocol lines over one connection and collect the reply lines.

    Test/client helper: connects, writes every line, half-closes the write
    side and reads replies until the server closes the connection.
    """
    if isinstance(address, str):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.settimeout(timeout)
    replies: List[str] = []
    try:
        client.connect(address)
        payload = "".join(
            line if line.endswith("\n") else line + "\n" for line in lines
        )
        client.sendall(payload.encode("utf-8"))
        client.shutdown(socket.SHUT_WR)
        stream = client.makefile("r", encoding="utf-8", newline="\n")
        for line in stream:
            line = line.strip()
            if line:
                replies.append(line)
    finally:
        client.close()
    return replies
