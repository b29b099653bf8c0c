"""Shared transport: Unix-socket and TCP servers plus clients.

Every service endpoint — the single-session ``repro-bench serve``
daemon and the :mod:`repro.cluster` router — speaks the same protocol
(:mod:`~.protocol`) as :mod:`repro.wire` binary frames over a stream
socket.  This module owns everything transport-shaped so the daemon and
the router only implement ``handle_message``:

* **address parsing**: ``"host:port"`` (or ``tcp://host:port``) is TCP,
  anything else (or ``unix://path``) is a Unix socket path, so one
  ``--connect`` flag reaches either transport;
* **server plumbing**: threaded accept loops (one handler thread per
  connection), typed error replies for malformed or oversized frames,
  and resilience to clients that disconnect mid-stream;
* **the first-byte rule**: there is no handshake.  A connection whose
  first byte is ``{`` is a protocol-2 NDJSON peer: it gets one JSON
  ``protocol_error`` line naming protocol 3 and is closed.  Any other
  first byte starts the frame loop;
* **stale-socket recovery**: binding a Unix path that already exists
  probes it first — a live daemon is never clobbered (the bind fails
  with a clear error), a leftover socket from a crashed daemon is
  removed and reclaimed;
* **client side**: the persistent :class:`Connection` used by the
  remote execution backend and the router, one-shot ``request()``
  (open a connection, one request, close), and
  ``request_with_retries()``, the one retry loop of the ``submit`` CLI
  client and the replay load generator.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import RETRYABLE_CODES, ProtocolError
from ..telemetry import metrics as _metrics
from ..wire import frames as _frames
from .protocol import PROTOCOL_VERSION, encode_line

__all__ = [
    "Address",
    "Connection",
    "format_address",
    "make_server",
    "parse_address",
    "prepare_unix_socket",
    "request",
    "request_with_retries",
    "serve_in_thread",
]

_LOG = logging.getLogger("repro.service.transport")

#: client retry backoff without a server hint: 0.05 s, doubling per retry
RETRY_BACKOFF_S = 0.05

#: a Unix socket path, or a (host, port) TCP endpoint
Address = Union[str, Tuple[str, int]]


def parse_address(text: Union[str, Address]) -> Address:
    """Resolve one CLI spelling into a transport address.

    ``tcp://host:port`` and ``host:port`` become a TCP endpoint;
    ``unix://path`` and everything else stay a Unix socket path.  A
    bare ``:port`` binds/connects on localhost.
    """
    if isinstance(text, tuple):
        return (str(text[0]), int(text[1]))
    if text.startswith("unix://"):
        return text[len("unix://"):]
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    elif "/" in text or ":" not in text:
        return text
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        return text
    return (host or "127.0.0.1", int(port))


def format_address(address: Address) -> str:
    """The canonical printable form of an address."""
    if isinstance(address, tuple):
        return f"{address[0]}:{address[1]}"
    return address


def prepare_unix_socket(path: str) -> None:
    """Make ``path`` bindable, without ever clobbering a live daemon.

    A leftover socket file from a crashed daemon would otherwise fail
    the bind with ``Address already in use``.  Probe it: when a connect
    succeeds something is still accepting there and binding must fail
    loudly; when the connect is refused (or the file is not a socket at
    all, which unlink surfaces) the file is stale and is removed.
    """
    if not os.path.exists(path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(path)
    except OSError:
        # nothing accepting: a crashed daemon's leftover — reclaim it
        _LOG.warning("removing stale service socket %s", path)
        os.unlink(path)
    else:
        raise OSError(
            f"socket {path} is in use by a live daemon; "
            f"shut it down first or serve on a different path")
    finally:
        probe.close()


class _FrameHandler(socketserver.StreamRequestHandler):
    """One connection: read request frames, write response frames.

    Client-caused failures (protocol-2 peers, malformed frames,
    mid-stream disconnects) never take the server down — they answer
    with a typed error or end this connection only.
    """

    def handle(self) -> None:
        server = self.server  # type: ignore[assignment]
        try:
            first = self.rfile.peek(1)[:1]
        except OSError:
            return  # client vanished before its first byte
        if first == b"{":
            self._refuse_ndjson()
            return
        while True:
            try:
                message = _frames.read_frame_message(self.rfile)
            except ProtocolError as exc:
                # past a bad header the stream cannot be re-framed
                self._reply(exc.to_wire())
                return
            except OSError:
                return  # client vanished mid-frame
            if message is None:
                return  # clean disconnect
            _metrics.inc("wire_binary_messages_total")
            if not isinstance(message, dict):
                error = ProtocolError("request must be a wire object")
                if not self._reply(error.to_wire()):
                    return
                continue
            try:
                response = server.handle_message(message)
            except BaseException as exc:  # a handler bug, not a protocol
                _LOG.exception("handler error for op %r",
                               message.get("op"))
                response = {"status": "error", "code": "internal",
                            "message": f"{type(exc).__name__}: {exc}"}
            if not self._reply(response):
                return
            if server.is_shutdown_response(response):
                server.initiate_shutdown()
                return

    def _refuse_ndjson(self) -> None:
        """Answer a protocol-2 NDJSON peer with one error line."""
        error = ProtocolError(
            f"this server speaks protocol {PROTOCOL_VERSION} "
            f"(repro.wire binary frames) only; NDJSON requests are "
            f"not served")
        wire = error.to_wire()
        wire["protocol"] = PROTOCOL_VERSION
        try:
            self.wfile.write(encode_line(wire))
            self.wfile.flush()
        except OSError:
            pass

    def _reply(self, response: Dict[str, Any]) -> bool:
        """Write one framed response; False when the client went away."""
        try:
            sent = _frames.write_frame_message(self.wfile, response)
            _metrics.inc("wire_binary_bytes_sent_total", sent)
            return True
        except OSError:
            return False


class _ServerCore:
    """Behaviour shared by the Unix and TCP servers."""

    daemon_threads = True
    allow_reuse_address = True

    def _init_core(self,
                   handle_message: Callable[[Dict[str, Any]],
                                            Dict[str, Any]]) -> None:
        self.handle_message = handle_message
        self._shutdown_started = threading.Event()

    def is_shutdown_response(self, response: Dict[str, Any]) -> bool:
        return (response.get("op") == "shutdown"
                and response.get("status") == "ok")

    def initiate_shutdown(self) -> None:
        """Stop the accept loop from any thread (idempotent)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        # shutdown() blocks until serve_forever exits, so hop threads
        threading.Thread(target=self.shutdown, daemon=True).start()


class UnixFrameServer(_ServerCore, socketserver.ThreadingMixIn,
                      socketserver.UnixStreamServer):
    """Threaded frame server on a Unix socket path."""

    def __init__(self, path: str,
                 handle_message: Callable[[Dict[str, Any]],
                                          Dict[str, Any]]):
        self._init_core(handle_message)
        self.address = path
        prepare_unix_socket(path)
        super().__init__(path, _FrameHandler)

    def close(self) -> None:
        self.server_close()
        try:
            os.unlink(self.address)
        except OSError:
            pass


class TcpFrameServer(_ServerCore, socketserver.ThreadingMixIn,
                     socketserver.TCPServer):
    """Threaded frame server on a TCP host:port."""

    def __init__(self, address: Tuple[str, int],
                 handle_message: Callable[[Dict[str, Any]],
                                          Dict[str, Any]]):
        self._init_core(handle_message)
        super().__init__(address, _FrameHandler)
        #: the bound endpoint (resolves port 0 to the kernel's choice)
        self.address: Tuple[str, int] = self.server_address[:2]

    def close(self) -> None:
        self.server_close()


def make_server(address: Union[str, Address],
                handle_message: Callable[[Dict[str, Any]], Dict[str, Any]],
                ) -> Union[UnixFrameServer, TcpFrameServer]:
    """A frame server for ``address``, transport chosen by its form."""
    resolved = parse_address(address)
    if isinstance(resolved, tuple):
        return TcpFrameServer(resolved, handle_message)
    return UnixFrameServer(resolved, handle_message)


def serve_in_thread(server: Union[UnixFrameServer, TcpFrameServer],
                    name: str = "frame-server") -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests, in-process shards)."""
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              name=name, daemon=True)
    thread.start()
    return thread


def _connect(address: Address, timeout: float) -> socket.socket:
    if isinstance(address, tuple):
        return socket.create_connection(address, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock


def request(address: Union[str, Address], message: Dict[str, Any],
            timeout: float = 600.0) -> Dict[str, Any]:
    """Client side: open a connection, send one request, close.

    Raises :class:`ConnectionError`/:class:`OSError` when the endpoint
    is unreachable or closes mid-request, and :class:`ValueError` (a
    :class:`~repro.errors.ProtocolError`) on a malformed reply — the
    router's health tracking and the CLI clients both key off those.
    """
    with Connection(address, timeout=timeout) as conn:
        return conn.request(message)


def request_with_retries(address: Union[str, Address],
                         message: Dict[str, Any], timeout: float,
                         retries: int, max_sleep: float = 5.0,
                         on_retry: Optional[Callable[[], None]] = None,
                         ) -> Dict[str, Any]:
    """One request with bounded retries on retryable rejections.

    A reply whose ``code`` is in :data:`~repro.errors.RETRYABLE_CODES`
    (``queue_full``, ``shard_unavailable``: pre-acceptance, so nothing
    was admitted and a retry cannot duplicate work) and a transport
    error are retried up to ``retries`` times.  Each retry first sleeps
    the server's ``retry_after`` hint, or :data:`RETRY_BACKOFF_S`
    doubled per retry when no hint came, capped at ``max_sleep`` and
    jittered by up to 25%; ``on_retry`` is called once per retry.  The
    last reply is returned as-is, and a transport error on the last
    attempt is raised.
    """
    response: Dict[str, Any] = {}
    for attempt in range(retries + 1):
        if attempt:
            if on_retry is not None:
                on_retry()
            hint = response.get("retry_after")
            base = float(hint) if hint is not None \
                else RETRY_BACKOFF_S * 2 ** (attempt - 1)
            time.sleep(min(max_sleep, base) * (1.0 + random.uniform(0, 0.25)))
        try:
            response = request(address, message, timeout=timeout)
        except (OSError, ValueError):
            if attempt == retries:
                raise
            response = {}
            continue
        if response.get("status") == "ok" \
                or response.get("code") not in RETRYABLE_CODES:
            return response
    return response


class Connection:
    """A persistent client connection speaking protocol-3 frames.

    Used by the remote execution backend and the cluster router's
    forwarding path, where connection reuse matters; one-shot CLI
    pings use :func:`request`.
    """

    #: the protocol every connection speaks (there is no negotiation)
    protocol = PROTOCOL_VERSION

    def __init__(self, address: Union[str, Address],
                 timeout: float = 600.0):
        self.address = parse_address(address)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = _connect(self.address, timeout)
        self._rfile = self._sock.makefile("rb")

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request frame, wait for its response frame."""
        if self._sock is None:
            raise ConnectionError("connection is closed")
        sent = _frames.write_frame_message(self._sock, message)
        _metrics.inc("wire_binary_bytes_sent_total", sent)
        reply = _frames.read_frame_message(self._rfile)
        if reply is None:
            raise ConnectionError(
                f"{format_address(self.address)} closed the "
                f"connection mid-request")
        if not isinstance(reply, dict):
            raise ProtocolError("response must be a wire object")
        return reply

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
