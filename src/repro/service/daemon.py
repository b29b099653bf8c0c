"""``repro-bench serve`` / ``submit``: the service over a stream socket.

The daemon wraps one :class:`~.session.Session` behind the shared
frame transport of :mod:`~.transport` — a Unix socket by default, a
TCP endpoint with ``--tcp host:port``, or both at once.  Each
connection gets a handler thread, so a slow sweep on one connection
never blocks a ``stats`` probe on another; coalescing happens inside
the shared session, which is exactly what makes concurrent identical
submits from different clients collapse into one simulation.  The same
daemon is what :mod:`repro.cluster` launches N times as the shards of
a sharded cluster.

Shutdown is **graceful by construction**: a ``shutdown`` op (or
SIGTERM/SIGINT) drains the session — every accepted job completes and
answers its client — before the sockets close.  With ``--ledger`` the
daemon appends a ``tool="serve"`` run record carrying the service
counters, gauges, and a bounded **traffic log** of the cells it served
(what ``repro-bench replay`` replays), so ``repro-bench history``/
``regress`` cover served traffic alongside batch runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from . import cliargs
from .protocol import handle_request
from .session import Session
from .transport import (
    TcpFrameServer,
    UnixFrameServer,
    format_address,
    parse_address,
    request_with_retries,
    serve_in_thread,
)

__all__ = ["ServiceFrontend", "ServiceServer", "TcpServiceServer",
           "main", "submit_main"]

_LOG = logging.getLogger("repro.service.daemon")

#: the ``submit`` client's retry loop, shared with ``replay``
_request_with_retries = request_with_retries

#: bounded traffic-log length folded into the serve ledger record
TRAFFIC_LOG_LIMIT = 512


class ServiceFrontend:
    """The transport-independent half of the daemon: one shared session.

    ``handle_message`` is what both socket servers call per request;
    it additionally keeps a bounded **traffic log** — arrival
    offset plus wire cell for every submit/batch cell — which the
    ledger record carries so recorded traffic can be replayed later by
    ``repro-bench replay``.
    """

    def __init__(self, session: Session,
                 traffic_limit: int = TRAFFIC_LOG_LIMIT):
        self.session = session
        self._t0 = time.perf_counter()
        self._traffic: Deque[Dict[str, Any]] = deque(maxlen=traffic_limit)
        self._requests_seen = 0
        self._lock = threading.Lock()

    def handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        if op == "submit":
            self._observe([message.get("cell")])
        elif op == "batch":
            cells = message.get("cells")
            if isinstance(cells, list):
                self._observe(cells)
        return handle_request(self.session, message)

    def _observe(self, cells: List[Any]) -> None:
        now = round(time.perf_counter() - self._t0, 6)
        with self._lock:
            for cell in cells:
                if isinstance(cell, dict):
                    self._requests_seen += 1
                    self._traffic.append({"t": now, "cell": cell})

    def traffic(self) -> Dict[str, Any]:
        """The traffic log in its ledger/replay form."""
        with self._lock:
            return {"requests": self._requests_seen,
                    "recorded": list(self._traffic)}


class ServiceServer(UnixFrameServer):
    """Threaded Unix-socket server around one shared session.

    Binding a path with a leftover socket file from a crashed daemon
    reclaims it after a connect-probe; a live daemon on the same path
    fails the bind instead of being clobbered
    (:func:`~.transport.prepare_unix_socket`).
    """

    def __init__(self, socket_path: str, session: Session,
                 frontend: Optional[ServiceFrontend] = None):
        self.session = session
        self.frontend = frontend or ServiceFrontend(session)
        super().__init__(socket_path, self.frontend.handle_message)

    @property
    def socket_path(self) -> str:
        return self.address


class TcpServiceServer(TcpFrameServer):
    """Threaded TCP server around one shared session (the shard form)."""

    def __init__(self, address, session: Session,
                 frontend: Optional[ServiceFrontend] = None):
        self.session = session
        self.frontend = frontend or ServiceFrontend(session)
        super().__init__(address, self.frontend.handle_message)


def _link_shutdown(servers: List[Any]) -> None:
    """Make a shutdown arriving on any listener stop every listener."""
    def stop_all(*_args) -> None:
        for server in servers:
            type(server).initiate_shutdown(server)

    for server in servers:
        server.initiate_shutdown = stop_all  # type: ignore[assignment]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-bench serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Run the characterization service: an async batched "
                    "job server with request coalescing, admission "
                    "control, and graceful drain, over a Unix socket "
                    "and/or TCP.",
    )
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="Unix socket path (default: "
                             ".repro/service.sock unless --tcp is given)")
    parser.add_argument("--tcp", metavar="HOST:PORT", default=None,
                        help="also (or instead) listen on a TCP endpoint; "
                             "port 0 picks a free port")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for batched cells")
    parser.add_argument("--backend", metavar="SPEC", default=None,
                        help="execution backend for served batches: "
                             "'processes' (default; crash-isolated "
                             "worker pool), 'threads', or "
                             "'remote:<addr>' to delegate to another "
                             "daemon — results are byte-identical "
                             "across all three")
    parser.add_argument("--queue-depth", type=int, default=64, metavar="N",
                        help="admission bound on queued jobs "
                             "(default: 64)")
    parser.add_argument("--max-batch", type=int, default=64, metavar="N",
                        help="max cells dispatched per pool batch")
    parser.add_argument("--batch-window", type=float, default=0.005,
                        metavar="S",
                        help="seconds to accumulate near-simultaneous "
                             "submits into one batch (default: 0.005)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="stall watchdog for served batches")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget for crashed/stalled cells")
    parser.add_argument("--shed-threshold", type=float, default=None,
                        metavar="S",
                        help="adaptive load shedding: when queue-wait "
                             "p99 exceeds S seconds, reject with a live "
                             "retry-after and degrade tier=auto cells "
                             "to the surrogate fast path (default: off)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="serve from an isolated result cache "
                             "directory instead of the process default "
                             "(cluster shards share one via this flag)")
    parser.add_argument("--name", default="serve",
                        help="session name (shards use shard-N)")
    parser.add_argument("--ledger", action="store_true",
                        help="append a serve-run record to the ledger "
                             "on shutdown")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger location (implies --ledger)")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from ..telemetry import metrics as metrics_mod
    from ..telemetry.log import configure_logging

    configure_logging(-1 if args.quiet else args.verbose)
    # daemons always serve a live registry; plain bench runs never
    # enable one, which is what keeps the instrumentation free there
    metrics_mod.enable()

    cache = None
    if args.cache_dir:
        from ..core.cache import ResultCache

        cache = ResultCache(directory=args.cache_dir)
    backend = None
    if args.backend:
        from ..backends import resolve_backend

        try:
            backend = resolve_backend(args.backend)
        except ValueError as exc:
            print(f"--backend: {exc}", file=sys.stderr)
            return 2
    session = Session(cache=cache, jobs=args.jobs,
                      max_pending=args.queue_depth,
                      max_batch=args.max_batch,
                      batch_window=args.batch_window,
                      timeout=args.timeout, retries=args.retries,
                      name=args.name,
                      shed_threshold=args.shed_threshold,
                      backend=backend)
    frontend = ServiceFrontend(session)

    recorder = None
    if args.ledger or args.ledger_dir:
        from ..telemetry import ledger as run_ledger

        recorder = run_ledger.RunRecorder(tool="serve", argv=argv).start()

    servers: List[Any] = []
    try:
        if args.socket or not args.tcp:
            servers.append(ServiceServer(
                args.socket or ".repro/service.sock", session, frontend))
        if args.tcp:
            servers.append(TcpServiceServer(
                parse_address(args.tcp), session, frontend))
    except OSError as exc:
        print(f"cannot listen: {exc}", file=sys.stderr)
        for server in servers:
            server.close()
        return 2
    _link_shutdown(servers)
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, servers[0].initiate_shutdown)
        except ValueError:  # pragma: no cover - non-main thread
            pass

    for server in servers:
        print(f"[repro service listening on "
              f"{format_address(server.address)}]", file=sys.stderr)
    threads = [serve_in_thread(server, name=f"serve-{i}")
               for i, server in enumerate(servers)]
    try:
        while any(thread.is_alive() for thread in threads):
            for thread in threads:
                thread.join(timeout=0.2)
    finally:
        # drain before the sockets go away: accepted jobs all answer
        session.close(drain=True)
        for server in servers:
            server.close()
        stats = session.stats
        print(f"[drained: {stats.completed} completed, "
              f"{stats.coalesced} coalesced, {stats.rejected} rejected, "
              f"{stats.failed} failed]", file=sys.stderr)
        if recorder is not None:
            from ..core import parallel
            from ..core.cache import default_cache
            from ..telemetry import ledger as run_ledger

            cache_obj = session.cache if cache is not None \
                else default_cache()
            record = recorder.finish(
                config={"socket": args.socket, "tcp": args.tcp,
                        "jobs": args.jobs, "backend": args.backend,
                        "queue_depth": args.queue_depth,
                        "batch_window": args.batch_window,
                        "shed_threshold": args.shed_threshold},
                service=stats.as_dict(),
                gauges=session.gauges(),
                traffic=frontend.traffic(),
                cache=cache_obj.stats.as_dict(),
                pool=parallel.pool_stats().as_dict(),
                metrics=metrics_mod.snapshot(),
            )
            path = run_ledger.append(record, args.ledger_dir)
            print(f"[serve run {record['run_id']} recorded to {path}]",
                  file=sys.stderr)
        from ..core.parallel import shutdown_pool

        shutdown_pool()
    return 0


def _print_result(wire: Dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(wire, sort_keys=True))
        return
    status = wire.get("status")
    if status == "ok" and "result" in wire:
        result = wire["result"]
        shard = f" shard {wire['shard']}" if "shard" in wire else ""
        degraded = " degraded," if wire.get("degraded") else ""
        print(f"{result.get('workload')} on {result.get('system')} "
              f"[{result.get('scheme')}] x{result.get('ntasks')}: "
              f"wall {result.get('wall_time'):.6g}s "
              f"({wire.get('source')},{degraded} "
              f"wait {wire.get('wait_s', 0):.3g}s"
              f"{shard})")
    elif status == "ok":
        print(json.dumps(wire, sort_keys=True))
    else:
        hint = f" (retry after {wire['retry_after']:.3g}s)" \
            if "retry_after" in wire else ""
        print(f"error [{wire.get('code')}]: {wire.get('message')}{hint}")


def submit_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-bench submit`` (the client)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench submit",
        description="Submit characterization cells to a running "
                    "'repro-bench serve' daemon or cluster router over "
                    "its Unix socket or TCP endpoint.",
    )
    parser.add_argument("--socket", metavar="PATH",
                        default=cliargs.DEFAULT_SOCKET)
    cliargs.add_connect_argument(
        parser, help="service endpoint (host:port or socket path; "
                     "overrides --socket)")
    parser.add_argument("--system", default="longs",
                        help="system preset (tiger/dmz/longs/chiplet)")
    parser.add_argument("--workload", default=None,
                        help="registered workload name (e.g. stream, cg)")
    parser.add_argument("--ntasks", type=int, default=4)
    parser.add_argument("--scheme", default="default",
                        help="Table 5 scheme spelling (e.g. interleave)")
    parser.add_argument("--lock", default=None,
                        help="LAM locking sub-layer (sysv/usysv)")
    parser.add_argument("--parked", type=int, default=0)
    parser.add_argument("--count", type=int, default=1, metavar="N",
                        help="submit N copies of the cell in one batch "
                             "(identical copies coalesce server-side)")
    parser.add_argument("--tag", default=None)
    parser.add_argument("--trace", action="store_true",
                        help="mint a trace id for this submission and "
                             "print it (see repro-bench trace export)")
    parser.add_argument("--trace-id", metavar="ID", default=None,
                        help="propagate an existing trace id instead of "
                             "minting one (implies --trace)")
    parser.add_argument("--stats", action="store_true",
                        help="fetch service counters/gauges")
    parser.add_argument("--metrics", action="store_true",
                        help="fetch the live metrics snapshot")
    parser.add_argument("--ping", action="store_true")
    parser.add_argument("--shutdown", action="store_true",
                        help="drain the server and stop it")
    parser.add_argument("--json", action="store_true",
                        help="print raw response JSON lines")
    cliargs.add_timeout_argument(parser)
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="client retries for retryable rejections "
                             "(queue_full honoring its retry_after, "
                             "shard_unavailable; default: 2)")
    parser.add_argument("--retry-max-sleep", type=float, default=5.0,
                        metavar="S",
                        help="cap on a single retry sleep (default: 5s)")
    args = parser.parse_args(argv)
    address = args.connect or args.socket

    requests: List[Dict[str, Any]] = []
    if args.ping:
        requests.append({"op": "ping"})
    if args.workload:
        cell = {"system": args.system, "workload": args.workload,
                "ntasks": args.ntasks, "scheme": args.scheme,
                "parked": args.parked}
        if args.lock:
            cell["lock"] = args.lock
        if args.tag:
            cell["tag"] = args.tag
        if args.trace or args.trace_id:
            from ..telemetry import tracing

            trace_id = args.trace_id or tracing.new_trace_id()
            cell["trace"] = tracing.wire_trace(trace_id)
            print(f"[trace {trace_id}]", file=sys.stderr)
        if args.count > 1:
            requests.append({"op": "batch",
                             "cells": [dict(cell) for _ in
                                       range(args.count)]})
        else:
            requests.append({"op": "submit", "cell": cell})
    if args.stats:
        requests.append({"op": "stats"})
    if args.metrics:
        requests.append({"op": "metrics"})
    if args.shutdown:
        requests.append({"op": "shutdown"})
    if not requests:
        parser.error("nothing to do: pass --workload, --stats, "
                     "--metrics, --ping and/or --shutdown")

    exit_code = 0
    for message in requests:
        try:
            response = _request_with_retries(
                address, message, timeout=args.timeout,
                retries=args.retries if message["op"] in ("submit",
                                                          "batch") else 0,
                max_sleep=args.retry_max_sleep)
        except (OSError, ValueError) as exc:
            print(f"cannot reach service at {address}: {exc}",
                  file=sys.stderr)
            return 2
        if message["op"] == "batch" and response.get("status") == "ok" \
                and not args.json:
            for wire in response.get("results", []):
                _print_result(wire, as_json=False)
                if wire.get("status") == "error":
                    exit_code = 1
        else:
            _print_result(response, as_json=args.json)
        if response.get("status") != "ok":
            exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
