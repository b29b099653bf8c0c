"""Remote backend: cells over the daemon protocol to a serve endpoint.

One :class:`RemoteBackend` owns one persistent
:class:`~repro.service.transport.Connection` to a ``repro-bench
serve`` daemon (or a cluster router) and forwards whole batches as a
single ``{"op": "batch"}`` request.  The cells and their results
travel as :mod:`repro.wire` binary frames (protocol 3, the only
protocol the service speaks).

Cells are translated to their name-based wire spelling by
:func:`~repro.service.registry.wire_cell_for`, which *verifies* every
resolution by canonical token — so a cell that executes remotely lands
under exactly the local content address, and backends stay
byte-interchangeable.  Cells the wire cannot express (explicit
affinities, fault plans, unregistered workloads) fail individually;
they never poison the rest of the batch.

The cluster router reuses the lower-level :meth:`RemoteBackend.forward`
for its per-shard forwarding: one persistent connection per shard
when traffic is sequential, falling back to a one-shot connection
when the persistent one is busy, so slow sweeps never serialize
health probes behind them.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence

from ..core.execution import JobResult
from ..core.parallel import JobRequest
from ..errors import ProtocolError, ReproError
from ..service.transport import (Connection, format_address, parse_address,
                                 request as one_shot_request)
from ..telemetry import metrics as _metrics
from .base import ExecutionBackend, Outcome

__all__ = ["RemoteBackend"]


class RemoteBackend(ExecutionBackend):
    """Batches forwarded to a daemon endpoint over one connection."""

    name = "remote"

    def __init__(self, address, timeout: float = 600.0,
                 capacity_hint: int = 64):
        super().__init__()
        self.address = parse_address(address)
        self.timeout = timeout
        self._capacity = max(1, capacity_hint)
        self._conn: Optional[Connection] = None
        self._conn_lock = threading.Lock()

    # -- transport ---------------------------------------------------------

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def _forward_locked(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._conn is None:
            self._conn = Connection(self.address, timeout=self.timeout)
        try:
            return self._conn.request(message)
        except (ConnectionError, OSError):
            # the persistent socket may simply have aged out (server
            # restart, idle drop); requests are pre-acceptance
            # idempotent, so one fresh-connection retry is safe
            self._drop_connection()
            self._conn = Connection(self.address, timeout=self.timeout)
            try:
                return self._conn.request(message)
            except BaseException:
                self._drop_connection()
                raise
        except ValueError:
            # undecodable reply: the stream cannot be trusted past it
            self._drop_connection()
            raise

    def forward(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One protocol request/response against this endpoint.

        Uses the persistent connection when it is free; a
        busy connection (another thread mid-request) falls back to a
        one-shot socket so concurrent callers never queue behind a
        long-running batch.  Raises :class:`ConnectionError`/
        :class:`OSError` when the endpoint is unreachable — the same
        contract as :func:`repro.service.transport.request`, which the
        router's health tracking keys off.
        """
        if self._conn_lock.acquire(blocking=False):
            try:
                return self._forward_locked(message)
            finally:
                self._conn_lock.release()
        _metrics.inc("backend_oneshot_fallback_total", backend=self.name)
        return one_shot_request(self.address, message,
                                timeout=self.timeout)

    # -- the scheduling API ------------------------------------------------

    def submit_cells(self, batch: Sequence[JobRequest],
                     jobs: Optional[int] = None,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     ) -> "List[Future[Outcome]]":
        from ..service.registry import wire_cell_for

        outcomes: List[Optional[Outcome]] = [None] * len(batch)
        sendable: List[int] = []
        cells: List[Dict[str, Any]] = []
        for i, request in enumerate(batch):
            try:
                cells.append(wire_cell_for(request))
                sendable.append(i)
            except (ProtocolError, ReproError, ValueError) as exc:
                outcomes[i] = ("failed", {
                    "kind": "error",
                    "message": f"cell has no wire spelling: {exc}"})
        if sendable:
            # timeout/retries stay server-side: the daemon's executor
            # owns the watchdog and retry budget for cells it runs
            try:
                response = self.forward({"op": "batch", "cells": cells})
            except (OSError, ValueError) as exc:
                failure: Outcome = ("failed", {
                    "kind": "transport",
                    "message": f"{format_address(self.address)}: {exc}"})
                for i in sendable:
                    outcomes[i] = failure
            else:
                results = response.get("results") \
                    if response.get("status") == "ok" else None
                if not isinstance(results, list) \
                        or len(results) != len(sendable):
                    detail = response.get("message") \
                        or response.get("error") \
                        or f"malformed batch response from " \
                           f"{format_address(self.address)}"
                    for i in sendable:
                        outcomes[i] = ("failed", {
                            "kind": response.get("kind")
                            or response.get("code") or "transport",
                            "message": str(detail)})
                else:
                    for i, wire in zip(sendable, results):
                        outcomes[i] = self._outcome_from_wire(wire)
        return [self._resolved(outcome if outcome is not None
                               else ("failed", {"kind": "error",
                                                "message": "cell never "
                                                           "dispatched"}))
                for outcome in outcomes]

    @staticmethod
    def _outcome_from_wire(wire: Any) -> Outcome:
        """Fold one per-cell wire result back to the executor shape."""
        if not isinstance(wire, dict):
            return ("failed", {"kind": "error",
                               "message": "malformed per-cell response"})
        status = wire.get("status")
        if status == "ok" and wire.get("result") is not None:
            try:
                return ("ok", JobResult.from_dict(wire["result"]))
            except (KeyError, TypeError, ValueError) as exc:
                return ("failed", {"kind": "error",
                                   "message": f"undecodable result: {exc}"})
        return ("failed", {
            "kind": wire.get("kind") or wire.get("code") or "error",
            "message": wire.get("error") or wire.get("message")
            or "remote execution failed"})

    def capacity(self) -> int:
        return self._capacity

    # -- health / lifecycle ------------------------------------------------

    def healthy(self, timeout: float = 2.0) -> bool:
        """Liveness probe (always a one-shot socket, never the shared
        connection, so a slow in-flight batch cannot fail the probe)."""
        try:
            response = one_shot_request(self.address, {"op": "ping"},
                                        timeout=timeout)
        except (OSError, ValueError):
            return False
        return response.get("status") == "ok"

    def close(self) -> None:
        with self._conn_lock:
            self._drop_connection()
