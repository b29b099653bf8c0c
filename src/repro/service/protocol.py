"""Request/response protocol of the characterization service (v3).

Every message travels as one :mod:`repro.wire` framed binary message
(:mod:`~.transport` owns the framing); the shapes below are spelled in
JSON for readability.  Requests::

    {"op": "ping"}                             # reports "protocol": 3
    {"op": "stats"}
    {"op": "metrics"}                          # live registry snapshot
    {"op": "trace", "trace_id": "9f.."}        # buffered spans (id optional)
    {"op": "submit", "cell": {...}}            # one cell, wait for it
    {"op": "batch",  "cells": [{...}, ...]}    # many cells, wait for all
    {"op": "drain"}                            # stop admitting, finish all
    {"op": "shutdown"}                         # drain, then stop the server

A **cell** names its inputs through :mod:`~repro.service.registry`::

    {"system": "longs", "workload": "stream", "ntasks": 4,
     "scheme": "interleave", "lock": null, "parked": 0, "tag": "t0",
     "tier": "fast",           # "fast" | "exact" | "auto" (optional)
     "params": {...},          # extra workload parameters (optional)
     "trace": {"trace_id": "9f..", "parent_span": "ab.."}}  # optional

The ``trace`` envelope is optional distributed-trace identity (see
:mod:`repro.telemetry.tracing`): servers that know about it open a
``service_submit`` span and thread the ids through session and
executor; servers that don't simply ignore the unknown field — tracing
is metadata, never load-bearing.  ``metrics`` is side-effect-free and
returns the process metrics snapshot (add ``"format": "text"`` for the
Prometheus exposition alongside).

Protocol 3 is the only protocol served.  A protocol-2 peer, which
opens with an NDJSON line, gets one JSON ``protocol_error`` line
(:func:`encode_line`) naming protocol 3 and is disconnected.

Responses are ``{"status": "ok", ...}`` or the wire form of a
:class:`~repro.errors.ReproError` (``{"status": "error", "code": ...,
"message": ..., "retry_after": ...}``).  A ``submit`` answers with the
:meth:`RunResult.to_wire` payload; ``batch`` answers with ``{"status":
"ok", "results": [...]}`` where each element is a per-cell result or
error object — queue-full rejections reject *that cell only*, they
never poison the rest of the batch.  Traced submits echo ``trace_id``
in the response.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.parallel import JobRequest
from ..errors import ProtocolError, ReproError, error_code
from ..telemetry import metrics as metrics_mod
from ..telemetry import tracing
from ..telemetry.tracing import span
from .api import RunRequest, RunResult
from .registry import resolve_scheme_name, resolve_system, resolve_workload
from .session import Session

__all__ = ["PROTOCOL_VERSION", "cell_from_wire", "encode_line",
           "handle_request", "metrics_response"]

#: the protocol revision every connection speaks (framed binary),
#: echoed by ping
PROTOCOL_VERSION = 3


def encode_line(message: Dict[str, Any]) -> bytes:
    """One message as a newline-terminated JSON line (the error a
    protocol-2 peer gets)."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def cell_from_wire(cell: Any) -> RunRequest:
    """The :class:`RunRequest` (its cell a :class:`JobRequest`) a wire
    cell describes."""
    if not isinstance(cell, dict):
        raise ProtocolError("cell must be a JSON object")
    try:
        system = resolve_system(str(cell.get("system", "longs")))
        workload_name = cell.get("workload")
        if not isinstance(workload_name, str):
            raise ProtocolError("cell needs a 'workload' name")
        ntasks = int(cell.get("ntasks", 4))
        params = cell.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        workload = resolve_workload(workload_name, ntasks, **params)
        scheme = resolve_scheme_name(str(cell.get("scheme", "default")))
    except ReproError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed cell: {exc}") from exc
    lock = cell.get("lock")
    if lock is not None and not isinstance(lock, str):
        raise ProtocolError("'lock' must be a string or null")
    tier = cell.get("tier")
    if tier is not None and tier not in ("fast", "exact", "auto"):
        raise ProtocolError(
            "'tier' must be 'fast', 'exact', 'auto' or null")
    tag = cell.get("tag")
    trace_id, parent_span = tracing.trace_from_cell(cell)
    job = JobRequest(spec=system, workload=workload, scheme=scheme,
                     lock=lock, parked=int(cell.get("parked", 0)),
                     profile=bool(cell.get("profile", False)), tier=tier)
    return RunRequest(job, tag=str(tag) if tag is not None else None,
                      trace_id=trace_id, parent_span=parent_span)


def _error_wire(exc: BaseException) -> Dict[str, Any]:
    if isinstance(exc, ReproError):
        return exc.to_wire()
    return {"status": "error", "code": error_code(exc),
            "message": f"{type(exc).__name__}: {exc}"}


def metrics_response(message: Dict[str, Any],
                     session: Optional[Session] = None) -> Dict[str, Any]:
    """The side-effect-free ``metrics`` response for this process."""
    try:
        from ..sim.trace import total_dropped
        metrics_mod.set_gauge("sim_trace_dropped", total_dropped())
    except Exception:
        pass
    snap = metrics_mod.snapshot()
    response: Dict[str, Any] = {"status": "ok", "op": "metrics",
                                "metrics": snap,
                                "enabled":
                                metrics_mod.active_registry() is not None}
    if session is not None:
        response["session"] = session.name
        response["gauges"] = session.gauges()
    if message.get("format") == "text":
        response["text"] = metrics_mod.to_prometheus(snap)
    return response


def _admit(session: Session, cell: Any, **attrs: Any) -> Tuple[Any, ...]:
    """Submit one wire cell: ``(future, hop, trace_id)``.

    A traced cell opens its ``service_submit`` hop here and threads the
    hop's span down as the session's parent.  The hop closes when the
    answer is read (:func:`_answer`) or, carrying the error code, when
    admission itself fails: a rejected hop is still a hop.
    """
    request = cell_from_wire(cell)
    hop = tracing.NULL_SPAN
    if request.trace_id is not None:
        with tracing.context(request.trace_id, request.parent_span):
            hop = span("service_submit", session=session.name, **attrs)
        if hop.span_id is not None:
            request = replace(request, parent_span=hop.span_id)
    try:
        return session.submit(request), hop, request.trace_id
    except BaseException as exc:
        hop.note(error=error_code(exc))
        hop.end()
        raise


def _answer(future: Any, hop: Any, trace_id: Optional[str]
            ) -> Dict[str, Any]:
    """Wait for one admitted cell and close its hop; the wire answer."""
    with hop:
        result = future.result()
        hop.note(source=result.source, status=result.status)
    wire = result.to_wire()
    if trace_id is not None:
        wire["trace_id"] = trace_id
    return wire


def handle_request(session: Session, message: Dict[str, Any]
                   ) -> Dict[str, Any]:
    """Serve one decoded request against a session (server side).

    Returns the response object; never raises for client-caused
    failures (they fold into error responses).  The ``drain`` and
    ``shutdown`` ops mark their effect in the response; actually
    stopping the accept loop is the daemon's job (it watches for
    ``shutdown`` responses).
    """
    op = message.get("op")
    try:
        if op == "ping":
            return {"status": "ok", "op": "ping",
                    "protocol": PROTOCOL_VERSION,
                    "session": session.name}
        if op == "stats":
            return {"status": "ok", "op": "stats",
                    "stats": session.stats.as_dict(),
                    "gauges": session.gauges()}
        if op == "metrics":
            return metrics_response(message, session)
        if op == "trace":
            # side-effect-free: the trace spans still buffered in this
            # process's run recorder (they only reach the ledger at
            # shutdown); lets `repro-bench trace --connect` stitch
            # traces from live daemons
            recorder = tracing.active_recorder()
            spans = list(getattr(recorder, "trace_spans", None) or [])
            wanted = message.get("trace_id")
            if wanted is not None:
                spans = [s for s in spans if s.get("trace") == wanted]
            return {"status": "ok", "op": "trace", "spans": spans,
                    "dropped": int(getattr(recorder,
                                           "trace_spans_dropped", 0) or 0),
                    "session": session.name}
        if op == "submit":
            wire = _answer(*_admit(session, message.get("cell")))
            wire["op"] = "submit"
            return wire
        if op == "batch":
            cells = message.get("cells")
            if not isinstance(cells, list) or not cells:
                raise ProtocolError("'cells' must be a non-empty list")
            admitted: List[Any] = []
            for cell in cells:
                try:
                    admitted.append(_admit(session, cell, op="batch"))
                except Exception as exc:
                    admitted.append(exc)
            results = [_error_wire(entry)
                       if isinstance(entry, BaseException)
                       else _answer(*entry) for entry in admitted]
            return {"status": "ok", "op": "batch", "results": results}
        if op == "drain":
            session.drain()
            return {"status": "ok", "op": "drain",
                    "stats": session.stats.as_dict()}
        if op == "shutdown":
            session.drain()
            return {"status": "ok", "op": "shutdown",
                    "stats": session.stats.as_dict(),
                    "gauges": session.gauges()}
        raise ProtocolError(f"unknown op {op!r}")
    except BaseException as exc:  # fold everything into the wire form
        wire = _error_wire(exc)
        wire["op"] = op
        return wire
