"""Spans and trace context: the one timing primitive of the repo.

``span("sweep", table=...)`` brackets a region of work.  Under a trace
context (:func:`context`, set where a traced wire cell arrives) with a
:class:`~.ledger.RunRecorder` active, it mints a ``span_id``, records
one id-carrying entry in the recorder's ``trace_spans`` and, while its
``with`` body runs, is the context its child spans join.  With a
recorder and no trace context it aggregates into the ledger ``spans``
by name.  Given ``histogram=``, it also observes its elapsed seconds
there when a metrics registry is enabled.  With neither a recorder nor
a registry it is one global read returning a shared null span: no
clock read and no span object, so instrumented code keeps spans in
place unconditionally.

A hop that closes on another thread or in a callback keeps the span
and calls :meth:`Span.end`.  A traced span that ends by an exception
still records, with the error's wire code as its ``error`` attribute:
a failed hop is still a hop.  ``repro-bench trace export`` stitches
the hops of every process's ledger record into one Chrome trace
(:func:`chrome_trace`).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from ..errors import error_code
from . import metrics

__all__ = [
    "MAX_ID_LEN", "NULL_SPAN", "Span", "active_recorder", "chrome_trace",
    "context", "new_span_id", "new_trace_id", "set_recorder", "span",
    "trace_from_cell", "valid_id", "wire_trace",
]

#: upper bound accepted for ids arriving over the wire
MAX_ID_LEN = 64

#: the currently active RunRecorder (None = telemetry unconfigured)
_RECORDER: Optional[Any] = None

#: ``(trace_id, parent span id)`` that new spans in this context join
_CONTEXT: ContextVar[Optional[Tuple[str, Optional[str]]]] = \
    ContextVar("repro_trace_context", default=None)


def set_recorder(recorder: Optional[Any]) -> None:
    """Install (or clear, with ``None``) the process-wide recorder."""
    global _RECORDER
    _RECORDER = recorder


def active_recorder() -> Optional[Any]:
    """The recorder spans currently report to, if any."""
    return _RECORDER


class Span:
    """One live span; ``note(**attrs)`` attaches attributes mid-flight.

    ``span_id`` is set only for a traced span (it seeds the next hop's
    ``parent_span``); ``elapsed`` holds the seconds once it ended.
    """

    __slots__ = ("name", "attrs", "histogram", "trace_id", "span_id",
                 "parent_span", "elapsed", "_recorder", "_t0", "_wall0",
                 "_token")

    def __init__(self, name: str, attrs: Dict[str, Any],
                 recorder: Optional[Any], histogram: Optional[str]):
        self.name = name
        self.attrs = attrs
        self.histogram = histogram
        self.elapsed: Optional[float] = None
        self._recorder = recorder
        self._token = None
        trace = _CONTEXT.get() if recorder is not None else None
        if trace is None:
            self.trace_id = self.span_id = self.parent_span = None
        else:
            self.trace_id, self.parent_span = trace
            self.span_id = new_span_id()
            self._wall0 = time.time()
        self._t0 = time.perf_counter()

    def note(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def end(self) -> None:
        """Close the span and record it (a second call is a no-op)."""
        if self.elapsed is not None:
            return
        self.elapsed = elapsed = time.perf_counter() - self._t0
        if self.histogram is not None:
            metrics.observe(self.histogram, elapsed)
        recorder = self._recorder
        if recorder is None:
            return
        if self.span_id is None:
            recorder.record_span(self.name, elapsed, self.attrs)
        else:
            recorder.record_trace_span(self.name, self.trace_id,
                                       self.span_id, self.parent_span,
                                       self._wall0, elapsed, self.attrs)

    def __enter__(self) -> "Span":
        if self.span_id is not None:
            self._token = _CONTEXT.set((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CONTEXT.reset(self._token)
            self._token = None
        if exc is not None and self.span_id is not None:
            self.attrs["error"] = error_code(exc)
        self.end()


class _NullSpan:
    """The shared stand-in returned while nothing would record."""

    __slots__ = ()
    name = trace_id = span_id = parent_span = elapsed = None

    def note(self, **attrs: Any) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


def span(name: str, *, histogram: Optional[str] = None, timed: bool = False,
         **attrs: Any) -> Any:
    """Open a span; use it with ``with`` or close it with ``end()``.

    ``histogram`` names the metrics histogram fed with the elapsed
    seconds on close.  ``timed=True`` reads the clock even when nothing
    records, for callers that use ``elapsed`` themselves.
    """
    recorder = _RECORDER
    if recorder is None and not timed and (
            histogram is None or metrics.active_registry() is None):
        return NULL_SPAN
    return Span(name, attrs, recorder, histogram)


@contextmanager
def context(trace_id: Optional[str],
            parent_span: Optional[str] = None) -> Iterator[None]:
    """Run the body under a wire-borne trace context.

    Spans opened in the body join ``trace_id`` as children of
    ``parent_span``.  A no-op without a trace id or a recorder.
    """
    if not trace_id or _RECORDER is None:
        yield
        return
    token = _CONTEXT.set((trace_id, parent_span))
    try:
        yield
    finally:
        _CONTEXT.reset(token)


# -- wire helpers ------------------------------------------------------------

def new_trace_id() -> str:
    """A fresh 64-bit request identity, hex-encoded."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 32-bit span identity, hex-encoded."""
    return os.urandom(4).hex()


def valid_id(value: Any) -> bool:
    """Whether a wire value is usable as a trace/span id."""
    return isinstance(value, str) and 0 < len(value) <= MAX_ID_LEN


def trace_from_cell(cell: Any) -> Tuple[Optional[str], Optional[str]]:
    """Extract ``(trace_id, parent_span)`` from a raw wire cell.

    Lenient by design — malformed trace envelopes degrade to an
    untraced request rather than failing it (tracing is best-effort
    metadata, never load-bearing).
    """
    if not isinstance(cell, dict):
        return None, None
    trace = cell.get("trace")
    if not isinstance(trace, dict):
        return None, None
    trace_id = trace.get("trace_id")
    parent = trace.get("parent_span")
    if not valid_id(trace_id):
        return None, None
    return trace_id, (parent if valid_id(parent) else None)


def wire_trace(trace_id: str,
               parent_span: Optional[str] = None) -> Dict[str, str]:
    """The wire form of a trace context (the cell's ``trace`` field)."""
    trace: Dict[str, str] = {"trace_id": trace_id}
    if parent_span:
        trace["parent_span"] = parent_span
    return trace


# -- Chrome trace-event export -----------------------------------------------

def chrome_trace(slices: Iterable[Tuple[str, str, int, int, float, float,
                                        Dict[str, Any]]],
                 processes: Optional[Dict[str, int]] = None,
                 **other: Any) -> Dict[str, Any]:
    """The Chrome trace-event document (``chrome://tracing``, Perfetto).

    *slices* are ``(name, cat, pid, tid, ts_us, dur_us, args)`` complete
    (``ph: "X"``) events, kept in the given order; *processes* maps a
    lane name to its ``pid`` for ``process_name`` metadata events;
    keyword arguments become ``otherData``.
    """
    events = [{"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
               "ts": ts, "dur": dur, "args": args}
              for name, cat, pid, tid, ts, dur, args in slices]
    for proc, pid in (processes or {}).items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": proc}})
    document: Dict[str, Any] = {"traceEvents": events,
                                "displayTimeUnit": "ms"}
    if other:
        document["otherData"] = other
    return document
