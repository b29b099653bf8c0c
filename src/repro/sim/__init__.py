"""Discrete-event simulation engine.

A compact, deterministic simpy-style kernel: generator-coroutine
processes, one-shot events, counting semaphores, FIFO stores, and
fluid-flow bandwidth sharing.  All timing effects in the machine model —
memory-link contention, HyperTransport congestion, MPI message overlap —
are expressed through these primitives.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("EmptySchedule", "Engine"),
    ".events": ("AllOf", "AnyOf", "Event", "Interrupt", "Timeout"),
    ".process": ("Process",),
    ".resources": ("BandwidthResource", "Resource", "Store"),
    ".trace": ("TraceRecord", "Tracer", "reset_dropped", "total_dropped"),
})
