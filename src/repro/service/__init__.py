"""Characterization-as-a-service: the unified Session API.

The :class:`Session` facade is the one front door for running
characterization cells — synchronously (:meth:`Session.run`), as a
batch sweep (:meth:`Session.run_many` and the typed sweep methods), or
asynchronously (:meth:`Session.submit` returning a future).  Behind it
sits an async job queue with request coalescing (concurrent identical
cells collapse into one simulation), batching into the shared worker
pool, bounded-queue admission control, and graceful drain.

The same session powers the ``repro-bench serve`` daemon, which speaks
protocol-3 :mod:`repro.wire` binary frames over a Unix socket or TCP
(:mod:`~.protocol`, :mod:`~.transport`, :mod:`~.daemon`), so remote
clients and in-process callers share one cache, one coalescing map,
and one telemetry stream.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("RunRequest", "RunResult"),
    ".registry": (
        "SCHEME_ALIASES", "WORKLOADS", "resolve_scheme_name",
        "resolve_system", "resolve_workload",
    ),
    ".session": (
        "Session", "ServiceStats", "default_session", "set_default_session",
    ),
})
