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

from .api import RunRequest, RunResult
from .registry import (SCHEME_ALIASES, WORKLOADS, resolve_scheme_name,
                       resolve_system, resolve_workload)
from .session import (Session, ServiceStats, default_session,
                      set_default_session)

__all__ = [
    "RunRequest",
    "RunResult",
    "SCHEME_ALIASES",
    "ServiceStats",
    "Session",
    "WORKLOADS",
    "default_session",
    "resolve_scheme_name",
    "resolve_system",
    "resolve_workload",
    "set_default_session",
]
