"""Pluggable execution backends behind one scheduling API.

Every execution plane in the repo — the sweep executor, the service
:class:`~repro.service.session.Session`, the cluster router's shards —
schedules cells through one contract,
:class:`~repro.backends.base.ExecutionBackend`:

* :class:`~repro.backends.local.ProcessBackend` (the default) — a
  crash-isolated worker-process pool with stall watchdog and retries,
  owned by the backend instance;
* :class:`~repro.backends.local.ThreadBackend` — an in-process thread
  pool, zero setup, no isolation;
* :class:`~repro.backends.remote.RemoteBackend` — cells forwarded to a
  ``repro-bench serve`` daemon (or cluster router) as protocol-3
  binary frames.

Backends run cells; they never see the cache.  Content addressing,
hit/duplicate coalescing, stores and failure accounting stay in
:func:`repro.core.parallel.run_requests`, which is why the backend
choice can never leak into a cache key and results are byte-identical
across all three.  It folds each backend outcome once and hands the
folded outcomes to the caller, failures included, so a backend keeps
no failure list of its own.

CLI spellings (``repro-bench --backend`` / ``serve --backend``) are
resolved by :func:`resolve_backend`: ``threads``, ``processes``, or
``remote:<addr>`` where ``<addr>`` is a ``host:port`` or socket path.
A :class:`~repro.service.session.Session` holds the backend it was
given; a session without one, and a bare ``run_requests`` call, use
:func:`default_backend`.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from .base import ExecutionBackend, Outcome
from .local import ProcessBackend, ThreadBackend
from .remote import RemoteBackend

__all__ = ["ExecutionBackend", "Outcome", "ProcessBackend",
           "RemoteBackend", "ThreadBackend", "close_default",
           "default_backend", "resolve_backend"]

_DEFAULT_LOCK = threading.Lock()
_DEFAULT: Optional[ExecutionBackend] = None


def resolve_backend(spec: Union[str, ExecutionBackend, None]
                    ) -> ExecutionBackend:
    """An :class:`ExecutionBackend` from its CLI spelling.

    ``"threads"`` / ``"threads:N"``, ``"processes"`` /
    ``"processes:N"`` (N workers), or ``"remote:<addr>"``.  Passing an
    existing backend returns it unchanged; ``None`` returns the
    process-wide default.
    """
    if spec is None:
        return default_backend()
    if isinstance(spec, ExecutionBackend):
        return spec
    kind, _, rest = str(spec).partition(":")
    kind = kind.strip().lower()
    if kind in ("threads", "thread"):
        workers = int(rest) if rest else None
        return ThreadBackend(workers=workers)
    if kind in ("processes", "process"):
        jobs = int(rest) if rest else None
        return ProcessBackend(jobs=jobs)
    if kind == "remote":
        if not rest:
            raise ValueError(
                "remote backend needs an address: remote:<host:port> "
                "or remote:<socket-path>")
        return RemoteBackend(rest)
    raise ValueError(
        f"unknown backend {spec!r}; choose threads, processes, or "
        f"remote:<addr>")


def default_backend() -> ExecutionBackend:
    """The process-wide :class:`ProcessBackend`, created on first use."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = ProcessBackend()
        return _DEFAULT


def close_default() -> None:
    """Close the process-wide backend if one was ever created."""
    if _DEFAULT is not None:
        _DEFAULT.close()
