"""Pluggable execution backends behind one scheduling API.

Every execution plane in the repo — ``Experiment.run()``, the sweep
executor, the service :class:`~repro.service.session.Session`, the
cluster router's shards — schedules cells through one contract,
:class:`~repro.backends.base.ExecutionBackend`:

* :class:`~repro.backends.local.ProcessBackend` (the default) — the
  crash-isolated worker-process pool with stall watchdog and retries;
* :class:`~repro.backends.local.ThreadBackend` — an in-process thread
  pool, zero setup, no isolation;
* :class:`~repro.backends.remote.RemoteBackend` — cells forwarded to a
  ``repro-bench serve`` daemon (or cluster router) as protocol-3
  binary frames.

Backends run cells; they never see the cache.  Content addressing,
hit/duplicate coalescing, and stores stay in
:func:`repro.core.parallel.run_requests`, which is why the backend
choice can never leak into a cache key and results are byte-identical
across all three.

CLI spellings (``repro-bench --backend`` / ``serve --backend``) are
resolved by :func:`resolve_backend`: ``threads``, ``processes``, or
``remote:<addr>`` where ``<addr>`` is a ``host:port`` or socket path.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from .base import ExecutionBackend, Outcome
from .local import ProcessBackend, ThreadBackend
from .remote import RemoteBackend

__all__ = ["ExecutionBackend", "Outcome", "ProcessBackend",
           "RemoteBackend", "ThreadBackend", "default_backend",
           "resolve_backend", "set_default_backend"]

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
    """The process-wide backend (a :class:`ProcessBackend` unless
    :func:`set_default_backend` — e.g. the CLIs' ``--backend`` — said
    otherwise)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = ProcessBackend()
        return _DEFAULT


def set_default_backend(backend: Union[str, ExecutionBackend, None]
                        ) -> None:
    """Install (or with ``None`` reset) the process-wide backend."""
    global _DEFAULT
    resolved = None if backend is None else resolve_backend(backend)
    with _DEFAULT_LOCK:
        _DEFAULT = resolved
