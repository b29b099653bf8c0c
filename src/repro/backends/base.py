"""The execution-backend contract: one scheduling API, many engines.

The executor (:func:`repro.core.parallel.run_requests`) owns everything
content-addressed — cache lookups, duplicate coalescing, failure
accounting, cache stores — and delegates the actual *running* of the
cache-miss cells to an :class:`ExecutionBackend`.  The split is the
point: a backend never touches the cache or the content address, which
is why the same batch is byte-identical whether it ran on threads, on
the crash-isolated process pool, or on a daemon across the network.

The contract:

* :meth:`~ExecutionBackend.submit_cells` takes a batch of
  :class:`~repro.core.parallel.JobRequest` values and returns one
  :class:`~concurrent.futures.Future` per cell, in batch order.  Each
  future resolves to ``("ok", JobResult)`` or ``("failed", {"kind":
  ..., "message": ...})`` — exactly the shape ``_execute_cell``
  produces, so backends compose with the scheduler's accounting
  without translation.  A future never raises for cell-caused
  failures; those fold into the ``"failed"`` outcome, which the
  executor turns into a :class:`~repro.core.parallel.TargetFailure`
  for the flight that asked.  A backend never sees an infeasible
  cell: the executor settles placement before dispatch.  It resolves
  ``jobs``, ``timeout`` and ``retries`` before the call too; a
  backend uses them as given.
* :meth:`~ExecutionBackend.capacity` reports how many cells the
  backend can usefully run at once (a scheduling hint, not a limit);
  :meth:`~ExecutionBackend.workers` how many a batch submitted at a
  given ``jobs`` runs at once (a sized local pool ignores ``jobs``).
* :meth:`~ExecutionBackend.drain` blocks until previously submitted
  work is finished; :meth:`~ExecutionBackend.close` releases pools and
  connections.  Both are idempotent.
* :meth:`~ExecutionBackend.healthy` is the liveness hook (the cluster
  router's shard probing keys off it) and
  :meth:`~ExecutionBackend.gauges` the metrics hook — submitted /
  completed / failed / in-flight counters every backend keeps.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.parallel import JobRequest
from ..telemetry import metrics as _metrics

__all__ = ["ExecutionBackend", "Outcome"]

#: what every per-cell future resolves to: ``("ok", JobResult)`` or
#: ``("failed", {"kind", "message"})``
Outcome = Tuple[str, object]


class ExecutionBackend(abc.ABC):
    """Runs batches of cells; knows nothing about caching or keys."""

    #: stable backend name (``threads`` / ``processes`` / ``remote``);
    #: shows up in metrics labels and span notes, never in cache keys
    name: str = "backend"

    def __init__(self) -> None:
        self._accounting_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0

    # -- the scheduling API ----------------------------------------------

    @abc.abstractmethod
    def submit_cells(self, batch: Sequence[JobRequest],
                     jobs: Optional[int] = None,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     ) -> "List[Future[Outcome]]":
        """Run ``batch``; one outcome future per cell, in batch order."""

    @abc.abstractmethod
    def capacity(self) -> int:
        """How many cells this backend can usefully run at once."""

    def workers(self, jobs: int) -> int:
        """How many cells a batch submitted at ``jobs`` runs at once."""
        return self.capacity()

    def drain(self) -> None:
        """Block until previously submitted cells finish (idempotent)."""

    def close(self) -> None:
        """Release pools/connections; the backend is done (idempotent)."""

    # -- health / metrics hooks ------------------------------------------

    def healthy(self) -> bool:
        """Can this backend accept work right now?"""
        return True

    def gauges(self) -> Dict[str, float]:
        """Live counters for dashboards and the metrics plane."""
        with self._accounting_lock:
            return {
                "backend_submitted": float(self._submitted),
                "backend_completed": float(self._completed),
                "backend_failed": float(self._failed),
                "backend_inflight": float(self._submitted
                                          - self._completed),
            }

    # -- shared accounting ------------------------------------------------

    def _watch(self, future: "Future[Outcome]") -> "Future[Outcome]":
        """Count one submitted cell and its eventual outcome."""
        with self._accounting_lock:
            self._submitted += 1
        _metrics.inc("backend_cells_total", backend=self.name)
        future.add_done_callback(self._note_done)
        return future

    def _note_done(self, future: "Future[Outcome]") -> None:
        failed = True
        try:
            outcome = future.result()
            failed = outcome[0] == "failed"
        except BaseException:
            pass
        with self._accounting_lock:
            self._completed += 1
            if failed:
                self._failed += 1
        if failed:
            _metrics.inc("backend_failed_total", backend=self.name)

    def _resolved(self, outcome: Outcome) -> "Future[Outcome]":
        """An already-finished future (synchronous backends)."""
        future: "Future[Outcome]" = Future()
        self._watch(future)
        future.set_result(outcome)
        return future

    # -- lifecycle sugar --------------------------------------------------

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
