"""Typed request/result values of the characterization service.

:class:`RunRequest` is what a served request adds to its cell: the
cell itself is a :class:`~repro.core.parallel.JobRequest`, the one
description of "simulate this cell" every layer carries.  Every
:class:`~.session.Session` entry point takes either a bare cell or a
:class:`RunRequest` around one; the wire protocol builds the latter.
The content address (:meth:`JobRequest.key`) is the cell's alone, so
tagged and traced twins still coalesce.

:class:`RunResult` wraps the simulation outcome
(:class:`~repro.core.execution.JobResult`) together with service
metadata: how the result was obtained (``computed`` / ``cache`` /
``coalesced``), how long the request waited in the queue, and — for
infeasible or failed cells — the stable error code a client can switch
on.  ``require()`` converts a non-ok result back into the typed
exception, so sync callers keep exception semantics while the service
plane stays data-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.cache import Uncacheable
from ..core.execution import JobResult
from ..core.parallel import JobRequest
from ..errors import InfeasibleSchemeError, JobFailedError

__all__ = ["RunRequest", "RunResult"]


@dataclass(frozen=True)
class RunRequest:
    """One served cell: the :class:`JobRequest` plus request metadata.

    ``tag`` is a free-form client label carried through to the matching
    :class:`RunResult`; ``trace_id`` and ``parent_span`` are its
    distributed-trace identity (see :mod:`repro.telemetry.tracing`).
    None of them is part of the cell's content address.
    """

    cell: JobRequest
    tag: Optional[str] = None
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None

    def to_job(self) -> JobRequest:
        """The cell, taken as written.

        A :class:`~.session.Session` fills its own ``tier`` and fault
        plan into a cell that leaves them ``None``; see
        :meth:`~.session.Session.cell`.
        """
        return self.cell

    def key(self) -> Optional[str]:
        """Content address of the cell, or ``None`` when uncacheable."""
        try:
            return self.cell.key()
        except Uncacheable:
            return None


@dataclass
class RunResult:
    """Outcome of one :class:`RunRequest` plus service metadata.

    ``status`` is ``"ok"`` (``job`` holds the simulation result),
    ``"infeasible"`` (the paper tables' dashes), or ``"failed"`` (the
    cell ran and was lost to a crash/stall/injected fault; ``error``
    and ``code`` describe it).  ``source`` records how an ok result was
    obtained: freshly ``computed``, served from the result ``cache``,
    or ``coalesced`` onto another waiter's in-flight simulation.
    """

    status: str
    job: Optional[JobResult] = None
    key: Optional[str] = None
    source: str = "computed"
    #: queue wait in seconds (0 for sync / cache-served requests)
    wait_s: float = 0.0
    error: Optional[str] = None
    code: Optional[str] = None
    kind: Optional[str] = None
    tag: Optional[str] = None
    #: True when load shedding degraded this ``tier="auto"`` request to
    #: the surrogate fast path instead of queueing it; the payload is
    #: still the cell's canonical fast-tier result (same content
    #: address), only the route differs
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def require(self) -> JobResult:
        """The simulation result, or the typed error re-raised."""
        if self.status == "ok" and self.job is not None:
            return self.job
        if self.status == "infeasible":
            raise InfeasibleSchemeError(
                self.error or "scheme infeasible for this cell")
        raise JobFailedError(self.error or "job failed",
                             kind=self.kind or "error", key=self.key)

    def to_wire(self) -> Dict[str, Any]:
        """The protocol form (status + result payload + metadata)."""
        wire: Dict[str, Any] = {
            "status": self.status,
            "source": self.source,
            "wait_s": round(self.wait_s, 6),
        }
        if self.key is not None:
            wire["key"] = self.key
        if self.tag is not None:
            wire["tag"] = self.tag
        if self.job is not None:
            wire["result"] = self.job.to_dict()
        if self.error is not None:
            wire["error"] = self.error
        if self.code is not None:
            wire["code"] = self.code
        if self.kind is not None:
            wire["kind"] = self.kind
        if self.degraded:
            wire["degraded"] = True
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from its protocol form (client side)."""
        job = None
        if wire.get("result") is not None:
            job = JobResult.from_dict(wire["result"])
        return cls(status=wire.get("status", "failed"), job=job,
                   key=wire.get("key"), source=wire.get("source", "computed"),
                   wait_s=wire.get("wait_s", 0.0), error=wire.get("error"),
                   code=wire.get("code"), kind=wire.get("kind"),
                   tag=wire.get("tag"),
                   degraded=bool(wire.get("degraded", False)))
