"""Typed request/result values of the characterization service.

:class:`RunRequest` is the one description of "simulate this cell" that
every entry point now routes through — the :class:`~.session.Session`
facade, the sweep helpers, the wire protocol, and (via shims) the
legacy free functions.  It is a frozen value: two requests describing
the same cell hash to the same content address
(:func:`repro.core.cache.job_key`), which is what request coalescing
and the result cache key on.

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
from ..core.workload import Workload
from ..errors import InfeasibleSchemeError, JobFailedError
from ..machine.topology import MachineSpec

__all__ = ["RunRequest", "RunResult"]


@dataclass(frozen=True)
class RunRequest:
    """One characterization cell, fully described by value.

    The typed replacement for the old ad-hoc ``run(spec, workload,
    scheme=..., lock=...)`` kwargs.  ``tag`` is a free-form client
    label carried through to the matching :class:`RunResult`; it is
    *not* part of the cell's content address, so differently-tagged
    twins still coalesce.
    """

    system: MachineSpec
    workload: Workload
    scheme: Any = None          # AffinityScheme; None = Default
    affinity: Any = None        # ResolvedAffinity override
    impl: Any = None            # MpiImplementation; None = OpenMPI
    lock: Optional[str] = None
    parked: int = 0
    profile: bool = False
    faults: Any = None          # FaultPlan
    #: "fast" | "exact" | "auto"; None defers to the session's tier
    tier: Optional[str] = None
    tag: Optional[str] = None
    #: distributed-trace identity (see telemetry.tracing); like ``tag``,
    #: never part of the content address, so traced twins still coalesce
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None

    def to_job(self) -> JobRequest:
        """The executor/cache form of this request, taken as written.

        A :class:`~.session.Session` fills its own ``tier`` and fault
        plan into a cell that leaves them ``None``; see
        :meth:`~.session.Session.cell`.
        """
        from ..core.affinity import AffinityScheme

        scheme = self.scheme if self.scheme is not None \
            else AffinityScheme.DEFAULT
        return JobRequest(spec=self.system, workload=self.workload,
                          scheme=scheme, affinity=self.affinity,
                          impl=self.impl, lock=self.lock,
                          parked=self.parked, profile=self.profile,
                          faults=self.faults, tier=self.tier)

    def key(self) -> Optional[str]:
        """Content address of the cell, or ``None`` when uncacheable."""
        try:
            return self.to_job().key()
        except Uncacheable:
            return None

    def label(self) -> str:
        """Short human-readable cell description (for logs/failures)."""
        return self.to_job().label()


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
