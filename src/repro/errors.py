"""The ``ReproError`` hierarchy: every failure mode under one root.

Historically the toolkit raised bare :class:`ValueError` from a dozen
call sites, which made it impossible for the characterization service
(:mod:`repro.service`) or the CLIs to map failures onto *stable* wire
codes — a client retrying on ``queue_full`` must never confuse it with
``unknown_metric``.  Every exception the library raises deliberately now
subclasses :class:`ReproError` and carries a :attr:`~ReproError.code`
class attribute that is part of the public protocol (documented in
``docs/API.md``) and will not change spelling.

Errors that previously subclassed :class:`ValueError` (or were raised
*as* ``ValueError``) keep it as a secondary base, so existing
``except ValueError`` call sites continue to work unchanged.

:func:`error_code` maps any exception to its wire code (``internal``
for exceptions outside the hierarchy), and :func:`from_wire` rebuilds
the right subclass from a decoded protocol message on the client side.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

__all__ = [
    "ReproError",
    "InfeasibleSchemeError",
    "NoFeasibleSchemeError",
    "UnknownMetricError",
    "UnknownNameError",
    "ProtocolError",
    "QueueFullError",
    "SessionClosedError",
    "ShardUnavailableError",
    "SurrogateUnsupportedError",
    "JobFailedError",
    "RETRYABLE_CODES",
    "error_code",
    "from_wire",
]

#: wire codes a client may safely retry: all are *pre-acceptance*
#: failures (the job was never admitted, so a retry cannot duplicate
#: observable work — cells are content-addressed and idempotent
#: anyway).  "transport" is the replay client's synthetic code for a
#: connect/read failure.
RETRYABLE_CODES = frozenset({"queue_full", "shard_unavailable",
                             "transport"})


class ReproError(Exception):
    """Root of every deliberate failure raised by the toolkit.

    :attr:`code` is the stable wire/CLI identifier of the failure mode;
    subclasses override it.  :attr:`retry_after` is ``None`` except for
    backpressure-style rejections, where it is the server's hint (in
    seconds) for when a retry is likely to be admitted.
    """

    code = "repro_error"
    retry_after: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        """The protocol form of this error (status/code/message)."""
        wire: Dict[str, Any] = {"status": "error", "code": self.code,
                                "message": str(self)}
        if self.retry_after is not None:
            wire["retry_after"] = self.retry_after
        return wire


class InfeasibleSchemeError(ReproError, ValueError):
    """A scheme/machine/task-count combination that cannot be placed.

    These are the dashes in the paper's tables (e.g. a One-MPI scheme
    with more tasks than sockets), not programming errors.  Sweeps catch
    exactly this class, so genuine bugs — which raise plain
    :class:`ValueError` or anything else — surface instead of rendering
    as dashes.  Keeps :class:`ValueError` as a base for backward
    compatibility with pre-1.0 callers.
    """

    code = "infeasible_scheme"


class NoFeasibleSchemeError(ReproError, ValueError):
    """Every scheme in a comparison was infeasible for the workload."""

    code = "no_feasible_scheme"


class UnknownMetricError(ReproError, ValueError):
    """A study was asked for a metric it does not compute."""

    code = "unknown_metric"


class UnknownNameError(ReproError, ValueError):
    """A registry lookup (system, workload, scheme) found no entry."""

    code = "unknown_name"


class ProtocolError(ReproError, ValueError):
    """A service request that cannot be decoded or is malformed."""

    code = "protocol_error"


class QueueFullError(ReproError):
    """Admission control rejected a submit: the queue is at capacity.

    The 429 of the characterization service: the job was *not* accepted
    (nothing to lose), and :attr:`retry_after` hints when capacity is
    likely to free up.
    """

    code = "queue_full"

    def __init__(self, message: str, retry_after: float = 0.1):
        super().__init__(message)
        self.retry_after = retry_after


class SessionClosedError(ReproError):
    """A submit arrived after the session began draining or closed."""

    code = "session_closed"


class ShardUnavailableError(ReproError):
    """The cluster router could not reach any shard for a request.

    Raised (and sent over the wire) by :mod:`repro.cluster` only after
    the retry/backoff schedule exhausted every live shard in the
    rendezvous fallback order — a single dead shard never surfaces this,
    because the router reroutes to the next shard for the key.  Like
    :class:`QueueFullError` this is a *pre-acceptance* failure: no shard
    accepted the job, so nothing was lost and the client may retry.
    """

    code = "shard_unavailable"

    def __init__(self, message: str, retry_after: float = 0.5):
        super().__init__(message)
        self.retry_after = retry_after


class SurrogateUnsupportedError(ReproError):
    """The analytic fast tier cannot evaluate this cell.

    Raised by :mod:`repro.surrogate` for cells whose semantics only the
    discrete-event engine can honour — marker profiling, fault plans,
    wildcard receives.  ``tier="auto"`` callers never see it (the
    executor falls back to the exact tier); explicit ``tier="fast"``
    callers do, because silently answering with a different model than
    the one requested would be worse than failing.
    """

    code = "surrogate_unsupported"


class JobFailedError(ReproError):
    """An accepted job ran and failed (crash, stall, exhausted faults).

    Distinct from :class:`InfeasibleSchemeError`: infeasibility is
    expected data (a dash), failure is an abnormal outcome that the
    service still reports rather than dropping.  ``kind`` carries the
    executor's failure class (``crash``/``timeout``/``fault_exhausted``/
    ``error``); ``key`` the failed cell's content address, when known.
    """

    code = "job_failed"

    def __init__(self, message: str, kind: str = "error",
                 key: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.key = key


#: wire code -> exception class, for client-side reconstruction
_BY_CODE: Dict[str, Type[ReproError]] = {
    cls.code: cls
    for cls in (ReproError, InfeasibleSchemeError, NoFeasibleSchemeError,
                UnknownMetricError, UnknownNameError, ProtocolError,
                QueueFullError, SessionClosedError, ShardUnavailableError,
                SurrogateUnsupportedError, JobFailedError)
}


def error_code(exc: BaseException) -> str:
    """The stable wire code of an exception (``internal`` if foreign)."""
    if isinstance(exc, ReproError):
        return exc.code
    return "internal"


def from_wire(wire: Dict[str, Any]) -> ReproError:
    """Rebuild a typed error from its protocol form.

    Unknown codes degrade to the :class:`ReproError` root rather than
    failing, so an old client can still surface a new server's errors.
    """
    code = wire.get("code", "repro_error")
    message = wire.get("message", code)
    cls = _BY_CODE.get(code, ReproError)
    if cls is QueueFullError:
        return QueueFullError(message,
                              retry_after=wire.get("retry_after", 0.1))
    if cls is JobFailedError:
        return JobFailedError(message, kind=wire.get("kind", "error"))
    error = cls(message)
    if "retry_after" in wire:
        error.retry_after = wire["retry_after"]
    return error
