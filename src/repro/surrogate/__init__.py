"""Fast analytic tier: closed-form evaluation of experiment cells.

``repro.surrogate`` answers the same question as
:class:`repro.core.execution.JobRunner` — *how long does this workload
take on this machine under this affinity scheme?* — without stepping
the discrete-event engine.  Every cost the engine accumulates event by
event (cache-filtered DRAM traffic on contended controllers, NUMA
latency with queueing, MPI protocol/lock/copy overheads, collective
round structure) has a closed-form counterpart here.

The surrogate trades *bit-exactness* for speed: absolute times differ
slightly from the exact tier (no dynamic bandwidth renegotiation, no
queue-lock contention), but the *ordering* of schemes and systems —
what the paper's tables are about — is preserved, and the regression
gate (:mod:`repro.surrogate.calibration`) enforces that rank agreement
on a pinned sweep.

Cells the analytic model cannot honour (marker profiling, fault plans,
wildcard receives) raise
:class:`~repro.errors.SurrogateUnsupportedError`; ``tier="auto"``
callers never see it because the executor routes such cells to the
exact tier before keying.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "..errors": ("SurrogateUnsupportedError",),
    ".evaluator": (
        "SurrogateEvaluator", "evaluate_request", "evaluate_workload",
        "unsupported_reason",
    ),
})
