"""Deterministic, seedable fault injection for the simulated machine.

Two planes live under this package:

* the **sim plane** (:mod:`~repro.faults.plan`,
  :mod:`~repro.faults.scheduler`): :class:`FaultPlan` specs degrade the
  modeled hardware mid-run — core throttling, HT link degradation or
  outage with reroute, NUMA node loss with remote fallback, lossy MPI
  transport with retry/backoff, transient cache-way disable;
* the **harness plane** lives with the components it hardens
  (:mod:`repro.core.parallel` timeouts/retries/crash isolation,
  :mod:`repro.core.cache` checksums + quarantine,
  :mod:`repro.telemetry.ledger` torn-line repair) and is exercised by
  ``repro-bench chaos``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".plan": (
        "CacheDegrade", "CoreSlowdown", "Fault", "FaultPlan",
        "FaultPlanError", "LinkDegrade", "LinkOutage", "MessageFaults",
        "NodeLoss", "TransportExhaustedError", "kind_of",
    ),
    ".scheduler": ("FaultScheduler",),
})
