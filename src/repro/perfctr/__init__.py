"""repro.perfctr: simulated hardware performance counters.

LIKWID-style observability for the simulator: per-core counter banks
(:mod:`~repro.perfctr.counters`), marker regions
(:mod:`~repro.perfctr.markers`), derived metrics
(:mod:`~repro.perfctr.derived`), and shared formatting helpers
(:mod:`~repro.perfctr.format`).  Attach a :class:`PerfSession` to a
:class:`~repro.machine.machine.Machine` (or run a
:class:`~repro.core.execution.JobRunner` with ``profile=True``) and the
instrumented subsystems populate it; without a session every hook is a
single ``None`` test.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".counters": ("CACHE_LINE", "EVENTS", "CounterBank", "PerfSession"),
    ".derived": (
        "achieved_bandwidth", "derive", "dram_bytes", "flop_rate",
        "l1_miss_ratio", "link_utilization", "remote_access_ratio",
    ),
    ".format": (
        "format_bytes", "format_count", "format_rate", "format_ratio",
    ),
    ".markers": ("RegionAccumulator",),
})
