"""The characterization toolkit: the paper's methodology as a library.

Affinity schemes (Table 5), the workload execution runtime, the cell
value (:class:`JobRequest`) and its executor, metrics, and report
rendering.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".affinity": (
        "ALL_SCHEMES", "SCHEME_TABLE", "AffinityScheme",
        "InfeasibleSchemeError", "ResolvedAffinity", "membind_node_set",
        "resolve_scheme",
    ),
    ".cache": ("ResultCache", "default_cache", "job_key"),
    ".parallel": ("JobRequest", "run_request", "run_requests"),
    ".analysis": ("ResourceReport", "analyze"),
    ".execution": ("JobResult", "JobRunner", "run_workload"),
    ".timeline": ("render_timeline", "to_chrome_trace"),
    ".experiment": ("SchemeComparison",),
    ".metrics": (
        "bandwidth", "best_scheme", "flops_rate", "improvement_percent",
        "parallel_efficiency", "per_core", "speedup",
    ),
    ".ops": (
        "Allgather", "Allreduce", "Alltoall", "Barrier", "Bcast", "Compute",
        "MarkerStart", "MarkerStop", "Op", "Recv", "Reduce", "Send",
        "SendRecv",
    ),
    ".report": ("SeriesResult", "TableResult", "format_value"),
    ".workload": ("Workload",),
})
