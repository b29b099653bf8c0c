"""The characterization toolkit: the paper's methodology as a library.

Affinity schemes (Table 5), the workload execution runtime, the cell
value (:class:`JobRequest`) and its executor, metrics, and report
rendering.
"""

from .affinity import (
    SCHEME_TABLE,
    AffinityScheme,
    InfeasibleSchemeError,
    ResolvedAffinity,
    membind_node_set,
    resolve_scheme,
)
from .cache import ResultCache, default_cache, job_key
from .parallel import JobRequest, run_request, run_requests
from .analysis import ResourceReport, analyze
from .execution import JobResult, JobRunner, run_workload
from .timeline import render_timeline, to_chrome_trace
from .experiment import ALL_SCHEMES, SchemeComparison
from .metrics import (
    bandwidth,
    best_scheme,
    flops_rate,
    improvement_percent,
    parallel_efficiency,
    per_core,
    speedup,
)
from .ops import (
    Allgather,
    Allreduce,
    Alltoall,
    Barrier,
    Bcast,
    Compute,
    MarkerStart,
    MarkerStop,
    Op,
    Recv,
    Reduce,
    Send,
    SendRecv,
)
from .report import SeriesResult, TableResult, format_value
from .workload import Workload

__all__ = [
    "AffinityScheme",
    "InfeasibleSchemeError",
    "ResultCache",
    "default_cache",
    "job_key",
    "JobRequest",
    "run_request",
    "run_requests",
    "ResourceReport",
    "analyze",
    "render_timeline",
    "to_chrome_trace",
    "ResolvedAffinity",
    "resolve_scheme",
    "membind_node_set",
    "SCHEME_TABLE",
    "ALL_SCHEMES",
    "Workload",
    "JobRunner",
    "JobResult",
    "run_workload",
    "SchemeComparison",
    "Op",
    "Compute",
    "MarkerStart",
    "MarkerStop",
    "Send",
    "Recv",
    "SendRecv",
    "Barrier",
    "Allreduce",
    "Alltoall",
    "Allgather",
    "Bcast",
    "Reduce",
    "TableResult",
    "SeriesResult",
    "format_value",
    "speedup",
    "parallel_efficiency",
    "per_core",
    "flops_rate",
    "bandwidth",
    "improvement_percent",
    "best_scheme",
]
