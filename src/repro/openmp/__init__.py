"""OpenMP-style intra-socket threading (the paper's proposed hybrid model).

Supplies thread teams and fork/join costs; threaded compute slices are
expressed by setting ``threads`` on :class:`repro.core.ops.Compute`,
and :mod:`repro.workloads.hybrid` builds hybrid MPI+OpenMP variants of
the NAS kernels.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".threading": ("ThreadTeam", "fork_join_cost"),
})
