"""Simulated MPI runtime for intra-node message passing.

Rank endpoints with MPI point-to-point semantics and collective
algorithms, parameterized by implementation profiles (MPICH2 / LAM /
OpenMPI) and locking sub-layers (SysV semaphores vs. user-space spin
locks), with all payload movement charged to the machine's memory
controllers and HyperTransport links.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".implementations": (
        "IMPLEMENTATIONS", "LAM", "MPICH2", "OPENMPI", "LockLayer",
        "MpiImplementation", "implementation_by_name",
    ),
    ".data_collectives": (
        "allgather_data", "allreduce_data", "alltoall_data", "bcast_data",
        "reduce_data",
    ),
    ".simmpi": ("Message", "MpiStats", "MpiWorld"),
    ".transport": ("ShmTransport",),
})
