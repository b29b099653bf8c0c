"""Benchmark-suite workloads built on the instrumented kernels.

lmbench STREAM scaling, BLAS level 1/3 scaling, the HPC Challenge suite
(Single/Star/MPI modes), the Intel MPI Benchmarks, and NAS CG/FT
class B.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".blas_scaling": ("DaxpyBench", "DgemmBench"),
    ".hpcc": (
        "MODES", "HpccDgemm", "HpccFft", "HpccHpl", "HpccPtrans",
        "HpccRandomAccess", "HpccStream", "PingPong", "RingExchange",
    ),
    ".imb": (
        "IMB_MESSAGE_SIZES", "ImbAllreduce", "ImbBcast", "ImbExchange",
        "ImbPingPong", "ImbSendRecv", "exchange_bandwidth",
        "pingpong_oneway_time",
    ),
    ".hybrid": (
        "HybridNasCG", "HybridNasFT", "HybridWorkload", "hybrid_affinity",
    ),
    ".lmbench": ("StreamTriad", "triad_bytes_moved"),
    ".synthetic": ("SyntheticWorkload",),
    ".nas": (
        "CLASS_B_CG", "CLASS_B_EP", "CLASS_B_FT", "CLASS_B_MG", "NasCG",
        "NasEP", "NasFT", "NasMG",
    ),
})
