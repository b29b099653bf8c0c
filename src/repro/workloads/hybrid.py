"""Hybrid MPI+OpenMP workloads (the paper's Section 3.4 proposal).

"A programming model using OpenMP only within each multi-core
processor, and MPI for communication both between processor sockets
and between system nodes might be a high-performance alternative that
best exploits the three classes of communication performance."

These variants place one MPI rank per socket with a thread team on the
socket's cores: the same total parallelism as the pure-MPI two-per-
socket configuration, but intra-socket MPI messages are replaced by
shared memory within the team.  :func:`hybrid_affinity` builds the
corresponding placement, and the ablation bench
(``benchmarks/test_ablation_hybrid.py``) quantifies the trade.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, Tuple

from ..core.affinity import AffinityScheme, ResolvedAffinity, resolve_scheme
from ..core.ops import Compute, Op
from ..core.workload import Workload
from ..machine.topology import MachineSpec
from ..numa import LocalAlloc
from ..openmp import ThreadTeam
from ..osmodel import one_per_socket
from .nas import NasCG, NasFT

__all__ = ["hybrid_affinity", "HybridWorkload", "HybridNasCG", "HybridNasFT"]


def hybrid_affinity(spec: MachineSpec, nranks: int,
                    threads: int) -> ResolvedAffinity:
    """One bound rank per socket, ``threads`` cores each, local pages."""
    ThreadTeam(threads).validate_for(spec)
    placement = one_per_socket(spec, nranks)
    base = resolve_scheme(AffinityScheme.ONE_MPI_LOCAL, spec, nranks)
    return ResolvedAffinity(
        scheme=AffinityScheme.ONE_MPI_LOCAL,
        spec=spec,
        placement=placement,
        policies=tuple(LocalAlloc() for _ in range(nranks)),
        numactl=base.numactl,
    )


class HybridWorkload(Workload):
    """Wrap a pure-MPI workload: fewer ranks, threaded compute slices.

    The inner workload is built for ``nranks`` MPI tasks; every
    ``Compute`` op it emits is widened to the thread team (its counts
    already reflect the per-rank share, which the team now executes
    cooperatively).
    """

    def __init__(self, inner: Workload, threads: int):
        team = ThreadTeam(threads)
        self.inner = inner
        self.threads = team.threads
        self.ntasks = inner.ntasks
        self.time_scale = inner.time_scale
        self.name = f"{inner.name}+omp{threads}"

    def validate(self) -> None:
        super().validate()
        self.inner.validate()

    def program(self, rank: int) -> Iterator[Op]:
        # id(op) -> (op, widened op): a repeated inner op is widened
        # once and stays one object; holding it keeps its id unique
        widened: Dict[int, Tuple[Op, Op]] = {}
        for op in self.inner.program(rank):
            if isinstance(op, Compute):
                hit = widened.get(id(op))
                if hit is None:
                    hit = widened[id(op)] = (
                        op, replace(op, threads=self.threads))
                yield hit[1]
            else:
                yield op


class HybridNasCG(HybridWorkload):
    """NAS CG with one rank per socket and a thread team per rank.

    Total cores used = ``nranks * threads``; the inner CG problem is
    decomposed over the ranks only (threads share the rank's rows).
    """

    def __init__(self, nranks: int, threads: int,
                 simulated_inner_iters: int = 25):
        super().__init__(NasCG(nranks, simulated_inner_iters), threads)


class HybridNasFT(HybridWorkload):
    """NAS FT with one rank per socket and a thread team per rank."""

    def __init__(self, nranks: int, threads: int, simulated_iters: int = 10):
        super().__init__(NasFT(nranks, simulated_iters), threads)
