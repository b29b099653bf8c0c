"""HPC Challenge benchmark workloads (Section 3.3, Figures 8–13).

The suite's *Single* mode runs the kernel on exactly one process while
the rest idle at the closing barrier; *Star* ("embarrassingly
parallel") runs it concurrently on every process with no communication;
the *MPI* variants are globally coupled.  The paper reads per-socket
efficiency out of the Single:Star ratio — DGEMM ~1:1, FFT slightly
below, STREAM worse than 2:1, RandomAccess between — and uses HPL,
PTRANS, and the latency/bandwidth probes to expose the LAM sub-layer ×
NUMA-placement interactions.
"""

from __future__ import annotations

import math
from typing import Iterator, List

from ..core.ops import (Allreduce, Alltoall, Barrier, Bcast, Compute, Op,
                        Recv, Send, SendRecv)
from ..core.workload import Workload
from ..kernels import blas, fft, hpl, stream

__all__ = [
    "MODES",
    "HpccDgemm",
    "HpccFft",
    "HpccStream",
    "HpccRandomAccess",
    "HpccPtrans",
    "HpccHpl",
    "PingPong",
    "RingExchange",
]

MODES = ("single", "star", "mpi")


class _HpccWorkload(Workload):
    """Shared single/star plumbing: who computes, plus the closing barrier."""

    def __init__(self, ntasks: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.ntasks = ntasks
        self.mode = mode

    def _active(self, rank: int) -> bool:
        return self.mode != "single" or rank == 0

    def _kernel_ops(self, rank: int) -> Iterator[Op]:
        raise NotImplementedError

    def program(self, rank: int) -> Iterator[Op]:
        yield Barrier()
        if self._active(rank):
            yield from self._kernel_ops(rank)
        yield Barrier()


class HpccDgemm(_HpccWorkload):
    """Single/Star DGEMM (Figure 9's most cache-friendly pair)."""

    def __init__(self, ntasks: int, mode: str = "star", n: int = 1500):
        super().__init__(ntasks, mode)
        self.n = n
        self.name = f"hpcc-dgemm-{mode}[p={ntasks}]"

    @property
    def flops_per_task(self) -> float:
        return blas.dgemm_flops(self.n)

    def _kernel_ops(self, rank: int) -> Iterator[Op]:
        yield blas.dgemm_model(self.n, vendor=True, phase="dgemm")


class HpccFft(_HpccWorkload):
    """Single/Star/MPI FFT.

    MPI mode is a slab-decomposed 1-D FFT: local butterfly passes plus
    one global transpose (alltoall) — the large-message collective that
    makes MPI-FFT insensitive to the SysV latency penalty.
    """

    def __init__(self, ntasks: int, mode: str = "star", n: int = 1 << 22):
        super().__init__(ntasks, mode)
        if not fft.is_power_of_two(n):
            raise ValueError("HPCC FFT size must be a power of two")
        self.n = n
        self.name = f"hpcc-fft-{mode}[p={ntasks}]"

    @property
    def flops_per_task(self) -> float:
        if self.mode == "mpi":
            return fft.fft_flops(self.n) / self.ntasks
        return fft.fft_flops(self.n)

    def _kernel_ops(self, rank: int) -> Iterator[Op]:
        if self.mode != "mpi":
            yield fft.fft_model(self.n, phase="fft")
            return
        local = self.n // self.ntasks
        # local passes on the slab, transpose, remaining passes
        half = fft.fft_model(local, phase="fft")
        yield Compute(phase="fft", flops=fft.fft_flops(self.n) / self.ntasks / 2,
                      dram_bytes=half.dram_bytes, working_set=half.working_set,
                      reuse=half.reuse, flop_efficiency=half.flop_efficiency)
        yield Alltoall(nbytes=16 * local // self.ntasks, phase="transpose")
        yield Compute(phase="fft", flops=fft.fft_flops(self.n) / self.ntasks / 2,
                      dram_bytes=half.dram_bytes, working_set=half.working_set,
                      reuse=half.reuse, flop_efficiency=half.flop_efficiency)


class HpccStream(_HpccWorkload):
    """Single/Star STREAM triad (Figure 10)."""

    def __init__(self, ntasks: int, mode: str = "star",
                 elements: int = 4_000_000, passes: int = 10):
        super().__init__(ntasks, mode)
        self.elements = elements
        self.passes = passes
        self.name = f"hpcc-stream-{mode}[p={ntasks}]"

    @property
    def bytes_per_task(self) -> float:
        return stream.BYTES_PER_ELEMENT["triad"] * self.elements * self.passes

    def _kernel_ops(self, rank: int) -> Iterator[Op]:
        yield stream.triad_model(self.elements, passes=self.passes,
                                 phase="triad")


class HpccRandomAccess(_HpccWorkload):
    """Single/Star/MPI RandomAccess (Figure 11).

    MPI mode uses the bucketed-exchange algorithm: rounds of local update
    batches followed by small alltoall exchanges — the small-message
    pattern that exposes the SysV semaphore cost.
    """

    def __init__(self, ntasks: int, mode: str = "star",
                 table_bytes: float = 1 << 28, updates: int = 200_000,
                 rounds: int = 64):
        super().__init__(ntasks, mode)
        if updates < 1 or rounds < 1:
            raise ValueError("updates and rounds must be positive")
        self.table_bytes = table_bytes
        self.updates = updates
        self.rounds = rounds
        self.name = f"hpcc-ra-{mode}[p={ntasks}]"

    def _kernel_ops(self, rank: int) -> Iterator[Op]:
        from ..kernels import randomaccess

        if self.mode != "mpi":
            yield randomaccess.randomaccess_model(
                self.updates, self.table_bytes, phase="ra")
            return
        per_round = self.updates // self.rounds
        bucket = max(1, 8 * per_round // max(1, self.ntasks))
        updates = randomaccess.randomaccess_model(
            per_round, self.table_bytes, phase="ra")
        exchange = Alltoall(nbytes=bucket, phase="ra-exchange")
        for _ in range(self.rounds):
            yield updates
            yield exchange


class HpccPtrans(Workload):
    """MPI PTRANS on a square process grid (Figure 12).

    Each rank exchanges its off-diagonal blocks with the mirrored owner
    and adds; traffic is the whole matrix crossing the network once.
    """

    def __init__(self, ntasks: int, n: int = 4096):
        grid = int(math.isqrt(ntasks))
        if grid * grid != ntasks:
            raise ValueError("PTRANS needs a square process count")
        self.ntasks = ntasks
        self.grid = grid
        self.n = n
        self.name = f"hpcc-ptrans[p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        from ..kernels import ptrans

        yield Barrier()
        row, col = divmod(rank, self.grid)
        partner = col * self.grid + row
        block_bytes = int(8 * (self.n // self.grid) ** 2)
        if partner != rank:
            yield SendRecv(send_to=partner, recv_from=partner,
                           nbytes=block_bytes, phase="exchange")
        yield ptrans.ptrans_local_model(self.n, self.ntasks, phase="add")
        yield Barrier()


class HpccHpl(Workload):
    """HPL: blocked LU with panel broadcasts (Figure 8).

    Per block column: the panel owner factorizes, broadcasts the panel,
    everyone applies the DGEMM-shaped trailing update on its share, and
    a small allreduce stands in for pivot bookkeeping.
    """

    def __init__(self, ntasks: int, n: int = 8192, nb: int = 128):
        if n < nb or nb < 1:
            raise ValueError("need n >= nb >= 1")
        self.ntasks = ntasks
        self.n = n
        self.nb = nb
        self.name = f"hpcc-hpl[p={ntasks},n={n}]"

    @property
    def total_flops(self) -> float:
        return hpl.hpl_flops(self.n)

    def program(self, rank: int) -> Iterator[Op]:
        yield Barrier()
        panels = self.n // self.nb
        pivot = Allreduce(nbytes=8, phase="pivot")
        for k in range(panels):
            remaining = self.n - k * self.nb
            owner = k % self.ntasks
            if rank == owner:
                # panel factorization: tall-skinny, modest efficiency
                yield Compute(phase="panel",
                              flops=remaining * self.nb ** 2,
                              dram_bytes=8.0 * remaining * self.nb,
                              working_set=8.0 * remaining * self.nb,
                              reuse=0.6, flop_efficiency=0.4)
            yield Bcast(root=owner, nbytes=int(hpl.panel_bytes(remaining, self.nb)),
                        phase="bcast")
            update_flops = 2.0 * remaining * remaining * self.nb / self.ntasks
            share_bytes = 8.0 * remaining * remaining / self.ntasks
            yield Compute(phase="update", flops=update_flops,
                          dram_bytes=share_bytes, working_set=share_bytes,
                          reuse=0.93, flop_efficiency=0.8)
            yield pivot
        yield Barrier()


class PingPong(Workload):
    """HPCC/IMB PingPong between ranks 0 and 1 (Figures 13–16)."""

    def __init__(self, nbytes: int, reps: int = 20, ntasks: int = 2):
        if ntasks < 2:
            raise ValueError("PingPong needs at least 2 ranks")
        if reps < 1 or nbytes < 0:
            raise ValueError("reps must be positive and nbytes non-negative")
        self.ntasks = ntasks
        self.nbytes = nbytes
        self.reps = reps
        self.name = f"pingpong[{nbytes}B]"

    def program(self, rank: int) -> Iterator[Op]:
        rep: List[Op] = []
        if rank < 2:
            partner = 1 - rank
            send = Send(dst=partner, nbytes=self.nbytes, phase="pingpong")
            recv = Recv(src=partner, phase="pingpong")
            rep = [send, recv] if rank == 0 else [recv, send]
        yield Barrier()
        for _ in range(self.reps):
            yield from rep
        yield Barrier()


class RingExchange(Workload):
    """Ring pattern: every rank sendrecvs around the ring (Figures 12–13)."""

    def __init__(self, ntasks: int, nbytes: int, reps: int = 20):
        if ntasks < 2:
            raise ValueError("a ring needs at least 2 ranks")
        if reps < 1 or nbytes < 0:
            raise ValueError("reps must be positive and nbytes non-negative")
        self.ntasks = ntasks
        self.nbytes = nbytes
        self.reps = reps
        self.name = f"ring[{nbytes}B,p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        p = self.ntasks
        shift = SendRecv(send_to=(rank + 1) % p, recv_from=(rank - 1) % p,
                         nbytes=self.nbytes, phase="ring")
        yield Barrier()
        for _ in range(self.reps):
            yield shift
        yield Barrier()
