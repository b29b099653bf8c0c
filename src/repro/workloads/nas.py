"""NAS Parallel Benchmarks CG and FT, class B (Section 3.5, Tables 2–4).

Class B parameters (NPB 3.2):

* **CG** — n = 75 000 rows, ~14.7 M nonzeros ((nonzer+1)² per row with
  nonzer = 13), 75 outer iterations of 25 CG iterations each.  Parallel
  structure per CG iteration: a local SpMV, vector updates, two 8-byte
  allreduces (the dot products), and a gather of the shared vector —
  the small-allreduce path is what makes CG placement-sensitive.
* **FT** — a 512×256×256 complex grid (N = 2^25), 20 iterations, each
  performing a 3-D FFT by slab decomposition: local butterfly passes
  with one global transpose (alltoall) in the middle.  The transpose's
  large messages make FT bandwidth- rather than latency-sensitive.

Long homogeneous loops are simulated at reduced length with
``time_scale`` restoring reported times (see
:class:`~repro.core.workload.Workload`).
"""

from __future__ import annotations

from typing import Iterator, List

from ..core.ops import (
    Allgather,
    Allreduce,
    Alltoall,
    Barrier,
    Compute,
    Op,
    SendRecv,
)
from ..core.workload import Workload
from ..kernels import cg as cg_kernels
from ..kernels import fft as fft_kernels

__all__ = ["NasCG", "NasFT", "NasEP", "NasMG",
           "CLASS_B_CG", "CLASS_B_FT", "CLASS_B_EP", "CLASS_B_MG"]

#: NPB class B constants
CLASS_B_CG = {"na": 75_000, "nonzer": 13, "shift": 60.0,
              "outer_iters": 75, "inner_iters": 25}
CLASS_B_FT = {"nx": 512, "ny": 256, "nz": 256, "iters": 20}
CLASS_B_EP = {"pairs": 2 ** 30}
CLASS_B_MG = {"grid": 256, "iters": 20, "levels": 8}


class NasCG(Workload):
    """NAS CG class B on ``ntasks`` ranks (row-striped SpMV)."""

    def __init__(self, ntasks: int, simulated_inner_iters: int = 25):
        if simulated_inner_iters < 1:
            raise ValueError("simulated_inner_iters must be positive")
        self.ntasks = ntasks
        self.na = CLASS_B_CG["na"]
        nnz_per_row = (CLASS_B_CG["nonzer"] + 1) ** 2
        self.counts = cg_kernels.cg_iteration_counts(
            self.na, nnz_per_row, ntasks
        )
        total_inner = CLASS_B_CG["outer_iters"] * CLASS_B_CG["inner_iters"]
        self.simulated_iters = simulated_inner_iters
        self.time_scale = total_inner / simulated_inner_iters
        self.name = f"nas-cg-B[p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        iteration: List[Op] = [
            cg_kernels.spmv_model(self.counts, phase="spmv"),
            cg_kernels.cg_vector_model(self.counts, phase="vectors"),
        ]
        if self.ntasks > 1:
            # assemble the shared vector for the next SpMV; NAS CG's
            # 2-D decomposition moves roughly two local-vector volumes
            # per iteration (transpose + row-sum exchange)
            gather = Allgather(nbytes=8 * self.na // self.ntasks,
                               phase="gather")
            # the two dot-product reductions
            dot = Allreduce(nbytes=8, phase="dots")
            iteration += [gather, gather, dot, dot]
        yield Barrier()
        for _ in range(self.simulated_iters):
            yield from iteration
        yield Barrier()


class NasFT(Workload):
    """NAS FT class B on ``ntasks`` ranks (slab-decomposed 3-D FFT)."""

    def __init__(self, ntasks: int, simulated_iters: int = 10):
        if simulated_iters < 1:
            raise ValueError("simulated_iters must be positive")
        self.ntasks = ntasks
        self.n_points = CLASS_B_FT["nx"] * CLASS_B_FT["ny"] * CLASS_B_FT["nz"]
        if self.n_points % ntasks:
            raise ValueError("task count must divide the FT grid")
        self.simulated_iters = simulated_iters
        self.time_scale = CLASS_B_FT["iters"] / simulated_iters
        self.name = f"nas-ft-B[p={ntasks}]"

    def _fft_half(self) -> Compute:
        """Half of one 3-D FFT's butterfly work on this rank."""
        n_local = self.n_points // self.ntasks
        return Compute(
            phase="fft",
            flops=fft_kernels.fft_flops(self.n_points) / self.ntasks / 2,
            # each half streams the local slab through memory ~1.5 times
            dram_bytes=24.0 * n_local,
            working_set=16.0 * n_local,
            reuse=0.55,
            flop_efficiency=0.12,  # gnu-compiled stride-heavy butterflies
        )

    def program(self, rank: int) -> Iterator[Op]:
        n_local = self.n_points // self.ntasks
        fft_half = self._fft_half()
        # evolve step: one streaming multiply over the local slab
        iteration: List[Op] = [
            Compute(phase="evolve", flops=2.0 * n_local,
                    dram_bytes=32.0 * n_local, working_set=16.0 * n_local,
                    reuse=0.0, flop_efficiency=0.5),
            fft_half]
        if self.ntasks > 1:
            iteration.append(Alltoall(nbytes=16 * n_local // self.ntasks,
                                      phase="transpose"))
        iteration.append(fft_half)
        if self.ntasks > 1:
            # checksum reduction closing the iteration
            iteration.append(Allreduce(nbytes=16, phase="checksum"))
        yield Barrier()
        for _ in range(self.simulated_iters):
            yield from iteration
        yield Barrier()


class NasEP(Workload):
    """NAS EP class B: embarrassingly parallel Gaussian-pair generation.

    Beyond the paper's CG/FT subset, but part of the same suite: 2^30
    random pairs, pure per-rank compute with a single closing 40-byte
    reduction.  The control case every placement scheme should leave
    untouched.
    """

    def __init__(self, ntasks: int):
        self.ntasks = ntasks
        self.pairs = CLASS_B_EP["pairs"]
        self.name = f"nas-ep-B[p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        yield Barrier()
        local_pairs = self.pairs / self.ntasks
        # ~45 flops per pair (LCG advance, log/sqrt acceptance test);
        # the state fits in registers/L1, so no DRAM traffic to speak of
        yield Compute(phase="pairs", flops=45.0 * local_pairs,
                      dram_bytes=16.0 * local_pairs * 0.001,
                      working_set=64 * 1024, reuse=0.9,
                      flop_efficiency=0.35)
        if self.ntasks > 1:
            yield Allreduce(nbytes=40, phase="sums")
        yield Barrier()


class NasMG(Workload):
    """NAS MG class B: V-cycle multigrid on a 256^3 grid.

    Also beyond the paper's subset.  Its signature communication
    pattern differs from both CG and FT: every V-cycle walks the level
    hierarchy, exchanging halos whose size shrinks by 4x per level —
    fine grids are bandwidth-bound, coarse grids pure latency, so MG
    probes both ends of the interconnect at once.
    """

    def __init__(self, ntasks: int, simulated_iters: int = 5):
        if simulated_iters < 1:
            raise ValueError("simulated_iters must be positive")
        self.ntasks = ntasks
        self.grid = CLASS_B_MG["grid"]
        self.levels = CLASS_B_MG["levels"]
        if self.grid ** 3 % ntasks:
            raise ValueError("task count must divide the MG grid")
        self.simulated_iters = simulated_iters
        self.time_scale = CLASS_B_MG["iters"] / simulated_iters
        self.name = f"nas-mg-B[p={ntasks}]"

    def _level_ops(self, rank: int, level: int) -> List[Op]:
        """Smooth + residual at one level (level 0 = finest)."""
        points = (self.grid >> level) ** 3
        local = max(1.0, points / self.ntasks)
        # 4 sweeps of a 27-point stencil per level visit; stencils are
        # memory-bound (cache-blocked reads ~24 B/point per sweep)
        ops: List[Op] = [Compute(
            phase=f"level{level}" if level < 2 else "coarse",
            flops=4.0 * 30.0 * local,
            dram_bytes=4.0 * 24.0 * local,
            working_set=16.0 * local,
            reuse=0.6, flop_efficiency=0.45,
            stream_bandwidth=1.2e9)]
        if self.ntasks > 1:
            face = max(1, int((local ** (2.0 / 3.0)) * 8))
            p = self.ntasks
            ops.append(SendRecv(send_to=(rank + 1) % p,
                                recv_from=(rank - 1) % p,
                                nbytes=face, phase="halo"))
        return ops

    def program(self, rank: int) -> Iterator[Op]:
        levels = [self._level_ops(rank, level)
                  for level in range(self.levels)]
        # one V-cycle: down-sweep to the coarsest level and back up
        order = [*range(self.levels), *reversed(range(self.levels - 1))]
        cycle = [op for level in order for op in levels[level]]
        if self.ntasks > 1:
            cycle.append(Allreduce(nbytes=8, phase="norm"))
        yield Barrier()
        for _ in range(self.simulated_iters):
            yield from cycle
        yield Barrier()
