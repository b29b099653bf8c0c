"""The POP characterization workload (Section 4.2, Tables 12–14).

One simulated time step performs:

* the **baroclinic** update — a large 3-D explicit sweep over the local
  block (flop-dominated, cache-blocked, nearest-neighbour halos), and
* the **barotropic** solve — a few hundred CG iterations on the 2-D
  surface system, each with a 5-point stencil apply, a halo exchange,
  and a latency-critical global reduction.

The paper's benchmark runs 50 steps of the x1 configuration; we
simulate 2 representative steps (``time_scale`` restores totals) with
CG iterations coarsened 2:1 (each simulated iteration carries two
iterations' compute and a fused dot-product reduction, as in the
Chronopoulos–Gear CG variant POP can use).
"""

from __future__ import annotations

from typing import Iterator, List

from ...core.ops import Allreduce, Barrier, Compute, Op, SendRecv
from ...core.workload import Workload
from .grid import X1_GRID, PopGrid, block_shape, factor_grid

__all__ = ["Pop"]


class Pop(Workload):
    """A POP x1 run: 50 time-steps / 2 simulated days on ``ntasks`` ranks."""

    #: flops per 3-D grid point per step (all baroclinic substeps)
    BAROCLINIC_FLOPS_PER_POINT = 2625
    #: natural DRAM traffic per 3-D point per step: POP sweeps dozens
    #: of prognostic/diagnostic 3-D arrays several times per step
    #: (~25 fields x read+write x multiple substeps)
    BAROCLINIC_BYTES_PER_POINT = 2000
    #: CG iterations per barotropic solve (x1 needs a few hundred)
    SOLVER_ITERATIONS = 300
    #: flops per 2-D point per CG iteration (stencil + vector updates)
    SOLVER_FLOPS_PER_POINT = 30

    def __init__(self, ntasks: int, grid: PopGrid = X1_GRID, steps: int = 50,
                 simulated_steps: int = 2, solver_coarsening: int = 2):
        if steps < 1 or not 1 <= simulated_steps <= steps:
            raise ValueError("need 1 <= simulated_steps <= steps")
        if solver_coarsening < 1:
            raise ValueError("solver_coarsening must be >= 1")
        self.ntasks = ntasks
        self.grid = grid
        self.steps = steps
        self.simulated_steps = simulated_steps
        self.solver_coarsening = solver_coarsening
        self.time_scale = steps / simulated_steps
        self.name = f"pop-x1[p={ntasks}]"

    def _baroclinic_ops(self, rank: int) -> List[Op]:
        """One step's baroclinic sweep plus its two halo exchanges."""
        points_local = self.grid.points / self.ntasks
        traffic = self.BAROCLINIC_BYTES_PER_POINT * points_local
        ops: List[Op] = [Compute(
            phase="baroclinic",
            flops=self.BAROCLINIC_FLOPS_PER_POINT * points_local,
            dram_bytes=traffic,
            working_set=2.5 * traffic,
            reuse=0.88,
            flop_efficiency=0.25,
            stream_bandwidth=0.8e9,  # blocked sweeps, never link-bound
        )]
        if self.ntasks > 1:
            bx, by = block_shape(self.grid, self.ntasks)
            halo_bytes = int((bx + by) * self.grid.nz * 8 * 3)  # 3 fields
            p = self.ntasks
            for axis in range(2):
                ops.append(SendRecv(send_to=(rank + axis + 1) % p,
                                    recv_from=(rank - axis - 1) % p,
                                    nbytes=halo_bytes, phase="baroclinic"))
        return ops

    def _barotropic_iteration(self, rank: int) -> List[Op]:
        """One (coarsened) CG iteration of the barotropic solve."""
        hpoints_local = self.grid.horizontal_points / self.ntasks
        ops: List[Op] = [Compute(
            phase="barotropic",
            flops=(self.SOLVER_FLOPS_PER_POINT * hpoints_local
                   * self.solver_coarsening),
            dram_bytes=48.0 * hpoints_local * self.solver_coarsening,
            working_set=48.0 * hpoints_local,
            reuse=0.6,
            flop_efficiency=0.3,
            stream_bandwidth=1.2e9,
        )]
        p = self.ntasks
        if p > 1:
            bx, by = block_shape(self.grid, self.ntasks)
            ops.append(SendRecv(send_to=(rank + 1) % p,
                                recv_from=(rank - 1) % p,
                                nbytes=int((bx + by) * 8),
                                phase="barotropic"))
            # fused dot-product reduction (the latency-critical op)
            ops.append(Allreduce(nbytes=16, phase="barotropic"))
        return ops

    def program(self, rank: int) -> Iterator[Op]:
        baroclinic = self._baroclinic_ops(rank)
        solver = self._barotropic_iteration(rank)
        iterations = self.SOLVER_ITERATIONS // self.solver_coarsening
        yield Barrier()
        for _ in range(self.simulated_steps):
            yield from baroclinic
            for _ in range(iterations):
                yield from solver
        yield Barrier()
