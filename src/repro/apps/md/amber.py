"""AMBER `sander`-like molecular dynamics driver (Section 4.1).

Reproduces the five AMBER 8 benchmarks of Table 6:

=========  =======  =========
benchmark  atoms    technique
=========  =======  =========
dhfr       22 930   PME
factor_ix  90 906   PME
gb_cox2    18 056   GB
gb_mb       2 492   GB
JAC        23 558   PME
=========  =======  =========

Per time step, a **PME** rank computes the short-range direct sum over
its atom share, participates in the reciprocal-space mesh work (charge
spread, distributed 3-D FFT with a transpose, energy gather — the
``fft`` phase Table 7 isolates), and joins sander's replicated-data
force allreduce.  A **GB** rank computes its share of the O(N²)
pairwise screening — heavy, cache-friendly flops with almost no
communication, which is why the GB benchmarks scale near-linearly to 16
cores while PME saturates (Table 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ...core.ops import Allreduce, Alltoall, Barrier, Compute, Op
from ...core.workload import Workload
from ...kernels import fft as fft_kernels
from .pme import pme_grid_size

__all__ = ["AmberBenchmark", "AMBER_BENCHMARKS", "BENCHMARK_TABLE",
           "AmberSander"]


@dataclass(frozen=True)
class AmberBenchmark:
    """One row of Table 6."""

    name: str
    natoms: int
    technique: str  # "PME" | "GB"

    def __post_init__(self):
        if self.technique not in ("PME", "GB"):
            raise ValueError(f"unknown MD technique {self.technique!r}")
        if self.natoms < 1:
            raise ValueError("natoms must be positive")


AMBER_BENCHMARKS: Dict[str, AmberBenchmark] = {
    "dhfr": AmberBenchmark("dhfr", 22_930, "PME"),
    "factor_ix": AmberBenchmark("factor_ix", 90_906, "PME"),
    "gb_cox2": AmberBenchmark("gb_cox2", 18_056, "GB"),
    "gb_mb": AmberBenchmark("gb_mb", 2_492, "GB"),
    "jac": AmberBenchmark("JAC", 23_558, "PME"),
}

#: Table 6 of the paper, as data.
BENCHMARK_TABLE: List[Dict[str, object]] = [
    {"Benchmark": b.name, "Number of atoms": b.natoms,
     "MD technique": b.technique}
    for b in AMBER_BENCHMARKS.values()
]


class AmberSander(Workload):
    """A sander MD run of one Table 6 benchmark on ``ntasks`` ranks."""

    #: average direct-space neighbours inside the PME cutoff
    PME_NEIGHBORS = 320
    #: flops per direct pair interaction (erfc, r^-1, r^-6 terms)
    FLOPS_PER_PAIR = 80
    #: flops per GB pair (Still's f_GB with exp and sqrt)
    FLOPS_PER_GB_PAIR = 24
    #: fraction of the total step work sander 8 replicates on every rank
    #: (pairlist building, bonded bookkeeping) — the Amdahl term that
    #: caps PME speedup near 8x on 16 cores (Table 8)
    PME_REPLICATED_FRACTION = 0.05
    #: the GB path replicates almost nothing
    GB_REPLICATED_FRACTION = 0.004

    def __init__(self, benchmark: str, ntasks: int, steps: int = 100,
                 simulated_steps: int = 20):
        key = benchmark.lower()
        if key not in AMBER_BENCHMARKS:
            raise ValueError(
                f"unknown AMBER benchmark {benchmark!r}; "
                f"choose from {sorted(AMBER_BENCHMARKS)}"
            )
        if steps < 1 or simulated_steps < 1 or simulated_steps > steps:
            raise ValueError("need 1 <= simulated_steps <= steps")
        self.benchmark = AMBER_BENCHMARKS[key]
        self.ntasks = ntasks
        self.steps = steps
        self.simulated_steps = simulated_steps
        self.time_scale = steps / simulated_steps
        self.grid = pme_grid_size(self.benchmark.natoms)
        self.name = f"amber-{self.benchmark.name}[p={ntasks}]"

    # -- per-step op builders ------------------------------------------------

    def _direct_space(self) -> Compute:
        """Short-range nonbonded sum over this rank's atom share."""
        atoms_local = self.benchmark.natoms / self.ntasks
        pairs = atoms_local * self.PME_NEIGHBORS
        # neighbor lists: ~4 B index + amortized coordinate reads per pair
        traffic = pairs * 10.0
        return Compute(
            phase="direct", flops=pairs * self.FLOPS_PER_PAIR,
            dram_bytes=traffic, working_set=traffic, reuse=0.80,
            flop_efficiency=0.30,
            # ~12% of neighbour coordinate gathers miss cache with no
            # overlap — the term that makes the direct sum NUMA-latency
            # sensitive under interleave/membind (Table 9)
            random_accesses=pairs * 0.12,
        )

    def _replicated(self) -> Compute:
        """Work sander replicates on every rank regardless of p."""
        fraction = (self.PME_REPLICATED_FRACTION
                    if self.benchmark.technique == "PME"
                    else self.GB_REPLICATED_FRACTION)
        if self.benchmark.technique == "PME":
            total = self.benchmark.natoms * self.PME_NEIGHBORS \
                * self.FLOPS_PER_PAIR
        else:
            n = self.benchmark.natoms
            total = n * (n - 1) / 2.0 * self.FLOPS_PER_GB_PAIR
        return Compute(phase="replicated", flops=total * fraction,
                       dram_bytes=16.0 * self.benchmark.natoms,
                       working_set=16.0 * self.benchmark.natoms,
                       reuse=0.5, flop_efficiency=0.35)

    def _reciprocal_ops(self) -> List[Op]:
        """PME mesh work: spread, forward+inverse 3-D FFT, gather."""
        mesh_points = self.grid ** 3
        local_points = mesh_points / self.ntasks
        atoms_local = self.benchmark.natoms / self.ntasks
        # charge spreading / force gathering (8 mesh corners per atom)
        ops: List[Op] = [Compute(phase="mesh", flops=atoms_local * 8 * 12,
                                 dram_bytes=atoms_local * 8 * 16,
                                 working_set=16.0 * local_points, reuse=0.5,
                                 flop_efficiency=0.35)]
        # forward + inverse 3-D FFT, each with a transpose exchange
        fft_flops = 2.0 * fft_kernels.fft_flops(mesh_points) / self.ntasks
        fft = Compute(phase="fft", flops=fft_flops / 2,
                      dram_bytes=32.0 * local_points,
                      working_set=16.0 * local_points, reuse=0.55,
                      flop_efficiency=0.2)
        transpose = Alltoall(nbytes=int(16 * local_points / self.ntasks),
                             phase="fft")
        for _ in range(2):
            ops.append(fft)
            if self.ntasks > 1:
                ops.append(transpose)
        return ops

    def _gb_pairs(self) -> Compute:
        """This rank's slice of the O(N^2) GB double sum."""
        n = self.benchmark.natoms
        pairs_local = n * (n - 1) / 2.0 / self.ntasks
        # radii + pair tables stream once per step; heavy reuse
        traffic = 24.0 * n / self.ntasks + 8.0 * pairs_local * 0.02
        return Compute(
            phase="gb", flops=pairs_local * self.FLOPS_PER_GB_PAIR,
            dram_bytes=traffic, working_set=48.0 * n,
            reuse=0.92, flop_efficiency=0.42,
        )

    def _step_ops(self) -> List[Op]:
        """One MD time step, the same on every rank and every step."""
        ops: List[Op] = [self._replicated()]
        if self.benchmark.technique == "PME":
            ops.append(self._direct_space())
            ops.extend(self._reciprocal_ops())
        else:
            ops.append(self._gb_pairs())
        if self.ntasks > 1:
            # sander's replicated-data force reduction
            ops.append(Allreduce(nbytes=int(24 * self.benchmark.natoms),
                                 phase="forces"))
        # integration update over the local atoms
        atoms_local = self.benchmark.natoms / self.ntasks
        ops.append(Compute(phase="integrate", flops=atoms_local * 18,
                           dram_bytes=atoms_local * 72,
                           working_set=atoms_local * 72, reuse=0.3,
                           flop_efficiency=0.5))
        return ops

    def program(self, rank: int) -> Iterator[Op]:
        step = self._step_ops()
        yield Barrier()
        for _ in range(self.simulated_steps):
            yield from step
        yield Barrier()
