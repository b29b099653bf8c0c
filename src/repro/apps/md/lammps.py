"""LAMMPS-like spatially-decomposed MD driver (Section 4.1, Tables 10–11).

The three 2006 LAMMPS benchmarks, 32 000 atoms and 100 time steps each:

* **LJ** — Lennard-Jones melt: dense neighbour lists, non-local energy
  contributions;
* **chain** — bead-spring polymer melt: local point-to-point
  interactions with a small working set — the benchmark whose per-task
  data drops into L2 as tasks are added, producing the *superlinear*
  speedups of Table 10 (19.95× on 16 cores);
* **EAM** — metallic many-body potential: two force passes (density,
  then embedding) and therefore two halo exchanges per step.

Parallel structure (Plimpton's spatial decomposition [10]): each rank
owns a box of atoms plus a shell of *ghost* atoms copied from
neighbours each step.  Pair work over ghosts does not shrink with 1/p —
the ghost shell is a surface term — which is what bends LJ/EAM scaling
below linear at 16 ranks while chain's tiny cutoff keeps its shell
negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ...core.ops import Allreduce, Barrier, Compute, Op, SendRecv
from ...core.workload import Workload

__all__ = ["LammpsPotential", "LAMMPS_BENCHMARKS", "LammpsBench",
           "decomposition_faces", "ghost_atoms"]


@dataclass(frozen=True)
class LammpsPotential:
    """Cost profile of one benchmark potential."""

    name: str
    neighbors: float          # average pair partners per atom
    flops_per_pair: float
    ghost_shell: float        # ghost-shell thickness factor (cutoff-scaled)
    reuse: float              # temporal locality of the pair loop
    bytes_per_atom: float     # per-step working set per atom
    gather_fraction: float    # dependent (latency-bound) gathers per pair
    flop_efficiency: float
    force_passes: int = 1     # halo exchanges per step (EAM needs 2)


LAMMPS_BENCHMARKS: Dict[str, LammpsPotential] = {
    "lj": LammpsPotential(
        name="LJ", neighbors=55, flops_per_pair=45, ghost_shell=1.5,
        reuse=0.45, bytes_per_atom=700, gather_fraction=0.08,
        flop_efficiency=0.32),
    "chain": LammpsPotential(
        name="Chain", neighbors=18, flops_per_pair=55, ghost_shell=0.5,
        reuse=0.93, bytes_per_atom=320, gather_fraction=0.9,
        flop_efficiency=0.35),
    "eam": LammpsPotential(
        name="EAM", neighbors=70, flops_per_pair=40, ghost_shell=1.0,
        reuse=0.50, bytes_per_atom=850, gather_fraction=0.07,
        flop_efficiency=0.32, force_passes=2),
}


def decomposition_faces(ntasks: int) -> int:
    """Communicating faces of a rank's box under 1/2/3-D decomposition."""
    if ntasks < 1:
        raise ValueError("ntasks must be positive")
    if ntasks == 1:
        return 0
    if ntasks == 2:
        return 2  # split one dimension
    if ntasks <= 4:
        return 4  # 2x2
    return 6      # 2x2x2 and beyond


def ghost_atoms(natoms: int, ntasks: int, shell: float) -> float:
    """Ghost-shell size: faces x (atoms per face layer) x shell factor."""
    if ntasks == 1:
        return 0.0
    local = natoms / ntasks
    return decomposition_faces(ntasks) * local ** (2.0 / 3.0) * shell


class LammpsBench(Workload):
    """One LAMMPS benchmark: 32 000 atoms, 100 steps (Table 10 setup)."""

    GHOST_BYTES = 32  # position + type + image flags per ghost atom

    def __init__(self, potential: str, ntasks: int, natoms: int = 32_000,
                 steps: int = 100, simulated_steps: int = 20):
        key = potential.lower()
        if key not in LAMMPS_BENCHMARKS:
            raise ValueError(
                f"unknown LAMMPS benchmark {potential!r}; "
                f"choose from {sorted(LAMMPS_BENCHMARKS)}"
            )
        if natoms < 1 or steps < 1 or not 1 <= simulated_steps <= steps:
            raise ValueError("invalid natoms/steps/simulated_steps")
        self.potential = LAMMPS_BENCHMARKS[key]
        self.ntasks = ntasks
        self.natoms = natoms
        self.steps = steps
        self.simulated_steps = simulated_steps
        self.time_scale = steps / simulated_steps
        self.name = f"lammps-{self.potential.name.lower()}[p={ntasks}]"

    def _pair_compute(self) -> Compute:
        """Pair-force work over local atoms plus half the ghost shell."""
        pot = self.potential
        local = self.natoms / self.ntasks
        ghosts = ghost_atoms(self.natoms, self.ntasks, pot.ghost_shell)
        effective_atoms = local + 0.5 * ghosts  # Newton's-law halving
        pairs = effective_atoms * pot.neighbors
        working_set = effective_atoms * pot.bytes_per_atom
        return Compute(
            phase="pair",
            flops=pairs * pot.flops_per_pair * pot.force_passes,
            dram_bytes=working_set,
            working_set=working_set,
            reuse=pot.reuse,
            flop_efficiency=pot.flop_efficiency,
            random_accesses=pairs * pot.gather_fraction,
        )

    def _halo_bytes(self) -> int:
        return int(
            ghost_atoms(self.natoms, self.ntasks, self.potential.ghost_shell)
            * self.GHOST_BYTES
        )

    def _step_ops(self, rank: int) -> List[Op]:
        """One time step: halo exchange and pair forces per force pass,
        then integration and the thermo reduction."""
        p = self.ntasks
        local = self.natoms / p
        force_pass: List[Op] = []
        if p > 1:
            # forward halo exchange along the decomposition dims
            halo_bytes = self._halo_bytes()
            for axis in range(max(1, decomposition_faces(p) // 2)):
                step = axis + 1
                force_pass.append(SendRecv(
                    send_to=(rank + step) % p,
                    recv_from=(rank - step) % p,
                    nbytes=halo_bytes, phase="halo"))
        force_pass.append(self._pair_compute())
        ops = force_pass * self.potential.force_passes
        # integration + thermo
        ops.append(Compute(phase="integrate", flops=local * 15,
                           dram_bytes=local * 72, working_set=local * 72,
                           reuse=0.3, flop_efficiency=0.5))
        if p > 1:
            ops.append(Allreduce(nbytes=16, phase="thermo"))
        return ops

    def program(self, rank: int) -> Iterator[Op]:
        step = self._step_ops(rank)
        yield Barrier()
        for _ in range(self.simulated_steps):
            yield from step
        yield Barrier()
