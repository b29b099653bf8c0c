"""Functional mini-benchmark driver: actually run the LAMMPS potentials.

The characterization workloads (:mod:`repro.apps.md.lammps`) model the
2006 benchmarks' *costs*; this driver runs scaled-down versions of the
same three systems for real — LJ melt, bead-spring chains, EAM-lite
metal — so the numerics behind the cost models are exercised end to
end (energy conservation, force correctness) in examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forcefields import bond_forces, eam_forces, lj_forces, velocity_verlet
from .system import ParticleSystem, chain_system, neighbor_pairs

__all__ = ["MiniBenchmarkResult", "run_mini_benchmark"]


@dataclass(frozen=True)
class MiniBenchmarkResult:
    """Outcome of a functional mini-run."""

    potential: str
    natoms: int
    steps: int
    initial_energy: float
    final_energy: float

    @property
    def drift(self) -> float:
        """Relative total-energy drift over the run."""
        scale = max(1.0, abs(self.initial_energy))
        return abs(self.final_energy - self.initial_energy) / scale


def _lattice_system(natoms_target: int, spacing: float,
                    seed: int) -> ParticleSystem:
    import numpy as np

    cells = max(2, round(natoms_target ** (1.0 / 3.0)))
    grid = np.arange(cells) * spacing + spacing / 2
    positions = np.array(np.meshgrid(grid, grid, grid)).T.reshape(-1, 3)
    n = positions.shape[0]
    rng = np.random.default_rng(seed)
    return ParticleSystem(
        positions=positions,
        velocities=rng.normal(0, 0.03, size=(n, 3)),
        masses=np.ones(n),
        charges=np.zeros(n),
        box=cells * spacing,
    )


def run_mini_benchmark(potential: str, natoms: int = 125, steps: int = 50,
                       dt: float = 0.002, seed: int = 0) -> MiniBenchmarkResult:
    """Integrate a small system of one benchmark potential.

    ``potential`` is one of ``lj``, ``chain``, ``eam`` (matching the
    Table 10 benchmarks).  Returns energies so callers can check
    conservation; raises for unknown potentials.
    """
    key = potential.lower()
    if key == "lj":
        system = _lattice_system(natoms, spacing=1.2, seed=seed)
        cutoff = min(1.8, 0.49 * system.box)

        def force_fn(positions):
            pairs = neighbor_pairs(positions, system.box, cutoff)
            return lj_forces(positions, pairs, system.box, cutoff=cutoff)

    elif key == "chain":
        beads = 5
        chains = max(1, natoms // beads)
        system, bonds = chain_system(chains, beads, box=float(
            max(4.0, (chains * beads) ** (1.0 / 3.0) * 1.6)), seed=seed)
        system.velocities *= 0.3

        def force_fn(positions):
            return bond_forces(positions, bonds, system.box, k=30.0, r0=0.97)

    elif key == "eam":
        system = _lattice_system(natoms, spacing=1.1, seed=seed)
        cutoff = min(1.6, 0.49 * system.box)

        def force_fn(positions):
            pairs = neighbor_pairs(positions, system.box, cutoff)
            return eam_forces(positions, pairs, system.box, cutoff=cutoff)

    else:
        raise ValueError(
            f"unknown potential {potential!r}; choose lj, chain, or eam"
        )

    _, e_start = velocity_verlet(system, force_fn, dt=dt, steps=1)
    _, e_end = velocity_verlet(system, force_fn, dt=dt, steps=steps)
    return MiniBenchmarkResult(
        potential=key, natoms=system.natoms, steps=steps + 1,
        initial_energy=e_start, final_energy=e_end,
    )
