"""Molecular-dynamics substrate: particle systems, force fields, PME,
GB, and the AMBER-like / LAMMPS-like benchmark drivers."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".amber": (
        "AMBER_BENCHMARKS", "BENCHMARK_TABLE", "AmberBenchmark",
        "AmberSander",
    ),
    ".driver": ("MiniBenchmarkResult", "run_mini_benchmark"),
    ".forcefields": (
        "bond_forces", "eam_forces", "lj_forces", "velocity_verlet",
    ),
    ".gb": ("born_radii", "gb_energy"),
    ".lammps": (
        "LAMMPS_BENCHMARKS", "LammpsBench", "decomposition_faces",
        "ghost_atoms",
    ),
    ".minimize": ("steepest_descent",),
    ".pme": ("pme_grid_size", "reciprocal_energy", "spread_charges"),
    ".system": (
        "ParticleSystem", "brute_force_pairs", "chain_system",
        "minimum_image", "neighbor_pairs", "random_system",
    ),
})
