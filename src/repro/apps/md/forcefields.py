"""Force fields: Lennard-Jones, bead-spring bonds, and EAM-lite.

These are the three LAMMPS benchmark potentials (Section 4.1): *LJ*
(pairwise van der Waals), *chain* (short-range LJ plus harmonic/FENE
bonds — local interactions only), and *EAM* (a many-body metallic
potential requiring two passes: electron density, then embedding
forces).  The implementations are numpy-vectorized over precomputed
neighbor pairs and validated in the test suite via energy conservation
and analytic spot checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Tuple

from .system import ParticleSystem, minimum_image, neighbor_pairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "lj_potential",
    "lj_forces",
    "bond_forces",
    "eam_forces",
    "velocity_verlet",
]


def lj_potential(r2: np.ndarray, epsilon: float = 1.0,
                 sigma: float = 1.0) -> np.ndarray:
    """LJ pair energy from squared distances."""
    inv6 = (sigma ** 2 / r2) ** 3
    return 4.0 * epsilon * (inv6 ** 2 - inv6)


def lj_forces(positions: np.ndarray, pairs: np.ndarray, box: float,
              epsilon: float = 1.0, sigma: float = 1.0,
              cutoff: float = 2.5) -> Tuple[np.ndarray, float]:
    """Forces and potential energy for LJ pairs (shifted at cutoff)."""
    import numpy as np

    forces = np.zeros_like(positions)
    if pairs.shape[0] == 0:
        return forces, 0.0
    i, j = pairs[:, 0], pairs[:, 1]
    delta = minimum_image(positions[i] - positions[j], box)
    r2 = np.sum(delta ** 2, axis=1)
    mask = r2 < cutoff ** 2
    i, j, delta, r2 = i[mask], j[mask], delta[mask], r2[mask]
    if r2.size == 0:
        return forces, 0.0
    inv2 = sigma ** 2 / r2
    inv6 = inv2 ** 3
    # dU/dr * (1/r): F = 24 eps (2 s^12/r^13 - s^6/r^7) r_hat
    magnitude = 24.0 * epsilon * (2.0 * inv6 ** 2 - inv6) / r2
    pair_forces = magnitude[:, None] * delta
    np.add.at(forces, i, pair_forces)
    np.add.at(forces, j, -pair_forces)
    shift = lj_potential(np.array([cutoff ** 2]), epsilon, sigma)[0]
    energy = float(np.sum(lj_potential(r2, epsilon, sigma) - shift))
    return forces, energy


def bond_forces(positions: np.ndarray, bonds: np.ndarray, box: float,
                k: float = 30.0, r0: float = 1.0) -> Tuple[np.ndarray, float]:
    """Harmonic bond forces: U = k (r - r0)^2 per bond."""
    import numpy as np

    forces = np.zeros_like(positions)
    if bonds.shape[0] == 0:
        return forces, 0.0
    i, j = bonds[:, 0], bonds[:, 1]
    delta = minimum_image(positions[i] - positions[j], box)
    r = np.linalg.norm(delta, axis=1)
    r = np.where(r == 0, 1e-12, r)
    magnitude = -2.0 * k * (r - r0) / r
    pair_forces = magnitude[:, None] * delta
    np.add.at(forces, i, pair_forces)
    np.add.at(forces, j, -pair_forces)
    energy = float(np.sum(k * (r - r0) ** 2))
    return forces, energy


def eam_forces(positions: np.ndarray, pairs: np.ndarray, box: float,
               cutoff: float = 2.0, decay: float = 3.0,
               pair_scale: float = 0.2) -> Tuple[np.ndarray, float]:
    """EAM-lite: embedding energy F(rho) = -sqrt(rho) plus pair repulsion.

    Electron density rho_i = sum_j exp(-decay * r_ij); the two-pass
    structure (density accumulation, then embedding-derivative forces)
    mirrors the real EAM and the LAMMPS *eam* benchmark's communication
    pattern.
    """
    import numpy as np

    n = positions.shape[0]
    forces = np.zeros_like(positions)
    if pairs.shape[0] == 0:
        return forces, 0.0
    i, j = pairs[:, 0], pairs[:, 1]
    delta = minimum_image(positions[i] - positions[j], box)
    r = np.linalg.norm(delta, axis=1)
    mask = r < cutoff
    i, j, delta, r = i[mask], j[mask], delta[mask], r[mask]
    if r.size == 0:
        return forces, 0.0
    # pass 1: densities
    contrib = np.exp(-decay * r)
    rho = np.zeros(n)
    np.add.at(rho, i, contrib)
    np.add.at(rho, j, contrib)
    rho = np.maximum(rho, 1e-12)
    embed_energy = float(np.sum(-np.sqrt(rho)))
    d_embed = -0.5 / np.sqrt(rho)  # dF/drho
    # pass 2: forces from embedding + a short-range pair repulsion
    drho_dr = -decay * contrib
    pair_repulsion = pair_scale * np.exp(-2.0 * decay * r)
    dpair_dr = -2.0 * decay * pair_repulsion
    magnitude = -((d_embed[i] + d_embed[j]) * drho_dr + dpair_dr) / r
    pair_forces = magnitude[:, None] * delta
    np.add.at(forces, i, pair_forces)
    np.add.at(forces, j, -pair_forces)
    energy = embed_energy + float(np.sum(pair_repulsion))
    return forces, energy


def velocity_verlet(system: ParticleSystem,
                    force_fn: Callable[[np.ndarray], Tuple[np.ndarray, float]],
                    dt: float, steps: int) -> Tuple[float, float]:
    """Integrate; returns (final potential energy, final total energy)."""
    if dt <= 0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    inv_mass = 1.0 / system.masses[:, None]
    forces, potential = force_fn(system.positions)
    for _ in range(steps):
        system.velocities += 0.5 * dt * forces * inv_mass
        system.positions = (system.positions + dt * system.velocities) % system.box
        forces, potential = force_fn(system.positions)
        system.velocities += 0.5 * dt * forces * inv_mass
    return potential, potential + system.kinetic_energy()
