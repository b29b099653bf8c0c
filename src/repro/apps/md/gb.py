"""Generalized Born implicit solvation (AMBER's GB benchmarks).

GB replaces explicit solvent with a pairwise screening term

    E_GB = -1/2 * sum_ij q_i q_j (1/eps_in - 1/eps_out) / f_GB(r_ij)

with Still's interpolation f_GB = sqrt(r² + R_i R_j exp(-r² / (4 R_i R_j))).
Compared to PME it is *computation*-dominated (O(N²) pair work, no FFT,
almost no communication), which is exactly why the paper's gb_cox2 and
gb_mb benchmarks scale nearly linearly to 16 cores (Table 8) while the
PME benchmarks saturate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["born_radii", "gb_energy", "gb_energy_pairwise_reference"]


def born_radii(positions: np.ndarray, base_radius: float = 1.5,
               scale: float = 0.8) -> np.ndarray:
    """A simple Born-radius estimate: base radius shrunk by crowding.

    Real GB models integrate over the molecular surface; this compact
    stand-in makes radii depend smoothly on local density, preserving
    the O(N²) structure.
    """
    import numpy as np

    n = positions.shape[0]
    if n == 0:
        return np.zeros(0)
    delta = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.sum(delta ** 2, axis=-1)) + np.eye(n)
    crowding = np.sum(np.exp(-dist / 4.0), axis=1) - np.exp(-1.0 / 4.0)
    return base_radius / (1.0 + scale * crowding / n)


def gb_energy(positions: np.ndarray, charges: np.ndarray,
              radii: np.ndarray, eps_in: float = 1.0,
              eps_out: float = 78.5) -> float:
    """GB solvation energy with Still's f_GB (vectorized, includes i=j)."""
    import numpy as np

    if eps_in <= 0 or eps_out <= 0:
        raise ValueError("dielectric constants must be positive")
    delta = positions[:, None, :] - positions[None, :, :]
    r2 = np.sum(delta ** 2, axis=-1)
    rirj = radii[:, None] * radii[None, :]
    f_gb = np.sqrt(r2 + rirj * np.exp(-r2 / (4.0 * rirj)))
    qq = charges[:, None] * charges[None, :]
    prefactor = -0.5 * (1.0 / eps_in - 1.0 / eps_out)
    return float(prefactor * np.sum(qq / f_gb))


def gb_energy_pairwise_reference(positions: np.ndarray, charges: np.ndarray,
                                 radii: np.ndarray, eps_in: float = 1.0,
                                 eps_out: float = 78.5) -> float:
    """Loop-based oracle for the vectorized energy (tests only)."""
    import numpy as np

    n = positions.shape[0]
    prefactor = -0.5 * (1.0 / eps_in - 1.0 / eps_out)
    total = 0.0
    for i in range(n):
        for j in range(n):
            r2 = float(np.sum((positions[i] - positions[j]) ** 2))
            rirj = float(radii[i] * radii[j])
            f_gb = np.sqrt(r2 + rirj * np.exp(-r2 / (4.0 * rirj)))
            total += charges[i] * charges[j] / f_gb
    return float(prefactor * total)
