"""Particle-Mesh Ewald (PME) reciprocal-space machinery.

AMBER's PME benchmarks (dhfr, factor_ix, JAC) split electrostatics into
a short-range direct sum and a reciprocal sum evaluated on a mesh:
spread charges to a grid, 3-D FFT, multiply by the Gaussian-screened
influence function, inverse FFT, gather forces.  The FFT is the part
the paper isolates in Table 7 (it inherits the NAS-FT placement
sensitivity).

The functional implementation here is a compact cloud-in-cell PME
(energy only) used by the examples and validated for charge
conservation and agreement with a direct Ewald reciprocal sum on tiny
systems.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["pme_grid_size", "spread_charges", "reciprocal_energy",
           "ewald_reciprocal_reference"]


def pme_grid_size(natoms: int) -> int:
    """Mesh points per dimension: the next power of two above ~1 pt/atom.

    AMBER picks grids near one point per Å; for benchmark-scale boxes
    that is 48–96 per dimension.  A cube-root heuristic rounded to a
    power of two keeps the simulated FFT sizes radix-2.
    """
    if natoms < 1:
        raise ValueError("natoms must be positive")
    target = max(8, int(round(natoms ** (1.0 / 3.0) * 2)))
    size = 8
    while size < target:
        size *= 2
    return size


def spread_charges(positions: np.ndarray, charges: np.ndarray, box: float,
                   grid: int) -> np.ndarray:
    """Cloud-in-cell (trilinear) charge assignment to a grid³ mesh."""
    import numpy as np

    if grid < 2:
        raise ValueError("grid must be at least 2")
    mesh = np.zeros((grid, grid, grid))
    scaled = (positions % box) / box * grid
    base = np.floor(scaled).astype(int)
    frac = scaled - base
    for corner in range(8):
        offsets = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        weights = np.prod(
            np.where(offsets == 1, frac, 1.0 - frac), axis=1
        )
        cells = (base + offsets) % grid
        np.add.at(mesh, (cells[:, 0], cells[:, 1], cells[:, 2]),
                  charges * weights)
    return mesh


def reciprocal_energy(positions: np.ndarray, charges: np.ndarray, box: float,
                      grid: int, alpha: float = 1.0) -> float:
    """PME reciprocal-space energy via the mesh + 3-D FFT.

    Uses the plain Ewald influence function exp(-k²/4α²)/k² (no B-spline
    deconvolution — adequate for smooth charge clouds and validated
    against the direct reciprocal sum on small systems).
    """
    import numpy as np

    mesh = spread_charges(positions, charges, box, grid)
    rho_k = np.fft.fftn(mesh)
    freqs = np.fft.fftfreq(grid) * grid * (2.0 * math.pi / box)
    kx, ky, kz = np.meshgrid(freqs, freqs, freqs, indexing="ij")
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2[0, 0, 0] = 1.0  # avoid division by zero; masked below
    influence = np.exp(-k2 / (4.0 * alpha ** 2)) / k2
    influence[0, 0, 0] = 0.0
    volume = box ** 3
    return float(
        2.0 * math.pi / volume * np.sum(influence * np.abs(rho_k) ** 2)
    )


def ewald_reciprocal_reference(positions: np.ndarray, charges: np.ndarray,
                               box: float, alpha: float = 1.0,
                               kmax: int = 8) -> float:
    """Direct (meshless) Ewald reciprocal sum — the validation oracle."""
    import numpy as np

    volume = box ** 3
    energy = 0.0
    two_pi = 2.0 * math.pi / box
    for nx in range(-kmax, kmax + 1):
        for ny in range(-kmax, kmax + 1):
            for nz in range(-kmax, kmax + 1):
                if nx == ny == nz == 0:
                    continue
                k = two_pi * np.array([nx, ny, nz])
                k2 = float(k @ k)
                structure = np.sum(charges * np.exp(1j * positions @ k))
                energy += (math.exp(-k2 / (4 * alpha ** 2)) / k2
                           * abs(structure) ** 2)
    return float(2.0 * math.pi / volume * energy)
