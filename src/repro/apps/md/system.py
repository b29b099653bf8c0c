"""Particle systems and neighbor finding for the MD substrate.

A :class:`ParticleSystem` holds positions/velocities/charges in a
periodic cubic box.  Neighbor finding uses cell lists (the standard
O(N) method from Plimpton's LAMMPS paper [10]); a brute-force reference
exists for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["ParticleSystem", "random_system", "chain_system",
           "neighbor_pairs", "brute_force_pairs", "minimum_image"]


@dataclass
class ParticleSystem:
    """Particles in a cubic periodic box of side ``box``."""

    positions: np.ndarray  # (n, 3)
    velocities: np.ndarray  # (n, 3)
    masses: np.ndarray  # (n,)
    charges: np.ndarray  # (n,)
    box: float

    def __post_init__(self):
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3):
            raise ValueError("positions must be (n, 3)")
        if self.velocities.shape != (n, 3):
            raise ValueError("velocities must be (n, 3)")
        if self.masses.shape != (n,) or self.charges.shape != (n,):
            raise ValueError("masses and charges must be (n,)")
        if self.box <= 0:
            raise ValueError("box must be positive")

    @property
    def natoms(self) -> int:
        return self.positions.shape[0]

    def wrap(self) -> None:
        """Fold positions back into the primary box."""
        self.positions %= self.box

    def kinetic_energy(self) -> float:
        """Total kinetic energy."""
        import numpy as np

        return float(0.5 * np.sum(self.masses[:, None] * self.velocities ** 2))


def random_system(n: int, box: float, seed: int = 0,
                  charged: bool = False) -> ParticleSystem:
    """Uniform random particles; charges alternate ±1 when ``charged``."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    charges = np.zeros(n)
    if charged:
        charges = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        if n % 2:
            charges[-1] = 0.0  # keep the box neutral
    return ParticleSystem(
        positions=rng.uniform(0, box, size=(n, 3)),
        velocities=rng.normal(0, 0.1, size=(n, 3)),
        masses=np.ones(n),
        charges=charges,
        box=box,
    )


def chain_system(n_chains: int, beads_per_chain: int, box: float,
                 bond_length: float = 0.97,
                 seed: int = 0) -> Tuple[ParticleSystem, np.ndarray]:
    """Bead-spring polymer melt: returns (system, bonds).

    Chains are random walks of fixed step ``bond_length``; ``bonds`` is
    an (n_bonds, 2) index array.
    """
    import numpy as np

    if n_chains < 1 or beads_per_chain < 2:
        raise ValueError("need at least one chain of two beads")
    rng = np.random.default_rng(seed)
    positions: List[np.ndarray] = []
    bonds: List[Tuple[int, int]] = []
    for chain in range(n_chains):
        start = rng.uniform(0, box, size=3)
        pos = start
        base = chain * beads_per_chain
        positions.append(pos)
        for bead in range(1, beads_per_chain):
            step = rng.normal(size=3)
            step *= bond_length / np.linalg.norm(step)
            pos = pos + step
            positions.append(pos)
            bonds.append((base + bead - 1, base + bead))
    n = n_chains * beads_per_chain
    system = ParticleSystem(
        positions=np.array(positions) % box,
        velocities=rng.normal(0, 0.1, size=(n, 3)),
        masses=np.ones(n),
        charges=np.zeros(n),
        box=box,
    )
    return system, np.array(bonds, dtype=int)


def minimum_image(delta: np.ndarray, box: float) -> np.ndarray:
    """Minimum-image convention displacement(s)."""
    import numpy as np

    return delta - box * np.round(delta / box)


def brute_force_pairs(positions: np.ndarray, box: float,
                      cutoff: float) -> np.ndarray:
    """All pairs within cutoff, O(N^2) (validation reference)."""
    import numpy as np

    n = positions.shape[0]
    delta = minimum_image(positions[:, None, :] - positions[None, :, :], box)
    dist2 = np.sum(delta ** 2, axis=-1)
    i, j = np.where((dist2 < cutoff ** 2) & (np.arange(n)[:, None] < np.arange(n)))
    return np.column_stack([i, j])


def neighbor_pairs(positions: np.ndarray, box: float,
                   cutoff: float) -> np.ndarray:
    """All unique pairs within ``cutoff`` via cell lists, as (m, 2) indices."""
    import numpy as np

    if cutoff <= 0 or cutoff > box / 2:
        raise ValueError("cutoff must be in (0, box/2]")
    cells_per_dim = max(1, int(box / cutoff))
    cell_size = box / cells_per_dim
    coords = np.floor((positions % box) / cell_size).astype(int)
    coords = np.clip(coords, 0, cells_per_dim - 1)
    cell_ids = (coords[:, 0] * cells_per_dim + coords[:, 1]) * cells_per_dim \
        + coords[:, 2]
    order = np.argsort(cell_ids, kind="stable")
    sorted_ids = cell_ids[order]
    # bucket boundaries
    starts = np.searchsorted(sorted_ids, np.arange(cells_per_dim ** 3))
    ends = np.searchsorted(sorted_ids, np.arange(cells_per_dim ** 3), side="right")

    def cell_members(cx: int, cy: int, cz: int) -> np.ndarray:
        cid = (cx * cells_per_dim + cy) * cells_per_dim + cz
        return order[starts[cid]:ends[cid]]

    pairs: List[np.ndarray] = []
    cutoff2 = cutoff ** 2
    neighbor_offsets = [(dx, dy, dz)
                        for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)
                        for dz in (-1, 0, 1)]
    seen_cells = set()
    for cx in range(cells_per_dim):
        for cy in range(cells_per_dim):
            for cz in range(cells_per_dim):
                me = cell_members(cx, cy, cz)
                if me.size == 0:
                    continue
                my_id = (cx * cells_per_dim + cy) * cells_per_dim + cz
                for dx, dy, dz in neighbor_offsets:
                    ox = (cx + dx) % cells_per_dim
                    oy = (cy + dy) % cells_per_dim
                    oz = (cz + dz) % cells_per_dim
                    other_id = (ox * cells_per_dim + oy) * cells_per_dim + oz
                    if (other_id, my_id) in seen_cells:
                        continue
                    seen_cells.add((my_id, other_id))
                    others = cell_members(ox, oy, oz)
                    if others.size == 0:
                        continue
                    ii = np.repeat(me, others.size)
                    jj = np.tile(others, me.size)
                    if my_id == other_id:
                        keep = ii < jj
                    else:
                        keep = np.ones(ii.shape, dtype=bool)
                    ii, jj = ii[keep], jj[keep]
                    if ii.size == 0:
                        continue
                    delta = minimum_image(positions[ii] - positions[jj], box)
                    close = np.sum(delta ** 2, axis=1) < cutoff2
                    if np.any(close):
                        pairs.append(np.column_stack([ii[close], jj[close]]))
    if not pairs:
        return np.empty((0, 2), dtype=int)
    stacked = np.vstack(pairs)
    # canonicalize (i < j) and deduplicate cross-cell double counting
    lo = np.minimum(stacked[:, 0], stacked[:, 1])
    hi = np.maximum(stacked[:, 0], stacked[:, 1])
    unique = np.unique(np.column_stack([lo, hi]), axis=0)
    return unique
