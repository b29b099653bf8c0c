"""PTRANS: parallel matrix transpose (A <- A^T + A).

PTRANS stresses the interconnect: with a 2-D block distribution every
process exchanges its block with the holder of the mirrored block, so
total traffic is the whole matrix crossing the network.  The paper uses
it to expose the SysV/USysV gap on bulk communication (Figure 12).

The functional part implements the block-cyclic pair structure and a
local verification; the model emits per-rank communication volume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "transpose_add",
    "block_owner",
    "exchange_pairs",
    "ptrans_local_model",
    "ptrans_block_bytes",
]


def transpose_add(a: np.ndarray) -> np.ndarray:
    """The PTRANS computation on one node: ``A^T + A``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("PTRANS requires a square matrix")
    return a.T + a


def block_owner(block_row: int, block_col: int, proc_rows: int,
                proc_cols: int) -> int:
    """Owner rank of a block under a 2-D block-cyclic distribution."""
    return (block_row % proc_rows) * proc_cols + (block_col % proc_cols)


def exchange_pairs(proc_rows: int, proc_cols: int,
                   blocks_per_dim: int) -> Dict[int, List[Tuple[int, int, int]]]:
    """For each rank: list of (block_row, block_col, partner_rank).

    The partner holds the mirrored block (col, row); diagonal blocks
    partner with themselves (local transpose, no traffic).
    """
    if proc_rows < 1 or proc_cols < 1 or blocks_per_dim < 1:
        raise ValueError("grid dimensions must be positive")
    result: Dict[int, List[Tuple[int, int, int]]] = {
        r: [] for r in range(proc_rows * proc_cols)
    }
    for br in range(blocks_per_dim):
        for bc in range(blocks_per_dim):
            owner = block_owner(br, bc, proc_rows, proc_cols)
            partner = block_owner(bc, br, proc_rows, proc_cols)
            result[owner].append((br, bc, partner))
    return result


def ptrans_block_bytes(n: int, blocks_per_dim: int) -> float:
    """Bytes of one block of an n×n double matrix."""
    block_dim = n // blocks_per_dim
    return 8.0 * block_dim * block_dim


def ptrans_local_model(n: int, ntasks: int, phase: str = "") -> Compute:
    """Local add+store work of one rank's share of ``A^T + A``."""
    if n < 1 or ntasks < 1:
        raise ValueError("n and ntasks must be positive")
    elements = n * n / ntasks
    return Compute(
        phase=phase,
        flops=elements,
        dram_bytes=24.0 * elements,
        working_set=16.0 * elements,
        reuse=0.0,
        flop_efficiency=0.6,
    )
