"""HPL: LU factorization kernels (the HPCC headline benchmark, Figure 8).

HPL factorizes a dense matrix with partial pivoting; its inner loop is
DGEMM-shaped (rank-k updates), which is why it inherits DGEMM's cache
friendliness, moderated by panel factorization and pivot broadcasts
that touch the network every block column.

The functional implementation is a right-looking blocked LU with
partial pivoting, validated against scipy.linalg.lu in the tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["lu_factor", "lu_reconstruct", "hpl_flops", "hpl_update_model",
           "panel_bytes"]


def lu_factor(a: np.ndarray, block: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Blocked right-looking LU with partial pivoting.

    Returns (lu, piv): the packed L\\U factors and the pivot rows, with
    the same conventions as scipy.linalg.lu_factor.
    """
    import numpy as np

    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("LU requires a square matrix")
    if block < 1:
        raise ValueError("block must be positive")
    n = a.shape[0]
    piv = np.arange(n)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        # panel factorization with partial pivoting
        for k in range(k0, k1):
            pivot = k + int(np.argmax(np.abs(a[k:, k])))
            if a[pivot, k] == 0.0:
                raise ValueError("matrix is singular")
            if pivot != k:
                a[[k, pivot], :] = a[[pivot, k], :]
                piv[k], piv[pivot] = piv[pivot], piv[k]
            a[k + 1:, k] /= a[k, k]
            if k + 1 < k1:
                a[k + 1:, k + 1:k1] -= np.outer(a[k + 1:, k], a[k, k + 1:k1])
        # triangular solve for the block row, then the trailing update
        if k1 < n:
            lower = np.tril(a[k0:k1, k0:k1], -1) + np.eye(k1 - k0)
            a[k0:k1, k1:] = np.linalg.solve(lower, a[k0:k1, k1:])
            a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]
    return a, piv


def lu_reconstruct(lu: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Rebuild the (row-permuted) original matrix from packed factors."""
    import numpy as np

    n = lu.shape[0]
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    permuted = lower @ upper
    restored = np.empty_like(permuted)
    restored[piv] = permuted
    return restored


def hpl_flops(n: int) -> float:
    """The standard HPL operation count: 2/3 n^3 + 2 n^2."""
    return 2.0 / 3.0 * n ** 3 + 2.0 * n ** 2


def panel_bytes(n: int, block: int) -> float:
    """Bytes of one n-row panel of ``block`` columns."""
    return 8.0 * n * block


def hpl_update_model(n: int, ntasks: int, phase: str = "") -> Compute:
    """One rank's share of the whole factorization's compute.

    The trailing updates dominate and are DGEMM-like (high reuse, high
    flop efficiency); panel work drags efficiency slightly below pure
    DGEMM.
    """
    if n < 1 or ntasks < 1:
        raise ValueError("n and ntasks must be positive")
    share = hpl_flops(n) / ntasks
    matrix_bytes = 8.0 * n * n / ntasks
    return Compute(
        phase=phase,
        flops=share,
        dram_bytes=4.0 * matrix_bytes,  # several sweeps over the local panel
        working_set=matrix_bytes,
        reuse=0.93,
        flop_efficiency=0.75,
    )
