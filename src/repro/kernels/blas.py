"""BLAS level 1 and 3 kernels: DAXPY and DGEMM (Section 3.2).

The paper contrasts the vendor library (ACML) against "vanilla"
compiled Fortran.  For DGEMM the difference is dramatic — the vendor
kernel blocks for cache (reuse ≈ 0.97) and sustains ~88 % of peak,
while a naive triple loop streams operands and reaches a fraction of
peak.  For DAXPY both are memory-bound at large n; the vendor advantage
only shows for cache-resident vectors.

Functional implementations: numpy's BLAS (`a @ b`) stands in for ACML;
an explicit blocked/naive pair exists for validation and as the
"vanilla" reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "daxpy",
    "dgemm",
    "naive_dgemm",
    "blocked_dgemm",
    "daxpy_model",
    "dgemm_model",
    "daxpy_flops",
    "dgemm_flops",
]


# -- functional ------------------------------------------------------------

def daxpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y <- alpha*x + y`` (returns the new y)."""
    if x.shape != y.shape:
        raise ValueError("daxpy requires conforming vectors")
    return alpha * x + y

def dgemm(a: np.ndarray, b: np.ndarray, alpha: float = 1.0,
          beta: float = 0.0, c: np.ndarray | None = None) -> np.ndarray:
    """``C <- alpha*A@B + beta*C`` via the platform BLAS (the "ACML" path)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("dgemm requires conforming matrices")
    result = alpha * (a @ b)
    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 requires C")
        result = result + beta * c
    return result


def naive_dgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix multiply (the "vanilla" reference; small sizes)."""
    import numpy as np

    if a.shape[1] != b.shape[0]:
        raise ValueError("dgemm requires conforming matrices")
    m, k = a.shape
    _, n = b.shape
    c = np.zeros((m, n), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            total = 0.0
            for p in range(k):
                total += a[i, p] * b[p, j]
            c[i, j] = total
    return c


def blocked_dgemm(a: np.ndarray, b: np.ndarray, block: int = 32) -> np.ndarray:
    """Cache-blocked multiply (illustrates the vendor-library strategy)."""
    import numpy as np

    if a.shape[1] != b.shape[0]:
        raise ValueError("dgemm requires conforming matrices")
    if block < 1:
        raise ValueError("block must be positive")
    m, k = a.shape
    _, n = b.shape
    c = np.zeros((m, n), dtype=np.result_type(a, b))
    for i0 in range(0, m, block):
        for p0 in range(0, k, block):
            for j0 in range(0, n, block):
                c[i0:i0 + block, j0:j0 + block] += (
                    a[i0:i0 + block, p0:p0 + block]
                    @ b[p0:p0 + block, j0:j0 + block]
                )
    return c


# -- operation counts ------------------------------------------------------

def daxpy_flops(n: int) -> float:
    """2n flops (one multiply, one add per element)."""
    return 2.0 * n


def dgemm_flops(n: int) -> float:
    """2n^3 flops for square matrices."""
    return 2.0 * n ** 3


# -- models -------------------------------------------------------------------

def daxpy_model(n: int, vendor: bool = True, repeats: int = 1,
                phase: str = "") -> Compute:
    """DAXPY descriptor: streaming sweeps (read x, read+write y, 24 B/elt).

    A single sweep has no temporal reuse, but the benchmark loop repeats
    the sweep: when the vectors fit in cache, all but the first pass hit
    (reuse ``(repeats-1)/repeats``), which is where the vendor/vanilla
    compiler gap becomes visible (Figures 4-5's small sizes).  Large
    vectors fall back to pure DRAM streaming regardless.
    """
    if n < 1 or repeats < 1:
        raise ValueError("n and repeats must be positive")
    return Compute(
        phase=phase,
        flops=daxpy_flops(n) * repeats,
        dram_bytes=24.0 * n * repeats,
        working_set=16.0 * n,
        reuse=(repeats - 1) / repeats,
        flop_efficiency=0.85 if vendor else 0.40,
    )


def dgemm_model(n: int, vendor: bool = True, phase: str = "") -> Compute:
    """DGEMM descriptor for square n×n matrices.

    The vendor kernel blocks all three matrices through cache
    (reuse ≈ 0.97, ~88 % of peak); vanilla code achieves neither.
    Natural traffic is one read of A and B and a write of C per
    blocked panel sweep, ~32 n² bytes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return Compute(
        phase=phase,
        flops=dgemm_flops(n),
        dram_bytes=32.0 * n ** 2,
        working_set=24.0 * n ** 2,
        reuse=0.97 if vendor else 0.60,
        flop_efficiency=0.88 if vendor else 0.30,
    )
