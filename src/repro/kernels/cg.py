"""Conjugate-gradient kernels: a working solver plus NAS-CG cost models.

CG is the paper's second headline kernel (NAS CG, Tables 2–4) and the
heart of POP's barotropic phase (Section 4.2).  Per iteration it
performs one sparse matrix-vector product (irregular, low reuse), a
handful of vector updates, and two dot products — the dot products are
the latency-critical allreduce points in the parallel version.

The functional solver works on CSR-like data via numpy (and accepts
scipy.sparse matrices); :func:`random_spd_matrix` builds NAS-style
random sparse SPD systems for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "conjugate_gradient",
    "random_spd_matrix",
    "CgIterationCounts",
    "cg_iteration_counts",
    "spmv_model",
    "cg_vector_model",
]


def random_spd_matrix(n: int, nonzeros_per_row: int = 7,
                      shift: float = 10.0,
                      seed: int = 0) -> "scipy.sparse.csr_matrix":
    """A random sparse symmetric positive-definite matrix.

    Built as ``R @ R.T + shift*I`` with a random sparse R — the same
    construction idea as the NAS CG benchmark's fractional-outer-product
    matrix, guaranteeing SPD for any seed.
    """
    import numpy as np
    import scipy.sparse as sp  # kept off the CLI's import path

    if n < 1 or nonzeros_per_row < 1:
        raise ValueError("n and nonzeros_per_row must be positive")
    rng = np.random.default_rng(seed)
    density = min(1.0, nonzeros_per_row / n)
    r = sp.random(n, n, density=density, random_state=rng, format="csr")
    a = (r @ r.T).tocsr()
    return (a + shift * sp.identity(n, format="csr")).tocsr()


def conjugate_gradient(
    a, b: np.ndarray, tol: float = 1e-8, maxiter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, float]:
    """Classic unpreconditioned CG; returns (x, iterations, residual).

    ``a`` is any object supporting ``a @ v`` (scipy sparse or ndarray).
    """
    import numpy as np

    n = b.shape[0]
    if maxiter is None:
        maxiter = 10 * n
    x = np.zeros_like(b) if x0 is None else x0.astype(float).copy()
    r = b - a @ x
    p = r.copy()
    rs_old = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    iterations = 0
    while iterations < maxiter and np.sqrt(rs_old) / b_norm > tol:
        ap = a @ p
        denom = float(p @ ap)
        if denom <= 0:
            raise ValueError("matrix is not positive definite")
        alpha = rs_old / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
        iterations += 1
    return x, iterations, np.sqrt(rs_old) / b_norm


@dataclass(frozen=True)
class CgIterationCounts:
    """Per-iteration operation counts of parallel CG on one rank."""

    rows_local: int
    nnz_local: int

    @property
    def spmv_flops(self) -> float:
        return 2.0 * self.nnz_local

    @property
    def spmv_bytes(self) -> float:
        # CSR value (8 B) + column index (4 B) per nonzero, plus ~4 B of
        # amortized x-gather cacheline waste per nonzero, plus the row
        # pointers and the result vector.
        return 16.0 * self.nnz_local + 16.0 * self.rows_local

    @property
    def vector_flops(self) -> float:
        # 3 axpy-like updates + 2 dot products, ~10 flops per row
        return 10.0 * self.rows_local

    @property
    def vector_bytes(self) -> float:
        return 6.0 * 8.0 * self.rows_local

    @property
    def working_set(self) -> float:
        return self.spmv_bytes + 5 * 8.0 * self.rows_local


def cg_iteration_counts(n: int, nonzeros_per_row: int,
                        ntasks: int) -> CgIterationCounts:
    """Counts for one rank of an n-row system split row-wise."""
    if ntasks < 1:
        raise ValueError("ntasks must be positive")
    rows = n // ntasks
    return CgIterationCounts(rows_local=rows,
                             nnz_local=rows * nonzeros_per_row)


def spmv_model(counts: CgIterationCounts, phase: str = "") -> Compute:
    """Descriptor for one local sparse matrix-vector product.

    Irregular column gathers give SpMV low-but-nonzero reuse (~0.25),
    plus a dependent-access component: of the ~14 column gathers per
    row, a couple miss cache with no overlap across iterations of the
    inner loop (folded memory-level parallelism), charged at the page
    placement's NUMA latency.  This term is what makes CG sensitive to
    interleave/membind even when bandwidth is not saturated.
    """
    return Compute(
        phase=phase,
        flops=counts.spmv_flops,
        dram_bytes=counts.spmv_bytes,
        working_set=counts.working_set,
        reuse=0.25,
        flop_efficiency=0.25,
        random_accesses=2.0 * counts.rows_local,
        # Irregular gathers cap SpMV's own streaming demand well below a
        # small system's controller (a second core still helps on DMZ)
        # but above half of the coherence-derated 8-socket ladder's
        # (two cores per Longs socket split the link).
        stream_bandwidth=1.5e9,
    )


def cg_vector_model(counts: CgIterationCounts, phase: str = "") -> Compute:
    """Descriptor for one iteration's vector updates and dot products."""
    return Compute(
        phase=phase,
        flops=counts.vector_flops,
        dram_bytes=counts.vector_bytes,
        working_set=5 * 8.0 * counts.rows_local,
        reuse=0.15,
        flop_efficiency=0.5,
    )
