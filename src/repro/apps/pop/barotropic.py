"""Barotropic phase: the 2-D implicit free-surface solver.

POP's barotropic mode solves a 2-D elliptic system each step with
preconditioned conjugate gradient; every CG iteration performs a
9-point (here: 5-point) stencil apply and two global dot products —
the latency-critical allreduces that make this phase "very sensitive to
network latency" (Section 4.2).

The functional solver here really solves the discrete Poisson problem
with our CG kernel and is validated against a dense solve in the tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ...kernels.cg import conjugate_gradient

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Laplacian2D", "solve_barotropic", "stencil_apply"]


class Laplacian2D:
    """A matrix-free 5-point Laplacian (Dirichlet) on an nx×ny grid."""

    def __init__(self, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be positive")
        self.nx = nx
        self.ny = ny

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.nx * self.ny
        return (n, n)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return stencil_apply(v, self.nx, self.ny)


def stencil_apply(v: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """y = A v for the 5-point Laplacian with Dirichlet boundaries."""
    field = v.reshape(nx, ny)
    out = 4.0 * field
    out[1:, :] -= field[:-1, :]
    out[:-1, :] -= field[1:, :]
    out[:, 1:] -= field[:, :-1]
    out[:, :-1] -= field[:, 1:]
    return out.reshape(-1)


def solve_barotropic(rhs: np.ndarray, nx: int, ny: int,
                     tol: float = 1e-8) -> Tuple[np.ndarray, int]:
    """Solve the surface-pressure system; returns (solution, iterations)."""
    if rhs.shape != (nx * ny,):
        raise ValueError("rhs must be flattened nx*ny")
    operator = Laplacian2D(nx, ny)
    solution, iterations, residual = conjugate_gradient(
        operator, rhs, tol=tol, maxiter=10 * nx * ny
    )
    if residual > tol * 10:
        raise RuntimeError(f"barotropic solver stalled at residual {residual}")
    return solution, iterations
