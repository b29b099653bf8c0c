"""Baroclinic phase: the 3-D tracer/momentum update.

POP's baroclinic mode advances the full 3-D state with explicit
finite differences — "three dimensional with limited nearest-neighbor
communication [which] typically scales well on all platforms"
(Section 4.2).  The functional kernel is a conservative advection-
diffusion step used by the examples and validated for conservation and
stability in the tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["baroclinic_step", "total_tracer"]


def baroclinic_step(tracer: np.ndarray, velocity: np.ndarray,
                    diffusivity: float = 0.05, dt: float = 0.1) -> np.ndarray:
    """One explicit step of 3-D advection-diffusion on a periodic box.

    ``tracer`` is (nx, ny, nz); ``velocity`` is a 3-vector of constant
    advection speeds (a stand-in for the momentum fields).  Uses upwind
    advection plus centered diffusion; stable for CFL < 1.
    """
    import numpy as np

    if tracer.ndim != 3:
        raise ValueError("tracer must be 3-D")
    if len(velocity) != 3:
        raise ValueError("velocity must have 3 components")
    cfl = dt * (abs(velocity[0]) + abs(velocity[1]) + abs(velocity[2])
                + 6.0 * diffusivity)
    if cfl >= 1.0:
        raise ValueError(f"unstable step: CFL-like number {cfl:.3f} >= 1")
    out = tracer.copy()
    for axis, u in enumerate(velocity):
        upwind = np.roll(tracer, 1 if u > 0 else -1, axis=axis)
        out -= dt * abs(u) * (tracer - upwind)
    for axis in range(3):
        out += dt * diffusivity * (
            np.roll(tracer, 1, axis=axis) + np.roll(tracer, -1, axis=axis)
            - 2.0 * tracer
        )
    return out


def total_tracer(tracer: np.ndarray) -> float:
    """Domain integral (conserved by the periodic step)."""
    import numpy as np

    return float(np.sum(tracer))
