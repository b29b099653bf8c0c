"""A functional barotropic ocean: the linearized shallow-water equations.

POP's barotropic mode integrates the vertically-averaged (free-surface)
flow.  This module provides a real, runnable version of those dynamics
— the linearized rotating shallow-water system on an f-plane::

    du/dt =  f v - g dh/dx
    dv/dt = -f u - g dh/dy
    dh/dt = -H (du/dx + dv/dy)

discretized with centered differences on a periodic C-ish grid and a
leapfrog-trapezoidal step.  The tests verify the two invariants any
ocean dynamics core must honour: mass conservation (exactly, by
construction of the divergence) and bounded total energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["ShallowWaterState", "ShallowWaterModel"]


@dataclass
class ShallowWaterState:
    """Prognostic fields on an nx×ny periodic grid."""

    u: np.ndarray  # zonal velocity
    v: np.ndarray  # meridional velocity
    h: np.ndarray  # surface elevation anomaly

    def __post_init__(self):
        if not (self.u.shape == self.v.shape == self.h.shape):
            raise ValueError("u, v, h must share one grid shape")
        if self.u.ndim != 2:
            raise ValueError("fields must be 2-D")

    def copy(self) -> "ShallowWaterState":
        return ShallowWaterState(self.u.copy(), self.v.copy(), self.h.copy())


class ShallowWaterModel:
    """Linearized rotating shallow water on a periodic f-plane."""

    def __init__(self, nx: int, ny: int, dx: float = 1.0,
                 gravity: float = 9.8, depth: float = 100.0,
                 coriolis: float = 1e-2):
        if nx < 4 or ny < 4:
            raise ValueError("grid must be at least 4x4")
        if min(dx, gravity, depth) <= 0:
            raise ValueError("dx, gravity and depth must be positive")
        self.nx, self.ny = nx, ny
        self.dx = dx
        self.gravity = gravity
        self.depth = depth
        self.coriolis = coriolis

    # -- operators -----------------------------------------------------------

    def _ddx(self, field: np.ndarray) -> np.ndarray:
        import numpy as np

        return (np.roll(field, -1, axis=0) - np.roll(field, 1, axis=0)) \
            / (2 * self.dx)

    def _ddy(self, field: np.ndarray) -> np.ndarray:
        import numpy as np

        return (np.roll(field, -1, axis=1) - np.roll(field, 1, axis=1)) \
            / (2 * self.dx)

    def tendencies(self, state: ShallowWaterState
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(du/dt, dv/dt, dh/dt) of the linearized system."""
        du = self.coriolis * state.v - self.gravity * self._ddx(state.h)
        dv = -self.coriolis * state.u - self.gravity * self._ddy(state.h)
        dh = -self.depth * (self._ddx(state.u) + self._ddy(state.v))
        return du, dv, dh

    def max_stable_dt(self) -> float:
        """CFL bound for the gravity-wave speed sqrt(gH)."""
        import numpy as np

        wave_speed = np.sqrt(self.gravity * self.depth)
        return 0.5 * self.dx / wave_speed

    def step(self, state: ShallowWaterState, dt: float) -> ShallowWaterState:
        """One forward-backward (trapezoidal) step."""
        if dt <= 0 or dt > self.max_stable_dt():
            raise ValueError(
                f"dt must be in (0, {self.max_stable_dt():.4g}] for stability"
            )
        du, dv, dh = self.tendencies(state)
        predictor = ShallowWaterState(
            state.u + dt * du, state.v + dt * dv, state.h + dt * dh
        )
        du2, dv2, dh2 = self.tendencies(predictor)
        return ShallowWaterState(
            state.u + dt * 0.5 * (du + du2),
            state.v + dt * 0.5 * (dv + dv2),
            state.h + dt * 0.5 * (dh + dh2),
        )

    # -- diagnostics -------------------------------------------------------------

    def total_mass(self, state: ShallowWaterState) -> float:
        """Domain-integrated elevation anomaly (conserved exactly)."""
        import numpy as np

        return float(np.sum(state.h)) * self.dx ** 2

    def total_energy(self, state: ShallowWaterState) -> float:
        """Kinetic plus available potential energy."""
        import numpy as np

        kinetic = 0.5 * self.depth * np.sum(state.u ** 2 + state.v ** 2)
        potential = 0.5 * self.gravity * np.sum(state.h ** 2)
        return float((kinetic + potential) * self.dx ** 2)

    def gaussian_bump(self, amplitude: float = 1.0,
                      width: float = 5.0) -> ShallowWaterState:
        """A resting ocean with a Gaussian elevation anomaly (test case)."""
        import numpy as np

        x = np.arange(self.nx)[:, None] - self.nx / 2
        y = np.arange(self.ny)[None, :] - self.ny / 2
        h = amplitude * np.exp(-(x ** 2 + y ** 2) / (2 * width ** 2))
        zeros = np.zeros((self.nx, self.ny))
        return ShallowWaterState(zeros.copy(), zeros.copy(), h)

    def geostrophic_state(self, amplitude: float = 0.1,
                          width: float = 6.0) -> ShallowWaterState:
        """A bump with balancing velocities: f k×u = -g grad(h).

        In exact balance the flow is steady; the tests check it stays
        near-steady over many steps (the f-plane analogue of an ocean
        eddy).
        """
        state = self.gaussian_bump(amplitude, width)
        if self.coriolis == 0:
            raise ValueError("geostrophic balance requires rotation")
        state.u = -(self.gravity / self.coriolis) * self._ddy(state.h)
        state.v = (self.gravity / self.coriolis) * self._ddx(state.h)
        return state
