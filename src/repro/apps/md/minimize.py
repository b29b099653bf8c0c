"""Energy minimization (AMBER's EM mode).

`sander` performs energy minimization before dynamics (Section 4.1:
"sander, for simulated annealing ... EM and MD").  This module supplies
steepest-descent minimization with backtracking line search over any of
the package's force fields — monotone energy decrease is guaranteed and
verified by the tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["steepest_descent"]


def steepest_descent(positions: np.ndarray,
                     force_fn: Callable[[np.ndarray],
                                        Tuple[np.ndarray, float]],
                     steps: int = 100, initial_step: float = 1e-3,
                     force_tolerance: float = 1e-6,
                     box: float | None = None) -> Tuple[np.ndarray, float, int]:
    """Minimize the potential; returns (positions, energy, iterations).

    ``force_fn`` returns (forces, potential_energy); forces are the
    negative gradient, so moving along them cannot increase the energy
    under a sufficiently small step.  The step adapts: growing 10 % on
    success, halving on rejection (backtracking).
    """
    import numpy as np

    if steps < 1 or initial_step <= 0:
        raise ValueError("steps must be >= 1 and initial_step positive")
    current = np.array(positions, dtype=float)
    forces, energy = force_fn(current)
    step = initial_step
    iterations = 0
    for iterations in range(1, steps + 1):
        max_force = float(np.max(np.abs(forces)))
        if max_force < force_tolerance:
            break
        # normalize so the largest displacement equals `step`
        trial = current + step * forces / max_force
        if box is not None:
            trial %= box
        trial_forces, trial_energy = force_fn(trial)
        if trial_energy < energy:
            current, forces, energy = trial, trial_forces, trial_energy
            step *= 1.1
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return current, energy, iterations
