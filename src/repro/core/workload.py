"""Abstract workload interface.

A workload is a named, sized job whose per-rank behaviour is a generator
of operation descriptors (:mod:`repro.core.ops`).  Long homogeneous
iteration loops may be simulated at reduced length: ``time_scale`` is
the factor by which the runtime multiplies all reported times (e.g. a
50-step run simulated as 10 representative steps uses
``time_scale = 5``).  This keeps event counts tractable without
changing contention structure, because the omitted iterations are
statistically identical to the simulated ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from .ops import Op

__all__ = ["Workload"]


class Workload(ABC):
    """Base class for all benchmarks and applications."""

    #: human-readable name used in reports
    name: str = "workload"
    #: number of MPI ranks the program expects
    ntasks: int = 1
    #: multiply reported times by this factor (iteration subsampling)
    time_scale: float = 1.0

    @abstractmethod
    def program(self, rank: int) -> Iterator[Op]:
        """The operation stream executed by ``rank``.

        Ops are immutable: a repeated op should be built once and
        yielded as one object on every iteration.  Each program call
        may build its objects anew; results never depend on op
        identity, but the fast tier checks and costs each distinct
        object only once.
        """

    def validate(self) -> None:
        """Sanity-check the workload configuration (override to extend)."""
        if self.ntasks < 1:
            raise ValueError(f"{self.name}: ntasks must be >= 1")
        if self.time_scale <= 0:
            raise ValueError(f"{self.name}: time_scale must be positive")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} ntasks={self.ntasks}>"
