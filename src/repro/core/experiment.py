"""Experiments: the paper's measurement methodology as a library.

:class:`Experiment` is one (system, workload, scheme, MPI config) cell,
a thin typed wrapper over :class:`repro.service.RunRequest` that
executes through the process-wide :class:`repro.service.Session`.
Sweeps are session methods (:meth:`Session.scheme_sweep`,
:meth:`Session.compare_schemes`, :meth:`Session.scaling_study`), so
they share the service's cache, coalescing, and telemetry;
:class:`SchemeComparison` and :data:`ALL_SCHEMES` live here because
those methods return and default to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine.topology import MachineSpec
from ..mpi import MpiImplementation, OPENMPI
from .affinity import AffinityScheme
from .execution import JobResult
from .parallel import JobRequest
from .workload import Workload

__all__ = ["Experiment", "SchemeComparison", "ALL_SCHEMES"]

#: paper column order for the numactl tables
ALL_SCHEMES: List[AffinityScheme] = [
    AffinityScheme.DEFAULT,
    AffinityScheme.ONE_MPI_LOCAL,
    AffinityScheme.ONE_MPI_MEMBIND,
    AffinityScheme.TWO_MPI_LOCAL,
    AffinityScheme.TWO_MPI_MEMBIND,
    AffinityScheme.INTERLEAVE,
]


def _session():
    # lazy: repro.core must import without dragging the service package
    # in at module time (the service imports core submodules back)
    from ..service.session import default_session

    return default_session()


@dataclass
class Experiment:
    """One measurement cell; ``run()`` is deterministic and repeatable."""

    system: MachineSpec
    workload: Workload
    scheme: AffinityScheme = AffinityScheme.DEFAULT
    impl: MpiImplementation = OPENMPI
    lock: Optional[str] = None
    parked: int = 0
    #: ``"exact"``/``None`` steps the engine, ``"fast"`` the analytic
    #: surrogate, ``"auto"`` picks fast where supported
    tier: Optional[str] = None

    def to_request(self) -> "RunRequest":
        """This cell as a typed service :class:`RunRequest`."""
        from ..service.api import RunRequest

        return RunRequest(system=self.system, workload=self.workload,
                          scheme=self.scheme, impl=self.impl,
                          lock=self.lock, parked=self.parked,
                          tier=self.tier)

    def request(self) -> JobRequest:
        """This cell as a value for the cache / parallel executor."""
        return JobRequest(spec=self.system, workload=self.workload,
                          scheme=self.scheme, impl=self.impl,
                          lock=self.lock, parked=self.parked,
                          tier=self.tier)

    def run(self) -> JobResult:
        """Resolve the scheme and simulate the workload.

        Routed through the process-wide service session: served from
        the content-addressed result cache when an identical cell has
        already run, coalesced onto an in-flight twin when the async
        plane is simulating one.  Raises
        :class:`~repro.errors.InfeasibleSchemeError` when the scheme
        cannot be placed.
        """
        return _session().run(self.to_request()).require()

    def run_uncached(self) -> JobResult:
        """Simulate the workload, bypassing the result cache."""
        return self.request().execute()


@dataclass
class SchemeComparison:
    """Outcome of :meth:`Session.compare_schemes` for one workload."""

    times: Dict[str, float]
    best: str
    worst: str

    @property
    def best_time(self) -> float:
        return self.times[self.best]

    @property
    def improvement_over_default_percent(self) -> float:
        """How much the best scheme improves on the Default placement."""
        default = self.times[str(AffinityScheme.DEFAULT)]
        return (default - self.best_time) / default * 100.0

    @property
    def spread(self) -> float:
        """Worst/best runtime ratio across feasible schemes."""
        return self.times[self.worst] / self.best_time
