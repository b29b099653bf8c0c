"""Shared plumbing for the table/figure generators.

The HPCC figures vary a *runtime configuration*: a NUMA placement
scheme combined with a LAM locking sub-layer.  LAM 7.7.1's default
sub-layer is the System V semaphore device (the paper attributes the
default curves' high latencies to "the high cost of the Linux
implementation of the SystemV semaphore"), so the six Figure 8
configurations resolve as below.

Run results are memoized at two levels: a session-scoped memo table
under ad-hoc keys (several tables are different projections of the same
sweep — Tables 13/14 share POP runs, Tables 7/9 share JAC runs — and
pytest-benchmark repeats calls), and the content-addressed
:mod:`result cache <repro.core.cache>` inside :func:`run` itself, which
also persists results to disk so bench reruns skip recomputation
entirely.

Both levels are owned by the process-wide
:class:`repro.service.Session` — :func:`run` routes through
``default_session().run(...)`` and :func:`memo` through
``Session.memo``, so bench traffic shares one cache, one coalescing
map, and one set of service counters with served traffic.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core import (
    AffinityScheme,
    JobResult,
    ResolvedAffinity,
    Workload,
    resolve_scheme,
)
from ..machine import MachineSpec
from ..mpi import MpiImplementation
from ..numa import LocalAlloc
from ..osmodel import spread

__all__ = [
    "RUNTIME_CONFIGS",
    "RuntimeConfig",
    "bound_spread_affinity",
    "memo",
    "run",
]


RuntimeConfig = Tuple[str, AffinityScheme, str]

#: the six LAM/NUMA runtime configurations of Figures 8-13
RUNTIME_CONFIGS: List[RuntimeConfig] = [
    ("Default", AffinityScheme.DEFAULT, "sysv"),
    ("LocalAlloc", AffinityScheme.TWO_MPI_LOCAL, "sysv"),
    ("Interleave", AffinityScheme.INTERLEAVE, "sysv"),
    ("SysV", AffinityScheme.DEFAULT, "sysv"),
    ("USysV", AffinityScheme.DEFAULT, "usysv"),
    ("LocalAlloc+USysV", AffinityScheme.TWO_MPI_LOCAL, "usysv"),
]


def bound_spread_affinity(spec: MachineSpec, ntasks: int) -> ResolvedAffinity:
    """Bound one-core-per-socket-first placement with local pages.

    The lmbench STREAM and BLAS scaling figures activate the first core
    of each socket before any second core; this builds that affinity
    directly (it is the Default scheme minus scheduler noise).
    """
    placement = spread(spec, ntasks, bound=True)
    return ResolvedAffinity(
        scheme=AffinityScheme.DEFAULT,
        spec=spec,
        placement=placement,
        policies=tuple(LocalAlloc() for _ in range(ntasks)),
        numactl=resolve_scheme(AffinityScheme.DEFAULT, spec, ntasks).numactl,
    )


def run(spec: MachineSpec, workload: Workload,
        scheme: AffinityScheme = AffinityScheme.DEFAULT,
        impl: Optional[MpiImplementation] = None,
        lock: Optional[str] = None,
        affinity: Optional[ResolvedAffinity] = None,
        parked: int = 0) -> JobResult:
    """Run one configuration through the process-wide service session.

    Served from the content-addressed result cache when an identical
    cell already ran, coalesced when the service is simulating one.
    """
    from ..service.api import RunRequest
    from ..service.session import default_session

    request = RunRequest(system=spec, workload=workload, scheme=scheme,
                         affinity=affinity, impl=impl, lock=lock,
                         parked=parked)
    return default_session().run(request).require()


def memo(key: Tuple, factory: Callable[[], JobResult]) -> JobResult:
    """Memoize a run under an explicit hashable key (session-scoped)."""
    from ..service.session import default_session

    return default_session().memo(key, factory)
