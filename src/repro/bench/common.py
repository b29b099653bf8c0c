"""Shared plumbing for the table/figure generators.

The HPCC figures vary a *runtime configuration*: a NUMA placement
scheme combined with a LAM locking sub-layer.  LAM 7.7.1's default
sub-layer is the System V semaphore device (the paper attributes the
default curves' high latencies to "the high cost of the Linux
implementation of the SystemV semaphore"), so the six Figure 8
configurations resolve as below.

:func:`run` routes every cell through ``default_session().run(...)``,
so a cell is looked up by its content address alone.  Several tables
are different projections of the same sweep — Tables 13/14 share POP
runs, Tables 7/9 share JAC runs — and pytest-benchmark repeats calls:
the session's outcome table answers every repeat without simulating
again, and the content-addressed :mod:`result cache <repro.core.cache>`
behind it persists results to disk so bench reruns skip recomputation
entirely.  Bench traffic shares that table, the cache and one set of
service counters with served traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core import (
    AffinityScheme,
    JobRequest,
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
    "Row",
    "RuntimeConfig",
    "bound_spread_affinity",
    "run",
    "run_cell",
    "target_requests",
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

    Answered from the session's outcome table or the content-addressed
    result cache when an identical cell already ran, coalesced when the
    service is simulating one.
    """
    return run_cell(JobRequest(spec, workload, scheme=scheme,
                               affinity=affinity, impl=impl, lock=lock,
                               parked=parked))


def run_cell(cell: JobRequest) -> JobResult:
    """:func:`run` for a cell a ``requests`` enumerator also lists."""
    from ..service.session import default_session

    return default_session().run(cell).require()


#: one table row's label and the cells it reads
Row = Tuple[object, Tuple[JobRequest, ...]]


def target_requests(rows: Dict[str, Callable[[], List[Row]]],
                    targets: Optional[Iterable[str]]) -> List[JobRequest]:
    """The cells of every target in ``rows`` that ``targets`` names
    (all of them for ``None``; names not in ``rows`` are ignored)."""
    wanted = None if targets is None else set(targets)
    return [cell for name, enumerate_rows in rows.items()
            if wanted is None or name in wanted
            for _label, cells in enumerate_rows() for cell in cells]
