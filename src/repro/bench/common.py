"""Shared plumbing for the table/figure generators.

The HPCC figures vary a *runtime configuration*: a NUMA placement
scheme combined with a LAM locking sub-layer.  LAM 7.7.1's default
sub-layer is the System V semaphore device (the paper attributes the
default curves' high latencies to "the high cost of the Linux
implementation of the SystemV semaphore"), so the six Figure 8
configurations resolve as below.

Every simulated target declares its cells once, as the rows of a
:class:`Sweep`.  Its module's ``requests`` enumerator lists them for
``repro-bench``'s prefetch, and the target's builder renders from
:func:`read` of the same instances, so each cell is filled in and keyed
once per process.  Several tables project the same sweep — Tables 13/14
share POP runs, Tables 7/9 JAC runs — and pytest-benchmark repeats
calls: :func:`read` asks ``default_session()`` for a target's outcomes
in one batch, its outcome table answers every repeat without simulating
again, and the content-addressed :mod:`result cache <repro.core.cache>`
behind it persists results to disk so bench reruns skip recomputation
entirely.  Bench traffic shares that table, the cache and one set of
service counters with served traffic.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import cycle
from typing import (Callable, Collection, Iterable, List, Optional,
                    Sequence, Tuple)

from ..core import (
    AffinityScheme,
    JobRequest,
    JobResult,
    ResolvedAffinity,
    Workload,
    resolve_scheme,
)
from ..errors import JobFailedError
from ..machine import MachineSpec
from ..mpi import MpiImplementation
from ..numa import LocalAlloc
from ..osmodel import spread

__all__ = [
    "RUNTIME_CONFIGS",
    "Row",
    "RuntimeConfig",
    "Sweep",
    "bound_spread_affinity",
    "read",
    "run",
    "sweep",
    "sweep_cells",
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
    from ..service.session import default_session

    return default_session().run(JobRequest(
        spec, workload, scheme=scheme, affinity=affinity, impl=impl,
        lock=lock, parked=parked)).require()


#: one row of a target: its label and the cells it reads
Row = Tuple[object, Tuple[JobRequest, ...]]


class Sweep:
    """Rows some targets read: ``build(*args)``, memoized per process so
    the prefetch and every builder hold (and key) the same instances.

    ``readers`` names the targets that read its cells; ``columns``,
    given instead, names them per position in a row.
    """

    def __init__(self, build: Callable[..., List[Row]], *args,
                 readers: Tuple[str, ...] = (),
                 columns: Tuple[Tuple[str, ...], ...] = ()):
        self.columns = columns or (readers,)
        self.rows = cache(partial(build, *args))

    def __call__(self) -> List[Row]:
        return self.rows()


def sweep(*readers: str) -> Callable[[Callable[[], List[Row]]], Sweep]:
    """Decorate a row builder into the :class:`Sweep` ``readers`` read."""
    return lambda build: Sweep(build, readers=readers)


def sweep_cells(sweeps: Iterable[Sweep],
                targets: Optional[Collection[str]]) -> List[JobRequest]:
    """The cells of ``sweeps`` that ``targets`` read, in sweep order
    (every cell for ``None``; names no sweep lists are ignored)."""
    targets = None if targets is None else set(targets)
    cells: List[JobRequest] = []
    for grid in sweeps:
        wanted = [targets is None or not targets.isdisjoint(names)
                  for names in grid.columns]
        if not any(wanted):
            continue
        for _label, row in grid():
            cells.extend(cell for cell, want in zip(row, cycle(wanted))
                         if want)
    return cells


def _result(outcome) -> Optional[JobResult]:
    status, payload = outcome
    if status == "failed":
        raise JobFailedError(payload.message, kind=payload.kind,
                             key=payload.key)
    return payload if status == "ok" else None


def read(rows: Sequence[Row]) -> List[Tuple[object, Tuple[JobRequest, ...],
                                            Tuple[Optional[JobResult], ...]]]:
    """Each row's label, cells and their results, ``None`` for an
    infeasible dash; a failed cell raises its
    :class:`~repro.errors.JobFailedError`.

    One batch read of the default session: the cells a prefetch settled
    are answered from its outcome table, the rest run as one flight.
    """
    from ..service.session import default_session

    got = iter(default_session().outcomes(
        [cell for _label, cells in rows for cell in cells]))
    return [(label, cells, tuple(_result(next(got)) for _cell in cells))
            for label, cells in rows]
