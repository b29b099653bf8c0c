"""Generators for every table of the paper (Tables 1–14).

Tables 1, 5 and 6 are configuration data; the rest are simulated
sweeps.  Functions that project different columns out of the same runs
(Tables 2/3, 7/9, 13/14) share results through the session's outcome
table: each cell is looked up by its content address.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..apps.md.amber import BENCHMARK_TABLE, AmberSander
from ..apps.md.lammps import LammpsBench
from ..apps.pop import Pop
from ..core import (
    ALL_SCHEMES,
    SCHEME_TABLE,
    AffinityScheme,
    InfeasibleSchemeError,
    JobRequest,
    JobResult,
    TableResult,
    parallel_efficiency,
)
from ..machine import SYSTEM_TABLE, MachineSpec, all_systems, dmz, longs, tiger
from ..workloads import NasCG, NasFT
from .common import run

__all__ = [
    "table01", "table02", "table03", "table04", "table05", "table06",
    "table07", "table08", "table09", "table10", "table11", "table12",
    "table13", "table14", "sweep_requests",
]


def sweep_requests(targets: Optional[Iterable[str]] = None
                   ) -> List[JobRequest]:
    """Every simulated cell behind the numeric tables (2-4, 7-14).

    The cells are independent, so callers (`repro-bench --jobs`, the
    fidelity join) prefetch them through the parallel sweep executor;
    the table generators below then assemble their rows from the
    session's outcome table.  Infeasible combinations are included —
    the executor resolves them to the tables' dashes.  Duplicates
    (tables sharing runs) cost nothing: the session dedupes by content
    address.
    ``targets`` limits the list to the tables it names (``tab02``,
    ...); other names in it are ignored.
    """
    wanted = None if targets is None else set(targets)

    def want(*tables: str) -> bool:
        return wanted is None or not wanted.isdisjoint(tables)

    requests: List[JobRequest] = []

    def sweep(spec, factory, counts):
        for n in counts:
            workload = factory(n)
            requests.extend(
                JobRequest(spec, workload, scheme=s) for s in ALL_SCHEMES)

    def scaling(spec, factory, counts):
        requests.append(JobRequest(spec, factory(1)))
        requests.extend(JobRequest(spec, factory(n))
                        for n in counts if n <= spec.total_cores)

    spec_l, spec_d, spec_t = longs(), dmz(), tiger()
    for spec, counts, nas in ((spec_l, (2, 4, 8, 16), "tab02"),
                              (spec_d, (2, 4), "tab03")):
        # Tables 2/3 (NAS x schemes), 7/9 (JAC), 11 (LAMMPS LJ), 13/14 (POP)
        if want(nas):
            sweep(spec, NasCG, counts)
            sweep(spec, NasFT, counts)
        if want("tab07", "tab09"):
            sweep(spec, lambda n: AmberSander("jac", n), counts)
        if want("tab11"):
            sweep(spec, lambda n: LammpsBench("lj", n), counts)
        if want("tab13", "tab14"):
            sweep(spec, Pop, counts)
    if want("tab04"):
        for spec in all_systems():
            # Table 4 (NAS speedup)
            scaling(spec, NasCG, (2, 4, 8, 16))
            scaling(spec, NasFT, (2, 4, 8, 16))
    if want("tab08"):
        for spec, counts in ((spec_d, (2, 4)), (spec_l, (2, 4, 8, 16))):
            # Table 8 (AMBER speedup)
            for name in ("dhfr", "factor_ix", "gb_cox2", "gb_mb", "jac"):
                scaling(spec, lambda n, b=name: AmberSander(b, n), counts)
    for spec, counts in ((spec_d, (2, 4)), (spec_l, (2, 4, 8, 16)),
                         (spec_t, (2,))):
        # Tables 10 (LAMMPS speedup) and 12 (POP speedup)
        if want("tab10"):
            for pot in ("lj", "chain", "eam"):
                scaling(spec, lambda n, p=pot: LammpsBench(p, n), counts)
        if want("tab12"):
            scaling(spec, Pop, counts)
    return requests


def _data_table(title: str, rows: List[dict]) -> TableResult:
    headers = list(rows[0].keys())
    table = TableResult(title=title, headers=headers)
    for row in rows:
        table.add_row(*[row[h] for h in headers])
    return table


def table01() -> TableResult:
    """Table 1: system configurations (data)."""
    return _data_table("Table 1: System Configurations", SYSTEM_TABLE)


def table05() -> TableResult:
    """Table 5: numactl options used for experiments (data)."""
    return _data_table("Table 5: numactl options used for experiments",
                       SCHEME_TABLE)


def table06() -> TableResult:
    """Table 6: description of AMBER benchmarks (data)."""
    return _data_table("Table 6: Description of AMBER benchmarks",
                       BENCHMARK_TABLE)


# -- scheme sweeps -----------------------------------------------------------

def _sweep_cell(spec: MachineSpec, factory: Callable[[], object],
                scheme: AffinityScheme) -> Optional[JobResult]:
    """One (workload, scheme) cell; None when infeasible.

    Only :class:`InfeasibleSchemeError` becomes a dash — any other
    exception is a genuine bug and propagates.
    """
    try:
        return run(spec, factory(), scheme)
    except InfeasibleSchemeError:
        return None


def _numactl_table(title: str, spec: MachineSpec, task_counts: Sequence[int],
                   kernels: Sequence[Tuple[str, Callable[[int], object]]],
                   value=lambda r: r.wall_time,
                   note: str = "Times listed in seconds.") -> TableResult:
    table = TableResult(
        title=title,
        headers=["MPI tasks", "Kernel"] + [str(s) for s in ALL_SCHEMES],
    )
    for kernel_name, factory in kernels:
        for ntasks in task_counts:
            row: List = [ntasks, kernel_name]
            for scheme in ALL_SCHEMES:
                result = _sweep_cell(spec, lambda n=ntasks: factory(n),
                                     scheme)
                row.append(None if result is None else value(result))
            table.add_row(*row)
    if note:
        table.notes.append(note)
    return table


def table02() -> TableResult:
    """Table 2: NAS CG/FT x numactl options on Longs."""
    return _numactl_table(
        "Table 2: Effect of numactl options on NAS CG and FT (Longs)",
        longs(), (2, 4, 8, 16),
        [("CG", lambda n: NasCG(n)), ("FFT", lambda n: NasFT(n))],
    )


def table03() -> TableResult:
    """Table 3: NAS CG/FT x numactl options on DMZ."""
    return _numactl_table(
        "Table 3: Impact of numactl options on NAS CG and FT (DMZ)",
        dmz(), (2, 4),
        [("CG", lambda n: NasCG(n)), ("FFT", lambda n: NasFT(n))],
    )


def table04() -> TableResult:
    """Table 4: NAS multi-core speedup (parallel efficiency)."""
    table = TableResult(
        title="Table 4: Multi-core speedup for NAS benchmarks "
              "(parallel efficiency, t1/(n*tn))",
        headers=["Benchmark", "System", "2 cores", "4 cores",
                 "8 cores", "16 cores"],
    )
    for kernel_name, factory in (("CG", lambda n: NasCG(n)),
                                 ("FT", lambda n: NasFT(n))):
        for spec in all_systems():
            t1 = run(spec, factory(1)).wall_time
            row: List = [kernel_name, spec.name]
            for n in (2, 4, 8, 16):
                if n > spec.total_cores:
                    row.append(None)
                    continue
                result = _sweep_cell(spec, lambda m=n: factory(m),
                                     AffinityScheme.DEFAULT)
                row.append(parallel_efficiency(t1, result.wall_time, n))
            table.add_row(*row)
    table.notes.append("values above 1.0 indicate superlinear scaling")
    return table


# -- AMBER ----------------------------------------------------------------------

def table07() -> TableResult:
    """Table 7: FFT phase time in the JAC benchmark x numactl options."""
    table = _jac_table(value=lambda r: r.phase_time("fft"),
                       title="Table 7: FFT performance in the JAC benchmark")
    return table


def table09() -> TableResult:
    """Table 9: overall JAC runtime x numactl options."""
    return _jac_table(value=lambda r: r.wall_time,
                      title="Table 9: Overall performance of the JAC benchmark")


def _jac_table(value, title: str) -> TableResult:
    table = TableResult(
        title=f"{title} (seconds)",
        headers=["MPI tasks", "System"] + [str(s) for s in ALL_SCHEMES],
    )
    for spec, counts in ((longs(), (2, 4, 8, 16)), (dmz(), (2, 4))):
        for ntasks in counts:
            row: List = [ntasks, spec.name]
            for scheme in ALL_SCHEMES:
                result = _sweep_cell(spec,
                                     lambda n=ntasks: AmberSander("jac", n),
                                     scheme)
                row.append(None if result is None else value(result))
            table.add_row(*row)
    return table


def table08() -> TableResult:
    """Table 8: AMBER multi-core speedup (no numactl)."""
    names = ["dhfr", "factor_ix", "gb_cox2", "gb_mb", "jac"]
    table = TableResult(
        title="Table 8: AMBER multi-core speedup with no numactl option",
        headers=["Number of cores", "System"] + names,
    )
    for spec, counts in ((dmz(), (2, 4)), (longs(), (2, 4, 8, 16))):
        bases = {name: run(spec, AmberSander(name, 1)).wall_time
                 for name in names}
        for n in counts:
            row: List = [n, spec.name]
            for name in names:
                result = _sweep_cell(spec,
                                     lambda m=n, b=name: AmberSander(b, m),
                                     AffinityScheme.DEFAULT)
                row.append(bases[name] / result.wall_time)
            table.add_row(*row)
    return table


# -- LAMMPS ---------------------------------------------------------------------

def table10() -> TableResult:
    """Table 10: LAMMPS multi-core speedup (no numactl)."""
    table = TableResult(
        title="Table 10: LAMMPS multi-core speedup (no numactl)",
        headers=["Number of cores", "System", "LJ", "Chain", "EAM"],
    )
    for spec, counts in ((dmz(), (2, 4)), (longs(), (2, 4, 8, 16)),
                         (tiger(), (2,))):
        bases = {pot: run(spec, LammpsBench(pot, 1)).wall_time
                 for pot in ("lj", "chain", "eam")}
        for n in counts:
            row: List = [n, spec.name]
            for pot in ("lj", "chain", "eam"):
                result = _sweep_cell(spec,
                                     lambda m=n, p=pot: LammpsBench(p, m),
                                     AffinityScheme.DEFAULT)
                row.append(bases[pot] / result.wall_time)
            table.add_row(*row)
    return table


def table11() -> TableResult:
    """Table 11: LAMMPS LJ x numactl options."""
    table = TableResult(
        title="Table 11: LAMMPS LJ benchmark x numactl options (seconds)",
        headers=["MPI tasks", "System"] + [str(s) for s in ALL_SCHEMES],
    )
    for spec, counts in ((longs(), (2, 4, 8, 16)), (dmz(), (2, 4))):
        for ntasks in counts:
            row: List = [ntasks, spec.name]
            for scheme in ALL_SCHEMES:
                result = _sweep_cell(spec,
                                     lambda n=ntasks: LammpsBench("lj", n),
                                     scheme)
                row.append(None if result is None else result.wall_time)
            table.add_row(*row)
    return table


# -- POP ------------------------------------------------------------------------

def table12() -> TableResult:
    """Table 12: POP multi-core speedup (baroclinic / barotropic)."""
    table = TableResult(
        title="Table 12: POP multi-core speedup",
        headers=["Number of cores", "System", "Baroclinic", "Barotropic"],
    )
    for spec, counts in ((dmz(), (2, 4)), (tiger(), (2,)),
                         (longs(), (2, 4, 8, 16))):
        base = run(spec, Pop(1))
        for n in counts:
            result = _sweep_cell(spec, lambda m=n: Pop(m),
                                 AffinityScheme.DEFAULT)
            table.add_row(
                n, spec.name,
                base.phase_time("baroclinic") / result.phase_time("baroclinic"),
                base.phase_time("barotropic") / result.phase_time("barotropic"),
            )
    return table


def _pop_phase_table(phase: str, title: str) -> TableResult:
    table = TableResult(
        title=title,
        headers=["MPI tasks", "System"] + [str(s) for s in ALL_SCHEMES],
    )
    for spec, counts in ((longs(), (2, 4, 8, 16)), (dmz(), (2, 4))):
        for ntasks in counts:
            row: List = [ntasks, spec.name]
            for scheme in ALL_SCHEMES:
                result = _sweep_cell(spec, lambda n=ntasks: Pop(n), scheme)
                row.append(None if result is None
                           else result.phase_time(phase))
            table.add_row(*row)
    return table


def table13() -> TableResult:
    """Table 13: POP baroclinic execution time x numactl options."""
    return _pop_phase_table(
        "baroclinic",
        "Table 13: Impact of numactl on POP baroclinic time (seconds)")


def table14() -> TableResult:
    """Table 14: POP barotropic execution time x numactl options."""
    return _pop_phase_table(
        "barotropic",
        "Table 14: Impact of numactl on POP barotropic time (seconds)")
