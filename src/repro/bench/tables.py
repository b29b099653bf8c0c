"""Generators for every table of the paper (Tables 1–14).

Tables 1, 5 and 6 are configuration data; the rest are simulated
sweeps.  Each sweep is declared once in :data:`_SWEEPS`, and the tables
that project different columns out of the same runs (Tables 2/3 and 4,
7/9, 11 and 10, 13/14 and 12) read the same cell instances.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..apps.md.amber import BENCHMARK_TABLE, AmberSander
from ..apps.md.lammps import LammpsBench
from ..apps.pop import Pop
from ..core import (
    ALL_SCHEMES,
    SCHEME_TABLE,
    JobRequest,
    TableResult,
    parallel_efficiency,
)
from ..machine import SYSTEM_TABLE, MachineSpec, dmz, longs, tiger
from ..workloads import NasCG, NasFT
from .common import Row, Sweep, read, sweep_cells

__all__ = [
    "table01", "table02", "table03", "table04", "table05", "table06",
    "table07", "table08", "table09", "table10", "table11", "table12",
    "table13", "table14", "sweep_requests",
]

_NAS = (("CG", NasCG), ("FFT", NasFT))
_AMBER = tuple((name, partial(AmberSander, name))
               for name in ("dhfr", "factor_ix", "gb_cox2", "gb_mb", "jac"))
_LAMMPS = tuple((pot, partial(LammpsBench, pot))
                for pot in ("lj", "chain", "eam"))
_POP = (("POP", Pop),)


def _scheme_rows(system: Callable[[], MachineSpec], counts: Sequence[int],
                 kernels) -> List[Row]:
    """One ``(task count, kernel)`` row per kernel and task count: its
    cell under every scheme, in the paper's column order."""
    spec = system()
    return [((n, name), tuple(JobRequest(spec, workload, scheme=scheme)
                              for scheme in ALL_SCHEMES))
            for name, factory in kernels for n in counts
            for workload in (factory(n),)]


def _scaling_rows(system: Callable[[], MachineSpec], counts: Sequence[int],
                  kernels, shared: Optional[Sweep]) -> List[Row]:
    """One row per kernel: its 1-task cell, then one Default-scheme cell
    per task count the system has cores for, the ``shared`` scheme
    sweep's instance where it lists the cell."""
    spec = system()
    default = {label: cells[0] for label, cells in shared()} if shared else {}
    return [(name, (JobRequest(spec, factory(1)),) + tuple(
        default.get((n, name)) or JobRequest(spec, factory(n))
        for n in counts if n <= spec.total_cores))
        for name, factory in kernels]


#: every simulated sweep behind Tables 2-4 and 7-14 by (kind, system),
#: in the order the prefetch lists their cells
_SWEEPS: Dict[Tuple[str, Callable[[], MachineSpec]], Sweep] = {}


def _scaling(kind: str, system, counts, kernels, shared: str,
             table: str) -> None:
    _SWEEPS[kind, system] = Sweep(_scaling_rows, system, counts, kernels,
                                  _SWEEPS.get((shared, system)),
                                  readers=(table,))


for _system, _counts, _nas in ((longs, (2, 4, 8, 16), "tab02"),
                               (dmz, (2, 4), "tab03")):
    for _kind, _kernels, _readers in (
            ("nas", _NAS, (_nas,)), ("jac", _AMBER[-1:], ("tab07", "tab09")),
            ("lj", _LAMMPS[:1], ("tab11",)),
            ("pop", _POP, ("tab13", "tab14"))):
        _SWEEPS[_kind, _system] = Sweep(_scheme_rows, _system, _counts,
                                        _kernels, readers=_readers)
for _system in (tiger, dmz, longs):
    _scaling("nas-scaling", _system, (2, 4, 8, 16), _NAS, "nas", "tab04")
for _system, _counts in ((dmz, (2, 4)), (longs, (2, 4, 8, 16))):
    _scaling("amber-scaling", _system, _counts, _AMBER, "jac", "tab08")
for _system, _counts in ((dmz, (2, 4)), (longs, (2, 4, 8, 16)),
                         (tiger, (2,))):
    _scaling("lammps-scaling", _system, _counts, _LAMMPS, "lj", "tab10")
    _scaling("pop-scaling", _system, _counts, _POP, "pop", "tab12")


def sweep_requests(targets: Optional[Iterable[str]] = None
                   ) -> List[JobRequest]:
    """Every simulated cell behind the numeric tables (2-4, 7-14).

    The cells are independent, so callers (`repro-bench --jobs`, the
    fidelity join) prefetch them through the parallel sweep executor;
    the table generators below then read the same instances from the
    session's outcome table.  Infeasible combinations are included —
    the executor resolves them to the tables' dashes.  Duplicates
    (tables sharing runs) cost nothing: the session dedupes by content
    address.
    ``targets`` limits the list to the tables it names (``tab02``,
    ...); other names in it are ignored.
    """
    return sweep_cells(_SWEEPS.values(), targets)


def _read(kind: str, systems: Sequence[Callable[[], MachineSpec]]):
    """Each system's rows of one sweep kind with their results, read
    as one batch."""
    sweeps = [_SWEEPS[kind, system]() for system in systems]
    got = iter(read([row for rows in sweeps for row in rows]))
    return [[next(got) for _row in rows] for rows in sweeps]


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

def _numactl_table(title: str, kind: str,
                   systems: Sequence[Callable[[], MachineSpec]],
                   column: str = "System", value=lambda r: r.wall_time,
                   note: Optional[str] = None) -> TableResult:
    """A task count x scheme table; ``column`` names each row by the
    ``Kernel`` or by the ``System`` it ran on."""
    table = TableResult(
        title=title,
        headers=["MPI tasks", column] + [str(s) for s in ALL_SCHEMES],
    )
    for rows in _read(kind, systems):
        for (ntasks, kernel), cells, results in rows:
            name = kernel if column == "Kernel" else cells[0].spec.name
            table.add_row(ntasks, name, *[
                None if result is None else value(result)
                for result in results])
    if note:
        table.notes.append(note)
    return table


def table02() -> TableResult:
    """Table 2: NAS CG/FT x numactl options on Longs."""
    return _numactl_table(
        "Table 2: Effect of numactl options on NAS CG and FT (Longs)",
        "nas", (longs,), column="Kernel",
        note="Times listed in seconds.")


def table03() -> TableResult:
    """Table 3: NAS CG/FT x numactl options on DMZ."""
    return _numactl_table(
        "Table 3: Impact of numactl options on NAS CG and FT (DMZ)",
        "nas", (dmz,), column="Kernel",
        note="Times listed in seconds.")


def table04() -> TableResult:
    """Table 4: NAS multi-core speedup (parallel efficiency)."""
    table = TableResult(
        title="Table 4: Multi-core speedup for NAS benchmarks "
              "(parallel efficiency, t1/(n*tn))",
        headers=["Benchmark", "System", "2 cores", "4 cores",
                 "8 cores", "16 cores"],
    )
    systems = _read("nas-scaling", (tiger, dmz, longs))
    for kernel, kernel_name in enumerate(("CG", "FT")):
        for rows in systems:
            _name, cells, (base, *results) = rows[kernel]
            by_tasks = {cell.workload.ntasks: result
                        for cell, result in zip(cells[1:], results)}
            row: List = [kernel_name, cells[0].spec.name]
            for n in (2, 4, 8, 16):
                result = by_tasks.get(n)
                row.append(None if result is None else parallel_efficiency(
                    base.wall_time, result.wall_time, n))
            table.add_row(*row)
    table.notes.append("values above 1.0 indicate superlinear scaling")
    return table


def _speedup_table(title: str, kind: str,
                   systems: Sequence[Callable[[], MachineSpec]],
                   columns: List[str]) -> TableResult:
    """Each kernel's 1-task time over its n-task time, one row per
    system and task count."""
    table = TableResult(title=title,
                        headers=["Number of cores", "System"] + columns)
    for rows in _read(kind, systems):
        _name, cells, _results = rows[0]
        for i, cell in enumerate(cells[1:], start=1):
            table.add_row(cell.workload.ntasks, cell.spec.name, *[
                results[0].wall_time / results[i].wall_time
                for _name, _cells, results in rows])
    return table


# -- AMBER ----------------------------------------------------------------------

def table07() -> TableResult:
    """Table 7: FFT phase time in the JAC benchmark x numactl options."""
    return _numactl_table(
        "Table 7: FFT performance in the JAC benchmark (seconds)", "jac",
        (longs, dmz), value=lambda r: r.phase_time("fft"))


def table09() -> TableResult:
    """Table 9: overall JAC runtime x numactl options."""
    return _numactl_table(
        "Table 9: Overall performance of the JAC benchmark (seconds)", "jac",
        (longs, dmz))


def table08() -> TableResult:
    """Table 8: AMBER multi-core speedup (no numactl)."""
    return _speedup_table(
        "Table 8: AMBER multi-core speedup with no numactl option",
        "amber-scaling", (dmz, longs), [name for name, _f in _AMBER])


# -- LAMMPS ---------------------------------------------------------------------

def table10() -> TableResult:
    """Table 10: LAMMPS multi-core speedup (no numactl)."""
    return _speedup_table(
        "Table 10: LAMMPS multi-core speedup (no numactl)",
        "lammps-scaling", (dmz, longs, tiger), ["LJ", "Chain", "EAM"])


def table11() -> TableResult:
    """Table 11: LAMMPS LJ x numactl options."""
    return _numactl_table(
        "Table 11: LAMMPS LJ benchmark x numactl options (seconds)", "lj",
        (longs, dmz))


# -- POP ------------------------------------------------------------------------

def table12() -> TableResult:
    """Table 12: POP multi-core speedup (baroclinic / barotropic)."""
    table = TableResult(
        title="Table 12: POP multi-core speedup",
        headers=["Number of cores", "System", "Baroclinic", "Barotropic"],
    )
    for [(_name, cells, (base, *results))] in _read(
            "pop-scaling", (dmz, tiger, longs)):
        for cell, result in zip(cells[1:], results):
            table.add_row(
                cell.workload.ntasks, cell.spec.name,
                base.phase_time("baroclinic") / result.phase_time("baroclinic"),
                base.phase_time("barotropic") / result.phase_time("barotropic"),
            )
    return table


def table13() -> TableResult:
    """Table 13: POP baroclinic execution time x numactl options."""
    return _numactl_table(
        "Table 13: Impact of numactl on POP baroclinic time (seconds)", "pop",
        (longs, dmz), value=lambda r: r.phase_time("baroclinic"))


def table14() -> TableResult:
    """Table 14: POP barotropic execution time x numactl options."""
    return _numactl_table(
        "Table 14: Impact of numactl on POP barotropic time (seconds)", "pop",
        (longs, dmz), value=lambda r: r.phase_time("barotropic"))
