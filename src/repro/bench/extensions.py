"""Extension benches: characterizations beyond the paper's tables.

These targets apply the paper's methodology to systems it did not
measure: the full NPB kernel spectrum (EP/MG alongside CG/FT), and the
hybrid MPI+OpenMP scaling curve its conclusion only conjectures about.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..core import (
    ALL_SCHEMES,
    AffinityScheme,
    InfeasibleSchemeError,
    JobRequest,
    TableResult,
)
from ..machine import longs
from ..workloads import NasCG, NasEP, NasFT, NasMG
from ..workloads.hybrid import HybridNasCG, hybrid_affinity
from .common import Row, run_cell, target_requests

__all__ = ["ext_npb_spectrum", "ext_hybrid_scaling", "requests"]


def _npb_rows() -> List[Row]:
    spec = longs()
    return [(name, tuple(JobRequest(spec, factory(), scheme)
                         for scheme in ALL_SCHEMES))
            for name, factory in (("EP", lambda: NasEP(8)),
                                  ("MG", lambda: NasMG(8)),
                                  ("FT", lambda: NasFT(8)),
                                  ("CG", lambda: NasCG(8)))]


def ext_npb_spectrum() -> TableResult:
    """All four NPB kernels x the six schemes at 8 tasks on Longs.

    One table that spans the suite's characterization spectrum: EP
    (compute-pure control), MG (mixed bandwidth/latency), FT
    (bandwidth-heavy transpose), CG (latency-sensitive irregular).
    """
    table = TableResult(
        title="extension: NPB spectrum x numactl at 8 tasks (Longs, seconds)",
        headers=["Kernel"] + [str(s) for s in ALL_SCHEMES],
    )
    for name, cells in _npb_rows():
        row: List = [name]
        for cell in cells:
            try:
                row.append(run_cell(cell).wall_time)
            except InfeasibleSchemeError:
                row.append(None)
        table.add_row(*row)
    table.notes.append("placement sensitivity grows with memory/latency "
                       "dependence: EP flat, MG moderate, CG extreme")
    return table


def _hybrid_rows() -> List[Row]:
    spec = longs()
    return [(sockets, (
        JobRequest(spec, NasCG(2 * sockets), AffinityScheme.TWO_MPI_LOCAL),
        JobRequest(spec, HybridNasCG(sockets, 2),
                   affinity=hybrid_affinity(spec, sockets, 2))))
        for sockets in (2, 4, 8)]


def ext_hybrid_scaling() -> TableResult:
    """Pure MPI vs hybrid across socket counts on Longs.

    Extends the single-point `abl_hybrid` comparison into a scaling
    curve: at every socket count the hybrid variant uses the same cores
    with half the ranks and a 2-thread team each.

    The hybrid cells go through the result cache and take the
    session's tier like every other cell, so a warm run simulates
    nothing.
    """
    table = TableResult(
        title="extension: pure MPI vs hybrid MPI+OpenMP scaling (Longs, CG)",
        headers=["sockets", "cores", "pure MPI (s)", "hybrid (s)",
                 "hybrid msgs / pure msgs"],
    )
    for sockets, (pure_cell, hybrid_cell) in _hybrid_rows():
        pure, hybrid = run_cell(pure_cell), run_cell(hybrid_cell)
        table.add_row(sockets, 2 * sockets, pure.wall_time, hybrid.wall_time,
                      hybrid.messages / max(1, pure.messages))
    table.notes.append("the hybrid model eliminates intra-socket MPI "
                       "(Section 3.4's three communication classes)")
    return table


#: each `repro-bench` extension target's rows
_ROWS: Dict[str, Callable[[], List[Row]]] = {
    "ext_npb": _npb_rows,
    "ext_hybrid": _hybrid_rows,
}


def requests(targets: Optional[Iterable[str]] = None) -> List[JobRequest]:
    """Every simulated cell behind the extension tables.

    Scoped like :func:`repro.bench.ablations.requests`: ``targets``
    limits the list to the extensions it names (``ext_npb``,
    ``ext_hybrid``); other names in it are ignored.
    """
    return target_requests(_ROWS, targets)
