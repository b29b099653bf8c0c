"""Ablation studies over the model's calibrated design choices.

DESIGN.md commits to a handful of first-order mechanisms: the
coherence-probe derating, the HyperTransport topology, the lock-layer
cost, shared-memory fragmentation, and (as the paper's proposed
future direction) hybrid MPI+OpenMP.  Each ablation sweeps one
mechanism while holding the rest fixed, quantifying how much of the
reproduced behaviour that mechanism carries.

Each ablation's rows are one :class:`~repro.bench.common.Sweep`, keyed
on the *hypothetical* spec itself, so a what-if parameter change can
never replay a stale result.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core import AffinityScheme, JobRequest, TableResult
from ..machine import GB, longs
from ..machine.topology import build_socket_graph
from ..machine.whatif import hypothetical
from ..mpi import LAM
from ..workloads import HpccPtrans, HpccRandomAccess, NasCG, NasFT, StreamTriad, triad_bytes_moved
from ..workloads.hybrid import HybridNasCG, HybridNasFT, hybrid_affinity
from .common import Row, bound_spread_affinity, read, sweep, sweep_cells

__all__ = [
    "ablation_probe_cost",
    "ablation_topology",
    "ablation_lock_cost",
    "ablation_fragmentation",
    "ablation_hybrid",
    "requests",
]


@sweep("abl_probe_cost")
def _probe_cost_rows() -> List[Row]:
    rows: List[Row] = []
    for cost in (0.0, 0.05, 0.175, 0.30):
        spec = hypothetical(f"ladder8-p{cost}", sockets=8,
                            coherence_probe_cost=cost)
        rows.append((cost, (
            JobRequest(spec, StreamTriad(1),
                       affinity=bound_spread_affinity(spec, 1)),
            JobRequest(spec, NasCG(8), AffinityScheme.ONE_MPI_LOCAL))))
    return rows


def ablation_probe_cost() -> TableResult:
    """Coherence-probe cost vs. single-core bandwidth and CG time.

    probe cost 0 is the paper's hoped-for "future Opteron"; 0.175 is
    the calibrated Longs value.
    """
    table = TableResult(
        title="ablation: coherence-probe cost (8-socket ladder)",
        headers=["probe cost", "1-core STREAM (GB/s)", "NAS CG 8 tasks (s)"],
    )
    for cost, (stream, _cg), (result, cg) in read(_probe_cost_rows()):
        bandwidth = (triad_bytes_moved(stream.workload)
                     / result.phase_time("triad") / GB)
        table.add_row(cost, bandwidth, cg.wall_time)
    table.notes.append("probe cost drives both the bandwidth collapse and "
                       "the CG slowdown on 8 sockets (DESIGN.md)")
    return table


@sweep("abl_topology")
def _topology_rows() -> List[Row]:
    rows: List[Row] = []
    for topology in ("ladder", "ring", "crossbar"):
        spec = hypothetical(f"longs-{topology}", sockets=8,
                            topology=topology,
                            coherence_probe_cost=0.175)
        rows.append((topology, (
            JobRequest(spec, NasFT(16), AffinityScheme.INTERLEAVE),
            JobRequest(spec, NasCG(16), AffinityScheme.INTERLEAVE))))
    return rows


def ablation_topology() -> TableResult:
    """Ladder vs ring vs crossbar for the 8-socket system.

    Topology only matters once traffic goes remote, so the sweep runs
    the kernels under ``--interleave=all`` (7/8 of every rank's traffic
    crosses the fabric).
    """
    table = TableResult(
        title="ablation: 8-socket interconnect topology (interleaved pages)",
        headers=["topology", "max hops", "NAS FT 16 tasks (s)",
                 "NAS CG 16 tasks (s)"],
    )
    for topology, (cell, _cg), (ft, cg) in read(_topology_rows()):
        hops = build_socket_graph(cell.spec).diameter
        table.add_row(topology, hops, ft.wall_time, cg.wall_time)
    table.notes.append("a crossbar removes multi-hop remote penalties; the "
                       "ladder is the paper's Figure 1")
    return table


@sweep("abl_lock_cost")
def _lock_cost_rows() -> List[Row]:
    spec = longs()
    return [(lock, (JobRequest(spec, HpccRandomAccess(16, mode="mpi"),
                               AffinityScheme.TWO_MPI_LOCAL, impl=LAM,
                               lock=lock),))
            for lock in ("usysv", "pthread", "sysv")]


def ablation_lock_cost() -> TableResult:
    """MPI RandomAccess throughput vs. the queue-lock cost."""
    table = TableResult(
        title="ablation: lock-layer cost vs MPI RandomAccess (Longs)",
        headers=["lock layer", "lock cost (us)", "MPI RA (MUP/s)"],
    )
    for lock, (cell,), (result,) in read(_lock_cost_rows()):
        params = cell.spec.params
        cost = {"usysv": params.usysv_lock_cost,
                "pthread": params.pthread_lock_cost,
                "sysv": params.sysv_lock_cost}[lock]
        total = result.phase_time("ra") + result.phase_time("ra-exchange")
        table.add_row(lock, cost * 1e6, cell.workload.updates / total / 1e6)
    return table


@sweep("abl_fragmentation")
def _fragmentation_rows() -> List[Row]:
    rows: List[Row] = []
    for frag_kb in (16, 64, 256, 1024):
        spec = hypothetical(
            "longs-frag", sockets=8, topology="ladder",
            coherence_probe_cost=0.175,
            params=longs().params.with_overrides(
                shm_fragment_bytes=frag_kb * 1024.0),
        )
        rows.append((frag_kb, (JobRequest(
            spec, HpccPtrans(16), AffinityScheme.TWO_MPI_LOCAL, impl=LAM,
            lock="sysv"),)))
    return rows


def ablation_fragmentation() -> TableResult:
    """PTRANS bandwidth vs. shared-memory fragment size under SysV."""
    table = TableResult(
        title="ablation: shm fragment size vs PTRANS under SysV (Longs)",
        headers=["fragment (KB)", "PTRANS (GB/s)"],
    )
    for frag_kb, (cell,), (result,) in read(_fragmentation_rows()):
        exchange = result.phase_time("exchange")
        table.add_row(frag_kb, 8.0 * cell.workload.n ** 2 / exchange / GB)
    table.notes.append("smaller fragments pay the SysV semaphore more often "
                       "(the Figure 12 mechanism)")
    return table


@sweep("abl_hybrid")
def _hybrid_rows() -> List[Row]:
    spec = longs()
    affinity = hybrid_affinity(spec, 8, 2)
    return [(name, (JobRequest(spec, pure, AffinityScheme.TWO_MPI_LOCAL),
                    JobRequest(spec, hybrid, affinity=affinity)))
            for name, pure, hybrid in (
                ("CG", NasCG(16), HybridNasCG(8, 2)),
                ("FT", NasFT(16), HybridNasFT(8, 2)))]


def ablation_hybrid() -> TableResult:
    """Pure MPI (2 ranks/socket) vs hybrid MPI+OpenMP (1 rank x 2 threads).

    The paper's Section 3.4 proposal: exploit the three communication
    classes by keeping MPI off the intra-socket links.
    """
    table = TableResult(
        title="ablation: pure MPI vs hybrid MPI+OpenMP on Longs (16 cores)",
        headers=["Kernel", "pure MPI 16 ranks (s)", "hybrid 8x2 (s)",
                 "messages pure", "messages hybrid"],
    )
    for name, _cells, (pure, hybrid) in read(_hybrid_rows()):
        table.add_row(name, pure.wall_time, hybrid.wall_time,
                      pure.messages, hybrid.messages)
    table.notes.append("hybrid quarters the message count; wall-time parity "
                       "or better confirms the paper's proposal")
    return table


#: each `repro-bench` ablation target's sweep
_SWEEPS = (_probe_cost_rows, _topology_rows, _lock_cost_rows,
           _fragmentation_rows, _hybrid_rows)


def requests(targets: Optional[Iterable[str]] = None) -> List[JobRequest]:
    """Every simulated cell behind the ablation tables.

    The tables above read exactly these cells, so a prefetch of this
    list answers them all.  ``targets`` limits the list to the
    ablations it names (``abl_topology``, ...); other names in it are
    ignored.
    """
    return sweep_cells(_SWEEPS, targets)
