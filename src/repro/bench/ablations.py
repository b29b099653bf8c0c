"""Ablation studies over the model's calibrated design choices.

DESIGN.md commits to a handful of first-order mechanisms: the
coherence-probe derating, the HyperTransport topology, the lock-layer
cost, shared-memory fragmentation, and (as the paper's proposed
future direction) hybrid MPI+OpenMP.  Each ablation sweeps one
mechanism while holding the rest fixed, quantifying how much of the
reproduced behaviour that mechanism carries.

Every cell goes through :func:`repro.bench.common.run`, keyed on the
*hypothetical* spec itself, so a what-if parameter change can never
replay a stale result.
"""

from __future__ import annotations

from ..core import AffinityScheme, TableResult
from ..machine import GB, longs
from ..machine.whatif import hypothetical
from ..mpi import LAM
from ..workloads import HpccPtrans, HpccRandomAccess, NasCG, NasFT, StreamTriad, triad_bytes_moved
from ..workloads.hybrid import HybridNasCG, HybridNasFT, hybrid_affinity
from .common import bound_spread_affinity, run

__all__ = [
    "ablation_probe_cost",
    "ablation_topology",
    "ablation_lock_cost",
    "ablation_fragmentation",
    "ablation_hybrid",
]


def ablation_probe_cost() -> TableResult:
    """Coherence-probe cost vs. single-core bandwidth and CG time.

    probe cost 0 is the paper's hoped-for "future Opteron"; 0.175 is
    the calibrated Longs value.
    """
    table = TableResult(
        title="ablation: coherence-probe cost (8-socket ladder)",
        headers=["probe cost", "1-core STREAM (GB/s)", "NAS CG 8 tasks (s)"],
    )
    for cost in (0.0, 0.05, 0.175, 0.30):
        spec = hypothetical(f"ladder8-p{cost}", sockets=8,
                            coherence_probe_cost=cost)
        stream = StreamTriad(1)
        result = run(spec, stream, affinity=bound_spread_affinity(spec, 1))
        bandwidth = triad_bytes_moved(stream) / result.phase_time("triad") / GB
        cg = run(spec, NasCG(8), AffinityScheme.ONE_MPI_LOCAL)
        table.add_row(cost, bandwidth, cg.wall_time)
    table.notes.append("probe cost drives both the bandwidth collapse and "
                       "the CG slowdown on 8 sockets (DESIGN.md)")
    return table


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
    for topology in ("ladder", "ring", "crossbar"):
        spec = hypothetical(f"longs-{topology}", sockets=8,
                            topology=topology,
                            coherence_probe_cost=0.175)
        from ..machine import Machine

        hops = Machine(spec).net.max_hops()
        ft = run(spec, NasFT(16), AffinityScheme.INTERLEAVE)
        cg = run(spec, NasCG(16), AffinityScheme.INTERLEAVE)
        table.add_row(topology, hops, ft.wall_time, cg.wall_time)
    table.notes.append("a crossbar removes multi-hop remote penalties; the "
                       "ladder is the paper's Figure 1")
    return table


def ablation_lock_cost() -> TableResult:
    """MPI RandomAccess throughput vs. the queue-lock cost."""
    table = TableResult(
        title="ablation: lock-layer cost vs MPI RandomAccess (Longs)",
        headers=["lock layer", "lock cost (us)", "MPI RA (MUP/s)"],
    )
    spec = longs()
    for lock in ("usysv", "pthread", "sysv"):
        cost = {"usysv": spec.params.usysv_lock_cost,
                "pthread": spec.params.pthread_lock_cost,
                "sysv": spec.params.sysv_lock_cost}[lock]
        workload = HpccRandomAccess(16, mode="mpi")
        result = run(spec, workload, AffinityScheme.TWO_MPI_LOCAL, impl=LAM,
                     lock=lock)
        total = result.phase_time("ra") + result.phase_time("ra-exchange")
        table.add_row(lock, cost * 1e6, workload.updates / total / 1e6)
    return table


def ablation_fragmentation() -> TableResult:
    """PTRANS bandwidth vs. shared-memory fragment size under SysV."""
    table = TableResult(
        title="ablation: shm fragment size vs PTRANS under SysV (Longs)",
        headers=["fragment (KB)", "PTRANS (GB/s)"],
    )
    for frag_kb in (16, 64, 256, 1024):
        spec = longs()
        spec = hypothetical(
            "longs-frag", sockets=8, topology="ladder",
            coherence_probe_cost=0.175,
            params=spec.params.with_overrides(
                shm_fragment_bytes=frag_kb * 1024.0),
        )
        workload = HpccPtrans(16)
        result = run(spec, workload, AffinityScheme.TWO_MPI_LOCAL, impl=LAM,
                     lock="sysv")
        bandwidth = 8.0 * workload.n ** 2 / result.phase_time("exchange") / GB
        table.add_row(frag_kb, bandwidth)
    table.notes.append("smaller fragments pay the SysV semaphore more often "
                       "(the Figure 12 mechanism)")
    return table


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
    spec = longs()
    cases = [
        ("CG", lambda: NasCG(16), lambda: HybridNasCG(8, 2)),
        ("FT", lambda: NasFT(16), lambda: HybridNasFT(8, 2)),
    ]
    for name, pure_factory, hybrid_factory in cases:
        pure = run(spec, pure_factory(), AffinityScheme.TWO_MPI_LOCAL)
        hybrid_wl = hybrid_factory()
        hybrid = run(spec, hybrid_wl, affinity=hybrid_affinity(spec, 8, 2))
        table.add_row(name, pure.wall_time, hybrid.wall_time,
                      pure.messages, hybrid.messages)
    table.notes.append("hybrid quarters the message count; wall-time parity "
                       "or better confirms the paper's proposal")
    return table
