"""Golden digests of the exact (discrete-event) tier.

The fixture holds the sha256 of the canonical ``to_dict()`` JSON of
exact-tier cells covering every workload class behind
``repro-bench all``, every MPI implementation and lock layer, marker-
and counter-profiled runs, and faulted runs whose faults arm (and
disarm) mid-run: node loss, link derate, link outage, thermal
throttle, cache-way disable and a lossy transport.  Any change to the
engine, the fluid pipes, MPI or the job runtime that moves one event
or rounds one float differently fails here, so speed work on the exact
tier must keep every digest.

Regenerate (only for an intended model change, on the commit that
defines it):
    PYTHONPATH=src python -m tests.test_exact_golden
"""

import hashlib
import json
import os

import pytest

from repro.apps.md.amber import AmberSander
from repro.apps.md.lammps import LammpsBench
from repro.apps.pop.model import Pop
from repro.core.affinity import AffinityScheme
from repro.core.parallel import JobRequest
from repro.faults import (CacheDegrade, CoreSlowdown, FaultPlan, LinkDegrade,
                          LinkOutage, MessageFaults, NodeLoss)
from repro.machine import chiplet, dmz, longs, tiger
from repro.mpi.implementations import LAM, MPICH2
from repro.workloads import (DaxpyBench, DgemmBench, HpccDgemm, HpccFft,
                             HpccHpl, HpccPtrans, HpccRandomAccess,
                             HpccStream, ImbExchange, ImbPingPong, NasCG,
                             NasEP, NasFT, NasMG, PingPong, RingExchange,
                             StreamTriad)
from repro.workloads.hybrid import HybridNasCG, HybridNasFT, hybrid_affinity

from .test_surrogate import _EveryOp


def _plan(*faults, seed=0):
    return FaultPlan(seed=seed, faults=tuple(faults))


def _golden_cells():
    """(id, JobRequest) pairs; ids are the fixture's keys.

    Fault start times are simulated seconds inside each cell's run
    (before ``time_scale``), so every fault arms while ranks are busy.
    """
    L, D, T, C = longs(), dmz(), tiger(), chiplet()
    S = AffinityScheme
    cells = [
        # every workload class behind `repro-bench all`
        ("cg4-longs", L, NasCG(4), S.DEFAULT, {}),
        ("cg2-tiger", T, NasCG(2), S.DEFAULT, {}),
        ("ft4-longs-interleave", L, NasFT(4), S.INTERLEAVE, {}),
        ("ep4-longs", L, NasEP(4), S.DEFAULT, {}),
        ("mg4-dmz", D, NasMG(4), S.DEFAULT, {}),
        ("jac4-longs-two-local", L, AmberSander("jac", 4), S.TWO_MPI_LOCAL,
         {}),
        ("lj2-dmz-one-membind", D, LammpsBench("lj", 2), S.ONE_MPI_MEMBIND,
         {}),
        ("chain2-tiger", T, LammpsBench("chain", 2), S.DEFAULT, {}),
        ("pop2-longs", L, Pop(2), S.ONE_MPI_LOCAL, {}),
        ("triad2-dmz", D, StreamTriad(2), S.DEFAULT, {}),
        ("daxpy2-dmz", D, DaxpyBench(2, 100_000), S.DEFAULT, {}),
        ("dgemm2-dmz", D, DgemmBench(2, 500), S.DEFAULT, {}),
        ("hpcc-dgemm4-longs-lam-sysv", L, HpccDgemm(4), S.INTERLEAVE,
         {"impl": LAM, "lock": "sysv"}),
        ("hpcc-fft4-longs", L, HpccFft(4, mode="mpi"), S.DEFAULT, {}),
        ("hpcc-stream4-longs", L, HpccStream(4), S.DEFAULT, {}),
        ("hpcc-ra4-longs-lam-sysv", L, HpccRandomAccess(4, mode="mpi"),
         S.DEFAULT, {"impl": LAM, "lock": "sysv"}),
        ("ptrans4-longs", L, HpccPtrans(4), S.DEFAULT, {}),
        ("pingpong4-longs", L, PingPong(4096, ntasks=4), S.DEFAULT, {}),
        ("ring6-longs-interleave", L, RingExchange(6, 200_000), S.INTERLEAVE,
         {}),
        ("hpl4-dmz-lam-sysv", D, HpccHpl(4, n=2048), S.DEFAULT,
         {"impl": LAM, "lock": "sysv"}),
        ("imb-pingpong64k-dmz-mpich2", D, ImbPingPong(65_536), S.DEFAULT,
         {"impl": MPICH2}),
        ("imb-exchange4-dmz", D, ImbExchange(4, 65_536), S.DEFAULT, {}),
        ("hybrid-cg2x2-dmz", D, HybridNasCG(2, 2), None,
         {"affinity": hybrid_affinity(D, 2, 2)}),
        ("hybrid-ft4x2-longs", L, HybridNasFT(4, 2), None,
         {"affinity": hybrid_affinity(L, 4, 2)}),
        ("cg4-chiplet", C, NasCG(4), S.DEFAULT, {}),
        # every op kind and collective, both protocols, all three MPIs
        ("everyop3-longs-mpich2", L, _EveryOp(3), S.DEFAULT,
         {"impl": MPICH2}),
        ("everyop6-longs-lam", L, _EveryOp(6), S.TWO_MPI_MEMBIND,
         {"impl": LAM}),
        ("everyop4-dmz", D, _EveryOp(4), S.DEFAULT, {}),
        # profiled: perfctr counters and marker regions
        ("prof-cg4-longs-interleave", L, NasCG(4), S.INTERLEAVE,
         {"profile": True}),
        ("prof-pop2-dmz", D, Pop(2), S.DEFAULT, {"profile": True}),
        ("prof-ra4-longs", L, HpccRandomAccess(4, mode="mpi"), S.DEFAULT,
         {"profile": True}),
        ("prof-hybrid-ft4x2-longs", L, HybridNasFT(4, 2), None,
         {"affinity": hybrid_affinity(L, 4, 2), "profile": True}),
        ("prof-everyop8-longs", L, _EveryOp(8), S.INTERLEAVE,
         {"profile": True}),
        # faulted: every fault kind, armed (and mostly disarmed) mid-run
        ("fault-nodeloss-cg4-longs", L, NasCG(4), S.DEFAULT,
         {"faults": _plan(NodeLoss(node=1, fraction=0.5, fallback=0,
                                   start=0.3, duration=0.4))}),
        ("fault-nodeloss-ra4-longs-interleave", L,
         HpccRandomAccess(4, mode="mpi"), S.INTERLEAVE,
         {"faults": _plan(NodeLoss(node=2, fraction=0.75, fallback=3,
                                   start=0.006))}),
        ("fault-linkderate-ft4-longs-interleave", L, NasFT(4), S.INTERLEAVE,
         {"faults": _plan(LinkDegrade(src=1, dst=5, bandwidth_factor=0.1,
                                      latency_factor=4.0, start=8.0,
                                      duration=10.0))}),
        ("fault-linkderate-ring6-longs", L, RingExchange(6, 200_000),
         S.INTERLEAVE,
         {"faults": _plan(LinkDegrade(src=1, dst=2, bandwidth_factor=0.2,
                                      latency_factor=2.0, start=2e-4))}),
        ("fault-outage-pop2-longs-interleave", L, Pop(2), S.INTERLEAVE,
         {"faults": _plan(LinkOutage(src=1, dst=2, start=5.0,
                                     duration=5.0))}),
        ("fault-outage-everyop4-longs", L, _EveryOp(4), S.INTERLEAVE,
         {"faults": _plan(LinkOutage(src=1, dst=5, start=1e-3))}),
        ("fault-throttle-jac4-longs", L, AmberSander("jac", 4), S.DEFAULT,
         {"faults": _plan(CoreSlowdown(core=2, factor=3.0, start=1.0,
                                       duration=1.5))}),
        ("fault-cache-chain2-tiger", T, LammpsBench("chain", 2), S.DEFAULT,
         {"faults": _plan(CacheDegrade(capacity_factor=0.25, start=0.1,
                                       duration=0.1))}),
        ("fault-cache-hybrid-cg2x2-dmz", D, HybridNasCG(2, 2), None,
         {"affinity": hybrid_affinity(D, 2, 2),
          "faults": _plan(CacheDegrade(capacity_factor=0.5, start=0.2))}),
        ("fault-messages-imb-exchange4-dmz", D, ImbExchange(4, 65_536),
         S.DEFAULT,
         {"faults": _plan(MessageFaults(drop_prob=0.1, dup_prob=0.1,
                                        start=1e-4), seed=5)}),
        ("fault-mixed-prof-mg4-longs", L, NasMG(4), S.INTERLEAVE,
         {"profile": True,
          "faults": _plan(LinkDegrade(src=1, dst=2, bandwidth_factor=0.05,
                                      latency_factor=4.0, start=0.5),
                          NodeLoss(node=1, fraction=0.5, fallback=0,
                                   start=1.0, duration=1.0),
                          LinkOutage(src=2, dst=6, start=1.5,
                                     duration=0.5))}),
    ]
    return [(name, JobRequest(spec=spec, workload=workload,
                              scheme=scheme or S.DEFAULT, tier="exact",
                              **kwargs))
            for name, spec, workload, scheme, kwargs in cells]


def _digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _digests():
    return {name: _digest(request.execute())
            for name, request in _golden_cells()}


_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                       "exact_golden.json")


def test_exact_tier_matches_golden_digests():
    with open(_GOLDEN) as handle:
        golden = json.load(handle)
    assert _digests() == golden


@pytest.mark.parametrize("name", ["fault-nodeloss-cg4-longs",
                                  "fault-outage-pop2-longs-interleave",
                                  "fault-cache-chain2-tiger"])
def test_golden_faults_arm_while_ranks_run(name):
    """The faulted cells really change the run mid-way (not before or
    after every op), so the fixture pins fault-state handling."""
    request = dict(_golden_cells())[name]
    faulted = request.execute()
    healthy = JobRequest(spec=request.spec, workload=request.workload,
                         scheme=request.scheme, affinity=request.affinity,
                         tier="exact").execute()
    armed = [event["t"] for event in faulted.faults["events"]]
    end = faulted.wall_time / request.workload.time_scale
    assert all(0 < t < end for t in armed)
    assert faulted.wall_time != healthy.wall_time


if __name__ == "__main__":
    os.makedirs(os.path.dirname(_GOLDEN), exist_ok=True)
    with open(_GOLDEN, "w") as handle:
        json.dump(_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
