"""Golden op sequences: what each workload's program yields, per rank.

The fixture holds the sha256 of every rank's canonical op list (each
op's class name and every dataclass field, in order) for the looped
workloads at two task counts.  It pins the programs field for field,
whatever objects the generators build them from: an op hoisted out of
an iteration loop and yielded many times must compare equal to the
fresh op it replaced.

Regenerate (only for an intended workload model change):
    PYTHONPATH=src python tests/test_program_golden.py
"""

import dataclasses
import hashlib
import json
import os

from repro.apps.md.amber import AmberSander
from repro.apps.md.lammps import LammpsBench
from repro.apps.pop.model import Pop
from repro.workloads.blas_scaling import DaxpyBench, DgemmBench
from repro.workloads.hpcc import (HpccFft, HpccHpl, HpccRandomAccess,
                                  PingPong, RingExchange)
from repro.workloads.hybrid import HybridNasCG, HybridNasFT
from repro.workloads.imb import (ImbAllreduce, ImbBcast, ImbExchange,
                                 ImbPingPong, ImbSendRecv)
from repro.workloads.nas import NasCG, NasFT, NasMG
from repro.workloads.synthetic import SyntheticWorkload

_SYNTHETIC_OPS = [
    {"kind": "compute", "flops": 2e8, "dram_bytes": 1e8,
     "working_set": 5e7, "reuse": 0.4, "phase": "stencil"},
    {"kind": "halo", "nbytes": 65536, "phase": "exchange"},
    {"kind": "send", "to_offset": 2, "nbytes": 1024},
    {"kind": "allreduce", "nbytes": 8, "phase": "dots"},
    {"kind": "bcast", "root": 1, "nbytes": 4096},
]


def _workloads(p: int):
    """(id, workload) pairs at task count ``p``."""
    return [
        ("pop", Pop(p)),
        ("amber-jac", AmberSander("jac", p)),
        ("amber-gb_mb", AmberSander("gb_mb", p)),
        ("lammps-lj", LammpsBench("lj", p)),
        ("lammps-eam", LammpsBench("eam", p)),
        ("nas-cg", NasCG(p)),
        ("nas-ft", NasFT(p)),
        ("nas-mg", NasMG(p)),
        ("hpcc-ra-mpi", HpccRandomAccess(p, mode="mpi")),
        ("hpcc-fft-mpi", HpccFft(p, mode="mpi")),
        ("hpcc-hpl", HpccHpl(p, n=2048)),
        ("pingpong", PingPong(4096, ntasks=p)),
        ("ring", RingExchange(p, 4096)),
        ("imb-pingpong", ImbPingPong(1024, ntasks=p)),
        ("imb-exchange", ImbExchange(p, 65536)),
        ("imb-sendrecv", ImbSendRecv(p, 16384)),
        ("imb-allreduce", ImbAllreduce(p, 8)),
        ("imb-bcast", ImbBcast(p, 100_000, root=1)),
        ("hybrid-cg", HybridNasCG(p, 2)),
        ("hybrid-ft", HybridNasFT(p, 2)),
        ("daxpy", DaxpyBench(p, 100_000)),
        ("dgemm", DgemmBench(p, 500)),
        ("synthetic", SyntheticWorkload("synthetic", p, _SYNTHETIC_OPS,
                                        steps=6, simulated_steps=3)),
    ]


#: two task counts: a pair, and a 3-D decomposition width
_TASK_COUNTS = (2, 8)


def canonical_ops(ops) -> str:
    """One JSON line per program: class name plus every field, in order."""
    return json.dumps(
        [[type(op).__name__,
          [[f.name, getattr(op, f.name)] for f in dataclasses.fields(op)]]
         for op in ops],
        separators=(",", ":"))


def program_digests(workload):
    """sha256 of each rank's canonical op list."""
    return [hashlib.sha256(
                canonical_ops(workload.program(rank)).encode()).hexdigest()
            for rank in range(workload.ntasks)]


def _all_digests():
    return {f"{name}@p={p}": program_digests(workload)
            for p in _TASK_COUNTS for name, workload in _workloads(p)}


_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                       "program_golden.json")


def test_programs_match_golden_op_sequences():
    with open(_GOLDEN) as handle:
        golden = json.load(handle)
    assert _all_digests() == golden


if __name__ == "__main__":
    with open(_GOLDEN, "w") as handle:
        json.dump(_all_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
