"""Intel MPI Benchmarks: PingPong and Exchange (Section 3.4, Figures 14–17).

IMB conventions:

* **PingPong** reports the one-way time (half the round trip) and the
  bandwidth ``nbytes / t_oneway``.
* **Exchange** runs every process in a chain; per repetition each
  process sends to and receives from both neighbours (4 transfers), and
  the reported bandwidth is ``4 * nbytes / t_rep``.

The paper runs these on a DMZ node across MPICH2/LAM/OpenMPI
(Figures 14–15) and across processor-affinity configurations of OpenMPI
(Figures 16–17), including the "2 procs, unbound, 2 parked"
configuration with extra idle processes.
"""

from __future__ import annotations

from typing import Iterator, List

from ..core.ops import Allreduce, Barrier, Bcast, Op, SendRecv
from ..core.workload import Workload
from .hpcc import PingPong

__all__ = ["ImbPingPong", "ImbExchange", "ImbSendRecv", "ImbAllreduce",
           "ImbBcast", "IMB_MESSAGE_SIZES",
           "pingpong_oneway_time", "exchange_bandwidth"]

#: the power-of-four ladder IMB sweeps (bytes)
IMB_MESSAGE_SIZES: List[int] = [0, 1, 4, 16, 64, 256, 1024, 4096,
                                16384, 65536, 262144, 1048576, 4194304]


class ImbPingPong(PingPong):
    """IMB PingPong (same wire pattern as the HPCC probe)."""

    def __init__(self, nbytes: int, reps: int = 20, ntasks: int = 2):
        super().__init__(nbytes, reps=reps, ntasks=ntasks)
        self.name = f"imb-pingpong[{nbytes}B]"


class ImbExchange(Workload):
    """IMB Exchange: bidirectional neighbour traffic in a periodic chain."""

    def __init__(self, ntasks: int, nbytes: int, reps: int = 20):
        if ntasks < 2:
            raise ValueError("Exchange needs at least 2 ranks")
        if reps < 1 or nbytes < 0:
            raise ValueError("reps must be positive and nbytes non-negative")
        self.ntasks = ntasks
        self.nbytes = nbytes
        self.reps = reps
        self.name = f"imb-exchange[{nbytes}B,p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        p = self.ntasks
        left, right = (rank - 1) % p, (rank + 1) % p
        # send right / recv left, then send left / recv right
        rep = [SendRecv(send_to=right, recv_from=left,
                        nbytes=self.nbytes, tag=1, phase="exchange"),
               SendRecv(send_to=left, recv_from=right,
                        nbytes=self.nbytes, tag=2, phase="exchange")]
        yield Barrier()
        for _ in range(self.reps):
            yield from rep
        yield Barrier()


class ImbSendRecv(Workload):
    """IMB SendRecv: every rank sends right while receiving from left.

    Unlike Exchange there is one transfer per direction per repetition
    (2 x nbytes through each process).
    """

    def __init__(self, ntasks: int, nbytes: int, reps: int = 20):
        if ntasks < 2:
            raise ValueError("SendRecv needs at least 2 ranks")
        if reps < 1 or nbytes < 0:
            raise ValueError("reps must be positive and nbytes non-negative")
        self.ntasks = ntasks
        self.nbytes = nbytes
        self.reps = reps
        self.name = f"imb-sendrecv[{nbytes}B,p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        p = self.ntasks
        shift = SendRecv(send_to=(rank + 1) % p, recv_from=(rank - 1) % p,
                         nbytes=self.nbytes, phase="sendrecv")
        yield Barrier()
        for _ in range(self.reps):
            yield shift
        yield Barrier()


class ImbAllreduce(Workload):
    """IMB Allreduce over all ranks."""

    def __init__(self, ntasks: int, nbytes: int, reps: int = 20):
        if ntasks < 1:
            raise ValueError("Allreduce needs at least 1 rank")
        if reps < 1 or nbytes < 0:
            raise ValueError("reps must be positive and nbytes non-negative")
        self.ntasks = ntasks
        self.nbytes = nbytes
        self.reps = reps
        self.name = f"imb-allreduce[{nbytes}B,p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        reduce = Allreduce(nbytes=self.nbytes, phase="allreduce")
        yield Barrier()
        for _ in range(self.reps):
            yield reduce
        yield Barrier()


class ImbBcast(Workload):
    """IMB Bcast from a rotating root (root fixed at 0 here)."""

    def __init__(self, ntasks: int, nbytes: int, reps: int = 20,
                 root: int = 0):
        if ntasks < 1:
            raise ValueError("Bcast needs at least 1 rank")
        if not 0 <= root < ntasks:
            raise ValueError("root outside the communicator")
        if reps < 1 or nbytes < 0:
            raise ValueError("reps must be positive and nbytes non-negative")
        self.ntasks = ntasks
        self.nbytes = nbytes
        self.reps = reps
        self.root = root
        self.name = f"imb-bcast[{nbytes}B,p={ntasks}]"

    def program(self, rank: int) -> Iterator[Op]:
        bcast = Bcast(root=self.root, nbytes=self.nbytes, phase="bcast")
        yield Barrier()
        for _ in range(self.reps):
            yield bcast
        yield Barrier()


def pingpong_oneway_time(wall_time: float, reps: int) -> float:
    """IMB PingPong metric: half the average round-trip time."""
    if reps < 1:
        raise ValueError("reps must be positive")
    return wall_time / (2 * reps)


def exchange_bandwidth(wall_time: float, reps: int, nbytes: int) -> float:
    """IMB Exchange metric: 4 transfers of ``nbytes`` per repetition."""
    if wall_time <= 0:
        raise ValueError("wall_time must be positive")
    return 4.0 * nbytes * reps / wall_time
