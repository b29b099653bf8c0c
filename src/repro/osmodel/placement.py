"""Task-to-core placement strategies.

The paper's experiments pin MPI tasks either one-per-socket or
two-per-socket (Table 5), or leave them to the Linux scheduler
("Default").  On the Longs ladder the authors additionally chose central
sockets "so as to minimize the effect of the HT ladder" for small task
counts (Section 3.5) — :func:`preferred_socket_order` reproduces that
choice by ordering sockets by total distance to all others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..machine.topology import MachineSpec, build_socket_graph

__all__ = [
    "Placement",
    "preferred_socket_order",
    "spread",
    "packed",
    "one_per_socket",
    "two_per_socket",
]


@dataclass(frozen=True)
class Placement:
    """An assignment of MPI ranks to cores.

    ``core_of_rank[r]`` is the global core id of rank ``r``; cores are
    numbered socket-major, so the socket of a core is
    ``core_id // cores_per_socket``.  ``bound`` records whether the
    assignment is enforced (numactl/sched_setaffinity) or merely the
    scheduler's initial choice.
    """

    core_of_rank: Tuple[int, ...]
    cores_per_socket: int
    bound: bool = True

    def __post_init__(self):
        if len(set(self.core_of_rank)) != len(self.core_of_rank):
            raise ValueError("placement assigns two ranks to one core")

    @property
    def ntasks(self) -> int:
        return len(self.core_of_rank)

    def socket_of_rank(self, rank: int) -> int:
        """NUMA node / socket id hosting ``rank``."""
        return self.core_of_rank[rank] // self.cores_per_socket

    def ranks_on_socket(self, socket_id: int) -> List[int]:
        """Ranks whose core lives on ``socket_id``."""
        return [r for r in range(self.ntasks)
                if self.socket_of_rank(r) == socket_id]

    def sharers_on_socket(self, rank: int) -> int:
        """Number of ranks (including ``rank``) on the rank's socket."""
        return len(self.ranks_on_socket(self.socket_of_rank(rank)))

    def sockets_in_use(self) -> List[int]:
        """Distinct sockets hosting at least one rank, ascending."""
        return sorted({self.socket_of_rank(r) for r in range(self.ntasks)})


def preferred_socket_order(spec: MachineSpec) -> List[int]:
    """Sockets ordered by centrality (total hops to all other sockets).

    Ties break on socket id, so the order is deterministic.  On the 2×4
    ladder this prefers the central columns, matching the paper's use of
    "nodes 2, 3, 4, and 5" for small runs.
    """
    lengths = build_socket_graph(spec).hops
    return sorted(
        range(spec.sockets),
        key=lambda s: (sum(lengths[s].values()), s),
    )


def _check_tasks(ntasks: int, limit: int, what: str) -> None:
    if ntasks < 1:
        raise ValueError("need at least one task")
    if ntasks > limit:
        raise ValueError(f"{ntasks} tasks exceed {what} ({limit})")


def spread(spec: MachineSpec, ntasks: int, bound: bool = True) -> Placement:
    """One task per socket first (central sockets first), then second cores."""
    _check_tasks(ntasks, spec.total_cores, "total cores")
    order = preferred_socket_order(spec)
    cores: List[int] = []
    for local in range(spec.cores_per_socket):
        for socket in order:
            cores.append(socket * spec.cores_per_socket + local)
    return Placement(tuple(cores[:ntasks]), spec.cores_per_socket, bound=bound)


def packed(spec: MachineSpec, ntasks: int, bound: bool = True) -> Placement:
    """Fill every core of a socket before moving to the next socket."""
    _check_tasks(ntasks, spec.total_cores, "total cores")
    order = preferred_socket_order(spec)
    cores: List[int] = []
    for socket in order:
        for local in range(spec.cores_per_socket):
            cores.append(socket * spec.cores_per_socket + local)
    return Placement(tuple(cores[:ntasks]), spec.cores_per_socket, bound=bound)


def one_per_socket(spec: MachineSpec, ntasks: int) -> Placement:
    """Exactly one bound task per socket (Table 5 "One MPI" schemes)."""
    _check_tasks(ntasks, spec.sockets, "socket count")
    order = preferred_socket_order(spec)
    cores = tuple(order[i] * spec.cores_per_socket for i in range(ntasks))
    return Placement(cores, spec.cores_per_socket, bound=True)


def two_per_socket(spec: MachineSpec, ntasks: int) -> Placement:
    """Both cores of each socket in use (Table 5 "Two MPI" schemes)."""
    if spec.cores_per_socket < 2:
        raise ValueError(f"{spec.name} has single-core sockets")
    _check_tasks(ntasks, spec.total_cores, "total cores")
    return packed(spec, ntasks, bound=True)
