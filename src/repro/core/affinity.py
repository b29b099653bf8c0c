"""The six processor/memory affinity schemes of Table 5.

Each scheme resolves, for a given machine and task count, into a
:class:`~repro.osmodel.Placement` (which core runs each MPI rank) plus a
per-rank :class:`~repro.numa.MemoryPolicy`.  The semantics:

* **Default** — no ``numactl``: the kernel load-balancer spreads tasks
  and first-touch placement applies, with a migration-induced remote
  fraction (system-dependent).
* **One MPI + Local Alloc** — one task per socket, CPU-bound, with
  ``--localalloc``: every page local, exclusive memory link.  The
  paper's best performer.
* **One MPI + Membind** — one task per socket with ``--membind`` to an
  explicit node set.  Reproducing the paper's configuration, all tasks
  bind to the *same* two nodes, concentrating traffic on two memory
  controllers; this is what makes Membind the worst-case scheme in
  Tables 2/3 (the paper: "forcing membind ... result[s] in worst-case
  performance").
* **Two MPI + Local Alloc** — both cores of each socket, local pages:
  local but the two cores share their socket's memory link.
* **Two MPI + Membind** — both cores, membind hotspot.
* **Interleave** — ``--interleave=all``: pages round-robin over every
  node; (N-1)/N of traffic is remote but controller load is spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..errors import InfeasibleSchemeError
from ..machine.topology import MachineSpec
from ..numa import (
    FirstTouch,
    Interleave,
    LocalAlloc,
    Membind,
    MemoryPolicy,
    NumactlConfig,
)
from ..osmodel import Placement, SchedulerModel, one_per_socket, two_per_socket

__all__ = [
    "AffinityScheme",
    "InfeasibleSchemeError",
    "ResolvedAffinity",
    "resolve_scheme",
    "SCHEME_TABLE",
    "ALL_SCHEMES",
    "membind_node_set",
]


class AffinityScheme(str, Enum):
    """The Table 5 schemes, by their paper names."""

    DEFAULT = "Default"
    ONE_MPI_LOCAL = "One MPI + Local Alloc"
    ONE_MPI_MEMBIND = "One MPI + Membind"
    TWO_MPI_LOCAL = "Two MPI + Local Alloc"
    TWO_MPI_MEMBIND = "Two MPI + Membind"
    INTERLEAVE = "Interleave"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: paper column order for the numactl tables
ALL_SCHEMES: List[AffinityScheme] = list(AffinityScheme)

#: Table 5 of the paper, as data.
SCHEME_TABLE: List[Dict[str, str]] = [
    {"Name": "Default",
     "Description": "Default (no numactl)"},
    {"Name": "One MPI+Local Alloc",
     "Description": "One MPI task per socket and local allocation policy"},
    {"Name": "One MPI+Membind",
     "Description": "One MPI task per socket with explicit memory binding per core"},
    {"Name": "Two MPI+Local Alloc",
     "Description": "Two MPI tasks per socket and local allocation policy"},
    {"Name": "Two MPI+Membind",
     "Description": "Two MPI tasks per socket with explicit memory binding per core"},
    {"Name": "Interleave",
     "Description": "Interleaved memory allocation"},
]


def membind_node_set(spec: MachineSpec) -> Tuple[int, ...]:
    """The explicit node set the Membind schemes bind memory to.

    The paper's scripts bound all tasks' memory to a fixed node list; on
    a multi-socket box that concentrates every task's pages on the first
    two nodes (the hotspot that makes Membind the worst scheme).
    """
    return (0,) if spec.sockets == 1 else (0, 1)


@dataclass(frozen=True)
class ResolvedAffinity:
    """A scheme made concrete for one machine and task count.

    ``scheduler_noise`` models interference from co-resident processes
    on unbound runs (the "parked" configurations of Figures 16–17):
    per-op software overheads inflate by ``1 + scheduler_noise``.
    """

    scheme: AffinityScheme
    spec: MachineSpec
    placement: Placement
    policies: Tuple[MemoryPolicy, ...]
    numactl: NumactlConfig
    scheduler_noise: float = 0.0

    @property
    def ntasks(self) -> int:
        return self.placement.ntasks

    def policy_of(self, rank: int) -> MemoryPolicy:
        """Memory policy governing ``rank``'s allocations."""
        return self.policies[rank]

    def distribution(self, rank: int) -> Dict[int, float]:
        """Node fractions of ``rank``'s memory traffic."""
        return self.policy_of(rank).traffic_distribution(
            self.placement.socket_of_rank(rank), self.spec.sockets
        )

    def buffer_nodes(self) -> Dict[int, int]:
        """Home node of each rank's MPI shared buffer (policy-placed)."""
        return {
            r: self.policy_of(r).place_page(
                self.placement.socket_of_rank(r), r, self.spec.sockets
            )
            for r in range(self.ntasks)
        }

    def controller_sharers(self) -> Dict[int, float]:
        """Expected concurrent request streams per memory controller."""
        load: Dict[int, float] = {n: 0.0 for n in range(self.spec.sockets)}
        for rank in range(self.ntasks):
            for node, frac in self.distribution(rank).items():
                load[node] += frac
        return load


def resolve_scheme(scheme: AffinityScheme, spec: MachineSpec, ntasks: int,
                   parked: int = 0) -> ResolvedAffinity:
    """Turn a Table 5 scheme into placement + policies on ``spec``.

    Raises :class:`InfeasibleSchemeError` for infeasible combinations
    (e.g. the One-MPI schemes with more tasks than sockets — the dashes
    in the paper's tables).
    """
    if ntasks < 1:
        raise ValueError("need at least one task")
    scheduler = SchedulerModel(spec)

    try:
        placement, policy, numactl = _resolve_placement(
            scheme, spec, ntasks, parked, scheduler)
    except InfeasibleSchemeError:
        raise
    except ValueError as exc:
        # the placement builders reject by raising ValueError; translate
        # so sweeps can distinguish infeasibility from genuine bugs
        raise InfeasibleSchemeError(f"{scheme}: {exc}") from None

    noise = 0.0
    if not placement.bound and parked > 0:
        # parked-but-present processes perturb the balancer and steal
        # timeslices from the active tasks
        noise = 0.25 * parked / spec.total_cores

    return ResolvedAffinity(
        scheme=scheme,
        spec=spec,
        placement=placement,
        policies=tuple(policy for _ in range(ntasks)),
        numactl=numactl,
        scheduler_noise=noise,
    )


def _resolve_placement(scheme: AffinityScheme, spec: MachineSpec,
                       ntasks: int, parked: int,
                       scheduler: SchedulerModel):
    """Placement, policy and numactl config for one scheme."""
    if scheme is AffinityScheme.DEFAULT:
        placement = scheduler.default_placement(ntasks, parked=parked)
        policy: MemoryPolicy = FirstTouch(
            remote_fraction=scheduler.remote_fraction(parked=parked)
        )
        numactl = NumactlConfig()
    elif scheme is AffinityScheme.ONE_MPI_LOCAL:
        placement = one_per_socket(spec, ntasks)
        policy = LocalAlloc()
        numactl = NumactlConfig(
            cpunodebind=tuple(placement.sockets_in_use()), localalloc=True
        )
    elif scheme is AffinityScheme.ONE_MPI_MEMBIND:
        placement = one_per_socket(spec, ntasks)
        policy = Membind(nodes=membind_node_set(spec))
        numactl = NumactlConfig(
            cpunodebind=tuple(placement.sockets_in_use()),
            membind=membind_node_set(spec),
        )
    elif scheme is AffinityScheme.TWO_MPI_LOCAL:
        placement = two_per_socket(spec, ntasks)
        policy = LocalAlloc()
        numactl = NumactlConfig(
            cpunodebind=tuple(placement.sockets_in_use()), localalloc=True
        )
    elif scheme is AffinityScheme.TWO_MPI_MEMBIND:
        placement = two_per_socket(spec, ntasks)
        policy = Membind(nodes=membind_node_set(spec))
        numactl = NumactlConfig(
            cpunodebind=tuple(placement.sockets_in_use()),
            membind=membind_node_set(spec),
        )
    elif scheme is AffinityScheme.INTERLEAVE:
        placement = scheduler.default_placement(ntasks, parked=parked)
        policy = Interleave()
        numactl = NumactlConfig(interleave=())
    else:  # pragma: no cover - exhaustive enum
        raise TypeError(f"unhandled scheme {scheme!r}")
    return placement, policy, numactl
