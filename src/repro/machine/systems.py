"""The three evaluation systems of the paper (Table 1) as machine specs.

* **Tiger** — Cray XD-1: two single-core 2.2 GHz Opteron 248 per node,
  8 GB DDR-400.  Its special compute kernel co-schedules processes, so
  the scheduler-noise parameter is near zero.
* **DMZ** — one node of a four-node cluster: two dual-core 2.2 GHz
  Opteron 275, 4 GB DDR-400 (experiments were limited to one node).
* **Longs** — eight-socket Iwill H8501: dual-core 1.8 GHz Opteron 865
  per socket, 4 GB per socket, sockets arranged in a 2×4 coherent
  HyperTransport *ladder* (Figure 1).  The larger coherence-probe cost
  models probe broadcast across the ladder and yields the paper's
  observation that best single-core bandwidth is less than half of a
  small system's.

Each preset factory returns one shared :class:`MachineSpec` per
process: ``longs() is longs()``.  The spec is frozen, so sharing it is
safe, and its memoized :meth:`MachineSpec.cache_token` is then computed
once per preset per process instead of once per served request.  A
variant is a new instance (``dataclasses.replace(longs(), ...)`` or
:func:`~repro.machine.whatif.hypothetical`) with a token of its own.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, List

from .params import DEFAULT_PARAMS, GB, KB, MB
from .topology import CoreSpec, MachineSpec, SocketSpec

__all__ = ["tiger", "dmz", "longs", "chiplet", "by_name", "all_systems",
           "SYSTEM_TABLE"]


@cache
def tiger() -> MachineSpec:
    """Cray XD-1 node: 2 × single-core Opteron 248 @ 2.2 GHz."""
    core = CoreSpec(frequency_hz=2.2e9)
    return MachineSpec(
        name="Tiger",
        sockets=2,
        socket=SocketSpec(cores_per_socket=1, core=core,
                          dram_bytes=4 * 1024 ** 3),
        topology="pair",
        params=DEFAULT_PARAMS.with_overrides(migration_remote_fraction=0.01),
        description="Cray XD-1, single-core Opteron 248, co-scheduled kernel",
    )


@cache
def dmz() -> MachineSpec:
    """DMZ cluster node: 2 × dual-core Opteron 275 @ 2.2 GHz."""
    core = CoreSpec(frequency_hz=2.2e9)
    return MachineSpec(
        name="DMZ",
        sockets=2,
        socket=SocketSpec(cores_per_socket=2, core=core,
                          dram_bytes=2 * 1024 ** 3),
        topology="pair",
        params=DEFAULT_PARAMS,
        description="2-socket dual-core Opteron 275 node (RHEL 4u3)",
    )


@cache
def longs() -> MachineSpec:
    """Iwill H8501: 8 × dual-core Opteron 865 @ 1.8 GHz in a 2x4 ladder."""
    core = CoreSpec(frequency_hz=1.8e9)
    return MachineSpec(
        name="Longs",
        sockets=8,
        socket=SocketSpec(cores_per_socket=2, core=core,
                          dram_bytes=4 * 1024 ** 3),
        topology="ladder",
        params=DEFAULT_PARAMS.with_overrides(
            coherence_probe_cost=0.175,
            migration_remote_fraction=0.10,
        ),
        description="8-socket Iwill H8501, HyperTransport 2x4 ladder (FC4)",
    )


@cache
def chiplet() -> MachineSpec:
    """CCX-style chiplet package: 4 CCDs × 4 cores with split L3 slices.

    The first modern-hardware preset (ROADMAP item 2), modeled with the
    paper's vocabulary: each "socket" is one **CCD/CCX** — four cores
    sharing a private 16 MB L3 slice (split L3: a core cannot allocate
    in another CCD's slice, which the per-core ``l3_share_bytes`` fold
    captures), with its own memory-controller path.  The ``crossbar``
    topology stands in for the IO-die hub: every CCD one uniform hop
    from every other, unlike Longs' multi-hop ladder.  Cross-CCD
    coherence probes are cheap but not free, and the remote-allocation
    fraction is small because the IO die interleaves well.
    """
    core = CoreSpec(frequency_hz=3.4e9, flops_per_cycle=16.0,
                    l1d_bytes=32 * KB, l2_bytes=512 * KB)
    return MachineSpec(
        name="Chiplet",
        sockets=4,  # CCDs on the package
        socket=SocketSpec(cores_per_socket=4, core=core,
                          dram_peak_bandwidth=25.6 * GB,
                          dram_bytes=8 * 1024 ** 3,
                          l3_bytes=16 * MB),
        topology="crossbar",
        params=DEFAULT_PARAMS.with_overrides(
            coherence_probe_cost=0.04,
            migration_remote_fraction=0.05,
        ),
        description="chiplet package: 4 CCDs x 4 cores, 16 MB split L3 "
                    "per CCD, IO-die crossbar",
    )


_FACTORIES = {"tiger": tiger, "dmz": dmz, "longs": longs,
              "chiplet": chiplet}


def by_name(name: str) -> MachineSpec:
    """Look up a system preset case-insensitively."""
    try:
        return _FACTORIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None


def all_systems() -> List[MachineSpec]:
    """The three *paper* evaluation systems in paper order.

    Deliberately excludes post-paper presets like :func:`chiplet` —
    the bench tables/figures iterate this and must keep reproducing
    the paper's exact system set.
    """
    return [tiger(), dmz(), longs()]


#: Table 1 of the paper, as data.
SYSTEM_TABLE: List[Dict[str, object]] = [
    {
        "Name": "Tiger", "Opteron Model": 248, "Frequency (GHz)": 2.2,
        "Cores per Socket": 1, "Sockets per Node": 2, "Total Cores per Node": 2,
        "Node Memory Size (GB)": 8, "Node Memory Type": "DDR-400",
        "OS": "Suse Linux",
    },
    {
        "Name": "DMZ", "Opteron Model": 275, "Frequency (GHz)": 2.2,
        "Cores per Socket": 2, "Sockets per Node": 2, "Total Cores per Node": 4,
        "Node Memory Size (GB)": 4, "Node Memory Type": "DDR-400",
        "OS": "RH Linux 2.6.9",
    },
    {
        "Name": "Longs", "Opteron Model": 865, "Frequency (GHz)": 1.8,
        "Cores per Socket": 2, "Sockets per Node": 8, "Total Cores per Node": 16,
        "Node Memory Size (GB)": 32, "Node Memory Type": "DDR-400",
        "OS": "RH Linux 2.6.13",
    },
]
