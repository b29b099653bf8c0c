"""Machine model: multi-core NUMA hardware as a simulation substrate.

Builds the paper's three evaluation systems (Tiger, DMZ, Longs) from
parameterized specs: cores, sockets with on-die memory controllers,
per-core caches, and a coherent HyperTransport socket graph with
fair-share link bandwidth and coherence-probe overheads.
"""

from .cache import CacheModel, traffic_factor
from .interconnect import Interconnect
from .machine import Machine
from .memory import MemorySystem
from .params import DEFAULT_PARAMS, GB, KB, MB, PerfParams
from .render import describe, distance_table
from .systems import SYSTEM_TABLE, all_systems, by_name, chiplet, dmz, \
    longs, tiger
from .whatif import hypothetical
from .topology import (
    Core,
    CoreSpec,
    MachineSpec,
    Socket,
    SocketSpec,
    SocketGraph,
    build_socket_graph,
    ladder_positions,
)

__all__ = [
    "Machine",
    "MachineSpec",
    "CoreSpec",
    "SocketSpec",
    "Core",
    "Socket",
    "CacheModel",
    "traffic_factor",
    "Interconnect",
    "MemorySystem",
    "PerfParams",
    "DEFAULT_PARAMS",
    "KB",
    "MB",
    "GB",
    "SocketGraph",
    "build_socket_graph",
    "ladder_positions",
    "tiger",
    "dmz",
    "longs",
    "chiplet",
    "by_name",
    "all_systems",
    "SYSTEM_TABLE",
    "hypothetical",
    "describe",
    "distance_table",
]
