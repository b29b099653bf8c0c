"""Machine model: multi-core NUMA hardware as a simulation substrate.

Builds the paper's three evaluation systems (Tiger, DMZ, Longs) from
parameterized specs: cores, sockets with on-die memory controllers,
per-core caches, and a coherent HyperTransport socket graph with
fair-share link bandwidth and coherence-probe overheads.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CacheModel", "traffic_factor"),
    ".interconnect": ("Interconnect",),
    ".machine": ("Machine",),
    ".memory": ("MemorySystem",),
    ".params": ("DEFAULT_PARAMS", "GB", "KB", "MB", "PerfParams"),
    ".render": ("describe", "distance_table"),
    ".systems": (
        "SYSTEM_TABLE", "all_systems", "by_name", "chiplet", "dmz", "longs",
        "tiger",
    ),
    ".whatif": ("hypothetical",),
    ".topology": (
        "Core", "CoreSpec", "MachineSpec", "Socket", "SocketSpec",
        "SocketGraph", "build_socket_graph", "ladder_positions",
    ),
})
