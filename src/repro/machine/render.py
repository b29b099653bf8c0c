"""Text rendering of machine topologies (lstopo-style).

``describe(spec)`` prints the socket/core tree with cache and memory
attributes, the interconnect edges, and the ACPI-SLIT-style distance
matrix — the quickest way to sanity-check a custom machine before
running experiments on it.
"""

from __future__ import annotations

import io

from .machine import Machine
from .topology import MachineSpec, build_socket_graph

__all__ = ["describe", "distance_table"]


def _size(nbytes: float) -> str:
    """Human-readable byte size."""
    for unit, factor in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
        if nbytes >= factor:
            value = nbytes / factor
            return f"{value:.0f}{unit}" if value == int(value) else f"{value:.1f}{unit}"
    return f"{nbytes:.0f}B"


def describe(spec: MachineSpec) -> str:
    """An lstopo-like tree of the machine plus interconnect summary."""
    machine = Machine(spec)
    core = spec.socket.core
    out = io.StringIO()
    out.write(
        f"Machine {spec.name}: {spec.sockets} sockets, "
        f"{spec.total_cores} cores, topology={spec.topology}\n"
    )
    if spec.description:
        out.write(f"  ({spec.description})\n")
    for socket in machine.sockets:
        out.write(
            f"  Socket {socket.socket_id}: "
            f"{_size(spec.socket.dram_bytes)} DDR-400 "
            f"(effective {machine.mem.controller_capacity / 1e9:.2f} GB/s "
            f"after coherence derating)\n"
        )
        for c in socket.cores:
            out.write(
                f"    Core {c.core_id}: {core.frequency_hz / 1e9:.1f} GHz, "
                f"peak {core.peak_flops / 1e9:.1f} GFlop/s, "
                f"L1d {_size(core.l1d_bytes)}, L2 {_size(core.l2_bytes)}\n"
            )
    graph = build_socket_graph(spec)
    if graph.edges:
        edges = " ".join(f"{a}-{b}" for a, b in sorted(graph.edges))
        out.write(
            f"  HyperTransport links ({spec.params.ht_link_bandwidth / 1e9:.1f} "
            f"GB/s each): {edges}\n"
        )
        out.write(f"  diameter: {machine.net.max_hops()} hops\n")
    out.write(distance_table(spec))
    return out.getvalue()


def distance_table(spec: MachineSpec) -> str:
    """The SLIT-style node distance matrix as text (numactl --hardware)."""
    machine = Machine(spec)
    matrix = machine.distance_matrix()
    n = spec.sockets
    out = io.StringIO()
    out.write("  node distances:\n")
    out.write("      " + " ".join(f"{d:>3d}" for d in range(n)) + "\n")
    for row in range(n):
        cells = " ".join(f"{int(matrix[row, col]):>3d}" for col in range(n))
        out.write(f"   {row:>2d}: {cells}\n")
    return out.getvalue()
