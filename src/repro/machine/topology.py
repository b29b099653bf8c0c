"""Hardware topology: cores, sockets, NUMA nodes, and the socket graph.

Terminology follows Section 2 of the paper exactly:

* a **core** is the fundamental execution unit;
* a **socket** contains one or more cores plus a memory link (every
  socket is one NUMA node on Opteron — the memory controller is on-die);
* a **node** (here: :class:`MachineSpec`, a single shared-memory box)
  is a group of sockets communicating over coherent HyperTransport.

The socket-level interconnect is a :class:`SocketGraph`: an ordered
adjacency map of at most a few dozen links, with every breadth-first
route precomputed.  The builders cover the evaluation systems -- a
single link for two-socket boxes (Tiger, DMZ) and the 2×4 *ladder* of
the Iwill H8501 (Longs, Figure 1) -- plus ring and crossbar what-ifs.
One graph is built per (topology, socket count) and shared, so it is
never mutated; a link outage routes over :meth:`SocketGraph.without`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .params import GB, KB, MB, PerfParams

__all__ = [
    "CoreSpec",
    "SocketSpec",
    "MachineSpec",
    "Core",
    "Socket",
    "SocketGraph",
    "build_socket_graph",
    "ladder_positions",
]


@dataclass(frozen=True)
class CoreSpec:
    """Static description of one core."""

    frequency_hz: float
    flops_per_cycle: float = 2.0  # SSE2 double precision on K8
    l1d_bytes: int = 64 * KB
    l2_bytes: int = 1 * MB  # private per core on dual-core K8

    @property
    def peak_flops(self) -> float:
        """Peak double-precision flop rate of the core."""
        return self.frequency_hz * self.flops_per_cycle


@dataclass(frozen=True)
class SocketSpec:
    """Static description of one socket: cores plus the memory link.

    ``l3_bytes`` is a socket-shared last-level cache, ``0`` on the
    paper's K8 Opterons (private L2 only).  Chiplet-era presets model
    each CCX/CCD as one "socket" whose split L3 slice is private to its
    cores — the defining feature of the hierarchy — so the analytic
    cache model folds a per-core share (``l3_bytes /
    cores_per_socket``) into effective capacity.
    """

    cores_per_socket: int
    core: CoreSpec
    dram_peak_bandwidth: float = 6.4 * GB  # DDR-400 dual channel
    dram_bytes: int = 4 * 1024 ** 3
    l3_bytes: int = 0

    @property
    def l3_share_bytes(self) -> float:
        """Per-core share of the socket's L3 (0 when there is no L3)."""
        if not self.l3_bytes:
            return 0.0
        return self.l3_bytes / self.cores_per_socket


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a shared-memory node (one paper system).

    ``topology`` selects the socket-graph builder: ``"single"`` (one
    socket), ``"pair"`` (two sockets, one HT link), ``"ladder"``
    (2×(S/2) mesh as in the Iwill H8501), ``"ring"`` (each socket links
    to two neighbours), or ``"crossbar"`` (every socket pair directly
    linked — the what-if topology for ablation studies).
    """

    name: str
    sockets: int
    socket: SocketSpec
    topology: str = "pair"
    params: PerfParams = field(default_factory=PerfParams)
    description: str = ""

    _TOPOLOGIES = ("single", "pair", "ladder", "ring", "crossbar")

    def __post_init__(self):
        if self.sockets < 1:
            raise ValueError("a machine needs at least one socket")
        if self.topology not in self._TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "single" and self.sockets != 1:
            raise ValueError("'single' topology requires exactly 1 socket")
        if self.topology == "pair" and self.sockets != 2:
            raise ValueError("'pair' topology requires exactly 2 sockets")
        if self.topology == "ladder" and self.sockets % 2:
            raise ValueError("'ladder' topology requires an even socket count")
        if self.topology in ("ring", "crossbar") and self.sockets < 3:
            raise ValueError(
                f"'{self.topology}' topology requires at least 3 sockets"
            )

    def cache_token(self) -> str:
        """Stable content hash of every field that shapes simulation.

        The experiment result cache keys on this, so two specs with
        identical parameters share cached results even when constructed
        independently (presets, ``hypothetical()`` what-ifs, tests).
        Memoized on the frozen instance (a bench run keys ~1500 cells);
        the memo is not a field, so ``==``, ``hash`` and ``asdict`` skip it.
        """
        token = self.__dict__.get("_cache_token")
        if token is None:
            payload = json.dumps(asdict(self), sort_keys=True,
                                 separators=(",", ":"))
            token = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_cache_token", token)
        return token

    @property
    def total_cores(self) -> int:
        """Total cores in the machine."""
        return self.sockets * self.socket.cores_per_socket

    @property
    def cores_per_socket(self) -> int:
        return self.socket.cores_per_socket


@dataclass(frozen=True)
class Core:
    """One concrete core instance: global id plus its socket."""

    core_id: int
    socket_id: int
    local_index: int  # index within the socket
    spec: CoreSpec


@dataclass
class Socket:
    """One concrete socket instance with its core list."""

    socket_id: int
    spec: SocketSpec
    cores: List[Core] = field(default_factory=list)

    @property
    def core_ids(self) -> List[int]:
        return [c.core_id for c in self.cores]


def ladder_positions(sockets: int) -> Dict[int, Tuple[int, int]]:
    """Grid coordinates (row, column) of each socket in a 2×(S/2) ladder."""
    cols = sockets // 2
    return {s: (s // cols, s % cols) for s in range(sockets)}


class SocketGraph:
    """An undirected socket graph: ordered adjacency plus shortest routes.

    ``adj[s]`` lists the neighbours of socket ``s`` in the order their
    links were added.  ``edges`` holds each link once, ``(u, v)`` with
    ``u`` the first socket of the map to list it.  ``paths[(src, dst)]``
    is the breadth-first route between two sockets (inclusive): among
    equal-length routes, the neighbour discovered first wins and
    neighbours are visited in ``adj`` order, so every route, and with
    it every simulated transfer, is fixed by the link order alone.
    ``hops[src][dst]`` is the route's link count and ``diameter`` the
    longest of them.  Sockets that cannot reach each other have no
    entry.  ``tests/test_socket_graph_oracle.py`` checks routes,
    re-routes and link order against a graph library.
    """

    __slots__ = ("adj", "edges", "paths", "hops", "diameter")

    def __init__(self, adj: Dict[int, Tuple[int, ...]]):
        self.adj = adj
        seen = set()
        edges: List[Tuple[int, int]] = []
        for s, nbrs in adj.items():
            edges.extend((s, w) for w in nbrs if w not in seen)
            seen.add(s)
        self.edges: Tuple[Tuple[int, int], ...] = tuple(edges)
        self.paths: Dict[Tuple[int, int], List[int]] = {}
        self.hops: Dict[int, Dict[int, int]] = {}
        for src in adj:
            routes = {src: [src]}
            frontier = [src]
            while frontier:
                reached = []
                for v in frontier:
                    for w in adj[v]:
                        if w not in routes:
                            routes[w] = routes[v] + [w]
                            reached.append(w)
                frontier = reached
            self.hops[src] = {dst: len(r) - 1 for dst, r in routes.items()}
            for dst, route in routes.items():
                self.paths[(src, dst)] = route
        self.diameter = max((max(row.values()) for row in self.hops.values()),
                            default=0)

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def number_of_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def is_connected(self) -> bool:
        """True when every socket reaches every other."""
        return all(len(row) == len(self.adj) for row in self.hops.values())

    def without(self, links: Iterable[Tuple[int, int]]) -> "SocketGraph":
        """A new graph with ``links`` (``(u, v)`` pairs, ``u < v``) cut.

        Each socket lists its lower-numbered neighbours first, ascending,
        then the rest in link order.  That order fixes how re-routes
        around a failed link break ties.
        """
        cut = set(links)
        adj = {}
        for s, nbrs in self.adj.items():
            order = sorted(w for w in nbrs if w < s) + [w for w in nbrs
                                                        if w > s]
            adj[s] = tuple(w for w in order
                           if (min(s, w), max(s, w)) not in cut)
        return SocketGraph(adj)


def build_socket_graph(spec: MachineSpec) -> SocketGraph:
    """The socket-level HyperTransport graph for a machine spec.

    Links carry no attributes here; bandwidth/latency are attached by the
    interconnect model, which owns the dynamic state.  The graph depends
    only on the topology and socket count, and is built once per pair.
    """
    return _socket_graph(spec.topology, spec.sockets)


@lru_cache(maxsize=None)
def _socket_graph(topology: str, sockets: int) -> SocketGraph:
    adj: Dict[int, List[int]] = {s: [] for s in range(sockets)}
    for u, v in _links(topology, sockets):
        adj[u].append(v)
        adj[v].append(u)
    return SocketGraph({s: tuple(nbrs) for s, nbrs in adj.items()})


def _links(topology: str, sockets: int) -> List[Tuple[int, int]]:
    if topology == "single":
        return []
    if topology == "pair":
        return [(0, 1)]
    if topology == "ring":
        return [(s, (s + 1) % sockets) for s in range(sockets)]
    if topology == "crossbar":
        return [(a, b) for a in range(sockets) for b in range(a + 1, sockets)]
    # ladder: two rows, sockets//2 columns; rungs between rows, rails
    # along each row (Figure 1 of the paper).
    positions = ladder_positions(sockets)
    by_pos = {pos: s for s, pos in positions.items()}
    cols = sockets // 2
    links = []
    for col in range(cols):
        links.append((by_pos[(0, col)], by_pos[(1, col)]))  # rung
        if col + 1 < cols:
            links.append((by_pos[(0, col)], by_pos[(0, col + 1)]))  # top rail
            links.append((by_pos[(1, col)], by_pos[(1, col + 1)]))  # bottom rail
    return links
