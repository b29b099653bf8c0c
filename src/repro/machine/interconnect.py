"""Coherent HyperTransport interconnect model.

Each undirected edge of the socket graph becomes two directed
:class:`~repro.sim.resources.BandwidthResource` links (HT is full
duplex).  Payloads traverse every link on the shortest path concurrently
(independent-bottleneck approximation), so a congested rung of the
ladder throttles exactly the transfers crossing it — this is what
exposes the "topology and congestion effects on the HT8501's
HyperTransport ladder" (Section 3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..sim import BandwidthResource, Engine, Event
from .topology import MachineSpec, build_socket_graph

__all__ = ["Interconnect"]


class Interconnect:
    """Directed-link network over the socket graph with shortest-path routing."""

    def __init__(self, engine: Engine, spec: MachineSpec, perf=None):
        self.engine = engine
        self.spec = spec
        self.perf = perf
        self.graph = build_socket_graph(spec)
        params = spec.params
        self.links: Dict[Tuple[int, int], BandwidthResource] = {}
        for u, v in self.graph.edges:
            for a, b in ((u, v), (v, u)):
                self.links[(a, b)] = BandwidthResource(
                    engine, params.ht_link_bandwidth, name=f"ht:{a}->{b}"
                )
        # Fault state: empty/healthy unless a FaultScheduler arms links.
        self._base_bandwidth = params.ht_link_bandwidth
        self._latency_factors: Dict[Tuple[int, int], float] = {}
        self._failed: Set[Tuple[int, int]] = set()
        # The shared graph carries its routes; apart from injected
        # outages they are static.
        self._paths: Dict[Tuple[int, int], List[int]] = {}
        self._recompute_paths()

    def _recompute_paths(self) -> None:
        """Rebuild the routing table over the surviving edges."""
        graph = self.graph
        if self._failed:
            graph = self.graph.without(self._failed)
            if not graph.is_connected():
                raise ValueError(
                    "link outages partition the socket graph: "
                    f"{sorted(self._failed)} leave no route for traffic"
                )
        self._paths = graph.paths
        self._diameter = graph.diameter
        #: path_links memo, valid until the routes change again
        self._path_links: Dict[Tuple[int, int], List[BandwidthResource]] = {}

    def set_link_state(self, src: int, dst: int, bandwidth_factor: float = 1.0,
                       latency_factor: float = 1.0,
                       failed: bool = False) -> None:
        """Set the absolute fault state of one undirected link.

        Both directed resources renegotiate to ``bandwidth_factor`` of
        the healthy bandwidth and carry ``latency_factor`` x the wire
        latency; ``failed=True`` removes the edge from routing (traffic
        reroutes over the surviving graph — the ladder's redundant
        rungs).  Defaults restore the link to healthy.  Raises
        ``ValueError`` when the link does not exist or an outage would
        partition the machine.
        """
        if not self.graph.has_edge(src, dst):
            raise ValueError(f"no HT link between sockets {src} and {dst}")
        if bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be positive")
        u, v = (min(src, dst), max(src, dst))
        for a, b in ((u, v), (v, u)):
            self.links[(a, b)].set_capacity(
                self._base_bandwidth * bandwidth_factor
            )
            if latency_factor != 1.0:
                self._latency_factors[(a, b)] = latency_factor
            else:
                self._latency_factors.pop((a, b), None)
        was_failed = (u, v) in self._failed
        if failed:
            self._failed.add((u, v))
        else:
            self._failed.discard((u, v))
        if failed != was_failed:
            try:
                self._recompute_paths()
            except ValueError:
                self._failed.discard((u, v))
                self._recompute_paths()
                raise

    def path(self, src: int, dst: int) -> List[int]:
        """Socket sequence of the route from ``src`` to ``dst`` (inclusive)."""
        try:
            return self._paths[(src, dst)]
        except KeyError:
            raise ValueError(f"no route between sockets {src} and {dst}") from None

    def hops(self, src: int, dst: int) -> int:
        """Number of HT links crossed between two sockets."""
        return len(self.path(src, dst)) - 1

    def path_links(self, src: int, dst: int) -> List[BandwidthResource]:
        """The directed link resources along the route.

        Memoized per ``(src, dst)`` until a link outage reroutes; the
        list is shared, so callers must not mutate it (nor ``path``'s,
        which every machine of the same topology shares).
        """
        links = self._path_links.get((src, dst))
        if links is None:
            path = self.path(src, dst)
            links = [self.links[(path[i], path[i + 1])]
                     for i in range(len(path) - 1)]
            self._path_links[(src, dst)] = links
        return links

    def path_latency(self, src: int, dst: int) -> float:
        """Pure wire/router latency of the route (seconds)."""
        base = self.spec.params.ht_link_latency
        if not self._latency_factors:
            # exact healthy fast path: a single multiply, bit-identical
            # to the pre-fault-injection formula
            return self.hops(src, dst) * base
        path = self.path(src, dst)
        return sum(
            base * self._latency_factors.get((path[i], path[i + 1]), 1.0)
            for i in range(len(path) - 1)
        )

    def transfer(self, src: int, dst: int, nbytes: float,
                 weight: float = 1.0, core: Optional[int] = None) -> Event:
        """Move ``nbytes`` from socket ``src`` to ``dst``.

        The returned event fires when the payload has cleared every link
        on the path.  Same-socket transfers complete immediately (the
        caller models the local copy through the memory system).
        ``core`` attributes the link traffic (bytes x links crossed,
        matching per-link HT event counts) when profiling is active.
        """
        links = self.path_links(src, dst)
        if not links:
            ev = Event(self.engine)
            ev.succeed(self.engine.now)
            return ev
        if self.perf is not None and core is not None and nbytes > 0:
            self.perf.count(core, "ht_link_bytes", nbytes * len(links))
        flows = [link.transfer(nbytes, weight=weight) for link in links]
        return self.engine.all_of(flows)

    def max_hops(self) -> int:
        """Diameter of the routed socket graph in hops."""
        return self._diameter
