"""The socket graph's routes, re-routes and link order, against networkx.

:class:`~repro.machine.SocketGraph` promises the routes that
``networkx.all_pairs_shortest_path`` picks, including its choice among
equal-length routes, the link order of ``networkx.Graph.edges``, and
the re-routes of a ``Graph.copy()`` with failed links removed.  These
tests build the same graphs in networkx and compare every route.
"""

import itertools

import pytest

from repro.machine import Machine, hypothetical
from repro.machine.topology import build_socket_graph

nx = pytest.importorskip("networkx")

#: every (topology, sockets) the spec validator accepts, up to 16 sockets
GRAPHS = (
    [("single", 1), ("pair", 2)]
    + [("ladder", n) for n in range(2, 17, 2)]
    + [("ring", n) for n in range(3, 17)]
    + [("crossbar", n) for n in range(3, 17)]
)


def _spec(topology, sockets):
    return hypothetical(f"{topology}{sockets}", sockets=sockets,
                        topology=topology)


def _reference(spec):
    """The topology built in networkx, link for link as the simulator adds them."""
    n = spec.sockets
    g = nx.Graph()
    g.add_nodes_from(range(n))
    if spec.topology == "pair":
        g.add_edge(0, 1)
    elif spec.topology == "ring":
        for s in range(n):
            g.add_edge(s, (s + 1) % n)
    elif spec.topology == "crossbar":
        for a in range(n):
            for b in range(a + 1, n):
                g.add_edge(a, b)
    elif spec.topology == "ladder":
        cols = n // 2
        for col in range(cols):
            g.add_edge(col, cols + col)
            if col + 1 < cols:
                g.add_edge(col, col + 1)
                g.add_edge(cols + col, cols + col + 1)
    return g


def _nx_routes(g):
    return {(src, dst): path
            for src, targets in nx.all_pairs_shortest_path(g)
            for dst, path in targets.items()}


def _nx_reroute(g, failed):
    """Routes after an outage as networkx computes them, or ``None``."""
    cut = g.copy()
    cut.remove_edges_from(failed)
    if cut.number_of_nodes() > 1 and not nx.is_connected(cut):
        return None
    return _nx_routes(cut)


def _outage(machine, failed):
    """Fail ``failed`` links one by one; the routes, or the error text."""
    try:
        for u, v in failed:
            machine.net.set_link_state(u, v, failed=True)
    except ValueError as exc:
        return str(exc)
    return {(s, d): machine.net.path(s, d)
            for s in range(machine.spec.sockets)
            for d in range(machine.spec.sockets)}


@pytest.mark.parametrize("topology,sockets", GRAPHS)
def test_healthy_routes_and_link_order_match_networkx(topology, sockets):
    spec = _spec(topology, sockets)
    ref = _reference(spec)
    graph = build_socket_graph(spec)
    assert {s: list(nbrs) for s, nbrs in graph.adj.items()} == \
        {s: list(ref.adj[s]) for s in ref}
    assert list(graph.edges) == list(ref.edges)
    assert graph.paths == _nx_routes(ref)
    assert graph.hops == {s: dict(lengths) for s, lengths
                          in nx.all_pairs_shortest_path_length(ref)}
    machine = Machine(spec)
    assert list(machine.net.links) == [
        link for u, v in ref.edges for link in ((u, v), (v, u))]
    assert machine.net.max_hops() == (nx.diameter(ref) if sockets > 1 else 0)


@pytest.mark.parametrize("topology,sockets", GRAPHS)
def test_single_outages_reroute_like_networkx(topology, sockets):
    spec = _spec(topology, sockets)
    ref = _reference(spec)
    for link in ref.edges:
        failed = [tuple(sorted(link))]
        expected = _nx_reroute(ref, failed)
        got = _outage(Machine(spec), failed)
        if expected is None:
            assert got == ("link outages partition the socket graph: "
                           f"{failed} leave no route for traffic")
        else:
            assert got == expected, failed


@pytest.mark.parametrize("topology,sockets", GRAPHS)
def test_paired_outages_reroute_like_networkx(topology, sockets):
    spec = _spec(topology, sockets)
    ref = _reference(spec)
    links = [tuple(sorted(e)) for e in ref.edges]
    pairs = list(itertools.combinations(links, 2))
    for first, second in pairs[::max(1, len(pairs) // 6)]:
        machine = Machine(spec)
        machine.net.set_link_state(*first, failed=True)
        expected = _nx_reroute(ref, [first, second])
        got = _outage(machine, [second])
        if expected is None:
            assert got == ("link outages partition the socket graph: "
                           f"{sorted([first, second])} leave no route "
                           "for traffic")
            # the refused outage leaves the first one's routes standing
            assert _outage(machine, []) == _nx_reroute(ref, [first])
        else:
            assert got == expected, (first, second)


def test_restored_link_routes_like_the_healthy_graph():
    spec = _spec("ladder", 8)
    machine = Machine(spec)
    healthy = _outage(machine, [])
    machine.net.set_link_state(1, 5, failed=True)
    assert _outage(machine, []) != healthy
    machine.net.set_link_state(1, 5)
    assert _outage(machine, []) == healthy == _nx_routes(_reference(spec))
