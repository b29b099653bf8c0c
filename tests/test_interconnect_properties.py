"""Routing and transfer properties of the interconnect model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import GB, Machine, hypothetical, longs


@settings(max_examples=30, deadline=None)
@given(src=st.integers(0, 7), dst=st.integers(0, 7))
def test_paths_are_valid_walks(src, dst):
    """Every routed path walks existing edges from src to dst."""
    machine = Machine(longs())
    path = machine.net.path(src, dst)
    assert path[0] == src and path[-1] == dst
    for a, b in zip(path, path[1:]):
        assert machine.net.graph.has_edge(a, b)
    assert len(machine.net.path_links(src, dst)) == machine.net.hops(src, dst)


@settings(max_examples=30, deadline=None)
@given(src=st.integers(0, 7), dst=st.integers(0, 7))
def test_triangle_inequality_of_hops(src, dst):
    """Shortest-path hops obey the triangle inequality via any waypoint."""
    machine = Machine(longs())
    for mid in range(8):
        assert machine.net.hops(src, dst) <= (
            machine.net.hops(src, mid) + machine.net.hops(mid, dst)
        )


def test_transfer_touches_exactly_path_links():
    machine = Machine(longs())
    src, dst = 0, 3  # three top-rail hops
    machine.net.transfer(src, dst, 1 * GB)
    machine.engine.run()
    moved = {edge: link.total_transferred
             for edge, link in machine.net.links.items()
             if link.total_transferred > 0}
    assert set(moved) == {(0, 1), (1, 2), (2, 3)}
    assert all(v == pytest.approx(1 * GB) for v in moved.values())


def test_reverse_direction_uses_other_links():
    """HT is full duplex: opposite directions never contend."""
    machine = Machine(longs())
    machine.net.transfer(0, 3, 3.2 * GB)
    machine.net.transfer(3, 0, 3.2 * GB)
    machine.engine.run()
    # both finish as if alone: one second at full link rate
    assert machine.engine.now == pytest.approx(1.0, rel=1e-6)


def test_crossbar_any_pair_single_hop_property():
    spec = hypothetical("xbar", sockets=6, topology="crossbar")
    machine = Machine(spec)
    for s in range(6):
        for d in range(6):
            if s != d:
                assert machine.net.hops(s, d) == 1


def test_unroutable_pair_raises():
    spec = hypothetical("solo", sockets=1, topology="single")
    machine = Machine(spec)
    with pytest.raises(ValueError):
        machine.net.path(0, 1)


def test_path_links_follow_rerouting_after_link_failure():
    """path_links is memoized, but a link outage recomputes the routes
    and the memo with them; healing restores the original links."""
    machine = Machine(longs())
    net = machine.net
    before = net.path_links(1, 2)
    assert before == [net.links[(1, 2)]]
    assert net.path_links(1, 2) is before  # memoized
    net.set_link_state(1, 2, failed=True)
    rerouted = net.path_links(1, 2)
    assert net.links[(1, 2)] not in rerouted
    assert len(rerouted) == net.hops(1, 2) == 3
    path = net.path(1, 2)
    assert rerouted == [net.links[(a, b)] for a, b in zip(path, path[1:])]
    net.set_link_state(1, 2)
    assert net.path_links(1, 2) == before
