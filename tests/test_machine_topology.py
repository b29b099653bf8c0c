"""Tests for machine topology, specs, and system presets."""

import pytest

from repro.machine import (
    SYSTEM_TABLE,
    CoreSpec,
    MachineSpec,
    Machine,
    SocketSpec,
    all_systems,
    build_socket_graph,
    by_name,
    dmz,
    ladder_positions,
    longs,
    tiger,
)


def test_core_peak_flops():
    core = CoreSpec(frequency_hz=2.2e9, flops_per_cycle=2.0)
    assert core.peak_flops == pytest.approx(4.4e9)  # "capable of 4.4 GFlop/s"


def test_tiger_matches_table1():
    spec = tiger()
    assert spec.sockets == 2
    assert spec.socket.cores_per_socket == 1
    assert spec.total_cores == 2
    assert spec.socket.core.frequency_hz == pytest.approx(2.2e9)


def test_dmz_matches_table1():
    spec = dmz()
    assert spec.sockets == 2
    assert spec.socket.cores_per_socket == 2
    assert spec.total_cores == 4
    assert spec.socket.core.frequency_hz == pytest.approx(2.2e9)


def test_longs_matches_table1():
    spec = longs()
    assert spec.sockets == 8
    assert spec.socket.cores_per_socket == 2
    assert spec.total_cores == 16
    assert spec.socket.core.frequency_hz == pytest.approx(1.8e9)
    assert spec.topology == "ladder"


def test_by_name_case_insensitive():
    assert by_name("LONGS").name == "Longs"
    assert by_name("dmz").name == "DMZ"


def test_by_name_unknown_raises():
    with pytest.raises(ValueError, match="unknown system"):
        by_name("bluegene")


def test_all_systems_order():
    assert [s.name for s in all_systems()] == ["Tiger", "DMZ", "Longs"]


def test_system_table_is_table1():
    assert len(SYSTEM_TABLE) == 3
    row = {r["Name"]: r for r in SYSTEM_TABLE}
    assert row["Longs"]["Total Cores per Node"] == 16
    assert row["Tiger"]["Opteron Model"] == 248
    assert row["DMZ"]["Node Memory Type"] == "DDR-400"


def test_spec_validation():
    core = CoreSpec(frequency_hz=2e9)
    sock = SocketSpec(cores_per_socket=2, core=core)
    with pytest.raises(ValueError):
        MachineSpec(name="bad", sockets=3, socket=sock, topology="pair")
    with pytest.raises(ValueError):
        MachineSpec(name="bad", sockets=3, socket=sock, topology="ladder")
    with pytest.raises(ValueError):
        MachineSpec(name="bad", sockets=2, socket=sock, topology="mesh3d")


def test_pair_graph_single_edge():
    g = build_socket_graph(dmz())
    assert g.number_of_nodes() == 2
    assert g.number_of_edges() == 1


def test_ladder_graph_shape():
    g = build_socket_graph(longs())
    # 2x4 ladder: 4 rungs + 3 top rails + 3 bottom rails = 10 edges
    assert g.number_of_nodes() == 8
    assert g.number_of_edges() == 10
    assert g.is_connected()
    degrees = sorted(len(nbrs) for nbrs in g.adj.values())
    assert degrees == [2, 2, 2, 2, 3, 3, 3, 3]  # corners 2, middles 3


def test_ladder_positions_cover_grid():
    pos = ladder_positions(8)
    assert sorted(pos.values()) == [(r, c) for r in (0, 1) for c in range(4)]


def test_machine_core_numbering_socket_major():
    m = Machine(longs())
    assert m.total_cores == 16
    for cid in range(16):
        assert m.socket_of_core(cid) == cid // 2
    assert m.cores_on_socket(3) == [6, 7]
    assert m.siblings(6) == [7]


def test_machine_distance_matrix_slit_style():
    m = Machine(dmz())
    d = m.distance_matrix()
    assert d[0, 0] == 10
    assert d[0, 1] == 20
    assert (d == d.T).all()


def test_longs_diameter_is_four_hops():
    m = Machine(longs())
    # opposite corners of the 2x4 ladder: 3 rail hops + 1 rung
    assert m.net.max_hops() == 4


def _max_hops_by_pairs(machine):
    """Diameter as ``Interconnect.max_hops`` computed it before
    ``SocketGraph.diameter``: the longest route over every socket pair."""
    sockets = machine.spec.sockets
    if sockets == 1:
        return 0
    return max(machine.net.hops(s, d)
               for s in range(sockets) for d in range(sockets))


_SHAPES = ([("single", 1), ("pair", 2)]
           + [("ladder", n) for n in range(2, 17, 2)]
           + [(topology, n) for topology in ("ring", "crossbar")
              for n in range(3, 17)])


@pytest.mark.parametrize("topology,sockets", _SHAPES)
def test_socket_graph_diameter_is_the_longest_route(topology, sockets):
    from repro.machine import hypothetical

    spec = hypothetical(f"{topology}-{sockets}", sockets=sockets,
                        topology=topology)
    machine = Machine(spec)
    assert build_socket_graph(spec).diameter == _max_hops_by_pairs(machine)
    assert machine.net.max_hops() == _max_hops_by_pairs(machine)


def test_max_hops_follows_a_reroute():
    machine = Machine(longs())
    before = machine.net.max_hops()
    machine.net.set_link_state(0, 1, failed=True)  # a top-rail link
    assert machine.net.max_hops() == _max_hops_by_pairs(machine) > before
    machine.net.set_link_state(0, 1)
    assert machine.net.max_hops() == before


def test_routing_hops_symmetric():
    m = Machine(longs())
    for s in range(8):
        for d in range(8):
            assert m.net.hops(s, d) == m.net.hops(d, s)
            if s == d:
                assert m.net.hops(s, d) == 0


# -- chiplet preset (first post-paper system) --------------------------------


def test_chiplet_topology():
    from repro.machine import chiplet

    spec = chiplet()
    assert spec.sockets == 4  # CCDs
    assert spec.socket.cores_per_socket == 4
    assert spec.total_cores == 16
    assert spec.topology == "crossbar"  # IO-die hub: uniform CCD hops
    assert spec.socket.l3_bytes == 16 * 1024 ** 2
    g = build_socket_graph(spec)
    assert g.number_of_edges() == 6  # every CCD pair directly linked
    assert g.is_connected()
    assert max(max(row.values()) for row in g.hops.values()) == 1  # diameter


def test_chiplet_split_l3_folds_into_cache_capacity():
    from repro.machine import CacheModel, chiplet

    spec = chiplet()
    model = CacheModel.for_socket(spec.socket)
    # per-core share of the 16 MB CCX slice on top of L1D + L2
    share = 16 * 1024 ** 2 / 4
    assert model.l3_share_bytes == pytest.approx(share)
    assert model.capacity == pytest.approx(
        spec.socket.core.l2_bytes + spec.socket.core.l1d_bytes + share)
    # the paper's K8 parts have no L3: capacity is unchanged by the fold
    k8 = CacheModel.for_socket(tiger().socket)
    assert k8.l3_share_bytes == 0.0
    assert k8.capacity == pytest.approx(
        tiger().socket.core.l2_bytes + tiger().socket.core.l1d_bytes)


def test_chiplet_machine_and_engine_surrogate_capacity_parity():
    from repro.machine import chiplet

    spec = chiplet()
    machine = Machine(spec)
    from repro.core.affinity import AffinityScheme, resolve_scheme
    from repro.surrogate.evaluator import SurrogateEvaluator

    affinity = resolve_scheme(AffinityScheme.DEFAULT, spec, ntasks=4)
    surrogate = SurrogateEvaluator(spec, affinity)
    assert machine.cache.capacity == pytest.approx(
        surrogate.cache.capacity)


def test_chiplet_registered_but_not_in_paper_set():
    from repro.machine import chiplet

    assert by_name("chiplet").name == "Chiplet"
    assert by_name("CHIPLET").total_cores == 16
    # the bench tables iterate all_systems(): paper set only
    assert [s.name for s in all_systems()] == ["Tiger", "DMZ", "Longs"]


def test_chiplet_cache_keys_distinct():
    import dataclasses

    from repro.machine import chiplet

    spec = chiplet()
    tokens = {tiger().cache_token(), dmz().cache_token(),
              longs().cache_token(), spec.cache_token()}
    assert len(tokens) == 4
    # the L3 field itself is key-bearing: a same-shape no-L3 twin must
    # not collide with the chiplet spec in the result cache
    twin = dataclasses.replace(
        spec, socket=dataclasses.replace(spec.socket, l3_bytes=0))
    assert twin.cache_token() != spec.cache_token()
    assert chiplet().cache_token() == spec.cache_token()  # deterministic


def _fresh_token(spec):
    import dataclasses
    import hashlib
    import json

    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_cache_token_memo_matches_fresh_hash():
    spec = longs()
    assert spec.cache_token() == _fresh_token(spec)
    assert spec.cache_token() == _fresh_token(spec)  # served from the memo


def test_cache_token_memo_not_inherited_by_replace():
    import dataclasses

    spec = longs()
    token = spec.cache_token()
    smaller = dataclasses.replace(spec, sockets=4)
    assert smaller.cache_token() == _fresh_token(smaller)
    assert smaller.cache_token() != token


def test_cache_token_survives_pickle():
    import pickle

    spec = dmz()
    token = spec.cache_token()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.cache_token() == token == _fresh_token(clone)


def test_cache_token_memo_invisible_to_eq_hash_and_keys():
    import dataclasses

    from repro.core.cache import canonical_token

    memoized = longs()
    untouched = dataclasses.replace(memoized)
    memoized.cache_token()
    assert "_cache_token" not in untouched.__dict__
    assert memoized == untouched
    assert hash(memoized) == hash(untouched)
    assert canonical_token(memoized) == canonical_token(untouched)
    assert "_cache_token" not in repr(canonical_token(memoized))
