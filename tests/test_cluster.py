"""Tests for the cluster subsystem: transport, router, replay.

The load-bearing cluster promises:

* The frame transport survives hostile clients — malformed or
  oversized frames, non-object messages, unknown ops, protocol-2
  NDJSON peers and mid-stream disconnects answer with typed wire codes
  (or end that connection only) and the daemon stays up for the next
  client.
* A stale socket file from a crashed daemon is reclaimed; a live
  daemon on the same path is never clobbered.
* Rendezvous hashing gives every content address a stable home shard
  and fallback order: removing a shard only moves *its* keys.
* The router reroutes around dead shards; only when every shard is
  unreachable does a request fail, with the pre-acceptance
  ``shard_unavailable`` wire code.
* Replay reports honest percentiles and the cluster preserves the
  coalescing guarantee: identical cells collapse onto one simulation.
"""

import json
import os
import socket
import threading

import pytest

from repro.core.cache import ResultCache
from repro.errors import ProtocolError, ShardUnavailableError, from_wire
from repro.cluster import (
    Router,
    load_trace,
    percentile,
    rendezvous_order,
    run_replay,
    shard_for_key,
    trace_from_ledger,
)
from repro.service import Session
from repro.service.daemon import TcpServiceServer
from repro.service.transport import (
    TcpFrameServer,
    format_address,
    parse_address,
    prepare_unix_socket,
    request,
    serve_in_thread,
)
from repro.wire import frames

FAST_STREAM = {"workload": "stream", "system": "tiger", "ntasks": 2,
               "scheme": "default", "tier": "fast"}
FAST_CG = {"workload": "cg", "system": "tiger", "ntasks": 2,
           "scheme": "default", "tier": "fast"}


# -- address parsing ---------------------------------------------------------


def test_parse_address_variants():
    assert parse_address("tcp://10.0.0.1:7070") == ("10.0.0.1", 7070)
    assert parse_address("localhost:7070") == ("localhost", 7070)
    assert parse_address(":7070") == ("127.0.0.1", 7070)
    assert parse_address("unix:///run/repro.sock") == "/run/repro.sock"
    assert parse_address("/tmp/x/service.sock") == "/tmp/x/service.sock"
    assert parse_address("service.sock") == "service.sock"
    # a colon with a non-numeric tail is a path, not a port
    assert parse_address("weird:name") == "weird:name"
    assert parse_address(("h", 9)) == ("h", 9)


def test_format_address_forms():
    assert format_address(("127.0.0.1", 7070)) == "127.0.0.1:7070"
    assert format_address("/tmp/s.sock") == "/tmp/s.sock"


# -- stale-socket recovery ---------------------------------------------------


def _leave_stale_socket(path):
    """Bind-and-close: what a crashed daemon leaves behind."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(str(path))
    sock.close()
    assert os.path.exists(path)


def test_prepare_unix_socket_reclaims_stale(tmp_path):
    path = tmp_path / "stale.sock"
    _leave_stale_socket(path)
    prepare_unix_socket(str(path))
    assert not os.path.exists(path)


def test_prepare_unix_socket_refuses_live(tmp_path):
    path = str(tmp_path / "live.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    try:
        with pytest.raises(OSError, match="live daemon"):
            prepare_unix_socket(path)
        assert os.path.exists(path)  # the live socket was not clobbered
    finally:
        listener.close()


def test_serve_rebinds_over_stale_socket(tmp_path):
    from repro.service.daemon import ServiceServer

    path = tmp_path / "svc.sock"
    _leave_stale_socket(path)
    with Session(cache=ResultCache(directory=tmp_path / "cache")) as session:
        server = ServiceServer(str(path), session)
        serve_in_thread(server, "rebind-test")
        try:
            reply = request(str(path), {"op": "ping"})
            assert reply["status"] == "ok"
        finally:
            server.shutdown()
            server.close()
    assert not os.path.exists(path)


# -- frame protocol error paths ---------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    """A real TCP serve daemon on an ephemeral port."""
    session = Session(cache=ResultCache(directory=tmp_path / "cache"),
                      jobs=1)
    server = TcpServiceServer(("127.0.0.1", 0), session)
    serve_in_thread(server, "daemon-test")
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        session.close()


@pytest.mark.parametrize("header, complaint", [
    (b"XW\x03\x00\x00\x00\x00\x00", "magic"),
    (b"RW\x09\x00\x00\x00\x00\x00", "version"),
    (b"RW\x03\x00\xff\xff\xff\xff", "exceeds"),
], ids=["magic", "version", "oversized"])
def test_bad_frame_header_answers_typed_and_drops_connection(
        daemon, header, complaint):
    with socket.create_connection(daemon.address, timeout=5.0) as sock:
        sock.sendall(header)
        stream = sock.makefile("rb")
        reply = frames.read_frame_message(stream)
        assert reply["status"] == "error"
        assert reply["code"] == "protocol_error"
        assert complaint in reply["message"]
        # past a bad header the stream cannot be re-framed: the server
        # drops this connection...
        assert stream.read() == b""
    # ...but only this connection — the daemon still serves
    assert request(daemon.address, {"op": "ping"})["status"] == "ok"


def test_unknown_op_answers_protocol_error(daemon):
    reply = request(daemon.address, {"op": "warble"})
    assert reply["status"] == "error"
    assert reply["code"] == "protocol_error"
    assert "unknown op" in reply["message"]
    assert reply["op"] == "warble"
    assert request(daemon.address, {"op": "ping"})["status"] == "ok"


def test_non_object_frame_answers_protocol_error_and_keeps_connection(
        daemon):
    with socket.create_connection(daemon.address, timeout=5.0) as sock:
        stream = sock.makefile("rb")
        frames.write_frame_message(sock, [1, 2, 3])
        reply = frames.read_frame_message(stream)
        assert reply["status"] == "error"
        assert reply["code"] == "protocol_error"
        # the framing is intact, so the connection survives
        frames.write_frame_message(sock, {"op": "ping"})
        assert frames.read_frame_message(stream)["status"] == "ok"


def test_midstream_disconnect_leaves_daemon_up(daemon):
    # half a request frame, then vanish
    sock = socket.create_connection(daemon.address, timeout=5.0)
    sock.sendall(frames.pack_frames({"op": "ping"})[:5])
    sock.close()
    # a full request, then vanish before reading the reply
    sock = socket.create_connection(daemon.address, timeout=5.0)
    frames.write_frame_message(sock, {"op": "stats"})
    sock.close()
    assert request(daemon.address, {"op": "ping"})["status"] == "ok"


def test_ndjson_peer_gets_one_protocol_error_line_and_is_closed(daemon):
    with socket.create_connection(daemon.address, timeout=5.0) as sock:
        sock.sendall(b'{"op": "ping"}\n')
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break  # the server closed the connection
            received += chunk
    lines = received.splitlines()
    assert len(lines) == 1 and received.endswith(b"\n")
    reply = json.loads(lines[0])
    assert reply["status"] == "error"
    assert reply["code"] == "protocol_error"
    assert reply["protocol"] == 3 and "protocol 3" in reply["message"]
    assert request(daemon.address, {"op": "ping"})["status"] == "ok"


def test_request_raises_connection_error_when_server_closes_silently():
    listener = socket.create_server(("127.0.0.1", 0))

    def read_then_hang_up():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)

    thread = threading.Thread(target=read_then_hang_up, daemon=True)
    thread.start()
    try:
        with pytest.raises(ConnectionError):
            request(listener.getsockname()[:2], {"op": "ping"},
                    timeout=5.0)
    finally:
        thread.join(timeout=5.0)
        listener.close()


# -- rendezvous hashing ------------------------------------------------------

SHARDS = ["shard-0", "shard-1", "shard-2"]
KEYS = [f"key-{i:03d}" for i in range(120)]


def test_rendezvous_order_is_deterministic_permutation():
    for key in KEYS[:10]:
        order = rendezvous_order(key, SHARDS)
        assert sorted(order) == sorted(SHARDS)
        assert order == rendezvous_order(key, SHARDS)
        assert shard_for_key(key, SHARDS) == order[0]


def test_rendezvous_removal_only_moves_dead_shards_keys():
    homes = {key: shard_for_key(key, SHARDS) for key in KEYS}
    survivors = [name for name in SHARDS if name != "shard-1"]
    for key, home in homes.items():
        new_home = shard_for_key(key, survivors)
        if home != "shard-1":
            assert new_home == home  # survivors keep their keys
        else:  # orphans go to their next-ranked shard
            assert new_home == rendezvous_order(key, SHARDS)[1]


def test_rendezvous_spreads_keys_across_shards():
    counts = {name: 0 for name in SHARDS}
    for key in KEYS:
        counts[shard_for_key(key, SHARDS)] += 1
    # no empty shard, no shard hoarding everything
    assert min(counts.values()) > 0
    assert max(counts.values()) < len(KEYS)


# -- router ------------------------------------------------------------------


class FakeShard:
    """A protocol-shaped shard that records what it served."""

    def __init__(self, name):
        self.name = name
        self.served = 0
        self.server = TcpFrameServer(("127.0.0.1", 0), self.handle)
        serve_in_thread(self.server, name)

    @property
    def address(self):
        return self.server.address

    def handle(self, message):
        op = message.get("op")
        if op == "ping":
            return {"status": "ok", "op": "ping", "session": self.name}
        if op == "stats":
            return {"status": "ok", "op": "stats",
                    "stats": {"accepted": self.served, "coalesced": 0,
                              "cache_hits": 0},
                    "gauges": {}}
        if op == "submit":
            self.served += 1
            return {"status": "ok", "op": "submit", "source": "computed",
                    "served_by": self.name}
        if op == "batch":
            self.served += len(message["cells"])
            return {"status": "ok", "op": "batch",
                    "results": [{"status": "ok", "op": "submit",
                                 "served_by": self.name}
                                for _ in message["cells"]]}
        return {"status": "ok", "op": op}

    def kill(self):
        self.server.shutdown()
        self.server.close()


@pytest.fixture
def fake_cluster():
    shards = [FakeShard(f"s{i}") for i in range(3)]
    router = Router([(s.name, s.address) for s in shards],
                    retries=1, backoff_s=0.01, request_timeout_s=5.0)
    try:
        yield shards, router
    finally:
        router.stop()
        for shard in shards:
            try:
                shard.kill()
            except Exception:
                pass


def test_router_routes_to_home_shard(fake_cluster):
    shards, router = fake_cluster
    key = router._cell_key(FAST_STREAM)
    home = shard_for_key(key, [s.name for s in shards])
    for _ in range(3):  # identical cells always land on the home shard
        reply = router.handle_message({"op": "submit", "cell": FAST_STREAM})
        assert reply["status"] == "ok"
        assert reply["served_by"] == home
        assert reply["shard"] == home
    assert router.routed == 3
    assert router.rerouted == 0


def test_route_op_reports_order_without_side_effects(fake_cluster):
    shards, router = fake_cluster
    reply = router.handle_message({"op": "route", "cell": FAST_STREAM})
    assert reply["status"] == "ok"
    names = [s.name for s in shards]
    assert reply["shard"] == shard_for_key(reply["key"], names)
    assert sorted([reply["shard"]] + reply["fallbacks"]) == sorted(names)
    assert all(reply["alive"].values())
    assert sum(s.served for s in shards) == 0  # nothing was forwarded


def test_router_reroutes_around_dead_shard(fake_cluster):
    shards, router = fake_cluster
    key = router._cell_key(FAST_STREAM)
    names = [s.name for s in shards]
    home = shard_for_key(key, names)
    next(s for s in shards if s.name == home).kill()
    reply = router.handle_message({"op": "submit", "cell": FAST_STREAM})
    assert reply["status"] == "ok"
    # the key moved to its next-ranked shard, not a random survivor
    assert reply["shard"] == rendezvous_order(key, names)[1]
    assert router.rerouted == 1
    # after the failure the dead shard is demoted: the next submit
    # goes straight to the fallback with no extra forward failure
    failures = router.forward_failures
    reply = router.handle_message({"op": "submit", "cell": FAST_STREAM})
    assert reply["status"] == "ok"
    assert router.forward_failures == failures


def test_router_all_shards_dead_is_typed_preacceptance_failure(fake_cluster):
    shards, router = fake_cluster
    for shard in shards:
        shard.kill()
    router.retries = 0  # keep the exhausted-pass walk fast
    reply = router.handle_message({"op": "submit", "cell": FAST_STREAM})
    assert reply["status"] == "error"
    assert reply["code"] == "shard_unavailable"
    assert reply["op"] == "submit"
    assert isinstance(from_wire(reply), ShardUnavailableError)
    assert router.unroutable == 1


def test_router_batch_keeps_order_and_answers_malformed_inline(fake_cluster):
    shards, router = fake_cluster
    bad = {"workload": "no-such-workload", "system": "tiger", "ntasks": 2}
    reply = router.handle_message(
        {"op": "batch", "cells": [dict(FAST_STREAM), bad, dict(FAST_CG)]})
    assert reply["status"] == "ok"
    results = reply["results"]
    assert len(results) == 3
    assert results[0]["status"] == "ok"
    assert results[2]["status"] == "ok"
    # the malformed cell is answered in place, never forwarded
    assert results[1]["status"] == "error"
    assert results[1]["code"] == "unknown_name"
    names = [s.name for s in shards]
    for cell, result in ((FAST_STREAM, results[0]), (FAST_CG, results[2])):
        home = shard_for_key(router._cell_key(cell), names)
        assert result["served_by"] == home


def test_router_batch_rejects_empty(fake_cluster):
    _, router = fake_cluster
    reply = router.handle_message({"op": "batch", "cells": []})
    assert reply["status"] == "error"
    assert reply["code"] == "protocol_error"


def test_router_health_check_tracks_liveness(fake_cluster):
    shards, router = fake_cluster
    assert router.check_health() == {s.name: True for s in shards}
    shards[0].kill()
    health = router.check_health()
    assert health[shards[0].name] is False
    assert health[shards[1].name] is True


# -- replay ------------------------------------------------------------------


def test_percentile_nearest_rank():
    assert percentile([], 0.99) == 0.0
    assert percentile([7.0], 0.5) == 7.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 100.0
    assert percentile(values, 0.50) == 51.0   # nearest rank, not interp
    assert percentile(values, 0.99) == 99.0


def test_load_trace_envelopes_comments_and_bare_cells(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "# comment\n"
        '{"t": 0.5, "cell": {"workload": "stream"}}\n'
        "\n"
        '{"workload": "cg"}\n')
    trace = load_trace(str(path))
    assert trace == [{"t": 0.5, "cell": {"workload": "stream"}},
                     {"t": 0.0, "cell": {"workload": "cg"}}]


def test_load_trace_empty_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no requests"):
        load_trace(str(path))


def test_trace_from_ledger_picks_newest_serve_traffic(tmp_path):
    records = [
        {"tool": "serve", "run_id": "old", "started_at": "2026-01-01T00:00Z",
         "traffic": {"recorded": [{"t": 0.0, "cell": {"workload": "cg"}}]}},
        {"tool": "bench", "run_id": "b", "started_at": "2026-01-02T00:00Z"},
        {"tool": "serve", "run_id": "new", "started_at": "2026-01-03T00:00Z",
         "traffic": {"recorded": [
             {"t": 0.1, "cell": {"workload": "stream"}}]}},
    ]
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("".join(json.dumps(r) + "\n" for r in records))
    trace = trace_from_ledger(tmp_path)
    assert trace == [{"t": 0.1, "cell": {"workload": "stream"}}]
    old = trace_from_ledger(tmp_path, run_id="old")
    assert old[0]["cell"] == {"workload": "cg"}
    with pytest.raises(ValueError, match="no serve ledger record"):
        trace_from_ledger(tmp_path, run_id="absent")


def test_replay_preserves_coalescing_cluster_wide(tmp_path):
    """Two real shards over one shared store: 6 requests, 2 simulations."""
    store_dir = tmp_path / "store"
    sessions, servers, shards = [], [], []
    for i in range(2):
        session = Session(cache=ResultCache(directory=store_dir), jobs=1)
        server = TcpServiceServer(("127.0.0.1", 0), session)
        serve_in_thread(server, f"shard-{i}")
        sessions.append(session)
        servers.append(server)
        shards.append((f"shard-{i}", server.address))
    router = Router(shards, retries=1, backoff_s=0.02,
                    request_timeout_s=60.0)
    front = TcpFrameServer(("127.0.0.1", 0), router.handle_message)
    serve_in_thread(front, "router-front")
    try:
        trace = [{"t": 0.0, "cell": dict(cell)}
                 for cell in (FAST_STREAM, FAST_CG) * 3]
        report = run_replay(front.address, trace, rate=0.0, clients=4,
                            timeout=60.0)
        assert report["errors"] == 0
        assert report["ok"] == 6
        # exactly one simulation per unique cell; every duplicate
        # collapsed onto it (in-flight coalesce or shared-store hit)
        assert report["sources"].get("computed", 0) == 2
        collapsed = (report["sources"].get("coalesced", 0)
                     + report["sources"].get("cache", 0))
        assert collapsed == 4
        assert report["shards_alive"] == 2
        assert sum(report["per_shard_utilization"].values()) \
            == pytest.approx(1.0)
        assert report["latency_p99_ms"] >= report["latency_p50_ms"] > 0
    finally:
        front.shutdown()
        front.close()
        router.stop()
        for server in servers:
            server.shutdown()
            server.close()
        for session in sessions:
            session.close()
