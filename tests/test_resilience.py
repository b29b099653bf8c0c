"""Tests for the self-healing machinery: breakers, supervision, shedding.

The load-bearing resilience promises:

* The router's per-shard **circuit breaker** opens after consecutive
  forward failures, lets exactly one half-open probe through after the
  cooldown, and re-closes (or re-opens) on the probe's outcome — and
  an open breaker reorders the fallback walk but never strands a key.
* The **shard supervisor** restarts a crashed shard with exponential
  backoff, rewrites the cluster state file atomically, and abandons a
  flapping shard once its restart budget is exhausted instead of
  fork-bombing a crash loop.
* An overloaded session **sheds** ``tier="auto"`` work to the
  surrogate fast path — flagged ``degraded``, byte-identical to the
  queued path — and rejects the rest with a live ``retry_after`` hint.
* **Replay** retries pre-acceptance rejections (nothing was admitted,
  so a retry cannot duplicate work) and reports how often it did.
* ``doctor`` detects a stale cluster state file and ``--fix`` prunes
  exactly the entries that are dead on *both* probes (endpoint + pid).
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.cluster.router import (
    BREAKER_STATE_GAUGE,
    CircuitBreaker,
    Router,
    rendezvous_order,
    shard_for_key,
)
from repro.cluster.supervisor import (
    ShardSpec,
    ShardSupervisor,
    atomic_write_json,
)
from repro.core.cache import ResultCache
from repro.core.parallel import JobRequest
from repro.errors import QueueFullError
from repro.machine import tiger
from repro.service import Session
from repro.service.transport import TcpFrameServer, serve_in_thread
from repro.workloads.lmbench import StreamTriad
from repro.workloads.nas import NasCG

FAST_STREAM = {"workload": "stream", "system": "tiger", "ntasks": 2,
               "scheme": "default", "tier": "fast"}


# -- circuit breaker (unit, fake clock) --------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, open_s=2.0, clock=clock)
    assert breaker.state() == CircuitBreaker.CLOSED
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.allow()  # two failures: still closed
    breaker.record_failure()
    assert breaker.state() == CircuitBreaker.OPEN
    assert not breaker.allow()


def test_breaker_success_resets_the_streak():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, open_s=2.0, clock=clock)
    breaker.record_failure()
    breaker.record_success()  # streak broken
    breaker.record_failure()
    assert breaker.state() == CircuitBreaker.CLOSED


def test_breaker_halfopen_grants_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, open_s=2.0, clock=clock)
    breaker.record_failure()
    assert not breaker.allow()
    clock.now = 2.5  # past the cooldown: half-open
    assert breaker.state() == CircuitBreaker.HALF_OPEN
    assert breaker.allow()       # the probe slot
    assert not breaker.allow()   # concurrent callers go elsewhere


def test_breaker_probe_success_recloses():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, open_s=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.5
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state() == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_breaker_probe_failure_reopens_with_fresh_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, open_s=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.5
    assert breaker.allow()
    breaker.record_failure()  # the probe failed
    assert breaker.state() == CircuitBreaker.OPEN
    clock.now = 2.0  # half a cooldown after the re-open: still open
    assert not breaker.allow()
    clock.now = 2.6
    assert breaker.state() == CircuitBreaker.HALF_OPEN


def test_breaker_threshold_zero_disables():
    breaker = CircuitBreaker(failure_threshold=0, open_s=0.1)
    for _ in range(10):
        breaker.record_failure()
    assert breaker.state() == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_breaker_gauge_encoding_covers_every_state():
    assert set(BREAKER_STATE_GAUGE) == {CircuitBreaker.CLOSED,
                                        CircuitBreaker.HALF_OPEN,
                                        CircuitBreaker.OPEN}
    # sorted by increasing badness so dashboards can threshold
    assert BREAKER_STATE_GAUGE[CircuitBreaker.CLOSED] == 0
    assert BREAKER_STATE_GAUGE[CircuitBreaker.OPEN] == 2


# -- circuit breaker (router integration) ------------------------------------


class LocalShard:
    """A protocol-shaped shard that can die and revive on one port."""

    def __init__(self, name, address=("127.0.0.1", 0)):
        self.name = name
        self.served = 0
        self.server = None
        self.revive(address)

    @property
    def address(self):
        return self.server.address

    def handle(self, message):
        op = message.get("op")
        if op == "submit":
            self.served += 1
            return {"status": "ok", "op": "submit", "source": "computed",
                    "served_by": self.name}
        return {"status": "ok", "op": op, "session": self.name,
                "stats": {}, "gauges": {}}

    def revive(self, address=None):
        self.server = TcpFrameServer(address or self.address, self.handle)
        serve_in_thread(self.server, self.name)

    def kill(self):
        self.server.shutdown()
        self.server.close()


@pytest.fixture
def breaker_cluster():
    shards = [LocalShard(f"s{i}") for i in range(3)]
    router = Router([(s.name, s.address) for s in shards],
                    retries=0, backoff_s=0.01, request_timeout_s=5.0,
                    breaker_threshold=2, breaker_open_s=0.25)
    try:
        yield shards, router
    finally:
        router.stop()
        for shard in shards:
            try:
                shard.kill()
            except Exception:
                pass


def _home_shard(router, shards, cell):
    key = router._cell_key(cell)
    return next(s for s in shards
                if s.name == shard_for_key(key, [s.name for s in shards]))


def test_router_breaker_opens_and_ejects_flapping_shard(breaker_cluster):
    """A flapping shard (health says alive, forwards fail) trips open.

    A plainly dead shard is already demoted by the health verdict; the
    breaker exists for the nastier case where the prober keeps seeing
    the shard alive but forwards keep failing.  Simulate the flap by
    re-asserting the stale alive verdict between failing forwards.
    """
    shards, router = breaker_cluster
    home = _home_shard(router, shards, FAST_STREAM)
    home.kill()
    for _ in range(2):  # two forward failures trip the threshold
        router._shards[home.name].alive = True  # the stale health verdict
        reply = router.handle_message({"op": "submit",
                                       "cell": dict(FAST_STREAM)})
        assert reply["status"] == "ok"  # rerouted, never lost
    assert router.breaker_states()[home.name] == CircuitBreaker.OPEN
    router._shards[home.name].alive = True
    # with the breaker open the dead shard is not even contacted
    failures = router.forward_failures
    reply = router.handle_message({"op": "submit",
                                   "cell": dict(FAST_STREAM)})
    assert reply["status"] == "ok"
    assert router.forward_failures == failures
    # breaker state shows up in the stats response for `status`/`top`
    stats = router._stats_response()
    assert stats["cluster"]["breakers"][home.name] == CircuitBreaker.OPEN
    assert router.cluster_gauges()["cluster_breakers_open"] == 1


def test_router_halfopen_probe_recovers_revived_shard(breaker_cluster):
    shards, router = breaker_cluster
    home = _home_shard(router, shards, FAST_STREAM)
    address = home.address
    home.kill()
    for _ in range(2):  # flap: stale alive verdict + failing forwards
        router._shards[home.name].alive = True
        router.handle_message({"op": "submit", "cell": dict(FAST_STREAM)})
    assert router.breaker_states()[home.name] == CircuitBreaker.OPEN
    home.revive(address)
    router.check_health()  # the prober sees it alive again
    time.sleep(0.3)        # past the cooldown: half-open
    assert router.breaker_states()[home.name] == CircuitBreaker.HALF_OPEN
    served = home.served
    reply = router.handle_message({"op": "submit",
                                   "cell": dict(FAST_STREAM)})
    assert reply["status"] == "ok"
    assert reply["served_by"] == home.name  # the forward was the probe
    assert home.served == served + 1
    assert router.breaker_states()[home.name] == CircuitBreaker.CLOSED


def test_router_open_breaker_never_strands_a_key(breaker_cluster):
    """When every shard's breaker is open the walk still tries them."""
    shards, router = breaker_cluster
    for state in router._shards.values():
        state.breaker.record_failure()
        state.breaker.record_failure()
    assert all(state == CircuitBreaker.OPEN
               for state in router.breaker_states().values())
    reply = router.handle_message({"op": "submit",
                                   "cell": dict(FAST_STREAM)})
    assert reply["status"] == "ok"  # deferred pass reached a live shard


# -- shard supervisor (unit, fake procs) -------------------------------------


class FakeProc:
    _next_pid = iter(range(40_000, 50_000))

    def __init__(self):
        self.pid = next(self._next_pid)
        self.returncode = None

    def poll(self):
        return self.returncode

    def die(self, code=1):
        self.returncode = code


def _supervisor(tmp_path, clock, *, budget=3, launch=None, ping=None,
                state=None):
    spec = ShardSpec(name="shard-0", address=("127.0.0.1", 7777))
    proc = FakeProc()
    procs = {"shard-0": proc}
    launched = []

    def default_launch(s):
        replacement = FakeProc()
        launched.append(replacement)
        return replacement

    supervisor = ShardSupervisor(
        [spec], procs,
        state_path=str(tmp_path / "cluster.json") if state else None,
        state=state, restart_budget=budget, budget_window_s=60.0,
        backoff_s=0.5, backoff_max_s=4.0,
        launch_fn=launch or default_launch,
        ping_fn=ping or (lambda address, deadline_s: True),
        clock=clock)
    return supervisor, proc, procs, launched


def test_supervisor_restarts_crash_with_backoff_and_state_rewrite(tmp_path):
    clock = FakeClock()
    state = {"shards": {"shard-0": "127.0.0.1:7777"},
             "pids": {"shard-0": 11}, "router": "127.0.0.1:7070"}
    state_path = tmp_path / "cluster.json"
    atomic_write_json(str(state_path), state)
    supervisor, proc, procs, launched = _supervisor(tmp_path, clock,
                                                    state=state)
    assert supervisor.poll_once() == []  # healthy: nothing to do
    proc.die()
    assert supervisor.poll_once() == []  # corpse sighted: backoff first
    clock.now = 0.6                      # past backoff_s * 2**0
    events = supervisor.poll_once()
    assert [e["event"] for e in events] == ["restart"]
    assert events[0]["old_pid"] == proc.pid
    assert events[0]["ready"] is True
    assert procs["shard-0"] is launched[0]  # teardown sees the new proc
    assert supervisor.restarts() == {"shard-0": 1}
    on_disk = json.loads(state_path.read_text())
    assert on_disk["pids"]["shard-0"] == launched[0].pid
    assert on_disk["supervised"] is True
    assert not list(tmp_path.glob("*.tmp.*"))  # the rewrite was atomic


def test_supervisor_records_restart_before_the_ready_ping(tmp_path):
    """A shard still coming up already counts as restarted."""
    clock = FakeClock()
    seen = []

    def ping(address, deadline_s):
        seen.append(dict(supervisor.restarts()))
        return False

    supervisor, proc, procs, launched = _supervisor(tmp_path, clock,
                                                    ping=ping)
    proc.die()
    supervisor.poll_once()
    clock.now = 0.6
    events = supervisor.poll_once()
    assert seen == [{"shard-0": 1}]
    assert [e["event"] for e in events] == ["restart"]
    assert events[0]["ready"] is False  # filled in once the ping returns


def test_supervisor_budget_exhaustion_abandons_the_shard(tmp_path):
    clock = FakeClock()
    supervisor, proc, procs, launched = _supervisor(tmp_path, clock,
                                                    budget=2)
    abandoned = None
    for _ in range(10):  # crash-loop until the supervisor gives up
        procs["shard-0"].die()
        supervisor.poll_once()           # sight the corpse
        clock.now += 5.0                 # past backoff, inside the window
        events = supervisor.poll_once()
        if events and events[0]["event"] == "abandon":
            abandoned = events[0]
            break
    assert abandoned is not None
    assert abandoned["budget"] == 2
    assert supervisor.abandoned() == ["shard-0"]
    assert len(launched) == 2  # exactly the budget, not one more
    # once abandoned the shard is never touched again
    clock.now += 100.0
    assert supervisor.poll_once() == []


def test_supervisor_backoff_doubles_within_the_window(tmp_path):
    clock = FakeClock()
    supervisor, proc, procs, launched = _supervisor(tmp_path, clock,
                                                    budget=5)
    proc.die()
    supervisor.poll_once()
    watch = supervisor._watches["shard-0"]
    first_delay = watch.not_before - clock.now
    clock.now = watch.not_before + 0.01
    supervisor.poll_once()  # restart #1
    procs["shard-0"].die()
    supervisor.poll_once()  # sight the second corpse
    second_delay = watch.not_before - clock.now
    assert second_delay == pytest.approx(first_delay * 2)


def test_supervisor_launch_failure_counts_against_budget(tmp_path):
    clock = FakeClock()

    def broken_launch(spec):
        raise OSError("exec failed")

    supervisor, proc, procs, launched = _supervisor(
        tmp_path, clock, budget=2, launch=broken_launch)
    proc.die()
    events = []
    for _ in range(10):
        clock.now += 5.0  # past backoff, inside the budget window
        events += supervisor.poll_once()
        if supervisor.abandoned():
            break
    kinds = [e["event"] for e in events]
    assert kinds.count("restart_failed") == 2
    assert kinds[-1] == "abandon"


def test_supervisor_stop_halts_restarts(tmp_path):
    clock = FakeClock()
    supervisor, proc, procs, launched = _supervisor(tmp_path, clock)
    supervisor.start()
    supervisor.stop()
    proc.die()
    clock.now = 100.0
    assert supervisor.poll_once() == []  # stopped: corpse left alone
    assert launched == []


def test_supervisor_external_stop_wins(tmp_path):
    import threading

    clock = FakeClock()
    external = threading.Event()
    spec = ShardSpec(name="shard-0", address=("127.0.0.1", 7777))
    proc = FakeProc()
    supervisor = ShardSupervisor(
        [spec], {"shard-0": proc}, launch_fn=lambda s: FakeProc(),
        ping_fn=lambda a, d: True, clock=clock, external_stop=external)
    external.set()  # e.g. the router began a protocol shutdown
    proc.die()
    clock.now = 100.0
    assert supervisor.poll_once() == []


# -- adaptive load shedding ---------------------------------------------------


def _auto_cell(workload):
    return JobRequest(spec=tiger(), workload=workload, tier="auto")


def test_overload_sheds_auto_tier_to_surrogate(tmp_path):
    from repro.core.parallel import run_request

    with Session(cache=ResultCache(directory=tmp_path / "svc"), jobs=1,
                 max_pending=1, paused=True, shed_threshold=0.5,
                 name="shed-test") as session:
        queued = session.submit(_auto_cell(StreamTriad(2)))
        shed = session.submit(_auto_cell(NasCG(2)))
        # the degraded job resolved inline, before resume
        assert shed.done()
        degraded = shed.result()
        assert degraded.ok
        assert degraded.degraded is True
        assert degraded.to_wire().get("degraded") is True
        assert session.stats.degraded == 1
        session.resume()
        assert session.drain(timeout=60.0)
        result = queued.result()
        assert result.ok
        assert result.degraded is False
        assert "degraded" not in result.to_wire()

    # cache coherence: the shed path produced exactly what the queued
    # path would have (auto resolves its tier before cache keying)
    baseline = run_request(
        _auto_cell(NasCG(2)),
        cache=ResultCache(directory=tmp_path / "base"))
    assert degraded.job.to_dict() == baseline.to_dict()


def test_overload_rejects_non_degradable_with_retry_after(tmp_path):
    with Session(cache=ResultCache(directory=tmp_path / "svc"), jobs=1,
                 max_pending=1, paused=True, shed_threshold=0.5,
                 name="shed-reject") as session:
        session.submit(JobRequest(spec=tiger(),
                                  workload=StreamTriad(2), tier="exact"))
        with pytest.raises(QueueFullError) as excinfo:
            session.submit(JobRequest(spec=tiger(),
                                      workload=NasCG(2), tier="exact"))
        assert excinfo.value.retry_after > 0
        assert excinfo.value.code == "queue_full"
        session.resume()
        session.drain(timeout=60.0)


def test_shedding_off_by_default_keeps_old_rejection(tmp_path):
    with Session(cache=ResultCache(directory=tmp_path / "svc"), jobs=1,
                 max_pending=1, paused=True, name="shed-off") as session:
        session.submit(_auto_cell(StreamTriad(2)))
        with pytest.raises(QueueFullError, match="queue is full"):
            session.submit(_auto_cell(NasCG(2)))
        assert session.stats.degraded == 0
        session.resume()
        session.drain(timeout=60.0)


def test_wait_p99_gauge_is_published(tmp_path):
    with Session(cache=ResultCache(directory=tmp_path / "svc"), jobs=1,
                 name="gauge-test") as session:
        session.run(_auto_cell(StreamTriad(2)))
        gauges = session.gauges()
        assert "service_wait_seconds_p99" in gauges
        assert "service_degraded" in gauges
        assert gauges["service_wait_seconds_p99"] >= 0.0


# -- replay client retries ----------------------------------------------------


class RejectOnceShard:
    """Answers each cell's first submit with queue_full, then ok."""

    def __init__(self):
        self.seen = set()
        self.submits = 0
        self.server = TcpFrameServer(("127.0.0.1", 0), self.handle)
        serve_in_thread(self.server, "reject-once")

    def handle(self, message):
        op = message.get("op")
        if op != "submit":
            return {"status": "ok", "op": op, "stats": {}, "gauges": {}}
        self.submits += 1
        key = json.dumps(message.get("cell"), sort_keys=True)
        if key not in self.seen:
            self.seen.add(key)
            return {"status": "error", "op": "submit",
                    "code": "queue_full", "message": "backpressure",
                    "retry_after": 0.01}
        return {"status": "ok", "op": "submit", "source": "computed",
                "served_by": "reject-once"}

    def close(self):
        self.server.shutdown()
        self.server.close()


def test_replay_retries_preacceptance_rejections():
    from repro.cluster.replay import run_replay

    shard = RejectOnceShard()
    trace = [{"t": 0.0, "cell": dict(FAST_STREAM, ntasks=n)}
             for n in (1, 2, 4)]
    try:
        report = run_replay(shard.server.address, trace, rate=0.0,
                            clients=2, timeout=30.0, retries=2)
    finally:
        shard.close()
    assert report["errors"] == 0
    assert report["retries"] == 3  # one retry per unique cell
    assert report["ok"] == 3


def test_replay_without_retries_surfaces_the_rejection():
    from repro.cluster.replay import run_replay

    shard = RejectOnceShard()
    trace = [{"t": 0.0, "cell": dict(FAST_STREAM)}]
    try:
        report = run_replay(shard.server.address, trace, rate=0.0,
                            clients=1, timeout=30.0, retries=0)
    finally:
        shard.close()
    assert report["errors"] == 1
    assert report["error_codes"] == {"queue_full": 1}
    assert report["retries"] == 0


# -- doctor: stale cluster state ---------------------------------------------


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _free_port_address():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    _, port = sock.getsockname()
    sock.close()
    return f"127.0.0.1:{port}"


def test_doctor_detects_and_removes_fully_dead_state(tmp_path):
    from repro.telemetry.doctor import check_cluster_state

    path = str(tmp_path / "cluster.json")
    atomic_write_json(path, {
        "router": _free_port_address(), "router_pid": _dead_pid(),
        "shards": {"shard-0": _free_port_address()},
        "pids": {"shard-0": _dead_pid()}})
    report = check_cluster_state(path)
    assert report["present"]
    assert sorted(report["dead"]) == ["router", "shard-0"]
    assert os.path.exists(path)  # a dry run never mutates

    fixed = check_cluster_state(path, fix=True)
    assert fixed["deleted_file"] is True
    assert not os.path.exists(path)


def test_doctor_prunes_only_the_dead_shard(tmp_path):
    from repro.telemetry.doctor import check_cluster_state

    live = LocalShard("live-shard")
    host, port = live.address
    path = str(tmp_path / "cluster.json")
    try:
        atomic_write_json(path, {
            "router": f"{host}:{port}", "router_pid": os.getpid(),
            "shards": {"shard-0": f"{host}:{port}",
                       "shard-1": _free_port_address()},
            "pids": {"shard-0": os.getpid(), "shard-1": _dead_pid()}})
        report = check_cluster_state(path, fix=True)
        assert report["dead"] == ["shard-1"]
        assert report["pruned"] == ["shard-1"]
        assert report["deleted_file"] is False
        on_disk = json.loads(open(path).read())
        assert "shard-1" not in on_disk["shards"]
        assert "shard-0" in on_disk["shards"]
    finally:
        live.kill()


def test_doctor_absent_state_is_healthy(tmp_path):
    from repro.telemetry.doctor import check_cluster_state

    report = check_cluster_state(str(tmp_path / "missing.json"))
    assert report["present"] is False
    assert report["dead"] == []


def test_doctor_cli_fixes_stale_state(tmp_path, capsys):
    from repro.telemetry.doctor import main

    path = str(tmp_path / "cluster.json")
    atomic_write_json(path, {
        "router": _free_port_address(), "router_pid": _dead_pid(),
        "shards": {}, "pids": {}})
    code = main(["--ledger-dir", str(tmp_path / "ledger"),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--state", path, "--fix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "state file removed" in out
    assert not os.path.exists(path)


# -- chaos search -------------------------------------------------------------


def test_chaos_search_profiles_cover_every_property():
    from repro.bench.chaos import PROFILES, PROPERTIES

    for profile, budgets in PROFILES.items():
        assert set(budgets) == set(PROPERTIES)
        assert all(n > 0 for n in budgets.values())
    assert all(PROFILES["nightly"][p] > PROFILES["ci"][p]
               for p in PROPERTIES)


def test_chaos_search_cell_property_single_example():
    from repro.bench.chaos import _check_cell_invariants
    from repro.faults import FaultPlan, LinkDegrade

    cell = {"system": "tiger", "workload": "stream", "ntasks": 2,
            "scheme": "default"}
    _check_cell_invariants(cell, "auto", None)
    _check_cell_invariants(
        cell, "exact",
        FaultPlan(seed=7, faults=(LinkDegrade(src=0, dst=1,
                                              bandwidth_factor=0.2),)))


def test_chaos_search_cluster_property_single_example():
    from repro.bench.chaos import _check_cluster_kill

    cells = [
        {"system": "tiger", "workload": "stream", "ntasks": 2,
         "scheme": "default"},
        {"system": "dmz", "workload": "cg", "ntasks": 2,
         "scheme": "default"},
    ]
    _check_cluster_kill(cells, 2, 0, 0.3)


def test_chaos_search_hypothesis_profile_runs(tmp_path):
    pytest.importorskip("hypothesis")
    from repro.bench.chaos import run_search

    report = run_search(profile="ci", corpus_dir=str(tmp_path / "corpus"),
                        names=["shed-degrade"])
    assert report["ok"] is True
    assert report["properties"]["shed-degrade"]["examples"] > 0
