"""Tests for the characterization service: Session, protocol, daemon.

The load-bearing service promises:

* N concurrent identical submits run exactly ONE simulation and every
  waiter receives a byte-identical result (request coalescing).
* Submits beyond the queue bound are REJECTED with a typed, retryable
  error — never silently dropped — while already-accepted jobs still
  complete (admission control).
* ``drain`` completes every accepted job; a drained/closed session
  refuses new work with a typed error (graceful shutdown).
"""

import json
import threading
import time
import warnings

import pytest

from repro.core import Compute, Workload
from repro.core import parallel
from repro.core.cache import ResultCache
from repro.core.parallel import JobRequest
from repro.errors import (
    InfeasibleSchemeError,
    NoFeasibleSchemeError,
    ProtocolError,
    QueueFullError,
    ReproError,
    SessionClosedError,
    UnknownMetricError,
    UnknownNameError,
    error_code,
    from_wire,
)
from repro.machine import dmz, longs, tiger
from repro.service import RunRequest, RunResult, Session
from repro.service.daemon import ServiceServer
from repro.service.protocol import cell_from_wire, handle_request
from repro.service.transport import request


class TinyCompute(Workload):
    """A cheap deterministic workload for fast service tests."""

    name = "tiny-service"

    def __init__(self, ntasks=2, flops=1e7):
        self.ntasks = ntasks
        self.flops = flops

    def program(self, rank):
        yield Compute(flops=self.flops, flop_efficiency=0.5)


def _executed():
    stats = parallel.pool_stats()
    return stats.executed_serial + stats.executed_parallel


def _session(tmp_path, **kwargs):
    return Session(cache=ResultCache(directory=tmp_path / "cache"), **kwargs)


# -- coalescing --------------------------------------------------------------

def test_concurrent_identical_submits_run_one_simulation(tmp_path):
    """16 identical cells: one compute, coalesce counter 15, one payload."""
    with _session(tmp_path, paused=True) as session:
        futures = [session.submit(JobRequest(spec=longs(),
                                             workload=TinyCompute(4)))
                   for _ in range(16)]
        before = _executed()
        session.resume()
        results = [f.result(timeout=120) for f in futures]

    assert _executed() - before == 1
    assert session.stats.coalesced == 15
    assert session.stats.accepted == 1
    assert all(r.ok for r in results)
    payloads = {json.dumps(r.job.to_dict(), sort_keys=True) for r in results}
    assert len(payloads) == 1


def test_coalesced_results_identical_to_direct_run(tmp_path):
    request = JobRequest(spec=longs(), workload=TinyCompute(4))
    with _session(tmp_path, paused=True) as session:
        futures = [session.submit(request) for _ in range(4)]
        session.resume()
        served = [f.result(timeout=120).job.to_dict() for f in futures]
    with _session(tmp_path / "b") as direct_session:
        direct = direct_session.run(request)
    assert direct.ok and direct.source == "computed"
    for payload in served:
        assert payload == direct.job.to_dict()


def test_coalesce_sources_and_tags(tmp_path):
    """First waiter is 'computed', twins 'coalesced'; tags pass through."""
    with _session(tmp_path, paused=True) as session:
        first = session.submit(RunRequest(
            JobRequest(spec=longs(), workload=TinyCompute(4)), tag="alpha"))
        twin = session.submit(RunRequest(
            JobRequest(spec=longs(), workload=TinyCompute(4)), tag="beta"))
        session.resume()
        a, b = first.result(timeout=120), twin.result(timeout=120)
    assert (a.source, b.source) == ("computed", "coalesced")
    # tag is not part of the content address: the twins still coalesced
    assert session.stats.coalesced == 1
    # both waiters carry the owning job's request identity
    assert a.key == b.key


def test_cache_hit_answers_at_admission(tmp_path):
    request = JobRequest(spec=longs(), workload=TinyCompute(4))
    with _session(tmp_path) as session:
        session.run(request)
        future = session.submit(request)
        result = future.result(timeout=120)
    assert result.ok and result.source == "cache"
    assert session.stats.cache_hits == 1


def test_sync_run_attaches_to_inflight_twin(tmp_path):
    with _session(tmp_path, paused=True) as session:
        future = session.submit(JobRequest(spec=longs(),
                                           workload=TinyCompute(4)))
        got = {}

        def sync_twin():
            got["result"] = session.run(JobRequest(spec=longs(),
                                                   workload=TinyCompute(4)))

        thread = threading.Thread(target=sync_twin)
        thread.start()
        deadline = 100
        while session.stats.coalesced == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
        session.resume()
        thread.join(timeout=120)
        async_result = future.result(timeout=120)
    assert session.stats.coalesced == 1
    assert got["result"].job.to_dict() == async_result.job.to_dict()


# -- admission control -------------------------------------------------------

def test_queue_full_submits_rejected_not_dropped(tmp_path):
    with _session(tmp_path, max_pending=2, paused=True) as session:
        accepted = [session.submit(JobRequest(spec=longs(),
                                              workload=TinyCompute(4, flops=f)))
                    for f in (1e6, 2e6)]
        with pytest.raises(QueueFullError) as excinfo:
            session.submit(JobRequest(spec=longs(),
                                      workload=TinyCompute(4, flops=3e6)))
        assert excinfo.value.retry_after > 0
        assert excinfo.value.code == "queue_full"
        assert session.stats.rejected == 1
        # a coalescing twin of an accepted cell still gets in: it joins
        # an in-flight job rather than consuming queue depth
        twin = session.submit(JobRequest(spec=longs(),
                                         workload=TinyCompute(4, flops=1e6)))
        session.resume()
        results = [f.result(timeout=120) for f in accepted + [twin]]
    assert all(r.ok for r in results)
    assert session.stats.failed == 0


def test_rejected_submit_leaves_no_promise(tmp_path):
    with _session(tmp_path, max_pending=1, paused=True) as session:
        session.submit(JobRequest(spec=longs(), workload=TinyCompute(4)))
        with pytest.raises(QueueFullError):
            session.submit(JobRequest(spec=longs(),
                                      workload=TinyCompute(8)))
        assert session.stats.accepted == 1
        session.resume()
        assert session.drain(timeout=120)
    assert session.stats.completed == 1


# -- drain / close -----------------------------------------------------------

def test_drain_completes_accepted_jobs(tmp_path):
    with _session(tmp_path, paused=True) as session:
        futures = [session.submit(JobRequest(spec=longs(),
                                             workload=TinyCompute(4, flops=f)))
                   for f in (1e6, 2e6, 3e6)]
        session.resume()
        assert session.drain(timeout=120)
        assert all(f.done() for f in futures)
        assert all(f.result().ok for f in futures)
        with pytest.raises(SessionClosedError):
            session.submit(JobRequest(spec=longs(),
                                      workload=TinyCompute(4)))


def test_close_without_drain_fails_jobs_instead_of_dropping(tmp_path):
    session = _session(tmp_path, paused=True)
    future = session.submit(JobRequest(spec=longs(),
                                       workload=TinyCompute(4)))
    session.close(drain=False)
    result = future.result(timeout=10)
    assert result.status == "failed"
    assert result.kind == "cancelled"
    with pytest.raises(SessionClosedError):
        session.submit(JobRequest(spec=longs(), workload=TinyCompute(4)))


# -- results and sweeps ------------------------------------------------------

def test_infeasible_cell_is_a_status_not_an_exception(tmp_path):
    from repro.core import AffinityScheme

    with _session(tmp_path) as session:
        result = session.run(JobRequest(
            spec=dmz(), workload=TinyCompute(4),
            scheme=AffinityScheme.ONE_MPI_LOCAL))
    assert result.status == "infeasible"
    assert result.code == "infeasible_scheme"
    with pytest.raises(InfeasibleSchemeError):
        result.require()


def test_run_many_preserves_request_order(tmp_path):
    from repro.core import AffinityScheme

    requests = [
        JobRequest(spec=longs(), workload=TinyCompute(4)),
        JobRequest(spec=dmz(), workload=TinyCompute(4),
                   scheme=AffinityScheme.ONE_MPI_LOCAL),   # infeasible
        JobRequest(spec=longs(), workload=TinyCompute(8)),
    ]
    with _session(tmp_path) as session:
        results = session.run_many(requests)
    assert [r.status for r in results] == ["ok", "infeasible", "ok"]


def test_session_scheme_sweep_matches_table_shape(tmp_path):
    with _session(tmp_path) as session:
        table = session.scheme_sweep(dmz(), lambda n: TinyCompute(n),
                                     task_counts=(2, 4))
    assert len(table.rows) == 2
    # One-MPI schemes are infeasible at 4 tasks on the 2-socket DMZ
    assert table.rows[1][2] is None


def test_session_compare_schemes_raises_typed_error(tmp_path):
    from repro.core import AffinityScheme

    with _session(tmp_path) as session:
        with pytest.raises(NoFeasibleSchemeError):
            session.compare_schemes(
                tiger(), lambda: TinyCompute(64),
                schemes=(AffinityScheme.ONE_MPI_LOCAL,))


def test_session_scaling_study_unknown_metric(tmp_path):
    with _session(tmp_path) as session:
        with pytest.raises(UnknownMetricError):
            session.scaling_study([longs()], lambda n: TinyCompute(n),
                                  (2,), metric="bogus")
        with pytest.raises(ValueError):  # back-compat: still a ValueError
            session.scaling_study([longs()], lambda n: TinyCompute(n),
                                  (2,), metric="bogus")


def test_session_api_is_warning_free(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _session(tmp_path) as session:
            result = session.run(JobRequest(spec=longs(),
                                            workload=TinyCompute(4)))
            session.scheme_sweep(dmz(), lambda n: TinyCompute(n), (2,))
    assert result.ok


def test_experiment_routes_through_session():
    """A bare cell run on the process-wide session goes through its
    outcome table, warning-free."""
    from repro.core import AffinityScheme
    from repro.service import default_session

    cell = JobRequest(spec=longs(), workload=TinyCompute(4),
                      scheme=AffinityScheme.INTERLEAVE)
    session = default_session()
    before = session.stats.submitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = session.run(cell).require()
    assert session.stats.submitted == before + 1
    assert result.wall_time > 0


@pytest.mark.parametrize("wrapped_first", [False, True])
@pytest.mark.parametrize("entry", ["submit", "run", "run_many", "outcomes",
                                   "prefetch"])
def test_every_entry_point_takes_a_bare_or_wrapped_cell(entry, wrapped_first,
                                                         monkeypatch):
    """A bare cell and a tagged, traced RunRequest around it key alike,
    share one simulation, and each waiter gets only its own tag."""
    executed = []
    real_execute = JobRequest.execute

    def counting_execute(self):
        executed.append(self.key())
        return real_execute(self)

    monkeypatch.setattr(JobRequest, "execute", counting_execute)
    cell = JobRequest(spec=longs(), workload=TinyCompute(4))
    wrapped = RunRequest(cell, tag="mine", trace_id="feed",
                         parent_span="beef")
    assert wrapped.key() == cell.key()
    requests = [wrapped, cell] if wrapped_first else [cell, wrapped]
    tags = [r.tag if isinstance(r, RunRequest) else None for r in requests]
    with Session(cache=ResultCache(disk=False), backend="threads",
                 paused=True) as session:
        if entry == "submit":
            futures = [session.submit(r) for r in requests]
            session.resume()
            results = [future.result(timeout=120) for future in futures]
        elif entry == "run":
            results = [session.run(r) for r in requests]
        elif entry == "run_many":
            results = session.run_many(requests)
        elif entry == "outcomes":
            outcomes = session.outcomes(requests)
            assert [status for status, _ in outcomes] == ["ok", "ok"]
            assert outcomes[0][1] is outcomes[1][1]
        else:
            assert session.prefetch(requests) == []
            results = session.run_many(requests)
    assert executed == [cell.key()]
    if entry == "outcomes":
        return
    assert [r.status for r in results] == ["ok", "ok"]
    assert [r.key for r in results] == [cell.key()] * 2
    assert [r.tag for r in results] == tags
    assert results[0].job.to_dict() == results[1].job.to_dict()
    second = "cache" if entry in ("run", "prefetch") else "coalesced"
    assert results[1].source == second


def test_one_table_serves_every_entry_point(tmp_path):
    """submit, run_many, prefetch and run share one outcome table: each
    distinct cell simulates once however it is asked for, even with the
    result cache off, and ``clear`` forgets the answers."""
    from repro.backends import ThreadBackend

    executed = []

    class Counting(ThreadBackend):
        def submit_cells(self, batch, jobs=None, timeout=None, retries=None):
            executed.extend(cell.key() for cell in batch)
            return super().submit_cells(batch, jobs, timeout, retries)

    a, b, c, d, e = (JobRequest(spec=longs(),
                                workload=TinyCompute(4, flops=f))
                     for f in (1e6, 2e6, 3e6, 4e6, 5e6))
    session = Session(cache=ResultCache(directory=tmp_path / "off",
                                        enabled=False),
                      backend=Counting(), jobs=2, paused=True)
    with session:
        futures = [session.submit(r) for r in (a, a, b, c)]
        got = {}
        threads = [
            threading.Thread(target=lambda: got.__setitem__(
                "many", session.run_many([b, c, d, d]))),
            threading.Thread(target=lambda: got.__setitem__(
                "prefetch", session.prefetch([c, d, e]))),
        ]
        for thread in threads:
            thread.start()
        # 1 twin among the submits, 3 in run_many, 2 in the prefetch
        for _ in range(500):
            if session.stats.coalesced + session.stats.cache_hits >= 6:
                break
            time.sleep(0.01)
        session.resume()
        for thread in threads:
            thread.join(timeout=120)
        submitted = [f.result(timeout=120) for f in futures]
        ran = session.run(e)
        assert got["prefetch"] == []
        assert sorted(executed) == sorted({r.key() for r in (a, b, c, d, e)})

        with Session(cache=ResultCache(directory=tmp_path / "serial",
                                       enabled=False),
                     jobs=1) as serial:
            expected = {r.key(): serial.run(r).job.to_dict()
                        for r in (a, b, c, d, e)}
        for result in submitted + got["many"] + [ran]:
            assert result.ok
            assert result.job.to_dict() == expected[result.key]

        session.clear()
        session.run(a)
        assert executed.count(a.key()) == 2


@pytest.mark.parametrize("kind", ["queue_full", "shard_unavailable",
                                  "session_closed", "internal", "crash"])
def test_host_failures_are_delivered_then_forgotten(tmp_path, kind):
    """Only failures that depend on the cell alone are kept: a host
    state (here relayed by a backend, as a remote backend relays a
    downstream rejection) fails one answer, and the next request for
    the cell simulates it again."""
    from repro.backends import ThreadBackend

    executed = []

    class Flaky(ThreadBackend):
        def submit_cells(self, batch, jobs=None, timeout=None, retries=None):
            executed.extend(batch)
            if len(executed) == 1:
                return [self._resolved(("failed", {"kind": kind,
                                                   "message": "busy"}))]
            return super().submit_cells(batch, jobs, timeout, retries)

    request = JobRequest(spec=longs(), workload=TinyCompute(4))
    with Session(cache=ResultCache(directory=tmp_path / "off",
                                   enabled=False),
                 backend=Flaky(), jobs=1) as session:
        first = session.submit(request).result(timeout=60)
        assert first.status == "failed" and first.kind == kind
        assert session.failure(first.key) is None
        second = session.submit(request).result(timeout=60)
        assert second.ok and second.source == "computed"
        third = session.run(request)
        assert third.ok and len(executed) == 2  # ok is kept
        assert session.stats.cache_hits == 1


def test_cell_failures_are_kept(tmp_path):
    from repro.backends import ThreadBackend

    executed = []

    class Failing(ThreadBackend):
        def submit_cells(self, batch, jobs=None, timeout=None, retries=None):
            executed.extend(batch)
            return [self._resolved(("failed", {"kind": "fault_exhausted",
                                               "message": "exhausted"}))
                    for _ in batch]

    request = JobRequest(spec=longs(), workload=TinyCompute(4))
    with Session(cache=ResultCache(directory=tmp_path / "off",
                                   enabled=False),
                 backend=Failing(), jobs=1) as session:
        first = session.submit(request).result(timeout=60)
        again = session.submit(request).result(timeout=60)
        assert session.run(request).kind == "fault_exhausted"
        assert session.failure(first.key).kind == "fault_exhausted"
    assert first.source == "computed" and again.source == "cache"
    assert again.status == "failed" and len(executed) == 1


def test_admission_hits_count_in_stats_not_job_metrics(tmp_path):
    from repro.telemetry import metrics

    previous = metrics.active_registry()
    registry = metrics.enable()
    request = JobRequest(spec=longs(), workload=TinyCompute(4))
    try:
        with _session(tmp_path) as session:
            session.submit(request).result(timeout=60)
            hit = session.submit(request).result(timeout=60)
        snap = registry.snapshot()
    finally:
        metrics.enable(previous) if previous is not None \
            else metrics.disable()
    assert hit.source == "cache"
    assert session.stats.completed == 2 and session.stats.computed == 1
    assert metrics.counter_total(snap, "service_completed_total") == 1
    assert metrics.counter_total(
        snap, "service_admission_cache_hits_total") == 1


def test_gauges_snapshot(tmp_path):
    with _session(tmp_path, paused=True) as session:
        futures = [session.submit(JobRequest(spec=longs(),
                                             workload=TinyCompute(4)))
                   for _ in range(3)]
        session.resume()
        [f.result(timeout=120) for f in futures]
        gauges = session.gauges()
    assert gauges["service_coalesce_hits"] == 2
    assert gauges["service_queue_depth"] == 0
    assert 0 < gauges["service_coalesce_rate"] < 1


# -- error hierarchy ---------------------------------------------------------

def test_typed_errors_have_stable_codes():
    assert QueueFullError("x").code == "queue_full"
    assert SessionClosedError("x").code == "session_closed"
    assert InfeasibleSchemeError("x").code == "infeasible_scheme"
    assert error_code(ValueError("x")) == "internal"


def test_typed_errors_remain_valueerrors():
    # legacy except ValueError blocks must keep working
    assert issubclass(NoFeasibleSchemeError, ValueError)
    assert issubclass(UnknownMetricError, ValueError)
    assert issubclass(InfeasibleSchemeError, ValueError)
    from repro.core.affinity import InfeasibleSchemeError as legacy

    assert legacy is InfeasibleSchemeError


def test_error_wire_round_trip():
    exc = QueueFullError("queue is full", retry_after=1.5)
    wire = exc.to_wire()
    assert wire["status"] == "error"
    assert wire["code"] == "queue_full"
    assert wire["retry_after"] == 1.5
    back = from_wire(wire)
    assert isinstance(back, QueueFullError)
    assert back.retry_after == 1.5
    assert isinstance(from_wire({"code": "nonsense", "message": "m"}),
                      ReproError)


# -- wire protocol -----------------------------------------------------------

def test_run_result_wire_round_trip(tmp_path):
    with _session(tmp_path) as session:
        result = session.run(RunRequest(
            JobRequest(spec=longs(), workload=TinyCompute(4)), tag="t1"))
    back = RunResult.from_wire(result.to_wire())
    assert back.ok and back.tag == "t1"
    assert back.job.to_dict() == result.job.to_dict()


def test_cell_from_wire_resolves_names():
    request = cell_from_wire({"system": "longs", "workload": "stream",
                              "ntasks": 4, "scheme": "interleave"})
    assert request.cell.spec.name == "Longs"
    assert request.cell.workload.ntasks == 4
    with pytest.raises(UnknownNameError):
        cell_from_wire({"workload": "no-such-workload"})
    with pytest.raises(ProtocolError):
        cell_from_wire({"system": "longs"})  # no workload name
    with pytest.raises(UnknownNameError):
        cell_from_wire({"system": "cray-1", "workload": "stream"})


def test_handle_request_folds_errors_to_wire(tmp_path):
    with _session(tmp_path) as session:
        pong = handle_request(session, {"op": "ping"})
        assert pong["status"] == "ok" and "protocol" in pong
        bad = handle_request(session, {"op": "warp"})
        assert bad["status"] == "error"
        assert bad["code"] == "protocol_error"
        stats = handle_request(session, {"op": "stats"})
        assert "gauges" in stats and "stats" in stats


def test_handle_request_batch_isolates_bad_cells(tmp_path):
    with _session(tmp_path) as session:
        response = handle_request(session, {"op": "batch", "cells": [
            {"system": "longs", "workload": "stream", "ntasks": 4},
            {"system": "longs", "workload": "bogus"},
        ]})
    assert response["status"] == "ok"
    good, bad = response["results"]
    assert good["status"] == "ok"
    assert bad["status"] == "error" and bad["code"] == "unknown_name"


# -- daemon ------------------------------------------------------------------

def test_daemon_round_trip_coalesces_and_drains(tmp_path):
    socket_path = str(tmp_path / "svc.sock")
    session = _session(tmp_path, name="test-daemon")
    server = ServiceServer(socket_path, session)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        pong = request(socket_path, {"op": "ping"}, timeout=30)
        assert pong["status"] == "ok"
        cells = [{"system": "longs", "workload": "stream", "ntasks": 4,
                  "scheme": "interleave"} for _ in range(5)]
        response = request(
            socket_path, {"op": "batch", "cells": cells}, timeout=120)
        assert response["status"] == "ok"
        payloads = {json.dumps(r["result"], sort_keys=True)
                    for r in response["results"]}
        assert len(payloads) == 1
        shutdown = request(socket_path, {"op": "shutdown"}, timeout=120)
        assert shutdown["status"] == "ok"
        assert shutdown["stats"]["coalesced"] >= 1
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        session.close()
        server.close()


# -- submit client retries ---------------------------------------------------

def _reject_then_accept_server(rejections=1):
    """A frame server whose first N submits answer queue_full."""
    from repro.service.transport import TcpFrameServer, serve_in_thread

    calls = {"submit": 0}

    def handle(message):
        if message.get("op") != "submit":
            return {"status": "ok", "op": message.get("op")}
        calls["submit"] += 1
        if calls["submit"] <= rejections:
            return {"status": "error", "op": "submit",
                    "code": "queue_full", "message": "backpressure",
                    "retry_after": 0.01}
        return {"status": "ok", "op": "submit", "source": "computed"}

    server = TcpFrameServer(("127.0.0.1", 0), handle)
    serve_in_thread(server, "retry-test")
    return server, calls


def test_submit_client_honors_retry_after_and_retries():
    from repro.service.daemon import _request_with_retries

    server, calls = _reject_then_accept_server(rejections=1)
    try:
        t0 = time.monotonic()
        reply = _request_with_retries(
            server.address, {"op": "submit", "cell": {"workload": "x"}},
            timeout=5.0, retries=2)
        elapsed = time.monotonic() - t0
    finally:
        server.shutdown()
        server.close()
    assert reply["status"] == "ok"
    assert calls["submit"] == 2  # one rejection, one accepted retry
    assert elapsed >= 0.01       # it slept at least the server's hint


def test_submit_client_gives_up_after_budget():
    from repro.service.daemon import _request_with_retries

    server, calls = _reject_then_accept_server(rejections=10)
    try:
        reply = _request_with_retries(
            server.address, {"op": "submit", "cell": {"workload": "x"}},
            timeout=5.0, retries=2)
    finally:
        server.shutdown()
        server.close()
    assert reply["status"] == "error"
    assert reply["code"] == "queue_full"  # the last outcome, surfaced
    assert calls["submit"] == 3           # 1 attempt + 2 retries


def test_submit_client_never_retries_non_retryable_errors():
    from repro.service.daemon import _request_with_retries
    from repro.service.transport import TcpFrameServer, serve_in_thread

    calls = {"n": 0}

    def handle(message):
        calls["n"] += 1
        return {"status": "error", "op": "submit",
                "code": "unknown_name", "message": "no such workload"}

    server = TcpFrameServer(("127.0.0.1", 0), handle)
    serve_in_thread(server, "no-retry-test")
    try:
        reply = _request_with_retries(
            server.address, {"op": "submit", "cell": {"workload": "x"}},
            timeout=5.0, retries=3)
    finally:
        server.shutdown()
        server.close()
    assert reply["status"] == "error"
    assert reply["code"] == "unknown_name"
    assert calls["n"] == 1  # rejected by the session, not backpressure


# -- the session as execution context ----------------------------------------

def test_two_sessions_keep_their_own_tier_and_faults(tmp_path):
    """Concurrent sessions with different settings never share them."""
    from repro.faults import CacheDegrade, FaultPlan
    from repro.service.registry import resolve_workload

    plan = FaultPlan(faults=(CacheDegrade(capacity_factor=0.5),))
    cell = JobRequest(spec=tiger(), workload=resolve_workload("stream", 2))
    expected = {
        "fast": JobRequest(spec=cell.spec, workload=cell.workload,
                           tier="fast"),
        "faulted": JobRequest(spec=cell.spec, workload=cell.workload,
                              faults=plan),
    }
    cache = ResultCache(directory=tmp_path / "cache")
    sessions = {"fast": Session(cache=cache, tier="fast", name="fast",
                                paused=True),
                "faulted": Session(cache=cache, faults=plan,
                                   name="faulted", paused=True)}
    for name, session in sessions.items():
        assert session.cell(cell).key() == expected[name].key()
    assert len({cell.key()} | {c.key() for c in expected.values()}) == 3

    futures = {name: session.submit(cell)
               for name, session in sessions.items()}
    for session in sessions.values():
        session.resume()
    served = {name: future.result(timeout=120)
              for name, future in futures.items()}
    for session in sessions.values():
        session.close()
    bare = parallel.run_requests([cell], cache=cache)[0]

    reference = ResultCache(directory=tmp_path / "reference")
    for name, result in served.items():
        assert result.ok and result.key == expected[name].key()
        assert result.job.to_dict() == parallel.run_request(
            expected[name], cache=reference).to_dict()
    assert served["faulted"].job.faults is not None
    assert served["fast"].job.faults is None
    # the bare executor call ran the cell exactly as written
    assert bare.faults is None
    assert bare.to_dict() == parallel.run_request(
        cell, cache=reference).to_dict()
    assert cache.stats.stores == 3


@pytest.mark.parametrize("backend,hint", [("processes:4", 0.25),
                                          ("threads:8", 0.125)])
def test_retry_after_divides_by_the_backends_workers(tmp_path, backend,
                                                     hint):
    with _session(tmp_path, backend=backend) as session:
        session._cell_s = 1.0
        assert session._retry_after() == pytest.approx(hint)


@pytest.mark.parametrize("kwargs,waits", [
    ({"jobs": 1}, False),
    ({"backend": "threads:2"}, True),
    ({"jobs": 1, "backend": "threads:2"}, True),
])
def test_batch_window_only_when_flights_run_in_parallel(tmp_path,
                                                        monkeypatch,
                                                        kwargs, waits):
    # a serial flight runs its cells one by one: collecting companions
    # for it only delays the cell in hand
    from repro.service import session as session_module

    # an explicit jobs=1 runs serially whatever the environment says
    monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
    slept = []
    monkeypatch.setattr(session_module.time, "sleep", slept.append)
    with _session(tmp_path, batch_window=0.25, **kwargs) as session:
        request = JobRequest(spec=longs(), workload=TinyCompute(4))
        assert session.submit(request).result(timeout=30).ok
    assert (0.25 in slept) is waits
