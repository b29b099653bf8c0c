"""Pluggable execution backends: parity, wire spelling, isolation.

The redesign's core promise: where a cell runs (threads, processes, a
remote shard) never changes *what* it computes — results are
byte-identical and the backend never leaks into the cache content
address.  These tests pin that, plus the remote wire spelling
(`wire_cell_for`) and per-cell failure isolation.
"""

import json

import pytest

from repro.backends import (
    ProcessBackend,
    RemoteBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.core.affinity import AffinityScheme
from repro.core.cache import ResultCache
from repro.core.parallel import JobRequest, run_requests
from repro.errors import ProtocolError
from repro.machine import longs, tiger
from repro.service.protocol import cell_from_wire, handle_request
from repro.service.registry import resolve_workload, wire_cell_for
from repro.service.session import Session
from repro.service.transport import make_server, serve_in_thread


def _cells():
    """A small mixed batch: two systems, two schemes, one infeasible."""
    return [
        JobRequest(spec=longs(), workload=resolve_workload("stream", 4),
                   scheme=AffinityScheme.DEFAULT),
        JobRequest(spec=longs(), workload=resolve_workload("stream", 4),
                   scheme=AffinityScheme.INTERLEAVE),
        JobRequest(spec=tiger(), workload=resolve_workload("stream", 2),
                   scheme=AffinityScheme.DEFAULT),
        # 16 ranks under ONE_MPI on tiger does not fit: infeasible
        JobRequest(spec=tiger(), workload=resolve_workload("stream", 16),
                   scheme=AffinityScheme.ONE_MPI_LOCAL),
    ]


def _canon(results):
    """Results as a comparable JSON string (None = infeasible dash)."""
    return json.dumps([r.to_dict() if r is not None else None
                       for r in results], sort_keys=True)


def _run(cells, **kwargs):
    """``run_requests`` with its outcomes read back: the results and
    the failed cells."""
    outcomes = []
    results = run_requests(cells, outcomes=outcomes, **kwargs)
    return results, [payload for status, payload in outcomes
                     if status == "failed"]


def _run_with(backend, tmp_path, sub):
    cache = ResultCache(directory=tmp_path / sub)
    try:
        results, failures = _run(_cells(), cache=cache, jobs=2,
                                 backend=backend)
    finally:
        backend.close()
    assert failures == []
    return results


# -- parity ------------------------------------------------------------------

def test_thread_and_process_backends_are_byte_identical(tmp_path):
    via_threads = _run_with(ThreadBackend(), tmp_path, "threads")
    via_processes = _run_with(ProcessBackend(), tmp_path, "processes")
    assert _canon(via_threads) == _canon(via_processes)


def test_remote_backend_matches_local_byte_for_byte(tmp_path):
    via_threads = _run_with(ThreadBackend(), tmp_path, "threads")

    shard = Session(name="shard-test",
                    cache=ResultCache(directory=tmp_path / "shard"))
    server = make_server(("127.0.0.1", 0),
                         lambda m: handle_request(shard, m))
    serve_in_thread(server, "backend-parity")
    backend = RemoteBackend(f"127.0.0.1:{server.address[1]}")
    try:
        via_remote, failures = _run(
            _cells(), cache=ResultCache(directory=tmp_path / "remote"),
            jobs=2, backend=backend)
        assert failures == []
        assert _canon(via_remote) == _canon(via_threads)
        assert backend.healthy()
    finally:
        backend.close()
        server.shutdown()
        server.close()
        shard.close()


def test_backend_never_in_the_cache_key(tmp_path):
    """One warm cache serves every backend: keys are backend-free."""
    cache_dir = tmp_path / "shared"
    first, _ = _run(_cells(), cache=ResultCache(directory=cache_dir),
                    jobs=2, backend=ThreadBackend())
    warm = ResultCache(directory=cache_dir)
    second, failures = _run(_cells(), cache=warm, jobs=2,
                            backend=ProcessBackend())
    assert _canon(first) == _canon(second) and failures == []
    # every feasible cell was a hit; only the infeasible one (which is
    # never stored) re-dispatched
    assert warm.stats.disk_hits == 3 and warm.stats.misses == 1


# -- wire spelling -----------------------------------------------------------

def test_wire_cell_for_round_trips_the_cache_key():
    for request in _cells():
        cell = wire_cell_for(request)
        rebuilt = cell_from_wire(cell)
        assert rebuilt.to_job().key() == request.key()


def test_wire_cell_for_rejects_inexpressible_cells():
    from repro.core.affinity import resolve_scheme

    spec = longs()
    workload = resolve_workload("stream", 4)
    explicit = resolve_scheme(AffinityScheme.DEFAULT, spec, 4)
    with pytest.raises(ProtocolError):
        wire_cell_for(JobRequest(spec=spec, workload=workload,
                                 affinity=explicit))
    with pytest.raises(ProtocolError):
        wire_cell_for(JobRequest(spec=spec, workload=workload,
                                 profile=True))


def test_remote_isolates_inexpressible_cells_per_cell(tmp_path):
    """A cell with no wire spelling fails alone; the batch survives."""
    from repro.core.affinity import resolve_scheme

    shard = Session(name="shard-iso",
                    cache=ResultCache(directory=tmp_path / "shard"))
    server = make_server(("127.0.0.1", 0),
                         lambda m: handle_request(shard, m))
    serve_in_thread(server, "backend-iso")
    backend = RemoteBackend(f"127.0.0.1:{server.address[1]}")
    spec = longs()
    workload = resolve_workload("stream", 4)
    good = JobRequest(spec=spec, workload=workload)
    bad = JobRequest(spec=spec, workload=workload,
                     affinity=resolve_scheme(AffinityScheme.DEFAULT,
                                             spec, 4))
    try:
        results, failures = _run([good, bad],
                                 cache=ResultCache(directory=tmp_path / "c"),
                                 backend=backend)
        assert results[0] is not None and results[0].wall_time > 0
        assert results[1] is None
        assert len(failures) == 1
        assert "wire spelling" in failures[0].message
    finally:
        backend.close()
        server.shutdown()
        server.close()
        shard.close()


@pytest.mark.parametrize("response, kind", [
    ({"status": "error", "code": "queue_full", "message": "busy"},
     "queue_full"),
    ({"status": "ok", "results": [{"status": "error",
                                   "code": "shard_unavailable"}]},
     "shard_unavailable"),
    ({"status": "ok", "results": []}, "transport"),
])
def test_remote_failures_keep_the_downstream_code(response, kind):
    """A downstream rejection reaches the session under its own code,
    never as the cell-dependent ``error`` a session keeps."""
    backend = RemoteBackend("127.0.0.1:1")
    backend.forward = lambda message: response
    [future] = backend.submit_cells([JobRequest(
        spec=longs(), workload=resolve_workload("stream", 4))])
    status, detail = future.result()
    assert status == "failed" and detail["kind"] == kind


# -- selection / plumbing ----------------------------------------------------

def test_resolve_backend_spellings():
    threads = resolve_backend("threads:3")
    assert isinstance(threads, ThreadBackend) and threads.capacity() == 3
    processes = resolve_backend("processes:2")
    assert isinstance(processes, ProcessBackend)
    assert processes.capacity() == 2
    remote = resolve_backend("remote:127.0.0.1:9")
    assert isinstance(remote, RemoteBackend)
    passthrough = resolve_backend(threads)
    assert passthrough is threads
    for spec in ("warp", "remote:", "threads:none"):
        with pytest.raises(ValueError):
            resolve_backend(spec)
    for backend in (threads, processes, remote):
        backend.close()


def test_session_accepts_backend_and_reports_gauges(tmp_path):
    with Session(cache=ResultCache(directory=tmp_path),
                 backend="threads:2") as session:
        result = session.run(JobRequest(
            spec=longs(), workload=resolve_workload("stream", 4)))
        assert result.ok
        gauges = session.gauges()
        assert gauges.get("backend_submitted", 0) >= 1
        assert gauges.get("backend_completed", 0) >= 1
        assert gauges.get("backend_inflight", 0) == 0


def test_backend_accounting_counts_failures():
    backend = ThreadBackend()
    try:
        # the executor settles the infeasible cell; the backend runs and
        # counts only the feasible one
        outcomes = []
        run_requests(
            [JobRequest(spec=tiger(),
                        workload=resolve_workload("stream", 16),
                        scheme=AffinityScheme.ONE_MPI_LOCAL),
             JobRequest(spec=tiger(),
                        workload=resolve_workload("stream", 2))],
            cache=ResultCache(disk=False), backend=backend,
            outcomes=outcomes)
        status, _ = outcomes[0]
        assert status == "infeasible"
        gauges = backend.gauges()
        assert gauges["backend_submitted"] == 1
        assert gauges["backend_completed"] == 1
        assert gauges["backend_inflight"] == 0
    finally:
        backend.close()


def test_closing_one_process_backend_keeps_anothers_workers(tmp_path):
    """Each ProcessBackend owns its pool: close() reaps only its own."""
    import multiprocessing

    def workers():
        return {proc.pid for proc in multiprocessing.active_children()}

    before = workers()
    first, second = ProcessBackend(jobs=2), ProcessBackend(jobs=2)
    try:
        _run(_cells(), cache=ResultCache(directory=tmp_path / "a"),
             jobs=2, backend=first)
        first_pids = workers() - before
        _run(_cells(), cache=ResultCache(directory=tmp_path / "b"),
             jobs=2, backend=second)
        second_pids = workers() - before - first_pids
        assert first_pids and second_pids
        first.close()
        alive = workers()
        assert not first_pids & alive
        assert second_pids <= alive
        # the surviving pool still serves, on the same workers
        again, _ = _run(_cells(),
                        cache=ResultCache(directory=tmp_path / "c"),
                        jobs=2, backend=second)
        assert _canon(again) == _canon(_run_with(ThreadBackend(), tmp_path,
                                                 "threads"))
        assert second_pids <= workers()
    finally:
        first.close()
        second.close()


def test_concurrent_flights_share_one_process_backend(tmp_path):
    """Threads dispatching to one ProcessBackend each get their own bytes."""
    import threading

    backend = ProcessBackend(jobs=2)
    expected = _canon(_run_with(ThreadBackend(), tmp_path, "threads"))
    got = {}

    def flight(name):
        got[name] = _canon(_run(
            _cells(), cache=ResultCache(directory=tmp_path / name),
            jobs=2, backend=backend)[0])

    threads = [threading.Thread(target=flight, args=(f"flight-{i}",))
               for i in range(3)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {f"flight-{i}": expected for i in range(3)}
    finally:
        backend.close()
