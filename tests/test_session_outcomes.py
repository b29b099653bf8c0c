"""One outcome path from backend to waiter.

The executor folds each cell's backend outcome once and a session reads
those outcomes directly, so:

* a shed (degraded) job is answered through the same fold as every
  other cell, whatever its cell raises;
* an infeasible answer carries the backend's reason, on every path;
* sessions' flights run concurrently: no process-wide lock serializes
  them, and each still gets exactly its own bytes and counters.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ThreadBackend
from repro.core import parallel
from repro.core.affinity import AffinityScheme
from repro.core.cache import ResultCache
from repro.core.parallel import JobRequest
from repro.errors import InfeasibleSchemeError
from repro.machine import dmz, longs, tiger
from repro.service import Session
from repro.service.protocol import handle_request
from repro.service.registry import resolve_workload, wire_cell_for
from repro.workloads import NasCG, StreamTriad

#: the quick tier of property settings: tier-1 stays fast
QUICK = settings(max_examples=20, deadline=None)


def _memory_cache() -> ResultCache:
    return ResultCache(disk=False)


# -- a shed job is always delivered -----------------------------------------

def test_degraded_job_that_raises_is_delivered_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("surrogate exploded")

    monkeypatch.setattr("repro.surrogate.evaluate_request", boom)
    with Session(cache=_memory_cache(), jobs=1, max_pending=1, paused=True,
                 shed_threshold=1e-9, name="shed-raise") as session:
        queued = session.submit(JobRequest(spec=tiger(),
                                           workload=StreamTriad(2),
                                           tier="exact"))
        shed = session.submit(JobRequest(spec=tiger(),
                                         workload=NasCG(2), tier="auto"))
        result = shed.result(timeout=10)
        assert result.status == "failed"
        assert result.kind == "error"
        assert "surrogate exploded" in result.error
        assert result.degraded is True
        assert session.drain(timeout=30)
        assert queued.result().ok
        assert session.gauges()["service_outstanding"] == 0


# -- infeasible answers carry the backend's reason ----------------------------

@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_infeasible_reason_is_the_same_on_every_path(backend):
    cell = JobRequest(spec=tiger(), workload=resolve_workload("stream", 4),
                      scheme=AffinityScheme.TWO_MPI_LOCAL)
    with pytest.raises(InfeasibleSchemeError) as uncached:
        cell.execute()
    reason = str(uncached.value)

    session, server = (Session(cache=_memory_cache(), jobs=2,
                               backend=backend, name=f"{name}-{backend}")
                       for name in ("infeasible", "served"))
    try:
        with pytest.raises(InfeasibleSchemeError) as cached:
            session.run(cell).require()
        served = handle_request(server, {
            "op": "submit", "cell": wire_cell_for(cell)})
    finally:
        session.close()
        server.close()
    assert str(cached.value) == reason
    assert served["status"] == "infeasible"
    assert served["error"] == reason


# -- concurrent sessions ------------------------------------------------------

def test_two_sessions_flights_overlap(monkeypatch):
    """Each flight's only cell waits for the other's: both must finish."""
    barrier = threading.Barrier(2, timeout=10)
    real_execute = JobRequest.execute

    def meet_then_execute(self):
        barrier.wait()
        return real_execute(self)

    monkeypatch.setattr(JobRequest, "execute", meet_then_execute)
    results = {}

    def flight(ntasks):
        with Session(cache=_memory_cache(), backend="threads",
                     name=f"overlap-{ntasks}") as session:
            results[ntasks] = session.run(JobRequest(
                spec=longs(), workload=StreamTriad(ntasks), tier="fast"))

    threads = [threading.Thread(target=flight, args=(n,)) for n in (2, 4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert {n: r.status for n, r in results.items()} == {2: "ok", 4: "ok"}


#: fast-tier registry cells, an infeasible one among them
_CELLS = [(system, name, ntasks, scheme)
          for system in (longs, dmz, tiger)
          for name in ("stream", "cg", "ep")
          for ntasks in (2, 4)
          for scheme in (AffinityScheme.DEFAULT,
                         AffinityScheme.TWO_MPI_LOCAL)]


def _request(index: int) -> JobRequest:
    system, name, ntasks, scheme = _CELLS[index]
    return JobRequest(spec=system(), workload=resolve_workload(name, ntasks),
                      scheme=scheme)


def _canonical(results) -> bytes:
    return json.dumps([[r.status, r.job.to_dict() if r.ok else r.error]
                       for r in results], sort_keys=True).encode()


def _run_cells(indices, name: str) -> bytes:
    with Session(cache=_memory_cache(), backend=ThreadBackend(),
                 tier="fast", name=name) as session:
        return _canonical(session.run_many([_request(i) for i in indices]))


@QUICK
@given(st.lists(st.lists(st.integers(0, len(_CELLS) - 1), min_size=1,
                         max_size=4, unique=True),
                min_size=2, max_size=4))
def test_concurrent_sessions_match_a_serial_run(per_thread):
    serial = [_run_cells(cells, f"serial-{i}")
              for i, cells in enumerate(per_thread)]
    concurrent = [None] * len(per_thread)

    def worker(i):
        concurrent[i] = _run_cells(per_thread[i], f"thread-{i}")

    before = parallel.pool_stats().cells
    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(per_thread))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert concurrent == serial
    assert parallel.pool_stats().cells - before == sum(
        len(cells) for cells in per_thread)
