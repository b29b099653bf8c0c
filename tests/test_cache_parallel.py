"""Tests for the content-addressed result cache and the parallel executor.

The load-bearing properties: a cell's key is a pure function of its
content (any input change moves the key), cached results round-trip
bit-identically through both tiers, and the parallel executor returns
exactly what the serial path returns, in the same order.
"""

import pytest

from repro.core import (
    AffinityScheme,
    Compute,
    InfeasibleSchemeError,
    Workload,
    resolve_scheme,
)
from repro.core.cache import (
    ResultCache,
    Uncacheable,
    canonical_token,
    job_key,
)
from repro.core.parallel import JobRequest, run_request, run_requests
from repro.machine import dmz, longs, tiger
from repro.mpi import LAM, OPENMPI
from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout


class TinyCompute(Workload):
    """A cheap deterministic workload for fast cache/executor tests."""

    name = "tiny-cache"

    def __init__(self, ntasks=2, flops=1e7):
        self.ntasks = ntasks
        self.flops = flops

    def program(self, rank):
        yield Compute(flops=self.flops, flop_efficiency=0.5)


# -- key construction --------------------------------------------------------

def test_same_configuration_same_key():
    a = JobRequest(spec=longs(), workload=TinyCompute(4), lock="sysv")
    b = JobRequest(spec=longs(), workload=TinyCompute(4), lock="sysv")
    assert a.key() == b.key()


def test_any_field_change_changes_key():
    base = JobRequest(spec=longs(), workload=TinyCompute(4))
    variants = [
        JobRequest(spec=tiger(), workload=TinyCompute(4)),
        JobRequest(spec=longs(), workload=TinyCompute(8)),
        JobRequest(spec=longs(), workload=TinyCompute(4, flops=2e7)),
        JobRequest(spec=longs(), workload=TinyCompute(4),
                   scheme=AffinityScheme.INTERLEAVE),
        JobRequest(spec=longs(), workload=TinyCompute(4), impl=LAM),
        JobRequest(spec=longs(), workload=TinyCompute(4), lock="usysv"),
        JobRequest(spec=longs(), workload=TinyCompute(4), parked=2),
    ]
    keys = [base.key()] + [v.key() for v in variants]
    assert len(set(keys)) == len(keys)


def test_topology_change_changes_key():
    from dataclasses import replace

    spec = longs()
    smaller = replace(spec, sockets=spec.sockets // 2)
    wl = TinyCompute(4)
    assert (job_key(spec, wl, scheme=AffinityScheme.DEFAULT)
            != job_key(smaller, wl, scheme=AffinityScheme.DEFAULT))


def test_default_impl_normalized_into_key():
    wl = TinyCompute(2)
    implicit = JobRequest(spec=dmz(), workload=wl)
    explicit = JobRequest(spec=dmz(), workload=wl, impl=OPENMPI)
    assert implicit.key() == explicit.key()


def test_canonical_token_rejects_closures():
    with pytest.raises(Uncacheable):
        canonical_token(lambda: None)


def test_canonical_floats_are_exact():
    assert canonical_token(0.1) == ["f", "0.1"]
    assert canonical_token(0.1) != canonical_token(0.1 + 1e-17)


# -- cache round trips -------------------------------------------------------

def test_memory_hit_returns_identical_result(tmp_path):
    cache = ResultCache(directory=tmp_path)
    request = JobRequest(spec=dmz(), workload=TinyCompute(2))
    first = run_request(request, cache=cache)
    second = run_request(request, cache=cache)
    assert second is first
    assert cache.stats.memory_hits == 1
    assert cache.stats.misses == 1


def test_disk_round_trip_is_bit_identical(tmp_path):
    request = JobRequest(spec=longs(), workload=TinyCompute(4))
    writer = ResultCache(directory=tmp_path)
    fresh = run_request(request, cache=writer)
    # A brand-new cache over the same directory only has the disk tier.
    reader = ResultCache(directory=tmp_path)
    cached = run_request(request, cache=reader)
    assert reader.stats.disk_hits == 1
    assert cached == fresh  # dataclass equality: every float bit-equal
    assert cached.wall_time == fresh.wall_time
    assert cached.phase_times == fresh.phase_times


def test_disabled_cache_recomputes(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=False)
    request = JobRequest(spec=dmz(), workload=TinyCompute(2))
    first = run_request(request, cache=cache)
    second = run_request(request, cache=cache)
    assert first is not second
    assert first == second
    assert cache.stats.lookups == 0


def _entry_path(directory, key):
    return directory / key[:2] / f"{key}.json"


def test_concurrent_writers_to_one_key_leave_a_parseable_entry(tmp_path):
    import threading

    from repro.core.cache import parse_entry
    from repro.core.execution import JobResult

    request = JobRequest(spec=dmz(), workload=TinyCompute(2))
    result = run_request(request, cache=ResultCache(disk=False))
    key = request.key()
    shared = tmp_path / "shared"
    # separate cache objects, as separate sessions or processes would be
    writers = [ResultCache(directory=shared) for _ in range(6)]
    barrier = threading.Barrier(len(writers))

    def write(cache):
        barrier.wait()
        for _ in range(25):
            cache.put(key, result)

    threads = [threading.Thread(target=write, args=(cache,))
               for cache in writers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    entry = parse_entry(_entry_path(shared, key).read_bytes())
    assert JobResult.from_dict(entry["result"]) == result
    assert list(shared.rglob("*.tmp")) == []
    assert not any(cache._disk_warned for cache in writers)
    reader = ResultCache(directory=shared)
    assert reader.get(key) == result and reader.stats.disk_hits == 1


def test_store_steps_past_a_dead_writers_temp_file(tmp_path, monkeypatch):
    """A leftover temp file with the name a store picks is never
    opened again (``O_EXCL``): the store takes the next name."""
    import itertools
    import os

    from repro.core import cache as cache_module

    request = JobRequest(spec=dmz(), workload=TinyCompute(2))
    result = run_request(request, cache=ResultCache(disk=False))
    key = request.key()
    path = _entry_path(tmp_path, key)
    path.parent.mkdir(parents=True)
    stale = path.with_name(f"{path.name}.{os.getpid()}.7.tmp")
    stale.write_bytes(b"torn")
    monkeypatch.setattr(cache_module, "_TEMP_SEQ", itertools.count(7))
    ResultCache(directory=tmp_path).put(key, result)
    assert stale.read_bytes() == b"torn"
    assert list(tmp_path.rglob("*.tmp")) == [stale]
    assert ResultCache(directory=tmp_path).get(key) == result


def test_unwritable_cache_directory_degrades_to_memory(tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache = ResultCache(directory=blocker)
    request = JobRequest(spec=dmz(), workload=TinyCompute(2))
    with caplog.at_level("WARNING", logger="repro.core.cache"):
        first = run_request(request, cache=cache)
        cache.put(request.key(), first)
    assert [r.message for r in caplog.records].count(
        f"result cache disk writes under {blocker} failing; "
        "continuing memory-only") == 1
    assert run_request(request, cache=cache) is first
    assert cache.stats.memory_hits == 1


# -- the executor ------------------------------------------------------------

def _sweep_csv(jobs, cache):
    from repro.service import Session

    # An isolated session routes the sweep through its own cache.
    with Session(cache=cache) as session:
        table = session.scheme_sweep(longs(), TinyCompute, (2, 4, 8),
                                     title="executor test", jobs=jobs)
    return table.to_csv()


def test_parallel_sweep_bit_identical_to_serial(tmp_path):
    serial = _sweep_csv(1, ResultCache(directory=tmp_path / "serial"))
    parallel_csv = _sweep_csv(2, ResultCache(directory=tmp_path / "par"))
    assert parallel_csv == serial


def test_run_requests_order_dedup_and_infeasible(tmp_path):
    cache = ResultCache(directory=tmp_path)
    feasible = JobRequest(spec=longs(), workload=TinyCompute(4))
    twin = JobRequest(spec=longs(), workload=TinyCompute(4))
    infeasible = JobRequest(spec=dmz(), workload=TinyCompute(16),
                            scheme=AffinityScheme.ONE_MPI_LOCAL)
    results = run_requests([feasible, infeasible, twin], cache=cache)
    assert results[1] is None
    assert results[0] is not None
    assert results[2] is results[0]  # duplicate computed once
    assert cache.stats.stores == 1


# -- infeasibility as a dedicated error --------------------------------------

def test_resolve_scheme_raises_dedicated_error():
    with pytest.raises(InfeasibleSchemeError):
        resolve_scheme(AffinityScheme.ONE_MPI_LOCAL, dmz(), 16)


def test_infeasible_is_a_value_error():
    # Backward compatibility: older callers catching ValueError still work.
    assert issubclass(InfeasibleSchemeError, ValueError)


def test_bad_ntasks_is_not_infeasibility():
    with pytest.raises(ValueError) as excinfo:
        resolve_scheme(AffinityScheme.DEFAULT, dmz(), 0)
    assert not isinstance(excinfo.value, InfeasibleSchemeError)


# -- engine urgent path and slotted events -----------------------------------

def test_urgent_schedule_callback_single_heap_entry():
    engine = Engine()
    fired = []
    ev = engine.schedule_callback(0.5, fired.append, urgent=True)
    assert len(engine._queue) == 1  # no dead Timeout entry alongside
    engine.run()
    assert fired == [ev]
    assert engine.now == 0.5


def test_urgent_runs_before_normal_at_same_instant():
    engine = Engine()
    order = []
    engine.schedule_callback(1.0, lambda ev: order.append("normal"))
    engine.schedule_callback(1.0, lambda ev: order.append("urgent"),
                             urgent=True)
    engine.run()
    assert order == ["urgent", "normal"]


def test_events_are_slotted():
    engine = Engine()
    assert not hasattr(Event(engine), "__dict__")
    assert not hasattr(Timeout(engine, 1.0), "__dict__")
