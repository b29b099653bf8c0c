"""``repro-bench chaos``: break the pipeline on purpose, assert recovery.

One table, :data:`PROPERTIES`, holds every fault-recovery property.
Each entry has a **check** that actually breaks something — kills a
worker process mid-batch, wedges one in a sleep, damages a cache entry,
tears the ledger, kills a shard mid-replay, injects machine faults —
and raises :class:`AssertionError` when the pipeline did not recover
the way the robustness machinery promises; a Hypothesis **strategy**
over the check's arguments; and a set of **named pinned examples**.
The seven pinned examples are the chaos scenarios (:data:`SCENARIOS`).

* ``repro-bench chaos`` calls each check directly on every pinned
  example (``--scenario NAME`` on one).  It needs no Hypothesis.
* ``repro-bench chaos --search`` wraps each check in ``@given`` with
  its pinned examples as ``@example``, so they run first, then draws
  new cases.  Failing draws are minimized and persisted to
  ``.repro/chaos_corpus/`` (a ``DirectoryBasedExampleDatabase``), so a
  violation found in one run is replayed first in the next.
  :data:`PROFILES` sets each property's draw budget: ``ci`` (small,
  time-boxed) or ``nightly`` (wide).

The invariants, asserted on every example:

* **determinism / byte-identity** — a cell computed twice in fresh
  caches, through a crash, a stall, a shed or a shard kill produces the
  bytes of a serial run (infeasible cells are infeasible every time);
* **cache-key soundness** — keys are stable, a re-run is a cache hit,
  a faulted cell never shares a key with its healthy twin, and
  ``tier="auto"`` shares the key of the tier it resolves to;
* **zero accepted-job loss** — every accepted job resolves, a lost
  worker costs only its own cell (as a structured ``failed`` result),
  an overloaded session degrades ``auto`` cells instead of dropping
  them, and a cluster answers every request through a shard kill and
  converges back to full strength;
* **damage is never trusted** — a damaged cache entry is never served
  as a different result, and a torn ledger line is skipped and
  repairable;
* **faults have effects** — injected machine faults slow runs, lossy
  transports retry, and exhausted retries are structured failures.

All checks run against throwaway temp directories; nothing touches the
user's real cache or ledger.  Exit status: 0 when every check held, 1
on a violation, 2 when ``--search`` cannot import Hypothesis.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from ..core.cache import ResultCache
from ..core.ops import Compute, Op
from ..core.workload import Workload
from ..faults import FaultPlan, MessageFaults

__all__ = ["KamikazeWorkload", "SleeperWorkload", "PROFILES", "PROPERTIES",
           "SCENARIOS", "run_scenario", "run_search", "main"]

DEFAULT_CORPUS = os.path.join(".repro", "chaos_corpus")


class _QuickWorkload(Workload):
    """A tiny compute kernel; finishes in microseconds of wall time."""

    name = "chaos-quick"
    ntasks = 2

    def __init__(self, salt: int = 0):
        #: distinguishes cells so a batch holds unique cache keys
        self.salt = salt

    def program(self, rank: int) -> Iterator[Op]:
        yield Compute(flops=1e6 + self.salt, dram_bytes=1e6,
                      working_set=1 << 20)


class KamikazeWorkload(Workload):
    """Dies with ``os._exit`` inside the worker — an un-catchable crash.

    ``os._exit`` skips every ``finally`` and atexit hook, exactly like a
    segfault or the kernel OOM killer: the executor only learns about it
    from the broken pool.
    """

    name = "chaos-kamikaze"
    ntasks = 2

    def program(self, rank: int) -> Iterator[Op]:
        os._exit(3)
        yield Compute(flops=1.0)  # pragma: no cover - unreachable


class SleeperWorkload(Workload):
    """Wedges the worker in a long sleep — a stall, not a crash."""

    name = "chaos-sleeper"
    ntasks = 2

    def __init__(self, seconds: float = 60.0):
        self.seconds = seconds

    def program(self, rank: int) -> Iterator[Op]:
        time.sleep(self.seconds)
        yield Compute(flops=1.0)  # pragma: no cover - cancelled first


# -- cell determinism and cache-key soundness --------------------------------


def _check_cell_invariants(cell: Dict[str, Any], tier: Optional[str],
                           faults: Any) -> None:
    from ..core.parallel import run_request
    from ..errors import InfeasibleSchemeError
    from ..service.protocol import cell_from_wire

    request = replace(cell_from_wire(cell).cell, tier=tier, faults=faults)
    twin = replace(cell_from_wire(cell).cell, tier=tier, faults=faults)
    assert request.key() == twin.key(), \
        "cache key is not a pure function of the cell"
    if faults is not None:
        healthy = replace(request, faults=None)
        assert request.key() != healthy.key(), \
            "a faulted cell shares its healthy twin's cache key"
    if tier == "auto":
        resolved = replace(request, tier=request.effective_tier())
        assert request.key() == resolved.key(), \
            "tier=auto does not share the resolved tier's cache key"

    with tempfile.TemporaryDirectory() as tmp:
        first_cache = ResultCache(directory=os.path.join(tmp, "a"))
        try:
            first = run_request(request, cache=first_cache)
        except InfeasibleSchemeError:
            # infeasibility is a valid outcome — but it must be stable
            try:
                run_request(twin, cache=ResultCache(
                    directory=os.path.join(tmp, "b")))
            except InfeasibleSchemeError:
                return
            raise AssertionError(
                "cell was infeasible once and feasible the second time")
        second = run_request(twin, cache=ResultCache(
            directory=os.path.join(tmp, "b")))
        assert first.to_dict() == second.to_dict(), \
            "fresh-cache reruns diverged (determinism violation)"

        hits_before = (first_cache.stats.memory_hits
                       + first_cache.stats.disk_hits)
        again = run_request(request, cache=first_cache)
        hits_after = (first_cache.stats.memory_hits
                      + first_cache.stats.disk_hits)
        assert hits_after == hits_before + 1, \
            "identical cell missed its own cache entry"
        assert again.to_dict() == first.to_dict(), \
            "cache replay changed the payload"


# -- overload sheds without losing accepted jobs -----------------------------


def _check_shed_degrade(cell_list: List[Dict[str, Any]],
                        depth: int) -> None:
    from ..core.parallel import run_request
    from ..errors import QueueFullError
    from ..service.protocol import cell_from_wire
    from ..service.session import Session

    jobs = [replace(cell_from_wire(cell).cell, tier="auto")
            for cell in cell_list]

    with tempfile.TemporaryDirectory() as tmp:
        session = Session(cache=ResultCache(directory=os.path.join(
            tmp, "svc")), jobs=1, max_pending=depth, paused=True,
            shed_threshold=1e-9, name="chaos-search")
        futures = []
        rejected = 0
        with session:
            # every submit beyond the queue depth must shed: auto cells
            # degrade to the surrogate inline instead of erroring out
            for job in jobs:
                try:
                    futures.append((job, session.submit(job)))
                except QueueFullError:
                    rejected += 1
            session.resume()
            assert session.drain(timeout=60.0), \
                "session failed to drain its accepted jobs"
            results = [(job, future.result()) for job, future in futures]
        assert rejected == 0, \
            "an auto-tier cell was rejected instead of degraded"
        assert len(results) == len(cell_list), "an accepted job was lost"
        # duplicates coalesce (or hit the cache) at admission, so only
        # cells with distinct content addresses ever occupy queue slots
        distinct = len({job.key() for job in jobs})
        assert session.stats.degraded >= max(0, distinct - depth), \
            "overload did not shed to the surrogate fast path"

        for job, result in results:
            if result.status == "infeasible":
                continue
            assert result.ok, \
                f"accepted cell resolved as {result.status}: {result.error}"
            baseline = run_request(
                job, cache=ResultCache(directory=os.path.join(tmp, "base")))
            assert result.job.to_dict() == baseline.to_dict(), \
                "a degraded result diverged from the serial baseline " \
                "(cache-coherence violation)"


# -- a lost worker costs only its own cell -----------------------------------


def _check_worker_loss(quick: int, victim: int, stall: bool, retries: int,
                       served: bool) -> None:
    """A worker lost mid-batch loses only its own cell.

    ``quick`` tiny cells and one victim at position ``victim`` run on a
    two-worker pool.  The victim crashes its worker with ``os._exit``
    or, with ``stall``, wedges it in a sleep that the 1 s stall
    watchdog must catch.  The batch runs as one ``Session.run_many``
    call or, with ``served``, as paused ``Session.submit`` calls plus a
    coalesced twin of the first quick cell.  Every accepted job
    resolves, surviving cells keep their serial bytes, and the victim
    resolves as a structured ``failed`` result of its kind.
    """
    from ..core import parallel
    from ..core.parallel import JobRequest
    from ..machine import tiger
    from ..service.session import Session

    spec = tiger()
    cells = [JobRequest(spec=spec, workload=_QuickWorkload(salt=i))
             for i in range(quick)]
    lost = JobRequest(spec=spec, workload=SleeperWorkload()
                      if stall else KamikazeWorkload())
    batch = cells[:victim] + [lost] + cells[victim:]
    kind = "timeout" if stall else "crash"
    with tempfile.TemporaryDirectory() as tmp:
        with Session(cache=ResultCache(directory=os.path.join(tmp, "serial")),
                     jobs=1, name="chaos-serial") as serial_session:
            serial = serial_session.run_many(cells)
        # a cold cache of its own, so the quick cells truly run on the
        # pool (a shared one would answer them up front)
        with Session(cache=ResultCache(directory=os.path.join(tmp, "pool")),
                     jobs=2, timeout=1.0 if stall else None,
                     retries=retries, paused=served,
                     name="chaos") as session:
            if served:
                # the twin must survive the recovery too
                futures = [session.submit(request)
                           for request in batch + cells[:1]]
                assert session.stats.accepted == len(batch), (
                    f"expected {len(batch)} accepted jobs (1 coalesced), "
                    f"got {session.stats.accepted}")
                session.resume()
                assert session.drain(timeout=120.0), \
                    "drain timed out with jobs outstanding"
                assert all(future.done() for future in futures), \
                    "an accepted job never resolved"
                results = [future.result() for future in futures]
                twin = results.pop()
            else:
                results = session.run_many(batch)
        parallel.shutdown_pool()

    failed = results.pop(victim)
    assert failed.status == "failed" and failed.kind == kind, (
        f"the {kind} victim resolved as {failed.status}/{failed.kind}, "
        f"expected failed/{kind}")
    for i, (before, after) in enumerate(zip(serial, results)):
        assert after.ok and before.job.to_dict() == after.job.to_dict(), \
            f"surviving cell {i} lost or changed its result"
    if served:
        assert twin.ok and twin.job.to_dict() == results[0].job.to_dict(), \
            "the coalesced twin diverged from its sibling"


# -- a damaged cache entry is never trusted ----------------------------------


def _check_cache_corruption(damage: str, at: float) -> None:
    """A damaged cache entry is never served as a different result.

    ``damage`` is ``flipped`` (a well-formed frame whose payload no
    longer matches its checksum), ``truncated`` (the entry cut to the
    fraction ``at`` of its bytes) or ``bitflip`` (one bit flipped, at
    the fraction ``at`` of the entry).  Detected damage is quarantined
    to ``*.corrupt`` and recomputed byte-identically, and the entry on
    disk verifies on the next read.
    """
    from ..core.cache import parse_entry
    from ..core.parallel import JobRequest, run_request
    from ..machine import tiger
    from ..wire import frames

    request = JobRequest(spec=tiger(), workload=_QuickWorkload())
    key = request.key()
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(directory=tmp)
        original = run_request(request, cache=cache)
        path = cache._path(key)
        raw = path.read_bytes()
        if damage == "flipped":
            entry = parse_entry(raw)
            entry["result"]["wall_time"] += 1.0 + at
            raw = frames.pack_frames(entry)
        elif damage == "truncated":
            raw = raw[:int(len(raw) * at)]
        else:
            bit = int(len(raw) * 8 * at)
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            raw = bytes(flipped)
        path.write_bytes(raw)

        fresh = ResultCache(directory=tmp)
        served = run_request(request, cache=fresh)
        assert served.to_dict() == original.to_dict(), \
            f"{damage}: a damaged entry was served as a different result"
        detected = fresh.stats.corrupt
        # a stale checksum or a cut frame is always caught; a flipped
        # bit may land where it changes nothing (the frame flags)
        assert detected == 1 or damage == "bitflip", \
            f"{damage}: entry was not quarantined (corrupt={detected})"
        assert path.with_suffix(".json.corrupt").exists() == bool(detected), \
            f"{damage}: the quarantine file does not match the detection"
        again = ResultCache(directory=tmp)
        assert again.get(key) is not None and not again.stats.corrupt, \
            f"{damage}: the entry on disk did not verify on the next read"


# -- a torn ledger line is skipped and repairable ----------------------------

#: the record a crashed writer was appending when it tore the ledger
_TORN_LINE = json.dumps({"run_id": "torn", "schema": 1, "tool": "bench"},
                        sort_keys=True, separators=(",", ":"))


def _check_torn_ledger(run_ids: List[str], tear: int,
                       second_tear: int) -> None:
    """A torn trailing line is detected, skipped, and repairable.

    One record per ``run_ids`` entry lands whole, then a writer dies
    ``tear`` characters into the next line.  Readers skip the torn
    line, ``scan`` names it, ``repair`` rewrites the file without it,
    and a record appended after a second tear (``second_tear``
    characters) still lands on a line of its own.
    """
    from ..telemetry import ledger

    records = [{"schema": 1, "tool": "bench", "run_id": run_id}
               for run_id in run_ids]
    count = len(records)
    with tempfile.TemporaryDirectory() as tmp:
        for record in records:
            ledger.append(record, tmp)
        path = ledger.ledger_path(tmp)
        with open(path, "a") as handle:
            handle.write(_TORN_LINE[:tear])

        assert ledger.read_records(tmp) == records, \
            "torn line leaked into read_records"
        report = ledger.scan(tmp)
        assert report["records"] == count \
            and report["torn_lines"] == [count + 1], \
            f"scan misread the damage: {report}"
        assert ledger.repair(tmp)["repaired"], "repair declined to rewrite"
        after = ledger.scan(tmp)
        assert not after["torn_lines"] and after["records"] == count, \
            f"ledger still damaged after repair: {after}"
        # a record appended after a crash starts on a fresh line even
        # without a repair
        with open(path, "a") as handle:
            handle.write(_TORN_LINE[:second_tear])
        ledger.append({"schema": 1, "tool": "bench", "run_id": "next"}, tmp)
        assert len(ledger.read_records(tmp)) == count + 1, \
            "append after a torn line lost a record"


# -- injected machine faults have their effects -------------------------------


def _check_fault_effects(link_factor: float, lossy: Any,
                         exhausting: Any) -> None:
    """Injected machine faults degrade runs; exhaustion is structured.

    An HT link at ``link_factor`` of its bandwidth slows interleaved
    STREAM; the ``lossy`` message-fault plan costs a ping-pong retries
    but completes; the ``exhausting`` plan raises
    :class:`TransportExhaustedError` when run directly, and through the
    executor becomes a ``failed``/``fault_exhausted`` result, not an
    abort.
    """
    from ..core.affinity import AffinityScheme
    from ..core.execution import run_workload
    from ..core.parallel import JobRequest
    from ..faults import LinkDegrade, TransportExhaustedError
    from ..machine import longs
    from ..service.session import Session
    from ..workloads import HpccStream, PingPong

    spec = longs()
    healthy = run_workload(spec, HpccStream(ntasks=4),
                           scheme=AffinityScheme.INTERLEAVE)
    assert healthy.faults is None, "healthy run carries a fault summary"
    degraded = run_workload(
        spec, HpccStream(ntasks=4), scheme=AffinityScheme.INTERLEAVE,
        faults=FaultPlan(faults=(LinkDegrade(
            src=0, dst=1, bandwidth_factor=link_factor),)))
    assert degraded.wall_time > healthy.wall_time, \
        f"HT link at {link_factor:.3g}x did not slow interleaved STREAM"

    flaky = run_workload(spec, PingPong(nbytes=65536), faults=lossy)
    injected = flaky.faults["injected"]
    assert injected.get("mpi_retries"), \
        f"lossy transport injected nothing: {injected}"
    try:
        run_workload(spec, PingPong(nbytes=65536), faults=exhausting)
    except TransportExhaustedError:
        pass
    else:
        raise AssertionError("retry exhaustion did not raise")

    pingpong = JobRequest(spec=spec, workload=PingPong(nbytes=65536))
    with tempfile.TemporaryDirectory() as tmp, \
            Session(cache=ResultCache(directory=tmp), jobs=1,
                    name="chaos") as session:
        recovered, exhausted = session.run_many(
            [replace(pingpong, faults=lossy),
             replace(pingpong, faults=exhausting)])
    assert recovered.ok and recovered.job.to_dict() == flaky.to_dict(), \
        "the executor changed the lossy run's result"
    assert exhausted.status == "failed" \
        and exhausted.kind == "fault_exhausted", (
            f"sweep did not fold exhaustion to a failure: "
            f"{exhausted.status}/{exhausted.kind}")


# -- a cluster survives a shard kill and converges ---------------------------


class _InProcShard:
    """Popen-shaped handle over an in-process TCP shard server.

    ``kill`` closes the listener *and* every open connection, as the
    death of a shard process would: otherwise the router's persistent
    connection keeps reaching the victim and no key ever reroutes.
    """

    _pids = iter(range(10_000, 1_000_000))

    def __init__(self, server: Any):
        self.server = server
        self.pid = next(self._pids)
        self._dead = False

    def kill(self) -> None:
        self._dead = True
        try:
            self.server.initiate_shutdown()
            self.server.close()
        except OSError:
            pass
        for connection in list(self.server.connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its peer

    def poll(self) -> Optional[int]:
        return 1 if self._dead else None


def _shard_server(address: Any, session: Any) -> Any:
    """A TCP shard server that records its connections (see kill)."""
    from ..service.daemon import TcpServiceServer

    class ShardServer(TcpServiceServer):
        def process_request(self, request, client_address):
            self.connections.add(request)
            super().process_request(request, client_address)

    server = ShardServer(address, session)
    server.connections = set()
    return server


def _check_cluster_kill(cell_list: List[Dict[str, Any]], n_shards: int,
                        victim_cell: int, kill_fraction: float) -> None:
    """A shard killed mid-replay costs capacity, never accepted jobs.

    ``n_shards`` supervised TCP shards share one content-addressed
    store behind a rendezvous-hashing router.  A trace holding every
    cell four times replays through the router, and once
    ``kill_fraction`` of it has answered the home shard of
    ``cell_list[victim_cell]`` (modulo its length) is killed; every
    cell is then asked once more with the victim still down.  Every
    request still answers, a surviving shard serves traffic, duplicates
    collapse through coalescing or the shared store, the supervisor
    restarts the victim until the router sees every shard alive, and
    every cell matches a serial baseline byte for byte.
    """
    from ..cluster.manager import wait_for_ping
    from ..cluster.replay import run_replay
    from ..cluster.router import Router, shard_for_key
    from ..cluster.supervisor import ShardSpec, ShardSupervisor
    from ..core import parallel
    from ..service.protocol import cell_from_wire
    from ..service.session import Session
    from ..service.transport import make_server, serve_in_thread

    cells = [dict(cell) for cell in cell_list]
    trace = [{"t": 0.0, "cell": dict(cell)} for cell in cells * 4]
    kill_at = max(1, int(len(trace) * kill_fraction))

    with tempfile.TemporaryDirectory() as tmp:
        shared = os.path.join(tmp, "store")
        handles: Dict[str, _InProcShard] = {}

        def launch(spec: ShardSpec) -> _InProcShard:
            session = Session(cache=ResultCache(directory=shared),
                              jobs=1, name=spec.name)
            server = _shard_server(spec.address, session)
            serve_in_thread(server, name=spec.name)
            return _InProcShard(server)

        specs = []
        for i in range(n_shards):
            # bind an ephemeral port first so the spec pins a real
            # address the supervisor can relaunch on
            placeholder = make_server(("127.0.0.1", 0), lambda m: {})
            address = placeholder.address
            placeholder.close()
            specs.append(ShardSpec(name=f"shard-{i}", address=address))
        for spec in specs:
            handles[spec.name] = launch(spec)
        victim = shard_for_key(
            cell_from_wire(cells[victim_cell % len(cells)]).key(),
            [spec.name for spec in specs])

        router = Router([(spec.name, spec.address) for spec in specs],
                        retries=2, backoff_s=0.02, health_interval_s=0.1,
                        breaker_threshold=2, breaker_open_s=0.2)
        front = make_server(("127.0.0.1", 0), router.handle_message)
        serve_in_thread(front, name="chaos-router")
        router.start_health_checks()
        supervisor = ShardSupervisor(
            specs, handles, restart_budget=5, budget_window_s=60.0,
            backoff_s=0.02, backoff_max_s=0.2, poll_interval_s=0.05,
            ready_timeout_s=10.0, launch_fn=launch,
            ping_fn=lambda address, deadline_s: wait_for_ping(
                address, deadline_s=deadline_s),
            external_stop=router._stop)

        killed = threading.Event()

        def maybe_kill(index: int, outcome: Any) -> None:
            if index >= kill_at and not killed.is_set():
                killed.set()
                handles[victim].kill()

        try:
            report = run_replay(front.address, trace, rate=0.0,
                                clients=4, timeout=60.0,
                                on_result=maybe_kill)
            assert killed.is_set(), \
                "the kill never fired; replay finished too fast"
            # every cell once more while the victim is still down, so
            # its keys must reroute whatever the replay had in flight
            tail = run_replay(front.address, trace[-len(cells):],
                              rate=0.0, clients=4, timeout=60.0)
            for run in (report, tail):
                assert not run["errors"], (
                    f"{run['errors']} accepted request(s) failed through "
                    f"the kill ({run['error_codes']})")
            assert (set(report["per_shard_utilization"])
                    | set(tail["per_shard_utilization"])) - {victim}, \
                "no surviving shard served any traffic"
            assert report["sources"].get("coalesced", 0) \
                + report["sources"].get("cache", 0), \
                "duplicate cells neither coalesced nor hit the shared store"

            # convergence: the supervisor must bring the victim back
            # and the router must see every shard alive again
            supervisor.start()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                alive = sum(1 for up in router.check_health().values()
                            if up)
                # the supervisor records a restart only once the new
                # shard answers a ping, after it is already reachable
                restarted = supervisor.restarts().get(victim, 0)
                if alive == n_shards and restarted:
                    break
                time.sleep(0.1)
            assert alive == n_shards, (
                f"cluster never converged back to {n_shards} live "
                f"shards; restarts={supervisor.restarts()} "
                f"abandoned={supervisor.abandoned()}")
            assert restarted >= 1, "the killed shard was never restarted"
            assert not supervisor.abandoned(), \
                "the supervisor abandoned a shard within budget"
        finally:
            supervisor.stop()
            router.stop()
            for handle in handles.values():
                if not handle._dead:
                    handle.kill()
            front.initiate_shutdown()
            front.close()

        # every cell stays byte-identical to a serial baseline
        with Session(cache=ResultCache(
                directory=os.path.join(tmp, "serial")), jobs=1,
                name="chaos-serial") as baseline_session, \
                Session(cache=ResultCache(directory=shared), jobs=1,
                        name="chaos-check") as check_session:
            for cell in cells:
                request = cell_from_wire(cell)
                baseline = baseline_session.run(request)
                # the shared store holds what the cluster computed
                replayed = check_session.run(request)
                assert baseline.ok and replayed.ok and \
                    baseline.job.to_dict() == replayed.job.to_dict(), (
                        f"cell {cell['workload']} on {cell['system']} "
                        "diverged from the serial baseline")
        parallel.shutdown_pool()


# -- strategies --------------------------------------------------------------


def _cells(st, ntasks=(1, 2, 4), schemes=None, **extra):
    """Registry cells: machine x workload x task count x scheme."""
    from ..service.registry import SCHEME_ALIASES, WORKLOADS

    return st.fixed_dictionaries(dict({
        "system": st.sampled_from(("tiger", "dmz", "longs")),
        "workload": st.sampled_from(sorted(WORKLOADS)),
        "ntasks": st.sampled_from(ntasks),
        "scheme": st.sampled_from(schemes or sorted(SCHEME_ALIASES)),
    }, **extra))


def _cell_invariant_cases(st):
    from ..faults import CacheDegrade, CoreSlowdown, LinkDegrade

    # deterministic fault kinds only: they reshape modeled timing
    # without probabilistic control flow, so byte-identity must hold
    faults = st.one_of(
        st.builds(LinkDegrade,
                  src=st.just(0), dst=st.just(1),
                  bandwidth_factor=st.floats(0.05, 0.9),
                  latency_factor=st.floats(1.0, 4.0)),
        st.builds(CoreSlowdown,
                  core=st.integers(0, 1),
                  factor=st.floats(1.5, 4.0)),
        st.builds(CacheDegrade,
                  capacity_factor=st.floats(0.1, 0.9)),
    )
    plans = st.builds(
        FaultPlan,
        seed=st.integers(0, 2 ** 16),
        faults=st.lists(faults, min_size=1, max_size=2).map(tuple))
    return st.sampled_from(("fast", "exact", "auto")).flatmap(
        lambda tier: st.fixed_dictionaries({
            "cell": _cells(st), "tier": st.just(tier),
            # an explicit fast tier cannot carry faults
            "faults": st.none() if tier == "fast" else st.none() | plans}))


def _worker_loss_cases(st):
    def case(quick: int, stall: bool):
        return st.fixed_dictionaries({
            "quick": st.just(quick), "victim": st.integers(0, quick),
            "stall": st.just(stall),
            # a crash breaks the whole pool: the innocent cells in
            # flight with it are each owed a run in isolation, even on
            # a zero retry budget
            "retries": st.integers(0, 1) if stall else st.integers(0, 2),
            "served": st.booleans()})

    return st.tuples(st.integers(1, 8), st.booleans()).flatmap(
        lambda drawn: case(*drawn))


def _message_faults(seed: int, **faults: Any) -> FaultPlan:
    return FaultPlan(seed=seed, faults=(MessageFaults(**faults),))


def _fault_effects_cases(st):
    def plan(drop, dup, retries):
        return st.builds(_message_faults, st.integers(0, 2 ** 16),
                         drop_prob=drop, dup_prob=dup, max_retries=retries)

    return st.fixed_dictionaries({
        # the link binds interleaved STREAM only below ~0.2x bandwidth
        "link_factor": st.floats(0.01, 0.2),
        # a ping-pong sends 44 messages: at these rates one is always
        # dropped, and a budget this deep is never exhausted
        "lossy": plan(st.floats(0.3, 0.35), st.floats(0.0, 0.15),
                      st.integers(14, 20)),
        "exhausting": plan(st.floats(0.9, 0.99), st.just(0.0),
                           st.integers(0, 1)),
    })


# -- the property table ------------------------------------------------------


class Property(NamedTuple):
    """One recovery property: its check, its cases, its pinned examples.

    ``check(**kwargs)`` raises :class:`AssertionError` on a violation;
    ``cases(st)`` builds a strategy of such keyword dicts from
    ``hypothesis.strategies``; ``examples`` maps each pinned example's
    name to the keyword dicts it runs.
    """

    check: Callable[..., None]
    cases: Callable[[Any], Any]
    examples: Dict[str, List[Dict[str, Any]]]


PROPERTIES: Dict[str, Property] = {
    "cell-invariants": Property(
        _check_cell_invariants, _cell_invariant_cases, {}),
    "shed-degrade": Property(
        _check_shed_degrade,
        lambda st: st.fixed_dictionaries({
            "cell_list": st.lists(_cells(st), min_size=2, max_size=5),
            "depth": st.integers(1, 2)}),
        {}),
    "worker-loss": Property(_check_worker_loss, _worker_loss_cases, {
        # the victim goes first with many cells queued behind it, so
        # innocent cells are in flight whenever the pool breaks and
        # only crash isolation can save them
        "killed-worker": [dict(quick=8, victim=0, stall=False, retries=1,
                               served=False),
                          dict(quick=3, victim=0, stall=False, retries=0,
                               served=False)],
        "hung-worker": [dict(quick=2, victim=2, stall=True, retries=0,
                             served=False)],
        "killed-service-worker": [dict(quick=8, victim=0, stall=False,
                                       retries=1, served=True)],
    }),
    "cluster-kill": Property(
        _check_cluster_kill,
        lambda st: st.fixed_dictionaries({
            # at most two ranks under these schemes fit every machine,
            # so every request must answer ok
            "cell_list": st.lists(
                _cells(st, (1, 2), ("default", "interleave"),
                       tier=st.sampled_from(("fast", "auto"))),
                min_size=2, max_size=4,
                unique_by=lambda c: tuple(sorted(c.items()))),
            "n_shards": st.integers(2, 3),
            "victim_cell": st.integers(0, 3),
            "kill_fraction": st.floats(0.2, 0.6)}),
        {"killed-shard": [dict(
            cell_list=[
                {"system": "tiger", "workload": "stream", "ntasks": 2,
                 "scheme": "default", "tier": "fast"},
                {"system": "tiger", "workload": "cg", "ntasks": 2,
                 "scheme": "default", "tier": "fast"},
                {"system": "dmz", "workload": "stream", "ntasks": 4,
                 "scheme": "interleave", "tier": "fast"},
                {"system": "dmz", "workload": "dgemm", "ntasks": 2,
                 "scheme": "default", "tier": "fast"}],
            n_shards=3, victim_cell=0, kill_fraction=1 / 3)]}),
    "cache-corruption": Property(
        _check_cache_corruption,
        lambda st: st.fixed_dictionaries({
            "damage": st.sampled_from(("flipped", "truncated", "bitflip")),
            "at": st.floats(0.0, 1.0, exclude_max=True)}),
        {"corrupted-cache": [dict(damage="flipped", at=0.0),
                             dict(damage="truncated", at=0.5)]}),
    "torn-ledger": Property(
        _check_torn_ledger,
        lambda st: st.fixed_dictionaries({
            "run_ids": st.lists(st.text(max_size=8), min_size=1,
                                max_size=4),
            "tear": st.integers(1, len(_TORN_LINE) - 1),
            "second_tear": st.integers(1, len(_TORN_LINE) - 1)}),
        {"torn-ledger": [dict(run_ids=["a", "b"], tear=30,
                              second_tear=9)]}),
    "fault-effects": Property(
        _check_fault_effects, _fault_effects_cases,
        {"sim-faults": [dict(
            link_factor=0.05,
            lossy=_message_faults(11, drop_prob=0.3, dup_prob=0.1,
                                  max_retries=14),
            exhausting=_message_faults(3, drop_prob=0.95,
                                       max_retries=1))]}),
}

#: pinned example (chaos scenario) name -> the property it pins
SCENARIOS: Dict[str, str] = {name: prop for prop, entry in PROPERTIES.items()
                             for name in entry.examples}

#: per-profile draw budgets, keyed by property name (pinned examples
#: run on top of these)
PROFILES: Dict[str, Dict[str, int]] = {
    "ci": {"cell-invariants": 25, "shed-degrade": 6, "cluster-kill": 2,
           "worker-loss": 3, "cache-corruption": 20, "torn-ledger": 25,
           "fault-effects": 10},
    "nightly": {"cell-invariants": 250, "shed-degrade": 50,
                "cluster-kill": 15, "worker-loss": 25,
                "cache-corruption": 200, "torn-ledger": 250,
                "fault-effects": 100},
}


def run_scenario(name: str) -> None:
    """Run one pinned example; raises :class:`AssertionError` on failure."""
    entry = PROPERTIES[SCENARIOS[name]]
    for kwargs in entry.examples[name]:
        entry.check(**kwargs)


def run_search(profile: str = "ci", corpus_dir: str = DEFAULT_CORPUS,
               names: Optional[List[str]] = None) -> Dict[str, Any]:
    """Search each property with Hypothesis; returns a report dict.

    Each property's pinned examples run first, then ``PROFILES[profile]``
    drawn cases.  ``report["ok"]`` is True when every property held on
    every example.  Failing draws are minimized by Hypothesis and
    stored under ``corpus_dir`` for replay on the next run.
    """
    try:
        from hypothesis import HealthCheck, example, given, settings
        from hypothesis import strategies as st
        from hypothesis.database import DirectoryBasedExampleDatabase
    except ImportError:
        return {"ok": False, "error": "hypothesis is not installed",
                "profile": profile, "properties": {}}

    database = DirectoryBasedExampleDatabase(corpus_dir)
    report: Dict[str, Any] = {"ok": True, "profile": profile,
                              "corpus": corpus_dir, "properties": {}}
    for name in names or PROPERTIES:
        entry = PROPERTIES[name]
        counter = [0]

        def prop(kwargs):  # runs before the loop moves on
            counter[0] += 1
            entry.check(**kwargs)

        test = given(entry.cases(st))(prop)
        for cases in entry.examples.values():
            for kwargs in cases:
                test = example(kwargs)(test)
        test = settings(max_examples=PROFILES[profile][name],
                        database=database, deadline=None, print_blob=True,
                        derandomize=False,
                        suppress_health_check=[
                            HealthCheck.too_slow, HealthCheck.data_too_large,
                            HealthCheck.filter_too_much])(test)
        started = time.monotonic()
        outcome: Dict[str, Any] = {"ok": True}
        try:
            test()
        except Exception as exc:  # hypothesis re-raises the minimal case
            report["ok"] = False
            outcome = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        outcome.update(examples=counter[0],
                       elapsed_s=round(time.monotonic() - started, 3))
        report["properties"][name] = outcome
    return report


def _search_main(args) -> int:
    report = run_search(profile=args.profile, corpus_dir=args.corpus,
                        names=args.property or None)
    if report.get("error"):
        print(f"chaos --search: {report['error']}", file=sys.stderr)
        return 2
    for name, outcome in report["properties"].items():
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"[{status}] {name}: {outcome['examples']} example(s) "
              f"in {outcome['elapsed_s']:.1f}s")
        if not outcome["ok"]:
            print(f"    {outcome['error']}")
    if args.json:
        print(json.dumps(report, sort_keys=True))
    if not report["ok"]:
        print("chaos --search: invariant violation found (minimized "
              f"example saved to {report['corpus']})", file=sys.stderr)
        return 1
    print(f"chaos --search [{report['profile']}]: all properties held")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench chaos",
        description="Break the pipeline on purpose and assert it "
                    "recovers (crash isolation, stall watchdog, cache "
                    "quarantine, ledger repair, fault injection).",
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default=None,
                        help="run one scenario (default: all)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable summary line")
    parser.add_argument("--search", action="store_true",
                        help="property-based chaos search: let Hypothesis "
                             "draw random cell x fault x kill-schedule "
                             "combinations and assert the recovery "
                             "invariants on each")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="ci",
                        help="search effort: 'ci' is small and time-boxed, "
                             "'nightly' is wide (default: ci)")
    parser.add_argument("--corpus", metavar="DIR", default=DEFAULT_CORPUS,
                        help="example database for minimized failures "
                             "(default: .repro/chaos_corpus)")
    parser.add_argument("--property", action="append", metavar="NAME",
                        choices=sorted(PROPERTIES),
                        help="search one property (repeatable; "
                             "default: all)")
    args = parser.parse_args(argv)

    if args.search:
        return _search_main(args)

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    outcomes = {}
    for name in names:
        try:
            run_scenario(name)
        except Exception as exc:  # report every scenario, then fail
            outcomes[name] = False
            print(f"[FAIL] {name} ({SCENARIOS[name]})")
            print(f"    {type(exc).__name__}: {exc}")
            if not isinstance(exc, AssertionError):  # a broken check
                traceback.print_exc()
        else:
            outcomes[name] = True
            print(f"[PASS] {name} ({SCENARIOS[name]})")
    failed = [name for name, ok in outcomes.items() if not ok]
    if args.json:
        print(json.dumps({"scenarios": outcomes,
                          "failed": failed}, sort_keys=True))
    if failed:
        print(f"chaos: {len(failed)} scenario(s) failed to recover: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"chaos: all {len(names)} scenario(s) recovered")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
