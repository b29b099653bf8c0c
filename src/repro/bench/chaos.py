"""``repro-bench chaos``: self-test the pipeline's failure recovery.

Each scenario *actually breaks something* — kills a worker process
mid-sweep, wedges one in a sleep, flips bytes in a cache entry, tears
the ledger file — and then asserts the pipeline recovered the way the
robustness machinery promises: surviving cells keep their bit-identical
results, the broken piece surfaces as a structured failure record, and
corrupted state is quarantined or repaired rather than trusted.

All scenarios run against throwaway temp directories; nothing touches
the user's real cache or ledger.  Exit status is 0 only when every
scenario recovers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from ..core.cache import ResultCache
from ..core.ops import Compute, Op
from ..core.workload import Workload

__all__ = ["KamikazeWorkload", "SleeperWorkload", "SCENARIOS", "main"]


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


def _requests(workloads) -> List:
    from ..core.parallel import JobRequest
    from ..machine import tiger

    spec = tiger()
    return [JobRequest(spec=spec, workload=w) for w in workloads]


def scenario_killed_worker() -> Tuple[bool, List[str]]:
    """A worker dying mid-batch loses only its own cell."""
    from ..core import parallel

    notes: List[str] = []
    quick = [_QuickWorkload(salt=i) for i in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(directory=tmp)
        serial = parallel.run_requests(_requests(quick), jobs=1, cache=cache)
        cache.clear_memory()

        batch = _requests(quick + [KamikazeWorkload()])
        victim_cache = ResultCache(directory=tmp)
        results = parallel.run_requests(batch, jobs=2, cache=victim_cache,
                                        retries=1)
        parallel.shutdown_pool()
        failures = parallel.take_failures()

    ok = True
    for i, (before, after) in enumerate(zip(serial, results[:3])):
        if before is None or after is None \
                or before.to_dict() != after.to_dict():
            ok = False
            notes.append(f"surviving cell {i} lost or changed its result")
    if results[3] is not None:
        ok = False
        notes.append("the crashed cell reported a result")
    crash = [f for f in failures if f.kind == "crash" and f.index == 3]
    if not crash:
        ok = False
        notes.append(f"expected a crash TargetFailure for cell 3, "
                     f"got {[f.as_dict() for f in failures]}")
    else:
        notes.append(f"crash isolated: {crash[0].label} "
                     f"({crash[0].attempts} attempts)")
    return ok, notes


def scenario_killed_service_worker() -> Tuple[bool, List[str]]:
    """A worker dying under the service loses no accepted job.

    Submits a batch to a live :class:`~repro.service.Session` —
    including a kamikaze cell and a coalesced twin — then kills the
    worker mid-batch and asserts the service's promise: every accepted
    future resolves (the crashed cell as a structured ``failed``
    result, never silence), surviving cells keep bit-identical
    payloads, and drain completes cleanly.
    """
    from ..core import parallel
    from ..machine import tiger
    from ..service.api import RunRequest
    from ..service.session import Session

    notes: List[str] = []
    ok = True
    spec = tiger()
    quick = [_QuickWorkload(salt=i) for i in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        serial_cache = ResultCache(directory=os.path.join(tmp, "serial"))
        serial = parallel.run_requests(_requests(quick), jobs=1,
                                       cache=serial_cache)

        # the session gets its own cold cache so the quick cells truly
        # queue (a shared one would answer them at admission)
        with Session(cache=ResultCache(directory=os.path.join(tmp, "svc")),
                     jobs=2,
                     retries=1, name="chaos", paused=True) as session:
            futures = [session.submit(RunRequest(system=spec, workload=w))
                       for w in quick + [KamikazeWorkload()]]
            # a coalesced twin must survive the crash recovery too
            futures.append(session.submit(
                RunRequest(system=spec, workload=quick[0])))
            accepted = session.stats.accepted
            session.resume()
            if not session.drain(timeout=120.0):
                ok = False
                notes.append("drain timed out with jobs outstanding")
            results = []
            for i, future in enumerate(futures):
                if not future.done():
                    ok = False
                    notes.append(f"accepted job {i} never resolved")
                    results.append(None)
                else:
                    results.append(future.result())
        parallel.shutdown_pool()

    if any(r is None for r in results):
        return False, notes
    for i, (before, after) in enumerate(zip(serial, results[:3])):
        if not results[i].ok or before is None \
                or before.to_dict() != after.job.to_dict():
            ok = False
            notes.append(f"surviving cell {i} lost or changed its result")
    if results[3].status != "failed" or results[3].kind != "crash":
        ok = False
        notes.append(f"crashed cell resolved as "
                     f"{results[3].status}/{results[3].kind}, "
                     f"expected failed/crash")
    else:
        notes.append(f"crash surfaced to its waiter: {results[3].error}")
    if not results[4].ok \
            or results[4].job.to_dict() != results[0].job.to_dict():
        ok = False
        notes.append("the coalesced twin diverged from its sibling")
    if accepted != 4:
        ok = False
        notes.append(f"expected 4 accepted jobs (1 coalesced), "
                     f"got {accepted}")
    if ok:
        notes.append(f"all {accepted} accepted jobs resolved through the "
                     f"crash; drain clean")
    return ok, notes


def scenario_killed_shard() -> Tuple[bool, List[str]]:
    """A shard dying mid-replay costs capacity, never accepted jobs.

    Brings up a 3-shard in-process cluster (TCP shards over one shared
    content-addressed store, rendezvous-hashing router), replays a
    trace with duplicate cells through the router, and kills the home
    shard of the hottest cell mid-replay.  The promises under test:
    every request still answers (zero accepted jobs lost — rerouted
    cells recompute or hit the shared store on a fallback shard), and
    the honest cells stay byte-identical to a serial baseline.
    """
    import threading

    from ..cluster.replay import run_replay
    from ..cluster.router import Router, shard_for_key
    from ..service.daemon import TcpServiceServer
    from ..service.protocol import cell_from_wire
    from ..service.session import Session
    from ..service.transport import serve_in_thread

    notes: List[str] = []
    ok = True
    cells = [
        {"system": "tiger", "workload": "stream", "ntasks": 2,
         "tier": "fast"},
        {"system": "tiger", "workload": "cg", "ntasks": 2, "tier": "fast"},
        {"system": "dmz", "workload": "stream", "ntasks": 4,
         "scheme": "interleave", "tier": "fast"},
        {"system": "dmz", "workload": "dgemm", "ntasks": 2,
         "tier": "fast"},
    ]
    # duplicates across "clients": every cell appears 4 times
    trace = [{"t": 0.0, "cell": dict(cell)} for cell in cells * 4]

    with tempfile.TemporaryDirectory() as tmp:
        shared = os.path.join(tmp, "store")
        servers = []
        shard_list = []
        for i in range(3):
            session = Session(cache=ResultCache(directory=shared),
                              jobs=1, name=f"chaos-shard-{i}")
            server = TcpServiceServer(("127.0.0.1", 0), session)
            serve_in_thread(server, name=f"chaos-shard-{i}")
            servers.append(server)
            shard_list.append((f"shard-{i}", server.address))
        router = Router(shard_list, retries=2, backoff_s=0.02,
                        health_interval_s=0.1)
        from ..service.transport import make_server

        front = make_server(("127.0.0.1", 0), router.handle_message)
        serve_in_thread(front, name="chaos-router")
        router.start_health_checks()

        victim = shard_for_key(router._cell_key(cells[0]),
                               [name for name, _ in shard_list])
        victim_index = int(victim.rsplit("-", 1)[1])
        killed = threading.Event()

        def maybe_kill(index: int, outcome) -> None:
            # hard-stop the victim once a third of the trace answered,
            # with most of the replay still ahead of it
            if index >= len(trace) // 3 and not killed.is_set():
                killed.set()
                servers[victim_index].initiate_shutdown()
                servers[victim_index].close()

        try:
            report = run_replay(front.address, trace, rate=0.0,
                                clients=4, timeout=60.0,
                                on_result=maybe_kill)
        finally:
            router.stop()
            for i, server in enumerate(servers):
                if i != victim_index:
                    server.initiate_shutdown()
                    server.close()
            front.initiate_shutdown()
            front.close()

        if not killed.is_set():
            ok = False
            notes.append("the kill never fired; replay finished too fast")
        if report["errors"]:
            ok = False
            notes.append(f"{report['errors']} request(s) failed "
                         f"({report['error_codes']}); every accepted "
                         "job must answer")
        else:
            notes.append(f"all {report['requests']} requests answered "
                         f"through the shard kill "
                         f"(p99 {report['latency_p99_ms']:.1f} ms)")
        survivors = {shard for shard in
                     report["per_shard_utilization"] if shard != victim}
        if not survivors:
            ok = False
            notes.append("no surviving shard served any traffic")
        coalesce_sources = (report["sources"].get("coalesced", 0)
                            + report["sources"].get("cache", 0))
        if not coalesce_sources:
            ok = False
            notes.append("duplicate cells neither coalesced nor hit "
                         "the shared store")
        else:
            notes.append(f"duplicates collapsed: {coalesce_sources} of "
                         f"{report['requests']} served without "
                         f"recomputing (coalesce rate "
                         f"{report['coalesce_rate']:.2f})")

        # byte-identity of honest cells vs a serial baseline
        with Session(cache=ResultCache(
                directory=os.path.join(tmp, "serial")),
                jobs=1, name="chaos-serial") as baseline_session, \
                Session(cache=ResultCache(directory=shared),
                        jobs=1, name="chaos-check") as check_session:
            for cell in cells:
                request = cell_from_wire(cell)
                baseline = baseline_session.run(request)
                # the shared store holds what the cluster computed
                replayed = check_session.run(request)
                if not baseline.ok or not replayed.ok \
                        or baseline.job.to_dict() != replayed.job.to_dict():
                    ok = False
                    notes.append(f"cell {cell['workload']} on "
                                 f"{cell['system']} diverged from the "
                                 "serial baseline")
        from ..core import parallel

        parallel.shutdown_pool()
    if ok:
        notes.append(f"shard {victim} killed mid-replay; router "
                     "rerouted with zero accepted-job loss")
    return ok, notes


def scenario_hung_worker() -> Tuple[bool, List[str]]:
    """A wedged worker trips the stall watchdog; the batch completes."""
    from ..core import parallel

    notes: List[str] = []
    quick = [_QuickWorkload(salt=i) for i in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(directory=tmp)
        batch = _requests(quick + [SleeperWorkload(seconds=60.0)])
        results = parallel.run_requests(batch, jobs=2, cache=cache,
                                        timeout=1.0, retries=0)
        parallel.shutdown_pool()
        failures = parallel.take_failures()

    ok = True
    if any(r is None for r in results[:2]):
        ok = False
        notes.append("a quick cell was lost to the watchdog")
    if results[2] is not None:
        ok = False
        notes.append("the hung cell reported a result")
    hung = [f for f in failures if f.kind == "timeout" and f.index == 2]
    if not hung:
        ok = False
        notes.append(f"expected a timeout TargetFailure for cell 2, "
                     f"got {[f.as_dict() for f in failures]}")
    else:
        notes.append(f"stall detected: {hung[0].label}")
    return ok, notes


def scenario_corrupted_cache() -> Tuple[bool, List[str]]:
    """Flipped or truncated entries are quarantined and recomputed."""
    from ..core import parallel

    notes: List[str] = []
    ok = True
    for mode in ("flipped", "truncated"):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(directory=tmp)
            request = _requests([_QuickWorkload()])[0]
            original = parallel.run_request(request, cache=cache)
            key = request.key()
            path = cache._path(key)
            raw = path.read_bytes()
            if mode == "flipped":
                # alter the payload but not the stored checksum: still a
                # well-formed frame, so only checksum verification
                # catches it
                from ..core.cache import parse_entry
                from ..wire import frames

                entry = parse_entry(raw)
                entry["result"]["wall_time"] = \
                    entry["result"].get("wall_time", 0.0) + 1.0
                path.write_bytes(frames.pack_frames(entry))
            else:
                path.write_bytes(raw[: len(raw) // 2])

            fresh = ResultCache(directory=tmp)
            recovered = parallel.run_request(request, cache=fresh)
            if fresh.stats.corrupt != 1:
                ok = False
                notes.append(f"{mode}: entry was not quarantined "
                             f"(corrupt={fresh.stats.corrupt})")
            if recovered.to_dict() != original.to_dict():
                ok = False
                notes.append(f"{mode}: recomputed result diverged")
            if not path.with_suffix(".json.corrupt").exists():
                ok = False
                notes.append(f"{mode}: no quarantine file on disk")
            # the rewritten entry must verify on the next read
            rewritten = ResultCache(directory=tmp)
            again = rewritten.get(key)
            if again is None or rewritten.stats.corrupt:
                ok = False
                notes.append(f"{mode}: rewritten entry did not verify")
            else:
                notes.append(f"{mode} entry quarantined and recomputed")
    return ok, notes


def scenario_torn_ledger() -> Tuple[bool, List[str]]:
    """A torn trailing line is detected, skipped, and repairable."""
    from ..telemetry import ledger

    notes: List[str] = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        ledger.append({"schema": 1, "tool": "bench", "run_id": "a"}, tmp)
        ledger.append({"schema": 1, "tool": "bench", "run_id": "b"}, tmp)
        path = ledger.ledger_path(tmp)
        with open(path, "a") as handle:
            handle.write('{"schema": 1, "tool": "bench", "run_i')  # torn

        if len(ledger.read_records(tmp)) != 2:
            ok = False
            notes.append("torn line leaked into read_records")
        report = ledger.scan(tmp)
        if report["records"] != 2 or report["torn_lines"] != [3]:
            ok = False
            notes.append(f"scan misread the damage: {report}")
        repaired = ledger.repair(tmp)
        if not repaired["repaired"]:
            ok = False
            notes.append("repair declined to rewrite")
        after = ledger.scan(tmp)
        if after["torn_lines"] or after["records"] != 2:
            ok = False
            notes.append(f"ledger still damaged after repair: {after}")
        # a new record appended post-crash starts on a fresh line even
        # without repair: simulate by tearing again, then appending
        with open(path, "a") as handle:
            handle.write('{"torn": tr')
        ledger.append({"schema": 1, "tool": "bench", "run_id": "c"}, tmp)
        if len(ledger.read_records(tmp)) != 3:
            ok = False
            notes.append("append after a torn line lost a record")
        else:
            notes.append("torn line skipped, repaired, and append-safe")
    return ok, notes


def scenario_sim_faults() -> Tuple[bool, List[str]]:
    """Injected machine faults degrade runs; exhaustion is structured."""
    from ..core import parallel
    from ..core.affinity import AffinityScheme
    from ..core.execution import run_workload
    from ..core.parallel import JobRequest
    from ..faults import (FaultPlan, LinkDegrade, MessageFaults,
                          TransportExhaustedError)
    from ..machine import longs
    from ..workloads import HpccStream, PingPong

    notes: List[str] = []
    ok = True
    spec = longs()

    healthy = run_workload(spec, HpccStream(ntasks=4),
                           scheme=AffinityScheme.INTERLEAVE)
    degraded = run_workload(
        spec, HpccStream(ntasks=4), scheme=AffinityScheme.INTERLEAVE,
        faults=FaultPlan(faults=(LinkDegrade(src=0, dst=1,
                                             bandwidth_factor=0.05),)))
    if degraded.wall_time <= healthy.wall_time:
        ok = False
        notes.append("degraded HT link did not slow interleaved STREAM")
    else:
        notes.append(f"link degrade: wall {healthy.wall_time:.3f}s -> "
                     f"{degraded.wall_time:.3f}s")
    if healthy.faults is not None:
        ok = False
        notes.append("healthy run carries a fault summary")

    flaky = run_workload(
        spec, PingPong(nbytes=65536),
        faults=FaultPlan(seed=11, faults=(MessageFaults(drop_prob=0.3,
                                                        dup_prob=0.1),)))
    injected = (flaky.faults or {}).get("injected", {})
    if not injected.get("mpi_retries"):
        ok = False
        notes.append(f"lossy transport injected nothing: {injected}")
    else:
        notes.append(f"transport recovered through retries: {injected}")

    try:
        run_workload(spec, PingPong(nbytes=65536),
                     faults=FaultPlan(seed=3, faults=(
                         MessageFaults(drop_prob=0.95, max_retries=1),)))
    except TransportExhaustedError:
        notes.append("retry exhaustion raised TransportExhaustedError")
    else:
        ok = False
        notes.append("retry exhaustion did not raise")

    # through the sweep executor the same exhaustion is a failure
    # record, not an abort
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(directory=tmp)
        plan = FaultPlan(seed=3,
                         faults=(MessageFaults(drop_prob=0.95,
                                               max_retries=1),))
        results = parallel.run_requests(
            [JobRequest(spec=spec, workload=PingPong(nbytes=65536),
                        faults=plan)],
            jobs=1, cache=cache)
        failures = parallel.take_failures()
    if results != [None] or not failures \
            or failures[0].kind != "fault_exhausted":
        ok = False
        notes.append(f"sweep did not fold exhaustion to a failure: "
                     f"{[f.as_dict() for f in failures]}")
    else:
        notes.append("sweep folded exhaustion into a TargetFailure")
    return ok, notes


SCENARIOS: Dict[str, Callable[[], Tuple[bool, List[str]]]] = {
    "killed-worker": scenario_killed_worker,
    "killed-service-worker": scenario_killed_service_worker,
    "killed-shard": scenario_killed_shard,
    "hung-worker": scenario_hung_worker,
    "corrupted-cache": scenario_corrupted_cache,
    "torn-ledger": scenario_torn_ledger,
    "sim-faults": scenario_sim_faults,
}


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
    parser.add_argument("--profile", choices=("ci", "nightly"),
                        default="ci",
                        help="search effort: 'ci' is small and time-boxed, "
                             "'nightly' is wide (default: ci)")
    parser.add_argument("--corpus", metavar="DIR",
                        default=os.path.join(".repro", "chaos_corpus"),
                        help="example database for minimized failures "
                             "(default: .repro/chaos_corpus)")
    parser.add_argument("--property", action="append", metavar="NAME",
                        choices=("cell-invariants", "shed-degrade",
                                 "cluster-kill"),
                        help="search one property (repeatable; "
                             "default: all)")
    args = parser.parse_args(argv)

    if args.search:
        from .chaos_search import main as search_main

        return search_main(args)

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    outcomes = {}
    for name in names:
        ok, notes = SCENARIOS[name]()
        outcomes[name] = ok
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}")
        for note in notes:
            print(f"    {note}")
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
