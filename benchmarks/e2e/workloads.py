"""The four workloads of the end-to-end benchmark.

Each workload runs in a process of its own, started by ``run.py``::

    python workloads.py WORKLOAD --seed N --seconds S --work DIR
                        [--setup-reps K] [--minimum M] [--smoke]

and prints one JSON object as its last line of output: correctness,
operation counts, the end-to-end metric values with their sample
counts, and the program counters the per-layer budget needs.  The
working directory ``DIR`` holds every cache, state file and log; the
process points ``REPRO_BENCH_CACHE_DIR`` and its own current directory
at it, so nothing lands in ``.repro/`` or ``~/.cache``.

This process is the load generator: one process, at most two threads
and two connections.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import inputs
import stats
from hostclock import HostClock

#: what the ``repro-bench`` console script runs
CONSOLE = "import sys; from repro.bench.cli import main; sys.exit(main())"
#: worker processes of every sweep (``--jobs 2``)
JOBS = 2
#: ``sweep-exact``'s warm re-reads after each cold pass
WARM_REPS = 5
#: cold ``repro-bench all`` runs of one ``bench-all`` run
BENCH_COLD_RUNS = 2
#: load-generator threads, each with one persistent connection
CALLERS = 2
READY_TIMEOUT_S = 30.0
START_ATTEMPTS = 3
#: distinct served cells checked against an in-process execute
CHECK_CELLS = 50
#: the check draws from cells first asked within this trace prefix,
#: which every run serves, so the checked set depends on the seed only
CHECK_PREFIX = 400

HERE = os.path.dirname(os.path.abspath(__file__))

Interval = Tuple[float, float]


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(texts: List[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


class Outcome:
    """What one workload run measured and checked.

    Workloads record measured intervals of ``time.perf_counter`` and,
    once :attr:`clock` has stopped, turn them into seconds at the
    reference host speed (:mod:`hostclock`).  The time metrics are
    medians of those over the run's units: a sweep's pass, a
    ``repro-bench`` process, a served request.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        #: scaled seconds, one sample per unit
        self.setup: List[float] = []
        self.cold: List[float] = []
        self.warm: List[float] = []
        #: scaled answers per second, one sample per unit
        self.rates: List[float] = []
        #: the samples ``tail_ms`` is the tail of
        self.tail: List[float] = []
        #: answers delivered
        self.results = 0
        self.window = 0.0
        self.attempted = 0
        self.failed = 0
        self.gates: List[str] = []
        self.digest = ""
        self.rss_mb = 0.0
        self.counters: Dict[str, float] = {}

    def gate(self, ok: bool, message: str) -> None:
        if not ok and message not in self.gates:
            self.gates.append(message)

    def seconds(self, intervals: List[Interval]) -> List[float]:
        """Each interval's length at the reference host speed; stops the
        clock, so call it once the measured work is over."""
        self.clock.stop()
        return [self.clock.seconds(t0, t1) for t0, t1 in intervals]

    def report(self) -> Dict[str, Any]:
        metrics: Dict[str, Any] = {}
        if self.setup:
            metrics["setup_s"] = {"value": statistics.median(self.setup),
                                  "n": len(self.setup)}
        if self.rates:
            tail, label = stats.tail(self.tail)
            metrics.update({
                "cold_ms": {"value": 1000 * statistics.median(self.cold),
                            "n": len(self.cold)},
                "warm_ms": {"value": 1000 * statistics.median(self.warm),
                            "n": len(self.warm)},
                "tail_ms": {"value": 1000 * tail, "n": len(self.tail),
                            "note": label},
                "results_per_s": {"value": statistics.median(self.rates),
                                  "n": len(self.rates)},
                "peak_rss_mb": {"value": self.rss_mb, "n": 1},
            })
        return {"correct": not self.gates and self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "gates": self.gates, "digest": self.digest,
                "window_s": self.window,
                "host_slowdown": self.clock.slowdown(), "metrics": metrics,
                "counters": self.counters}


def tracing(active: bool) -> None:
    """Pause or resume span recording in this process, when traced.

    Only the measured window of the load generator is recorded; the
    input generation before it and the correctness check after it
    would otherwise show up as layer time.
    """
    module = sys.modules.get("e2e_spans")
    recorder = getattr(module, "RECORDER", None)
    if recorder is not None:
        recorder.active = active


def tree_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timed_processes(argv: List[str], cwd: str, count: int) -> List[Interval]:
    """``count`` runs of one child process, each from launch to exit."""
    intervals = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL, check=True)
        intervals.append((t0, time.perf_counter()))
    return intervals


class Loop:
    """Repeats a unit of work at least ``minimum`` times, and while a
    unit of the median length still fits before the end of the run."""

    def __init__(self, seconds: float, minimum: int):
        self.seconds = seconds
        self.minimum = minimum
        self.units: List[float] = []
        self.started = time.perf_counter()

    def __iter__(self):
        while len(self.units) < self.minimum or (
                time.perf_counter() - self.started
                + statistics.median(self.units) <= self.seconds):
            t0 = time.perf_counter()
            yield len(self.units)
            self.units.append(time.perf_counter() - t0)


# -- sweep-exact ------------------------------------------------------------

def sweep_exact(args, out: Outcome) -> None:
    """Cold exact-tier sweeps through the executor, each re-read warm.

    A unit runs the cell set on an empty cache directory with two
    worker processes (cold), then :data:`WARM_REPS` times more, each
    through a fresh cache object on the same directory (warm: disk
    reads and wire decode only); its warm time is the median of those.
    The seed is not used.

    The worker pool starts inside the first cold pass, so that traced
    workers inherit an active span recorder; the median over some
    thirty units leaves that start-up out.
    """
    probe = [sys.executable, os.path.join(HERE, "workloads.py"),
             "sweep-setup"]
    setups = timed_processes(probe, args.work, args.setup_reps)
    from repro.core import parallel
    from repro.core.cache import ResultCache

    cells = inputs.sweep_cells(inputs.SWEEP_STRIDE * (10 if args.smoke
                                                      else 1))
    texts: Optional[List[str]] = None
    units: List[List[Interval]] = []
    cpu0 = time.process_time()
    tracing(True)
    # enough units that tail_ms is a percentile, not the slowest pass
    loop = Loop(args.seconds, args.minimum if args.smoke
                else max(args.minimum, 2 * stats.MIN_BEYOND))
    for attempt in loop:
        directory = os.path.join(args.work, f"sweep-{attempt}")
        passes: List[Interval] = []
        for kind in ["cold"] + ["warm"] * WARM_REPS:
            t0 = time.perf_counter()
            results = parallel.run_requests(cells, jobs=JOBS,
                                            cache=ResultCache(directory))
            passes.append((t0, time.perf_counter()))
            failures = parallel.take_failures()
            out.attempted += len(cells)
            out.failed += len(failures)
            out.results += len(cells) - len(failures)
            answers = [canonical(r.to_dict() if r else None)
                       for r in results]
            out.gate(texts is None or answers == texts,
                     f"a {kind} sweep differs from the first cold sweep")
            texts = texts or answers
        units.append(passes)
    tracing(False)
    out.window = sum(loop.units)
    parallel.shutdown_pool()
    out.setup = out.seconds(setups)
    for passes in units:
        cold, *warm = out.seconds(passes)
        out.cold.append(cold)
        out.warm.append(statistics.median(warm))
        out.rates.append(2 * len(cells) / (cold + out.warm[-1]))
    out.tail = out.cold
    out.digest = digest(texts or [])
    out.rss_mb = tree_rss_mb()
    out.counters = {"loadgen.requests": out.attempted,
                    "loadgen.cpu_s": time.process_time() - cpu0}


# -- bench-all --------------------------------------------------------------

def fidelity_rho(stdout: str) -> float:
    """Mean of the fidelity table's ``rank corr`` column."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        cols = [c.strip() for c in line.split("|")]
        if "rank corr" in cols:
            column = cols.index("rank corr")
            values = []
            for row in lines[i + 2:]:
                cells = [c.strip() for c in row.split("|")]
                if len(cells) <= column:
                    break
                try:
                    values.append(float(cells[column]))
                except ValueError:
                    continue
            return statistics.mean(values) if values else 0.0
    return 0.0


def bench_all(args, out: Outcome) -> None:
    """The headline command, cold and warm, each run a fresh process.

    The run is cut into :data:`BENCH_COLD_RUNS` equal parts (one part
    with ``--minimum 1``).  Each part runs ``repro-bench all --tier fast
    --jobs 2`` on an empty cache, then ``repro-bench all --tier fast``
    on that cache until the part's time is up, at least once: a warm
    run takes a third of a cold one's time and varies more, so it gets
    more samples.  Each process is a unit.  The seed is not used.
    """
    base = [sys.executable, "-c", CONSOLE]
    setups = timed_processes(base + ["list"], args.work, args.setup_reps)
    outputs: Dict[str, int] = {}
    tables = 0
    rho = 0.0

    def run(directory: str, extra: List[str]) -> Interval:
        nonlocal tables, rho
        env = dict(os.environ, REPRO_BENCH_CACHE_DIR=directory)
        t0 = time.perf_counter()
        done = subprocess.run(base + ["all", "--tier", "fast"] + extra,
                              cwd=args.work, env=env, stdout=subprocess.PIPE)
        interval = (t0, time.perf_counter())
        out.attempted += 1
        if done.returncode != 0:
            out.failed += 1
            return interval
        text = done.stdout.decode()
        tables = sum(1 for line in text.splitlines() if line == "=" * 72)
        out.results += tables
        key = hashlib.sha256(done.stdout).hexdigest()
        outputs[key] = outputs.get(key, 0) + 1
        rho = fidelity_rho(text)
        return interval

    cpu0 = time.process_time()
    started = time.perf_counter()
    parts = min(BENCH_COLD_RUNS, args.minimum)
    colds: List[Interval] = []
    warms: List[Interval] = []
    for part in range(parts):
        directory = os.path.join(args.work, f"bench-{part}")
        colds.append(run(directory, ["--jobs", str(JOBS)]))
        end = started + (part + 1) * args.seconds / parts
        for _ in Loop(end - time.perf_counter(), 1):
            warms.append(run(directory, []))
    out.window = time.perf_counter() - started
    out.setup = out.seconds(setups)
    out.cold = out.seconds(colds)
    out.warm = out.seconds(warms)
    out.tail = out.cold
    out.rates = [2 * tables / (cold + statistics.median(out.warm))
                 for cold in out.cold]
    out.gate(len(outputs) == 1,
             f"cold and warm stdout differ ({len(outputs)} variants)")
    out.digest = next(iter(outputs)) if outputs else ""
    out.rss_mb = tree_rss_mb()
    out.counters = {"loadgen.requests": out.attempted,
                    "loadgen.cpu_s": time.process_time() - cpu0,
                    "bench.fidelity_rho": rho}


# -- the serve workloads ----------------------------------------------------

def _local_port_range() -> Tuple[int, int]:
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as handle:
            low, high = (int(v) for v in handle.read().split())
        return low, high
    except (OSError, ValueError):
        return 32768, 60999


def free_ports(count: int) -> int:
    """First of ``count`` consecutive bindable ports outside the
    kernel's ephemeral range (where an outgoing connection could take
    one between this check and the server's bind)."""
    low, high = _local_port_range()
    ranges = [(10000, low - count), (high + 1, 65536 - count)]
    rng = random.Random()
    for _ in range(200):
        lo, hi = rng.choice([r for r in ranges if r[1] > r[0]])
        base = rng.randrange(lo, hi)
        try:
            for port in range(base, base + count):
                with socket.socket() as probe:
                    probe.bind(("127.0.0.1", port))
        except OSError:
            continue
        return base
    raise RuntimeError(f"no {count} consecutive free ports")


class Server:
    """One daemon, or one cluster (router plus shards), for one run.

    ``start`` picks ports, launches, and waits for the first ``ok``
    ping, with up to three attempts; ``stop`` sends ``shutdown`` and
    kills whatever is left.  All files live under ``work``.
    """

    def __init__(self, kind: str, work: str, shards: int = 3):
        self.kind = kind
        self.work = work
        self.shards = shards
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.launches = 0

    def _argv(self, port: int, tag: str) -> List[str]:
        cache = os.path.join(self.work, "cache")
        if self.kind == "daemon":
            return [sys.executable, "-c", CONSOLE, "serve",
                    "--tcp", f"127.0.0.1:{port}", "--jobs", "1",
                    "--cache-dir", cache, "-q"]
        return [sys.executable, "-c", CONSOLE, "cluster", "up",
                "--shards", str(self.shards), "--jobs", "1",
                "--base-port", str(port + 1), "--cache-dir", cache,
                "--state", self.state_path,
                "--log-dir", os.path.join(self.work, f"logs-{tag}"),
                "--start-timeout", str(READY_TIMEOUT_S)]

    @property
    def state_path(self) -> str:
        return os.path.join(self.work, "cluster.json")

    def _ping(self) -> bool:
        from repro.service.transport import request
        try:
            return request(self.address, {"op": "ping"},
                           timeout=2.0).get("status") == "ok"
        except (OSError, ValueError):
            return False

    def start(self) -> Interval:
        """Launch; returns the interval from launch to the first ok
        ping."""
        for _ in range(START_ATTEMPTS):
            port = free_ports(1 if self.kind == "daemon"
                              else self.shards + 1)
            self.address = ("127.0.0.1", port)
            self.launches += 1
            log = open(os.path.join(self.work,
                                    f"server-{self.launches}.log"), "wb")
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self._argv(port, str(self.launches)), cwd=self.work,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            log.close()
            deadline = t0 + READY_TIMEOUT_S
            while time.perf_counter() < deadline \
                    and self.proc.poll() is None:
                if self._ping():
                    return t0, time.perf_counter()
                time.sleep(0.02)
            self.stop()
        raise RuntimeError(f"{self.kind} did not start in "
                           f"{START_ATTEMPTS} attempts")

    def pids(self) -> List[int]:
        pids = [self.proc.pid] if self.proc is not None else []
        if self.kind == "cluster":
            try:
                with open(self.state_path) as handle:
                    pids += list(json.load(handle)["pids"].values())
            except (OSError, ValueError, KeyError):
                pass
        return pids

    def stop(self) -> None:
        if self.proc is None:
            return
        pids = self.pids()
        from repro.service.transport import request
        try:
            request(self.address, {"op": "shutdown"}, timeout=30.0)
            self.proc.wait(timeout=30.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        for pid in pids:
            # a pid may already belong to someone else: kill only
            # processes that still run on this run's working directory
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    ours = self.work.encode() in handle.read()
                if ours:
                    os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        self.proc = None


def vm_hwm_mb(pids: List[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of live processes."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


def closed_loop(address, cells: List[Dict], trace: List[Tuple[int, bool]],
                seconds: float) -> Tuple[List[Optional[Tuple]], Interval]:
    """``CALLERS`` threads, each on one persistent protocol-3
    connection, walk the shared trace until ``seconds`` pass.

    Returns one record per trace position sent -- ``(interval, reply)``,
    the interval from send to reply -- and the measured window.
    """
    from repro.service.transport import Connection

    records: List[Optional[Tuple]] = [None] * len(trace)
    cursor = iter(range(len(trace)))
    lock = threading.Lock()
    errors: List[str] = []
    deadline = time.perf_counter() + seconds

    def caller() -> None:
        conn = None
        try:
            while time.perf_counter() < deadline:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                message = {"op": "submit",
                           "cell": cells[trace[position][0]]}
                try:
                    if conn is None:
                        conn = Connection(address, timeout=60.0)
                        if conn.protocol != 3:
                            errors.append("connection did not negotiate "
                                          "protocol 3")
                    t0 = time.perf_counter()
                    reply = conn.request(message)
                    records[position] = ((t0, time.perf_counter()), reply)
                except (OSError, ValueError) as exc:
                    records[position] = (None, {"status": "error",
                                                "message": str(exc)})
                    if conn is not None:
                        conn.close()
                    conn = None
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=caller) for _ in range(CALLERS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = (t0, time.perf_counter())
    if errors:
        raise RuntimeError(errors[0])
    return records, window


def _expected(cell: Dict) -> str:
    """The canonical answer of one cell, computed in this process."""
    from repro.core.affinity import InfeasibleSchemeError
    from repro.service.protocol import cell_from_wire

    try:
        return canonical(cell_from_wire(cell).to_job().execute().to_dict())
    except InfeasibleSchemeError:
        return "infeasible"


def serve(kind: str, args, out: Outcome) -> None:
    """A closed loop of two callers against a daemon or a cluster.

    Requests are single fast-tier cells from the seeded trace; a
    request is *cold* when the trace asks for its cell for the first
    time and *warm* when it repeats one.  Each request is a unit.
    """
    cells = inputs.serve_pool()
    trace = inputs.serve_trace(cells, args.seed)
    setups: List[Interval] = []
    for _ in range(args.setup_reps - 1):
        server = Server(kind, args.work)
        try:
            setups.append(server.start())
        finally:
            server.stop()
    server = Server(kind, args.work)
    try:
        setups.append(server.start())
        if args.setup_reps == 0:
            setups = []
        cpu0 = time.process_time()
        tracing(True)
        records, window = closed_loop(server.address, cells, trace,
                                      args.seconds)
        tracing(False)
        cpu = time.process_time() - cpu0
        out.clock.stop()
        from repro.service.transport import request
        info = request(server.address, {"op": "stats"}, timeout=30.0)
        out.rss_mb = vm_hwm_mb(server.pids())
    finally:
        server.stop()

    out.setup = out.seconds(setups)
    out.window = window[1] - window[0]
    outcomes: Dict[int, set] = {}
    first: List[int] = []
    waits: List[float] = []
    latencies: List[float] = []
    for position, record in enumerate(records):
        if record is None:
            continue
        interval, reply = record
        index, is_new = trace[position]
        out.attempted += 1
        status = reply.get("status")
        if status not in ("ok", "infeasible"):
            out.failed += 1
            continue
        out.results += 1
        latencies.append(interval[1] - interval[0])
        (out.cold if is_new else out.warm).append(
            out.clock.seconds(*interval))
        if reply.get("source") in ("computed", "coalesced"):
            waits.append(float(reply.get("wait_s", 0.0)))
        answer = canonical(reply["result"]) if status == "ok" \
            else "infeasible"
        if index not in outcomes:
            outcomes[index] = set()
            if position < CHECK_PREFIX:
                first.append(index)
        outcomes[index].add(answer)
    out.tail = out.cold + out.warm
    out.rates = [out.results / out.clock.seconds(*window)]
    out.gate(all(len(a) == 1 for a in outcomes.values()),
             "one cell was served two different answers")
    sample = sorted(random.Random(f"check/{args.seed}").sample(
        first, min(CHECK_CELLS // (10 if args.smoke else 1), len(first))))
    texts = []
    for index in sample:
        expected = _expected(cells[index])
        out.gate(outcomes[index] == {expected},
                 f"served answer differs from an in-process execute "
                 f"for {cells[index]}")
        texts.append(f"{index}:{expected}")
    out.digest = digest(texts)

    totals = info.get("stats", {})
    cluster = info.get("cluster", {})
    out.counters = {
        "service.coalesced": totals.get("coalesced", 0),
        "service.admission_hits": totals.get("cache_hits", 0),
        "service.rejected": totals.get("rejected", 0),
        "service.busy_s": totals.get("busy_s_total", 0.0),
        "service.batch_s": totals.get("busy_s_total", 0.0)
        / totals["batches"] if totals.get("batches") else 0.0,
        "service.wait_p50_ms": 1000.0 * stats.percentile_or_max(waits, 50),
        "service.wait_p99_ms": 1000.0 * stats.percentile_or_max(waits, 99),
        "cluster.reroutes": cluster.get("rerouted", 0),
        "cluster.forward_failures": cluster.get("forward_failures", 0),
        "loadgen.requests": out.attempted,
        "loadgen.cpu_s": cpu,
        "loadgen.latency_mean_ms":
            1000.0 * statistics.mean(latencies) if latencies else 0.0,
    }


WORKLOADS: Dict[str, Callable] = {
    "sweep-exact": sweep_exact,
    "bench-all": bench_all,
    "serve-daemon": lambda args, out: serve("daemon", args, out),
    "serve-cluster": lambda args, out: serve("cluster", args, out),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload",
                        choices=sorted(WORKLOADS) + ["sweep-setup"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--work", default=os.getcwd())
    parser.add_argument("--setup-reps", type=int, default=3)
    parser.add_argument("--minimum", type=int, default=2,
                        help="repeat a batch workload's unit at least "
                             "this often")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "sweep-setup":
        inputs.sweep_cells()  # what setup_s times: imports, enumerate, key
        return 0
    tracing(False)
    os.chdir(args.work)
    out = Outcome(HostClock().start())
    try:
        WORKLOADS[args.workload](args, out)
    finally:
        out.clock.stop()
    print(json.dumps(out.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
