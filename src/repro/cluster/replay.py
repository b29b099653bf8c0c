"""``repro-bench replay``: traffic-replay load generator for the service.

Replays recorded traffic — a JSONL trace file, or the bounded traffic
log a ``serve`` daemon folds into its ``tool="serve"`` ledger records —
against any service endpoint (single daemon or cluster router) at a
configurable request rate with N concurrent clients, then reports what
the paper's serving story needs numbers for:

* **latency**: p50/p99/mean/max over per-request wall time;
* **throughput**: achieved requests/second vs the target rate;
* **per-shard utilization**: the share of requests each shard served
  (from the ``shard`` field the router stamps on responses);
* **cluster-wide coalesce ratio**: from the endpoint's ``stats`` op —
  the proof that content-address sharding preserved coalescing.

The replay is **open-loop with a closed-loop floor**: request *i* is
released at ``i/rate`` seconds, but no more than ``--clients`` requests
are ever in flight, so an overloaded server shows up as rising latency
rather than an unbounded client-side backlog.  With ``--ledger`` the
run writes a ``tool="replay"`` record so ``history``/``regress`` gate
served-traffic latency alongside bench fidelity.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from ..service import cliargs
from ..service.transport import format_address, parse_address, request
from ..telemetry import tracing

__all__ = ["load_trace", "main", "percentile", "run_replay",
           "trace_from_ledger"]


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace: one ``{"t": seconds, "cell": {...}}`` per line.

    Bare cell objects (no ``t``/``cell`` envelope) are accepted too, so
    hand-written traces stay easy.
    """
    entries: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            record = json.loads(line)
            if "cell" in record:
                entries.append({"t": float(record.get("t", 0.0)),
                                "cell": record["cell"]})
            else:
                entries.append({"t": 0.0, "cell": record})
    if not entries:
        raise ValueError(f"trace {path} contains no requests")
    return entries


def trace_from_ledger(ledger_dir: Optional[str] = None,
                      run_id: Optional[str] = None
                      ) -> List[Dict[str, Any]]:
    """Rebuild a trace from recorded serve-daemon traffic logs.

    Takes the newest ``tool="serve"`` record with a non-empty traffic
    log (or the one named by ``run_id``) and returns its recorded
    cells with their original arrival offsets.
    """
    from ..telemetry import ledger as run_ledger

    candidates = []
    for record in run_ledger.read_records(ledger_dir):
        if record.get("tool") != "serve":
            continue
        traffic = record.get("traffic") or {}
        recorded = traffic.get("recorded") or []
        if not recorded:
            continue
        if run_id is not None and record.get("run_id") != run_id:
            continue
        candidates.append((record.get("started_at", ""), recorded))
    if not candidates:
        raise ValueError(
            "no serve ledger record with recorded traffic found "
            "(run the daemon with --ledger and send it submits first)")
    candidates.sort(key=lambda pair: pair[0])
    recorded = candidates[-1][1]
    return [{"t": float(entry.get("t", 0.0)), "cell": entry["cell"]}
            for entry in recorded if isinstance(entry.get("cell"), dict)]


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def run_replay(address, trace: List[Dict[str, Any]],
               rate: float = 50.0, clients: int = 8,
               timeout: float = 600.0,
               on_result=None,
               trace_requests: bool = False,
               retries: int = 2,
               retry_max_sleep: float = 2.0) -> Dict[str, Any]:
    """Replay ``trace`` against ``address``; returns the report dict.

    ``on_result(index, outcome)`` (optional) is called per finished
    request — the chaos killed-shard scenario uses it to time the kill
    against replay progress.  ``trace_requests=True`` mints a fresh
    distributed-trace id per replayed request (the report carries a
    ``trace_ids`` sample for ``repro-bench trace export``).

    Retryable rejections (``queue_full`` honoring its ``retry_after``
    hint, ``shard_unavailable``, transport failures — all
    pre-acceptance, so a retry cannot duplicate work) are retried up to
    ``retries`` times with jittered backoff before counting as an
    error; the report's ``retries`` counter is what lets zero-loss
    gating distinguish "lost" from "retried".
    """
    import random

    from ..errors import RETRYABLE_CODES

    resolved = parse_address(address)
    lock = threading.Lock()
    latencies: List[float] = []
    sources: Dict[str, int] = {}
    shard_hits: Dict[str, int] = {}
    errors: Dict[str, int] = {}
    trace_ids: List[str] = []
    rerouted_hint = 0
    retries_total = [0]
    next_index = [0]
    start = time.perf_counter()

    def send_once(cell: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return request(resolved, {"op": "submit", "cell": cell},
                           timeout=timeout)
        except (OSError, ValueError) as exc:
            return {"status": "error", "code": "transport",
                    "message": str(exc)}

    def worker() -> None:
        nonlocal rerouted_hint
        while True:
            with lock:
                index = next_index[0]
                if index >= len(trace):
                    return
                next_index[0] = index + 1
            release = start + index / rate if rate > 0 else start
            delay = release - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            cell = trace[index]["cell"]
            if trace_requests:
                # copy before stamping: --repeat reuses the same dicts
                trace_id = tracing.new_trace_id()
                cell = dict(cell)
                cell["trace"] = tracing.wire_trace(trace_id)
                with lock:
                    trace_ids.append(trace_id)
            sent = time.perf_counter()
            outcome: Dict[str, Any]
            response = send_once(cell)
            attempt = 0
            while (response.get("status") != "ok"
                   and response.get("code") in RETRYABLE_CODES
                   and attempt < retries):
                attempt += 1
                hint = response.get("retry_after")
                backoff = float(hint) if hint is not None \
                    else 0.05 * (2 ** (attempt - 1))
                time.sleep(min(retry_max_sleep, backoff)
                           * (1.0 + random.uniform(0, 0.25)))
                response = send_once(cell)
            if attempt:
                with lock:
                    retries_total[0] += attempt
            elapsed = time.perf_counter() - sent
            outcome = {"latency_s": elapsed,
                       "status": response.get("status"),
                       "code": response.get("code"),
                       "source": response.get("source"),
                       "shard": response.get("shard")}
            with lock:
                latencies.append(elapsed)
                if response.get("status") == "ok":
                    source = response.get("source", "computed")
                    sources[source] = sources.get(source, 0) + 1
                else:
                    code = response.get("code", "error")
                    errors[code] = errors.get(code, 0) + 1
                shard = response.get("shard")
                if shard:
                    shard_hits[shard] = shard_hits.get(shard, 0) + 1
            if on_result is not None:
                on_result(index, outcome)

    threads = [threading.Thread(target=worker, name=f"replay-{i}",
                                daemon=True)
               for i in range(max(1, clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = max(time.perf_counter() - start, 1e-9)

    stats_wire: Dict[str, Any] = {}
    try:
        stats_wire = request(resolved, {"op": "stats"}, timeout=30.0)
    except (OSError, ValueError):
        pass
    cluster = stats_wire.get("cluster") or {}
    totals = stats_wire.get("stats") or {}
    lookups = (totals.get("coalesced", 0) + totals.get("cache_hits", 0)
               + totals.get("accepted", 0))
    coalesce_rate = cluster.get("coalesce_rate")
    if coalesce_rate is None:
        coalesce_rate = round(totals.get("coalesced", 0) / lookups, 6) \
            if lookups else 0.0

    ordered = sorted(latencies)
    total = len(trace)
    ok_count = sum(sources.values())
    utilization = {shard: round(count / total, 6)
                   for shard, count in sorted(shard_hits.items())}
    report = {
        "target": format_address(resolved),
        "requests": total,
        "ok": ok_count,
        "errors": sum(errors.values()),
        "error_codes": errors,
        "retries": retries_total[0],
        "sources": sources,
        "duration_s": round(duration, 6),
        "rate_target_rps": rate,
        "throughput_rps": round(total / duration, 3),
        "latency_p50_ms": round(percentile(ordered, 0.50) * 1e3, 3),
        "latency_p99_ms": round(percentile(ordered, 0.99) * 1e3, 3),
        "latency_mean_ms": round(
            sum(ordered) / len(ordered) * 1e3, 3) if ordered else 0.0,
        "latency_max_ms": round(
            ordered[-1] * 1e3, 3) if ordered else 0.0,
        "clients": max(1, clients),
        "coalesce_rate": coalesce_rate,
        "per_shard_utilization": utilization,
        "rerouted": cluster.get("rerouted", rerouted_hint),
        "shards_alive": sum(
            1 for entry in (cluster.get("shards") or {}).values()
            if entry.get("alive")) if cluster else None,
        "gauges": stats_wire.get("gauges") or {},
    }
    if trace_requests:
        report["traced"] = len(trace_ids)
        report["trace_ids"] = trace_ids[:16]
    return report


def _print_report(report: Dict[str, Any]) -> None:
    print(f"replayed {report['requests']} requests against "
          f"{report['target']} in {report['duration_s']:.3f}s "
          f"({report['throughput_rps']:.1f} req/s, target "
          f"{report['rate_target_rps']:g}, "
          f"{report['clients']} clients)")
    print(f"  latency: p50 {report['latency_p50_ms']:.2f} ms, "
          f"p99 {report['latency_p99_ms']:.2f} ms, "
          f"mean {report['latency_mean_ms']:.2f} ms, "
          f"max {report['latency_max_ms']:.2f} ms")
    sources = ", ".join(f"{k} {v}" for k, v in
                        sorted(report["sources"].items())) or "none"
    print((f"  outcomes: {report['ok']} ok ({sources}), "
           f"{report['errors']} errors "
           f"{json.dumps(report['error_codes']) if report['errors'] else ''}"
           ).rstrip()
          + (f", {report['retries']} retried"
             if report.get("retries") else ""))
    print(f"  coalesce rate: {report['coalesce_rate']:.3f}"
          + (f", rerouted {report['rerouted']}"
             if report.get("rerouted") else ""))
    if report["per_shard_utilization"]:
        share = ", ".join(f"{name} {frac:.0%}" for name, frac in
                          report["per_shard_utilization"].items())
        print(f"  per-shard utilization: {share}")
    if report.get("traced"):
        sample = report.get("trace_ids") or []
        print(f"  traced: {report['traced']} requests "
              f"(e.g. {sample[0]}; repro-bench trace export <id>)"
              if sample else f"  traced: {report['traced']} requests")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-bench replay``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench replay",
        description="Replay recorded service traffic against a daemon "
                    "or cluster router and report latency percentiles, "
                    "throughput, per-shard utilization, and the "
                    "cluster-wide coalesce ratio.",
    )
    cliargs.add_connect_argument(
        parser, help="endpoint (host:port or socket path; default: "
                     "the cluster state file's router)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="JSONL trace to replay")
    parser.add_argument("--from-ledger", action="store_true",
                        help="rebuild the trace from the newest serve "
                             "ledger record with recorded traffic")
    parser.add_argument("--run-id", default=None,
                        help="with --from-ledger: replay this run's "
                             "traffic specifically")
    parser.add_argument("--rate", type=float, default=50.0, metavar="RPS",
                        help="open-loop request release rate "
                             "(default: 50/s; 0 = as fast as possible)")
    parser.add_argument("--clients", type=int, default=8, metavar="N",
                        help="max concurrent in-flight requests")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="replay the trace N times back to back")
    parser.add_argument("--trace-requests", action="store_true",
                        help="mint a distributed-trace id per replayed "
                             "request (sample reported as trace_ids)")
    cliargs.add_timeout_argument(parser)
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="client retries per request for retryable "
                             "rejections (queue_full honoring "
                             "retry_after, shard_unavailable, transport "
                             "failures; default: 2)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON object")
    parser.add_argument("--ledger", action="store_true",
                        help="append a tool=\"replay\" run record")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None)
    args = parser.parse_args(argv)

    if args.trace and args.from_ledger:
        parser.error("--trace and --from-ledger are exclusive")
    try:
        if args.from_ledger:
            trace = trace_from_ledger(args.ledger_dir, args.run_id)
        elif args.trace:
            trace = load_trace(args.trace)
        else:
            parser.error("pass --trace FILE or --from-ledger")
    except (OSError, ValueError) as exc:
        print(f"cannot build trace: {exc}", file=sys.stderr)
        return 2
    trace = trace * max(1, args.repeat)

    address = args.connect
    if address is None:
        from .manager import DEFAULT_STATE_PATH, read_state

        try:
            address = read_state(DEFAULT_STATE_PATH)["router"]
        except (OSError, ValueError, KeyError):
            parser.error("no --connect given and no cluster state at "
                         f"{DEFAULT_STATE_PATH}")

    recorder = None
    if args.ledger or args.ledger_dir:
        from ..telemetry import ledger as run_ledger

        recorder = run_ledger.RunRecorder(tool="replay",
                                          argv=argv).start()

    try:
        report = run_replay(address, trace, rate=args.rate,
                            clients=args.clients, timeout=args.timeout,
                            trace_requests=args.trace_requests,
                            retries=max(0, args.retries))
    except (OSError, ValueError) as exc:
        print(f"replay failed against {address}: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_report(report)

    if recorder is not None:
        from ..telemetry import ledger as run_ledger

        gauges = dict(report.pop("gauges", {}))
        # zero-loss gating reads this next to the error count: a
        # retried request was never lost, only re-asked
        gauges["replay_retries"] = report.get("retries", 0)
        record = recorder.finish(
            config={"target": report["target"], "rate": args.rate,
                    "clients": args.clients,
                    "requests": report["requests"]},
            replay={k: v for k, v in report.items()
                    if k not in ("sources", "error_codes")},
            gauges=gauges,
        )
        path = run_ledger.append(record, args.ledger_dir)
        print(f"[replay run {record['run_id']} recorded to {path}]",
              file=sys.stderr)
    return 0 if report["errors"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
