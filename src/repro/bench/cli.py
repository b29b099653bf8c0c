"""``repro-bench``: regenerate paper tables and figures from the CLI.

Usage::

    repro-bench list                 # available targets
    repro-bench tab02 fig08          # specific targets
    repro-bench all                  # everything (minutes)
    repro-bench all --jobs 8         # fan sweep cells over 8 workers
    repro-bench tab02 --csv out/     # also write CSV files
    repro-bench all --ledger         # record the run in .repro/ledger/
    repro-bench history              # sparkline trends over past runs
    repro-bench regress              # fail on fidelity/perf regressions
    repro-bench doctor --fix         # scan/repair cache + ledger stores
    repro-bench chaos                # self-test crash/corruption recovery
    repro-bench all --faults p.json  # degrade the modeled machine per plan
    repro-bench all --tier fast      # analytic surrogate instead of the engine
    repro-bench micro                # engine/surrogate microbenchmarks
    repro-bench serve                # characterization service daemon
    repro-bench submit --workload stream   # submit a cell to the daemon
    repro-bench cluster up --shards 3      # sharded cluster + TCP router
    repro-bench replay --trace t.jsonl     # replay traffic, report p50/p99
    repro-bench top                        # live metrics dashboard
    repro-bench trace export <trace_id>    # merged Chrome trace of one request

Tables and CSVs always go to stdout byte-identically regardless of
``--jobs``/caching/telemetry; diagnostics (``--timings``,
``--cache-stats``, log output) go to stderr.  A fault plan changes the
*modeled machine* (and the cache keys), never the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Union

from ..core import SeriesResult, TableResult
from ..core import cache as result_cache
from ..core import parallel
from . import ablations, extensions, figures, tables

__all__ = ["main", "prof_main", "TARGETS"]

Result = Union[TableResult, SeriesResult]

TARGETS: Dict[str, Callable[[], Result]] = {}
for _num in range(1, 15):
    TARGETS[f"tab{_num:02d}"] = getattr(tables, f"table{_num:02d}")
for _num in range(2, 18):
    TARGETS[f"fig{_num:02d}"] = getattr(figures, f"figure{_num:02d}")
for _num in (14, 15, 16, 17):
    TARGETS[f"fig{_num:02d}lat"] = getattr(figures, f"figure{_num:02d}_latency")
for _name in ("probe_cost", "topology", "lock_cost", "fragmentation",
              "hybrid"):
    TARGETS[f"abl_{_name}"] = getattr(ablations, f"ablation_{_name}")


def _fidelity():
    """Quantitative model-vs-paper agreement for every numeric table."""
    from .fidelity import fidelity_table

    return fidelity_table()


TARGETS["fidelity"] = _fidelity
TARGETS["ext_npb"] = extensions.ext_npb_spectrum
TARGETS["ext_hybrid"] = extensions.ext_hybrid_scaling


def _render(name: str, result: Result, csv_dir: str | None,
            show_plot: bool = False) -> None:
    print("=" * 72)
    print(result.to_text())
    if show_plot and isinstance(result, SeriesResult):
        from ..core.asciiplot import plot

        print(plot(result))
    if csv_dir:
        table = result if isinstance(result, TableResult) else result.to_table()
        path = os.path.join(csv_dir, f"{name}.csv")
        with open(path, "w") as handle:
            handle.write(table.to_csv())
        print(f"[csv written to {path}]")


def _prefetch(session, names) -> List[parallel.TargetFailure]:
    """Warm the result cache for the requested targets in parallel.

    Table cells and figure cells are enumerated up front and fanned over
    the worker pool; the serial target builders then run entirely from
    cache hits.  Only worth the enumeration cost when several targets
    share cells or ``jobs > 1``.  Returns the cells that failed.
    """
    requests = []
    if any(n.startswith("tab") or n == "fidelity" for n in names):
        requests.extend(tables.sweep_requests())
    if any(n.startswith("fig") for n in names):
        requests.extend(figures.figure_requests())
    return session.prefetch(requests) if requests else []


def _timings_payload(timings) -> Dict:
    """The ``--timings-json`` document (also embedded in ledger records)."""
    return {
        "schema": 1,
        "targets": [
            {"name": name, "seconds": round(elapsed, 6),
             "cache_hits": hits, "cache_misses": misses}
            for name, elapsed, hits, misses in timings
        ],
        "total": {
            "seconds": round(sum(t for _n, t, _h, _m in timings), 6),
            "cache_hits": sum(h for _n, _t, h, _m in timings),
            "cache_misses": sum(m for _n, _t, _h, m in timings),
        },
    }


def _fidelity_scores(results: Dict) -> Dict:
    """Per-table fidelity scores out of a generated ``fidelity`` table."""
    table = results.get("fidelity")
    if not isinstance(table, TableResult):
        return {}
    return {
        str(row[0]): {"cells": row[1], "rank_correlation": row[2],
                      "median_ratio": row[3], "ratio_spread": row[4]}
        for row in table.rows
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("history", "regress", "doctor", "chaos",
                            "serve", "submit", "micro", "cluster",
                            "replay", "top", "trace"):
        # maintenance/service subcommands own their argument parsing
        if argv[0] == "history":
            from ..telemetry.history import main as sub_main
        elif argv[0] == "regress":
            from ..telemetry.regress import main as sub_main
        elif argv[0] == "doctor":
            from ..telemetry.doctor import main as sub_main
        elif argv[0] == "micro":
            from .micro import main as sub_main
        elif argv[0] == "serve":
            from ..service.daemon import main as sub_main
        elif argv[0] == "submit":
            from ..service.daemon import submit_main as sub_main
        elif argv[0] == "cluster":
            from ..cluster.manager import main as sub_main
        elif argv[0] == "replay":
            from ..cluster.replay import main as sub_main
        elif argv[0] == "top":
            from ..telemetry.top import main as sub_main
        elif argv[0] == "trace":
            from ..telemetry.tracecmd import main as sub_main
        else:
            from .chaos import main as sub_main
        return sub_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate tables/figures of the IISWC 2006 "
                    "multi-core characterization paper from the model.",
        epilog="subcommands: 'repro-bench history' renders run-ledger "
               "trends, 'repro-bench regress' gates the latest recorded "
               "run against its rolling baseline, 'repro-bench doctor' "
               "scans/repairs the cache and ledger stores, 'repro-bench "
               "chaos' self-tests crash and corruption recovery, "
               "'repro-bench serve' runs the characterization service "
               "daemon, 'repro-bench submit' sends cells to it, "
               "'repro-bench cluster' manages a sharded multi-daemon "
               "cluster, 'repro-bench replay' replays recorded "
               "traffic against it, 'repro-bench top' renders a live "
               "metrics dashboard over running daemons and 'repro-bench "
               "trace' exports distributed request traces from the "
               "ledger.",
    )
    parser.add_argument("targets", nargs="*",
                        help="targets like tab02, fig08, or 'all' / 'list'")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each result as CSV into DIR")
    parser.add_argument("--plot", action="store_true",
                        help="render figures as ASCII charts too")
    parser.add_argument("--report", metavar="FILE", default=None,
                        help="write all requested targets into one "
                             "markdown report")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        metavar="N",
                        help="simulate sweep cells on N worker processes "
                             "(results are bit-identical to serial)")
    parser.add_argument("--backend", metavar="SPEC", default=None,
                        help="execution backend for sweep cells: "
                             "'processes' (default; crash-isolated "
                             "worker pool), 'threads' (in-process), or "
                             "'remote:<addr>' (a repro-bench serve "
                             "daemon or cluster router) — tables are "
                             "byte-identical across all three")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="stall watchdog: give up on a sweep batch "
                             "after SECONDS with zero cell completions "
                             "(default: $REPRO_BENCH_TIMEOUT, else off)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-dispatch crashed/stalled cells up to N "
                             "times (default: $REPRO_BENCH_RETRIES, "
                             "else 1)")
    parser.add_argument("--faults", metavar="FILE", default=None,
                        help="inject machine faults from a JSON fault "
                             "plan into every simulated cell (results "
                             "get distinct cache keys and are excluded "
                             "from regression baselines)")
    parser.add_argument("--tier", choices=("fast", "exact", "auto"),
                        default=None,
                        help="execution tier for every simulated cell: "
                             "'exact' steps the discrete-event engine "
                             "(default), 'fast' the analytic surrogate, "
                             "'auto' picks fast where supported (fast "
                             "results live under distinct cache keys)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed result cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print cache hit/miss counters to stderr")
    parser.add_argument("--timings", action="store_true",
                        help="print per-target wall times to stderr, "
                             "slowest first")
    parser.add_argument("--timings-json", metavar="FILE", default=None,
                        help="write per-target time/hit/miss data as JSON")
    parser.add_argument("--ledger", action="store_true",
                        help="append this run's telemetry record to the "
                             "run ledger (.repro/ledger/)")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger location (implies --ledger)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="repro.* log verbosity (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log repro.* errors")
    args = parser.parse_args(argv)

    from ..telemetry import ledger as run_ledger
    from ..telemetry.log import configure_logging

    configure_logging(-1 if args.quiet else args.verbose)
    if args.no_cache:
        result_cache.configure(enabled=False)
    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults:
        from ..faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_json(args.faults)
        except (OSError, ValueError) as exc:
            print(f"--faults: cannot load {args.faults}: {exc}",
                  file=sys.stderr)
            return 2

    if not args.targets or "list" in args.targets:
        print("available targets:")
        for name, fn in sorted(TARGETS.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:10s} {doc}")
        return 0

    names = sorted(TARGETS) if "all" in args.targets else args.targets
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown targets: {', '.join(unknown)}", file=sys.stderr)
        return 2

    from ..errors import JobFailedError
    from ..service.session import Session, set_default_session

    try:
        # the run's one execution context; the bench builders reach it
        # as the default session
        session = Session(jobs=args.jobs, timeout=args.timeout,
                          retries=args.retries, backend=args.backend,
                          tier=args.tier, faults=fault_plan, name="bench")
    except ValueError as exc:
        print(f"--backend: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
    jobs = args.jobs or parallel.default_jobs()

    from ..sim.trace import reset_dropped, total_dropped

    # each CLI invocation is one run: start the drop tally from zero so
    # ledger records never inherit a previous in-process run's drops
    reset_dropped()

    recorder = None
    cache0 = pool0 = dropped0 = None
    if args.ledger or args.ledger_dir or run_ledger.env_configured():
        recorder = run_ledger.RunRecorder(tool="bench", argv=argv).start()
        cache0 = dict(result_cache.default_cache().stats.as_dict())
        pool0 = parallel.pool_stats().as_dict()
        dropped0 = total_dropped()

    results = {}
    timings = []
    failures: List[parallel.TargetFailure] = []
    stats = result_cache.default_cache().stats
    previous_session = set_default_session(session)
    try:
        if jobs > 1:
            failures.extend(_prefetch(session, names))
        for index, name in enumerate(names):
            start = time.perf_counter()
            hits0 = stats.memory_hits + stats.disk_hits
            misses0 = stats.misses
            try:
                results[name] = TARGETS[name]()
            except JobFailedError as exc:
                # a failed cell skips its target, not the whole run
                failures.append(parallel.TargetFailure(
                    index=index, kind=exc.kind, message=str(exc),
                    attempts=1, label=f"target {name}"))
                continue
            timings.append((name, time.perf_counter() - start,
                            stats.memory_hits + stats.disk_hits - hits0,
                            stats.misses - misses0))
            _render(name, results[name], args.csv, show_plot=args.plot)
    except KeyboardInterrupt:
        # clean abort: futures are already cancelled and the pool killed
        # by the executor's interrupt path; leave an honest ledger trail
        print("\ninterrupted; aborting the run", file=sys.stderr)
        if recorder is not None:
            record = recorder.finish(
                config={"targets": names, "jobs": jobs,
                        "tier": args.tier or "exact"},
                status="aborted",
                targets=_timings_payload(timings)["targets"],
            )
            if fault_plan is not None:
                record["faults"] = fault_plan.to_dict()
            path = run_ledger.append(record, args.ledger_dir)
            print(f"[aborted run {record['run_id']} recorded to {path}]",
                  file=sys.stderr)
        return 130
    finally:
        set_default_session(previous_session)
        session.close()
        parallel.shutdown_pool()
        if recorder is not None:
            recorder.stop()

    if failures:
        print(f"{len(failures)} sweep cell(s) failed and were skipped:",
              file=sys.stderr)
        for failure in failures:
            print(f"  [{failure.kind}] {failure.label}: {failure.message}",
                  file=sys.stderr)
    if args.report:
        from .report_writer import write_report

        write_report(args.report, results)
        print(f"[report written to {args.report}]")
    if args.timings_json:
        with open(args.timings_json, "w") as handle:
            json.dump(_timings_payload(timings), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"[timings JSON written to {args.timings_json}]",
              file=sys.stderr)
    if args.timings:
        from ..perfctr import format_count

        total = sum(t for _n, t, _h, _m in timings)
        total_hits = sum(h for _n, _t, h, _m in timings)
        total_misses = sum(m for _n, _t, _h, m in timings)
        print("per-target wall time and cache traffic:", file=sys.stderr)
        for name, elapsed, hits, misses in sorted(timings,
                                                  key=lambda t: -t[1]):
            print(f"  {name:10s} {elapsed:8.2f}s  "
                  f"{format_count(hits):>6s} hits  "
                  f"{format_count(misses):>6s} misses", file=sys.stderr)
        print(f"  {'total':10s} {total:8.2f}s  "
              f"{format_count(total_hits):>6s} hits  "
              f"{format_count(total_misses):>6s} misses", file=sys.stderr)
    if args.cache_stats:
        stats = result_cache.default_cache().stats
        print(f"result cache: {stats.memory_hits} memory hits, "
              f"{stats.disk_hits} disk hits, {stats.misses} misses, "
              f"{stats.stores} stores", file=sys.stderr)
    if recorder is not None:
        cache = result_cache.default_cache()
        cache_stats = {key: value - cache0.get(key, 0)
                       for key, value in cache.stats.as_dict().items()}
        cache_stats.update(cache.disk_usage())
        pool = {key: value - pool0.get(key, 0)
                for key, value in parallel.pool_stats().as_dict().items()}
        pool["jobs"] = jobs
        record = recorder.finish(
            config={"targets": names, "jobs": jobs,
                    "tier": args.tier or "exact",
                    "backend": args.backend or "processes",
                    "cache_enabled": cache.enabled,
                    "csv": bool(args.csv), "plot": bool(args.plot)},
            targets=_timings_payload(timings)["targets"],
            cache=cache_stats,
            pool=pool,
            fidelity=_fidelity_scores(results),
            trace_dropped=total_dropped() - dropped0,
        )
        if fault_plan is not None:
            record["faults"] = fault_plan.to_dict()
        if failures:
            record["failures"] = [f.as_dict() for f in failures]
        path = run_ledger.append(record, args.ledger_dir)
        print(f"[run {record['run_id']} recorded to {path}]",
              file=sys.stderr)
    return 1 if failures else 0


def prof_main(argv=None) -> int:
    """Entry point of the ``repro-prof`` console script."""
    from .prof import main as _prof

    return _prof(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
