"""``repro-prof``: counter-level profiling of one experiment cell.

Where ``repro-bench`` reports the end-to-end times of the paper's
tables, ``repro-prof`` opens the hood: it runs a single (system x
workload x scheme) cell with a :class:`~repro.perfctr.PerfSession`
attached and prints per-core counter banks, per-region (marker) tables,
and derived metrics — achieved DRAM bandwidth, remote-access ratio,
FLOP rate, HT link utilization.  Counter state can be exported as JSON
(``--json``, schema checked in CI) and the op timeline as Chrome
trace-event JSON (``--trace``, load in Perfetto).

Usage::

    repro-prof run stream --system longs --ntasks 4
    repro-prof run pop --system longs --ntasks 8 --scheme two-local
    repro-prof validate          # counter vs. table cross-checks
    repro-prof list              # workloads / systems / schemes

Profiled cells flow through the content-addressed result cache under
keys distinct from unprofiled runs (the ``profile`` flag folds into the
key only when set), so repeated profiling is instant and the bench
pipeline's warm-cache entries stay untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..core import AffinityScheme, JobResult, TableResult
from ..core import cache as result_cache
from ..core.execution import JobRunner
from ..core.parallel import JobRequest, run_request
from ..core.affinity import resolve_scheme
from ..machine import MachineSpec, all_systems, by_name
from ..machine.params import GB
from ..numa import PageTable, numastat
from ..numa import remote_fraction as page_remote_fraction
from ..perfctr import (
    EVENTS,
    derive,
    format_bytes,
    format_count,
    format_ratio,
    link_utilization,
    remote_access_ratio,
)
from ..service.registry import SCHEME_ALIASES, WORKLOADS
from ..workloads.lmbench import StreamTriad, triad_bytes_moved
from .common import bound_spread_affinity

__all__ = ["main", "WORKLOADS", "SCHEME_ALIASES", "prof_payload"]

#: compact counter columns for the per-core table, in display order
_CORE_COLUMNS = [
    ("cycles", "cycles"),
    ("flops", "flops"),
    ("l1_hits", "L1 hit"),
    ("l1_misses", "L1 miss"),
    ("l2_hits", "L2 hit"),
    ("l2_misses", "L2 miss"),
    ("dram_reads", "DRAM rd"),
    ("dram_writes", "DRAM wr"),
    ("dram_local_bytes", "local B"),
    ("dram_remote_bytes", "remote B"),
    ("ht_link_bytes", "HT B"),
    ("mpi_messages", "MPI msg"),
    ("mpi_bytes", "MPI B"),
]


def _core_table(result: JobResult) -> TableResult:
    table = TableResult(
        title=f"Per-core counters — {result.workload} on {result.system} "
              f"({result.scheme})",
        headers=["core"] + [label for _e, label in _CORE_COLUMNS],
    )
    cores = result.perf["cores"]
    for core in sorted(cores, key=int):
        counters = cores[core]
        table.add_row(core, *[format_count(counters.get(event, 0.0))
                              for event, _label in _CORE_COLUMNS])
    totals = result.perf["totals"]
    table.add_row("all", *[format_count(totals.get(event, 0.0))
                           for event, _label in _CORE_COLUMNS])
    return table


def _region_table(result: JobResult, name: str) -> TableResult:
    table = TableResult(
        title=f"Region '{name}'",
        headers=["core", "calls", "seconds", "GB/s", "GFLOP/s", "remote"],
    )
    per_core = result.perf["regions"][name]
    for core in sorted(per_core, key=int):
        entry = per_core[core]
        metrics = derive(entry["counters"], entry["seconds"])
        table.add_row(
            core, entry["calls"], entry["seconds"],
            metrics["achieved_bandwidth"] / GB,
            metrics["flop_rate"] / 1e9,
            format_ratio(metrics["remote_access_ratio"]),
        )
    return table


def _summary_table(result: JobResult) -> TableResult:
    totals = result.perf["totals"]
    metrics = derive(totals, result.wall_time)
    table = TableResult(
        title="Derived metrics (machine-wide)",
        headers=["metric", "value"],
    )
    table.add_row("wall time", f"{result.wall_time:.6g} s")
    table.add_row("DRAM traffic", format_bytes(metrics["dram_bytes"]))
    table.add_row("achieved bandwidth",
                  f"{metrics['achieved_bandwidth'] / GB:.3f} GB/s")
    table.add_row("FLOP rate", f"{metrics['flop_rate'] / 1e9:.3f} GFLOP/s")
    table.add_row("remote-access ratio",
                  format_ratio(metrics["remote_access_ratio"]))
    table.add_row("L1 miss ratio", format_ratio(metrics["l1_miss_ratio"]))
    table.add_row("MPI messages",
                  format_count(totals.get("mpi_messages", 0.0)))
    table.add_row("MPI bytes", format_bytes(totals.get("mpi_bytes", 0.0)))
    table.add_row("HT link bytes",
                  format_bytes(totals.get("ht_link_bytes", 0.0)))
    return table


def prof_payload(result: JobResult, cell: Dict) -> Dict:
    """The ``--json`` document: cell identity + counters + derived."""
    totals = result.perf["totals"]
    return {
        "schema": 1,
        "cell": cell,
        "wall_time": result.wall_time,
        "events": list(EVENTS),
        "perf": result.perf,
        "derived": derive(totals, result.wall_time),
    }


def _profile_cell(spec: MachineSpec, workload, scheme: AffinityScheme,
                  lock: Optional[str], use_cache: bool,
                  faults=None, tier: Optional[str] = None) -> JobResult:
    request = JobRequest(spec=spec, workload=workload, scheme=scheme,
                         lock=lock, profile=True, faults=faults, tier=tier)
    if not use_cache:
        return request.execute()
    return run_request(request)


def _run(args) -> int:
    try:
        factory = WORKLOADS[args.workload]
    except KeyError:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    try:
        spec = by_name(args.system)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    scheme = SCHEME_ALIASES[args.scheme]
    workload = factory(args.ntasks)

    fault_plan = None
    if args.faults:
        from ..faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_json(args.faults)
        except (OSError, ValueError) as exc:
            print(f"--faults: cannot load {args.faults}: {exc}",
                  file=sys.stderr)
            return 2

    if args.trace:
        # Trace export needs Tracer records, which the cached path does
        # not store; run this cell directly with tracing enabled.
        from ..core.timeline import to_chrome_trace

        affinity = resolve_scheme(scheme, spec, workload.ntasks)
        runner = JobRunner(spec, affinity, lock=args.lock, trace=True,
                           profile=True, faults=fault_plan)
        result = runner.run(workload)
        with open(args.trace, "w") as handle:
            handle.write(to_chrome_trace(runner.machine.tracer,
                                         time_scale=workload.time_scale))
        print(f"[chrome trace written to {args.trace}]", file=sys.stderr)
        links = link_utilization(runner.machine, elapsed=result.wall_time
                                 / workload.time_scale)
        busiest = {name: util for name, util in sorted(
            links.items(), key=lambda kv: -kv[1])[:4] if util > 0}
        if busiest:
            print("busiest HT links: " + ", ".join(
                f"{name} {format_ratio(util)}"
                for name, util in busiest.items()), file=sys.stderr)
    else:
        from ..errors import SurrogateUnsupportedError

        try:
            result = _profile_cell(spec, workload, scheme, args.lock,
                                   use_cache=not args.no_cache,
                                   faults=fault_plan,
                                   tier=getattr(args, "tier", None))
        except SurrogateUnsupportedError as exc:
            # --tier fast on a profiling run: counters need the engine
            print(f"--tier fast: {exc} (use --tier auto or exact)",
                  file=sys.stderr)
            return 2

    from ..telemetry.tracing import active_recorder

    recorder = active_recorder()
    if recorder is not None:
        recorder.extra["cell"] = {
            "system": spec.name, "workload": workload.name,
            "scheme": str(scheme), "ntasks": workload.ntasks,
        }
        recorder.extra["wall_time"] = result.wall_time
        recorder.extra["perf_derived"] = derive(result.perf["totals"],
                                                result.wall_time)
        if fault_plan is not None:
            recorder.extra["faults"] = fault_plan.to_dict()

    print(_core_table(result).to_text())
    for name in result.perf["regions"]:
        print()
        print(_region_table(result, name).to_text())
    print()
    print(_summary_table(result).to_text())

    if args.json:
        payload = prof_payload(result, cell={
            "system": spec.name, "workload": workload.name,
            "scheme": str(scheme), "ntasks": workload.ntasks,
            "lock": args.lock,
        })
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"[counter JSON written to {args.json}]", file=sys.stderr)
    return 0


# -- validation table ------------------------------------------------------

def validation_tables(spec: Optional[MachineSpec] = None,
                      core_counts: Optional[List[int]] = None):
    """Counter-vs-table cross-checks (the PR's new validation table).

    Part 1 re-derives the Figure 2 STREAM-triad aggregate bandwidth
    from the ``triad`` marker region's counters and compares against
    the phase-time computation the figure uses.  Part 2 compares the
    counter remote-access ratio against the page-level ``numastat``
    remote fraction under localalloc / default / interleave — the
    ordering the paper's Section 3.2 placement results rest on.
    """
    spec = spec if spec is not None else by_name("longs")
    if core_counts is None:
        core_counts = [n for n in (1, 2, 4, 8, 16) if n <= spec.total_cores]

    bw = TableResult(
        title=f"Validation: counter-derived STREAM bandwidth — {spec.name}",
        headers=["cores", "table GB/s", "counter GB/s", "delta %"],
    )
    for ncores in core_counts:
        workload = StreamTriad(ncores)
        result = run_request(JobRequest(
            spec=spec, workload=workload,
            affinity=bound_spread_affinity(spec, ncores), profile=True))
        per_task = triad_bytes_moved(workload) / ncores
        table_bw = sum(per_task / result.phase_times[rank]["triad"]
                       for rank in range(ncores))
        region = result.perf["regions"]["triad"]
        counter_bw = sum(
            (entry["counters"].get("dram_local_bytes", 0.0)
             + entry["counters"].get("dram_remote_bytes", 0.0))
            / entry["seconds"]
            for entry in region.values()
        )
        delta = abs(counter_bw - table_bw) / table_bw * 100.0
        bw.add_row(ncores, table_bw / GB, counter_bw / GB, delta)
    bw.notes.append(
        "table GB/s reproduces Figure 2's phase-time computation; "
        "counter GB/s divides the triad region's DRAM byte counters by "
        "its marker-region seconds"
    )

    ntasks = min(8, spec.total_cores)
    ratio = TableResult(
        title=f"Validation: remote-access ratio — stream-triad[{ntasks}] "
              f"on {spec.name}",
        headers=["scheme", "counter remote %", "numastat remote %"],
    )
    for label, scheme in (("localalloc", AffinityScheme.TWO_MPI_LOCAL),
                          ("default", AffinityScheme.DEFAULT),
                          ("interleave", AffinityScheme.INTERLEAVE)):
        workload = StreamTriad(ntasks)
        result = run_request(JobRequest(spec=spec, workload=workload,
                                        scheme=scheme, profile=True))
        counter_ratio = remote_access_ratio(result.perf["totals"])
        # Page-level cross-check: realize the same policies page by page
        # and fold the placement into numastat's per-node counters.
        affinity = resolve_scheme(scheme, spec, ntasks)
        table = PageTable(num_nodes=spec.sockets)
        task_nodes = {}
        for rank in range(ntasks):
            node = affinity.placement.socket_of_rank(rank)
            task_nodes[rank] = node
            table.allocate(rank, workload.elements_per_task * 24, node,
                           affinity.policies[rank])
        page_ratio = page_remote_fraction(numastat(table, task_nodes))
        ratio.add_row(label, counter_ratio * 100.0, page_ratio * 100.0)
    ratio.notes.append(
        "paper ordering: localalloc < default < interleave (Section 3.2); "
        "numastat column realizes the same policies at 4 KB page "
        "granularity (first-touch migration noise excluded)"
    )
    return [bw, ratio]


def _validate(args) -> int:
    spec = by_name(args.system)
    failures = []
    tables = validation_tables(spec)
    for table in tables:
        print(table.to_text())
        print()
    for row in tables[0].rows:
        if row[3] > 1.0:
            failures.append(
                f"bandwidth mismatch at {row[0]} cores: {row[3]:.3f}% > 1%")
    ratios = [row[1] for row in tables[1].rows]
    if not ratios[0] < ratios[1] < ratios[2]:
        failures.append(
            "remote-access ratio ordering violated: "
            f"localalloc={ratios[0]:.2f}% default={ratios[1]:.2f}% "
            f"interleave={ratios[2]:.2f}%")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("validation OK: counter bandwidth within 1% of table values; "
          "remote-ratio ordering localalloc < default < interleave")
    return 0


def _list(_args) -> int:
    print("workloads:")
    for name in sorted(WORKLOADS):
        print(f"  {name}")
    print("systems:")
    for spec in all_systems():
        print(f"  {spec.name.lower():8s} {spec.description}")
    print("schemes:")
    for alias, scheme in SCHEME_ALIASES.items():
        print(f"  {alias:12s} {scheme}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-prof",
        description="Profile one experiment cell with simulated hardware "
                    "performance counters.",
    )
    parser.add_argument("--ledger", action="store_true",
                        help="append this run's telemetry record to the "
                             "run ledger (.repro/ledger/)")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger location (implies --ledger)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="repro.* log verbosity (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log repro.* errors")
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser("run", help="profile one cell")
    run_parser.add_argument("workload", help="workload name (see 'list')")
    run_parser.add_argument("--system", default="longs",
                            help="system preset (default: longs)")
    run_parser.add_argument("--ntasks", type=int, default=2,
                            help="MPI ranks (default: 2)")
    run_parser.add_argument("--scheme", default="default",
                            choices=sorted(SCHEME_ALIASES),
                            help="affinity scheme (default: default)")
    run_parser.add_argument("--lock", default=None,
                            help="MPI lock sub-layer (sysv/usysv/pthread)")
    run_parser.add_argument("--json", metavar="FILE", default=None,
                            help="write counter snapshot + derived metrics "
                                 "as JSON")
    run_parser.add_argument("--trace", metavar="FILE", default=None,
                            help="write Chrome trace-event JSON of the op "
                                 "timeline (forces an uncached run)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="bypass the content-addressed result cache")
    run_parser.add_argument("--faults", metavar="FILE", default=None,
                            help="inject machine faults from a JSON fault "
                                 "plan (profiled under a distinct cache "
                                 "key; counters gain mpi_retries/dropped/"
                                 "duplicated and numa_fallback_pages)")
    run_parser.add_argument("--tier", choices=("fast", "exact", "auto"),
                            default=None,
                            help="execution tier; profiling needs the "
                                 "engine, so 'fast' fails with a clear "
                                 "error and 'auto' falls back to exact "
                                 "(--trace always runs exact)")
    run_parser.set_defaults(func=_run)

    validate_parser = sub.add_parser(
        "validate", help="cross-check counters against table values")
    validate_parser.add_argument("--system", default="longs")
    validate_parser.set_defaults(func=_validate)

    list_parser = sub.add_parser("list", help="available names")
    list_parser.set_defaults(func=_list)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    from ..telemetry import ledger as run_ledger
    from ..telemetry.log import configure_logging

    configure_logging(-1 if args.quiet else args.verbose)
    if getattr(args, "no_cache", False):
        result_cache.configure(enabled=False)

    recorder = None
    if args.ledger or args.ledger_dir or run_ledger.env_configured():
        recorder = run_ledger.RunRecorder(tool="prof", argv=argv).start()
    try:
        status = args.func(args)
    finally:
        if recorder is not None:
            recorder.stop()
    if recorder is not None and status == 0:
        record = recorder.finish(
            config={"command": args.command,
                    "tier": getattr(args, "tier", None) or "exact",
                    "cell": recorder.extra.get("cell")})
        path = run_ledger.append(record, args.ledger_dir)
        print(f"[run {record['run_id']} recorded to {path}]",
              file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
