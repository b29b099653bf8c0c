"""``repro-bench trace``: reconstruct distributed traces from the ledger.

``trace export <trace_id>`` gathers every ``trace_spans`` entry with
that id across all recorded runs — the router's ``tool="cluster"``
record, each shard's ``tool="serve"`` record, a client's ``replay``
record — and merges them into one Chrome trace-event JSON (built by
:func:`~.tracing.chrome_trace`, which also renders the simulated ranks
of :mod:`repro.core.timeline`), so a single request can be read hop by
hop: ``router_forward`` → ``service_submit`` → ``session_job`` →
``worker_batch``.  ``trace list`` inventories the trace ids the ledger
knows about.

Spans carry wall-clock start times (``t0``), so stitching across
processes needs no clock agreement beyond the machine's own clock —
fine for the single-host clusters the manager launches.  Records are
written at daemon shutdown: export after ``cluster down`` (or after
the daemons exited) — or pass ``--connect`` to also scrape a still-
running daemon's buffered spans via the side-effect-free ``trace`` op.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..service import cliargs
from . import ledger, tracing

__all__ = ["collect_live_record", "collect_spans", "list_traces", "main",
           "to_chrome_trace"]


def collect_live_record(address: str, trace_id: Optional[str] = None,
                        timeout: float = cliargs.DEFAULT_TIMEOUT_S
                        ) -> Dict[str, Any]:
    """Scrape a live daemon's buffered spans via the ``trace`` op.

    Daemons only flush trace spans to the ledger at shutdown; this asks
    a running one (``--connect``) for what it is still holding.  The
    result is shaped like a ledger record (``tool``/``trace_spans``) so
    it can feed :func:`collect_spans`/:func:`list_traces` as an
    *extra_records* entry.
    """
    from ..service.transport import request
    message: Dict[str, Any] = {"op": "trace"}
    if trace_id is not None:
        message["trace_id"] = trace_id
    response = request(cliargs.parse_address(address), message,
                       timeout=timeout)
    if response.get("status") != "ok":
        raise RuntimeError(
            f"trace scrape failed [{response.get('code')}]: "
            f"{response.get('message')}")
    return {"tool": "live", "run_id": None,
            "session": response.get("session"),
            "trace_spans": [s for s in response.get("spans") or []
                            if isinstance(s, dict)]}


def collect_spans(trace_id: str,
                  ledger_dir: Optional[str] = None,
                  extra_records: Optional[List[Dict[str, Any]]] = None
                  ) -> List[Dict[str, Any]]:
    """Every recorded span of one trace, across all ledger records.

    Each span is annotated with the run it came from (``run_id``,
    ``record_tool``) so the exporter can lay processes out as separate
    tracks.  *extra_records* (e.g. a live scrape from
    :func:`collect_live_record`) are merged in after the ledger.
    """
    spans: List[Dict[str, Any]] = []
    for record in list(ledger.read_records(ledger_dir)) \
            + list(extra_records or []):
        for span in record.get("trace_spans") or []:
            if not isinstance(span, dict) or span.get("trace") != trace_id:
                continue
            entry = dict(span)
            entry["run_id"] = record.get("run_id")
            entry["record_tool"] = record.get("tool")
            session = (span.get("attrs") or {}).get("session")
            entry["proc"] = (session or record.get("session")
                             or record.get("tool") or "unknown")
            spans.append(entry)
    spans.sort(key=lambda s: s.get("t0") or 0.0)
    return spans


def list_traces(ledger_dir: Optional[str] = None,
                extra_records: Optional[List[Dict[str, Any]]] = None
                ) -> List[Dict[str, Any]]:
    """Inventory of recorded trace ids, oldest first."""
    traces: Dict[str, Dict[str, Any]] = {}
    for record in list(ledger.read_records(ledger_dir)) \
            + list(extra_records or []):
        for span in record.get("trace_spans") or []:
            if not isinstance(span, dict) or not span.get("trace"):
                continue
            entry = traces.setdefault(span["trace"], {
                "trace_id": span["trace"], "spans": 0, "names": set(),
                "t0": span.get("t0"), "tools": set()})
            entry["spans"] += span.get("count", 1)
            entry["names"].add(span.get("name"))
            entry["tools"].add(record.get("tool"))
            if span.get("t0") is not None:
                entry["t0"] = min(entry["t0"] or span["t0"], span["t0"])
    ordered = sorted(traces.values(), key=lambda e: e.get("t0") or 0.0)
    for entry in ordered:
        entry["names"] = sorted(n for n in entry["names"] if n)
        entry["tools"] = sorted(t for t in entry["tools"] if t)
    return ordered


def to_chrome_trace(trace_id: str,
                    spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON for one trace's spans.

    One ``pid`` lane per recording process (router, each shard, ...);
    timestamps are wall-clock microseconds relative to the earliest
    span, durations complete ``ph: "X"`` slices.
    """
    t_base = min((s["t0"] for s in spans if s.get("t0") is not None),
                 default=0.0)
    procs: Dict[str, int] = {}
    slices = []
    for span in spans:
        proc = str(span.get("proc") or "unknown")
        pid = procs.setdefault(proc, len(procs))
        args = dict(span.get("attrs") or {})
        args.update({"span": span.get("span"),
                     "parent": span.get("parent"),
                     "run_id": span.get("run_id")})
        if span.get("count", 1) > 1:
            args["aggregated_count"] = span["count"]
        slices.append((
            str(span.get("name") or "span"),
            str(span.get("record_tool") or "trace"), pid, 0,
            round(((span.get("t0") or t_base) - t_base) * 1e6, 3),
            max(round((span.get("dur_s") or 0.0) * 1e6, 3), 1.0), args))
    slices.sort(key=lambda s: s[4])
    return tracing.chrome_trace(slices, procs, trace_id=trace_id)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-bench trace``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Reconstruct distributed request traces from ledger "
                    "span records.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    export = sub.add_parser("export",
                            help="emit one trace as Chrome trace JSON")
    export.add_argument("trace_id", help="the trace id to export")
    export.add_argument("--out", metavar="FILE", default=None,
                        help="output path (default: trace-<id>.json; "
                             "'-' writes to stdout)")
    listing = sub.add_parser("list", help="inventory recorded trace ids")
    listing.add_argument("--last", type=int, default=20, metavar="N",
                         help="show at most the newest N traces")
    for verb in (export, listing):
        verb.add_argument("--ledger-dir", metavar="DIR", default=None,
                          help="ledger location (default: .repro/ledger, "
                               "or $REPRO_LEDGER_DIR)")
        cliargs.add_connect_argument(
            verb, help="also scrape a live daemon's still-buffered "
                       "spans (host:port or socket path)")
        cliargs.add_timeout_argument(verb, default=10.0)
    args = parser.parse_args(argv)

    extra: List[Dict[str, Any]] = []
    if args.connect:
        wanted = args.trace_id if args.verb == "export" else None
        try:
            extra.append(collect_live_record(args.connect, wanted,
                                             timeout=args.timeout))
        except (OSError, RuntimeError, ValueError) as exc:
            print(f"live scrape of {args.connect} failed: {exc}",
                  file=sys.stderr)
            return 1

    if args.verb == "list":
        traces = list_traces(args.ledger_dir, extra_records=extra)
        if not traces:
            print(f"no trace spans recorded under "
                  f"{ledger.ledger_dir(args.ledger_dir)} (submit or "
                  "replay with tracing on, against daemons running with "
                  "--ledger)", file=sys.stderr)
            return 1
        for entry in traces[-max(1, args.last):]:
            print(f"{entry['trace_id']}  {entry['spans']:>3} span(s)  "
                  f"[{', '.join(entry['tools'])}]  "
                  f"{', '.join(entry['names'])}")
        return 0

    spans = collect_spans(args.trace_id, args.ledger_dir,
                          extra_records=extra)
    if not spans:
        print(f"no spans recorded for trace {args.trace_id!r} under "
              f"{ledger.ledger_dir(args.ledger_dir)} — daemons flush "
              "trace spans to the ledger at shutdown ('cluster down' / "
              "'submit --shutdown'), so export after they exit",
              file=sys.stderr)
        return 1
    chrome = to_chrome_trace(args.trace_id, spans)
    payload = json.dumps(chrome, sort_keys=True)
    if args.out == "-":
        print(payload)
        return 0
    out = args.out or f"trace-{args.trace_id}.json"
    with open(out, "w") as handle:
        handle.write(payload + "\n")
    hops = sum(1 for e in chrome["traceEvents"] if e.get("ph") == "X")
    print(f"wrote {out}: {hops} span(s) across "
          f"{len({e['pid'] for e in chrome['traceEvents']})} process(es) "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
