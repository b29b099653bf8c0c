"""``repro-bench regress``: gate the latest run against a rolling baseline.

The gate reads the :mod:`run ledger <repro.telemetry.ledger>` and
compares the newest bench record against the median of up to
``--window`` earlier *comparable* runs — same config hash, and the same
cache class (a run is **cold** when disk-cache misses outnumber disk
hits — memory hits are intra-run coalescing, not warmth — else
**warm**; comparing a warm rerun against a cold baseline would declare
a meaningless 40x "speedup" and the reverse a spurious regression).

Three thresholded checks, any failure exits non-zero:

* **fidelity** — a paper table's rank correlation dropping more than
  ``RANK_CORRELATION_DROP`` below the baseline median (fidelity is
  deterministic, so this compares against every prior scored run, not
  just the same cache class);
* **slowdown** — total wall time exceeding the baseline by more than
  ``SLOWDOWN_FACTOR`` (and ``SLOWDOWN_FLOOR_S``, to ignore timer noise
  on fast warm runs), or any individual target with a baseline of at
  least ``TARGET_FLOOR_S`` slowing down by the same factor;
* **cache collapse** — a warm run's hit rate falling below half of the
  baseline hit rate.

``--inject-slowdown``/``--inject-fidelity-drop`` perturb the candidate
*in memory* before evaluation; CI uses them to prove the gate actually
trips.  ``--export`` writes the ``BENCH_history.json`` trajectory
summary (committed at the repo root).
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import ledger

__all__ = [
    "RANK_CORRELATION_DROP",
    "SLOWDOWN_FACTOR",
    "HIT_RATE_COLLAPSE",
    "REPLAY_P99_FACTOR",
    "REPLAY_P99_FLOOR_MS",
    "evaluate",
    "excluded_from_baseline",
    "export_history",
    "main",
    "run_class",
]

#: fail when a table's rank correlation drops more than this
RANK_CORRELATION_DROP = 0.05
#: fail when wall time exceeds baseline * factor ...
SLOWDOWN_FACTOR = 1.25
#: ... and by at least this many absolute seconds (timer-noise floor)
SLOWDOWN_FLOOR_S = 0.2
#: per-target gating only for targets at least this slow in baseline
TARGET_FLOOR_S = 0.5
#: fail when a warm run's hit rate falls below baseline * this
HIT_RATE_COLLAPSE = 0.5
#: fail when a replay run's p99 latency exceeds baseline * factor ...
REPLAY_P99_FACTOR = 2.0
#: ... and by at least this many absolute milliseconds (noise floor)
REPLAY_P99_FLOOR_MS = 10.0
#: rolling-baseline width
DEFAULT_WINDOW = 5


def run_class(record: Dict[str, Any]) -> str:
    """``"cold"`` when the run had to simulate, ``"warm"`` when it replayed.

    Classified from the cache-tier deltas, not the raw hit rate: a cold
    sweep coalesces duplicate cells into *memory* hits (the 142 s
    seed-cold run scored a 0.54 hit rate that way) while still missing
    every unique cell on disk, so the tier that distinguishes the two is
    the persistent one — a run is warm only when disk hits cover at
    least as many lookups as misses.  Records without tier counters
    (older schema) fall back to the overall-rate heuristic.
    """
    cache = record.get("cache") or {}
    misses = cache.get("misses")
    if isinstance(misses, (int, float)) and (
            "disk_hits" in cache or "memory_hits" in cache):
        disk_hits = cache.get("disk_hits") or 0
        return "cold" if misses > disk_hits else "warm"
    rate = ledger.hit_rate(record)
    if rate is None or rate < 0.5:
        return "cold"
    return "warm"


def excluded_from_baseline(record: Dict[str, Any]) -> Optional[str]:
    """Why a record cannot anchor (or be judged against) a baseline.

    Aborted runs carry partial timings; fault-injected runs describe a
    deliberately degraded machine.  Comparing either against healthy
    runs would report injected damage as a regression (or mask a real
    one), so both are excluded.  Returns the reason, or ``None`` for a
    normal record.
    """
    if record.get("status") == "aborted":
        return "aborted"
    if record.get("faults"):
        return "fault-injected"
    return None


def _median(values: List[float]) -> float:
    return statistics.median(values)


def _target_seconds(record: Dict[str, Any]) -> Dict[str, float]:
    return {t["name"]: t["seconds"] for t in record.get("targets") or []
            if isinstance(t, dict) and "seconds" in t}


def _fidelity_rhos(record: Dict[str, Any]) -> Dict[str, float]:
    out = {}
    for table, scores in (record.get("fidelity") or {}).items():
        rho = scores.get("rank_correlation")
        if rho is not None:
            out[table] = rho
    return out


def evaluate(records: List[Dict[str, Any]],
             window: int = DEFAULT_WINDOW,
             inject_slowdown: Optional[float] = None,
             inject_fidelity_drop: Optional[float] = None,
             ) -> Tuple[Dict[str, Any], List[str], List[str]]:
    """Judge the newest bench record against its rolling baseline.

    Returns ``(summary, failures, notes)``; an empty ``failures`` list
    means the gate passes.  Raises :class:`ValueError` when the ledger
    holds no bench records at all.
    """
    bench = [r for r in records
             if r.get("tool") in ("bench", "serve", "cluster", "replay")]
    if not bench:
        raise ValueError(
            "ledger holds no bench, serve, cluster or replay records")
    candidate = copy.deepcopy(bench[-1])
    previous = [r for r in bench[:-1] if excluded_from_baseline(r) is None]
    failures: List[str] = []
    notes: List[str] = []

    reason = excluded_from_baseline(candidate)
    if reason is not None:
        notes.append(f"candidate is {reason}; all gates skipped "
                     "(such runs never anchor baselines either)")
        summary = {
            "run_id": candidate.get("run_id"),
            "class": run_class(candidate),
            "elapsed_s": candidate.get("elapsed_s"),
            "hit_rate": ledger.hit_rate(candidate),
            "baseline_runs": [],
            "fidelity_baseline_runs": [],
        }
        return summary, failures, notes

    if inject_slowdown:
        candidate["elapsed_s"] = candidate.get("elapsed_s", 0.0) \
            * inject_slowdown
        for target in candidate.get("targets") or []:
            target["seconds"] = target.get("seconds", 0.0) * inject_slowdown
        notes.append(f"injected synthetic slowdown x{inject_slowdown:g}")
    if inject_fidelity_drop:
        for scores in (candidate.get("fidelity") or {}).values():
            if scores.get("rank_correlation") is not None:
                scores["rank_correlation"] -= inject_fidelity_drop
        notes.append("injected synthetic fidelity drop "
                     f"-{inject_fidelity_drop:g}")

    klass = run_class(candidate)
    comparable = [r for r in previous
                  if r.get("config_hash") == candidate.get("config_hash")
                  and run_class(r) == klass]
    baseline = comparable[-window:]

    # -- slowdown ----------------------------------------------------------
    if baseline:
        base_total = _median([r.get("elapsed_s", 0.0) for r in baseline])
        total = candidate.get("elapsed_s", 0.0)
        if (total > base_total * SLOWDOWN_FACTOR
                and total - base_total > SLOWDOWN_FLOOR_S):
            failures.append(
                f"slowdown: {klass} run took {total:.2f}s vs "
                f"{base_total:.2f}s baseline "
                f"(> x{SLOWDOWN_FACTOR:g} + {SLOWDOWN_FLOOR_S}s)")
        base_targets: Dict[str, List[float]] = {}
        for record in baseline:
            for name, seconds in _target_seconds(record).items():
                base_targets.setdefault(name, []).append(seconds)
        for name, seconds in _target_seconds(candidate).items():
            if name not in base_targets:
                continue
            base = _median(base_targets[name])
            if base >= TARGET_FLOOR_S and seconds > base * SLOWDOWN_FACTOR:
                failures.append(
                    f"slowdown: target {name} took {seconds:.2f}s vs "
                    f"{base:.2f}s baseline (> x{SLOWDOWN_FACTOR:g})")
    else:
        notes.append(f"no comparable {klass}-class baseline; "
                     "timing and cache gates skipped")

    # -- cache hit-rate collapse ------------------------------------------
    if baseline and klass == "warm":
        base_rates = [r for r in (ledger.hit_rate(b) for b in baseline)
                      if r is not None]
        rate = ledger.hit_rate(candidate)
        if base_rates and rate is not None:
            base_rate = _median(base_rates)
            if base_rate >= 0.5 and rate < base_rate * HIT_RATE_COLLAPSE:
                failures.append(
                    f"cache collapse: hit rate {rate:.2f} vs "
                    f"{base_rate:.2f} baseline "
                    f"(< x{HIT_RATE_COLLAPSE:g})")

    # -- replay latency / zero-loss ---------------------------------------
    replay = candidate.get("replay") or {}
    if replay:
        if replay.get("errors"):
            failures.append(
                f"replay: {replay['errors']} request(s) failed — the "
                "cluster's zero-accepted-job-loss guarantee did not hold")
        # a replay with zero completed requests reports p99 = 0.0 (the
        # percentile of an empty latency list), which would make any
        # healthy run look like an unbounded regression if it anchored
        # the baseline — and would let a fully-failed candidate sail
        # through the latency gate; skip such records on both sides
        base_p99 = [b["replay"]["latency_p99_ms"] for b in baseline
                    if (b.get("replay") or {}).get("ok")
                    and (b.get("replay") or {}).get("latency_p99_ms")
                    is not None]
        if not replay.get("ok"):
            p99 = None
            notes.append("replay completed zero requests; p99 latency "
                         "gate skipped (the zero-loss gate still "
                         "applies)")
        else:
            p99 = replay.get("latency_p99_ms")
        if base_p99 and p99 is not None:
            base = _median(base_p99)
            if (p99 > base * REPLAY_P99_FACTOR
                    and p99 - base > REPLAY_P99_FLOOR_MS):
                failures.append(
                    f"replay: p99 latency {p99:.1f}ms vs {base:.1f}ms "
                    f"baseline (> x{REPLAY_P99_FACTOR:g} + "
                    f"{REPLAY_P99_FLOOR_MS:g}ms)")
        elif p99 is not None and not base_p99:
            notes.append("no comparable replay baseline; "
                         "p99 latency gate skipped")

    # -- fidelity ----------------------------------------------------------
    scored = [r for r in previous if _fidelity_rhos(r)][-window:]
    cand_rhos = _fidelity_rhos(candidate)
    if not cand_rhos:
        notes.append("candidate has no fidelity scores "
                     "(run the 'fidelity' target to gate agreement)")
    elif not scored:
        notes.append("no earlier fidelity scores; fidelity gate skipped")
    else:
        for table, rho in sorted(cand_rhos.items()):
            history = [r for r in (_fidelity_rhos(b).get(table)
                                   for b in scored) if r is not None]
            if not history:
                continue
            base_rho = _median(history)
            if rho < base_rho - RANK_CORRELATION_DROP:
                failures.append(
                    f"fidelity: {table} rank correlation {rho:.3f} vs "
                    f"{base_rho:.3f} baseline "
                    f"(drop > {RANK_CORRELATION_DROP:g})")

    summary = {
        "run_id": candidate.get("run_id"),
        "class": klass,
        "elapsed_s": candidate.get("elapsed_s"),
        "hit_rate": ledger.hit_rate(candidate),
        "baseline_runs": [r.get("run_id") for r in baseline],
        "fidelity_baseline_runs": [r.get("run_id") for r in scored],
    }
    return summary, failures, notes


def _run_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    rhos = _fidelity_rhos(record)
    rate = ledger.hit_rate(record)
    return {
        "run_id": record.get("run_id"),
        "started_at": record.get("started_at"),
        "tool": record.get("tool"),
        "git_sha": record.get("git_sha"),
        "class": run_class(record),
        "elapsed_s": record.get("elapsed_s"),
        "targets": len(record.get("targets") or []),
        "cache_hit_rate": None if rate is None else round(rate, 4),
        "trace_dropped": record.get("trace_dropped"),
        "fidelity_mean_rank_correlation":
            round(sum(rhos.values()) / len(rhos), 4) if rhos else None,
    }


def export_history(records: List[Dict[str, Any]],
                   summary: Dict[str, Any],
                   failures: List[str],
                   notes: List[str],
                   path: str) -> None:
    """Write the ``BENCH_history.json`` trajectory summary."""
    verdict = "regression" if failures else (
        "ok" if summary.get("baseline_runs")
        or summary.get("fidelity_baseline_runs") else "no-baseline")
    payload = {
        "schema": 1,
        "gates": {
            "rank_correlation_drop": RANK_CORRELATION_DROP,
            "slowdown_factor": SLOWDOWN_FACTOR,
            "slowdown_floor_s": SLOWDOWN_FLOOR_S,
            "hit_rate_collapse": HIT_RATE_COLLAPSE,
            "replay_p99_factor": REPLAY_P99_FACTOR,
            "replay_p99_floor_ms": REPLAY_P99_FLOOR_MS,
            "window": DEFAULT_WINDOW,
        },
        "runs": [_run_summary(r) for r in records],
        "latest": summary,
        "verdict": verdict,
        "failures": failures,
        "notes": notes,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench regress",
        description="Compare the latest recorded bench run against its "
                    "rolling baseline and fail on regressions.",
    )
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger location (default: .repro/ledger, "
                             "or $REPRO_LEDGER_DIR)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        metavar="N", help="rolling-baseline width "
                                          f"(default: {DEFAULT_WINDOW})")
    parser.add_argument("--export", metavar="FILE", default=None,
                        help="also write a BENCH_history.json summary")
    parser.add_argument("--inject-slowdown", type=float, default=None,
                        metavar="FACTOR",
                        help="scale the candidate's wall times by FACTOR "
                             "before gating (gate self-test)")
    parser.add_argument("--inject-fidelity-drop", type=float, default=None,
                        metavar="DELTA",
                        help="subtract DELTA from the candidate's rank "
                             "correlations before gating (gate self-test)")
    args = parser.parse_args(argv)

    records = ledger.read_records(args.ledger_dir)
    try:
        summary, failures, notes = evaluate(
            records, window=max(1, args.window),
            inject_slowdown=args.inject_slowdown,
            inject_fidelity_drop=args.inject_fidelity_drop)
    except ValueError as exc:
        print(f"regress: {exc} under "
              f"{ledger.ledger_dir(args.ledger_dir)} "
              "(run repro-bench with --ledger first)", file=sys.stderr)
        return 2

    print(f"candidate: {summary['run_id']} ({summary['class']}, "
          f"{summary['elapsed_s']:.2f}s)")
    if summary["baseline_runs"]:
        print(f"baseline:  median of {len(summary['baseline_runs'])} "
              f"comparable run(s)")
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok: no regressions against the rolling baseline")
    if args.export:
        export_history(records, summary, failures, notes, args.export)
        print(f"[history summary written to {args.export}]")
    return 1 if failures else 0
