"""``repro-bench doctor``: diagnose and repair on-disk state.

The bench pipeline persists two things between runs — the
content-addressed result cache and the append-only run ledger — and
both are written by processes that can die mid-write (the whole point
of the fault-injection subsystem is to exercise that).  The doctor
walks both stores and reports:

* **torn ledger lines** — a crashed writer's partial JSONL record
  (``--fix`` rewrites the ledger keeping only parseable records, with
  a ``.bak`` of the original);
* **corrupt cache entries** — files that fail to parse, carry another
  schema (a schema-2 JSON entry included), or whose stored checksum
  does not match their payload (``--fix`` quarantines them to
  ``*.corrupt`` so the cell recomputes);
* **stale temp files** — ``*.tmp`` droppings from writers that died
  between creating one and ``os.replace`` (``--fix`` deletes them);
* **quarantined entries** — previously quarantined ``*.corrupt`` files
  awaiting inspection (``--fix`` deletes them);
* **stale cluster state** — a ``.repro/cluster.json`` left behind by a
  crashed ``cluster up``: every recorded pid and endpoint is
  liveness-probed, and ``--fix`` prunes dead entries (or removes the
  file outright when nothing recorded is still alive).

Exit status: 0 when the stores are healthy (or everything found was
fixed), 1 when problems remain.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from . import ledger

__all__ = ["check_cache_dir", "check_cluster_state", "main"]


def check_cache_dir(directory: Path, fix: bool = False) -> Dict[str, Any]:
    """Validate every cache entry under ``directory``.

    Returns counts of entries checked, corrupt entries (quarantined
    when ``fix``), stale temp files (deleted when ``fix``), and
    pre-existing quarantined files (deleted when ``fix``).
    """
    from ..core.cache import parse_entry

    summary: Dict[str, Any] = {"path": str(directory), "entries": 0,
                               "corrupt": [], "stale_tmp": 0,
                               "quarantined": 0}
    if not directory.is_dir():
        return summary
    for path in sorted(directory.rglob("*.tmp")):
        summary["stale_tmp"] += 1
        if fix:
            try:
                path.unlink()
            except OSError:
                pass
    for path in sorted(directory.rglob("*.corrupt")):
        summary["quarantined"] += 1
        if fix:
            try:
                path.unlink()
            except OSError:
                pass
    for path in sorted(directory.rglob("*.json")):
        summary["entries"] += 1
        try:
            parse_entry(path.read_bytes())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            summary["corrupt"].append({"file": str(path), "reason": str(exc)})
            if fix:
                try:
                    path.replace(path.with_suffix(path.suffix + ".corrupt"))
                except OSError:
                    pass
    return summary


def _default_cache_dir() -> Path:
    from ..core.cache import default_cache

    return default_cache().directory


def check_cluster_state(path: str, fix: bool = False) -> Dict[str, Any]:
    """Liveness-check a cluster state file; prune it with ``fix``.

    Returns ``{"path", "present", "dead", "alive", "pruned",
    "deleted_file"}`` — ``dead`` lists entries whose endpoint *and*
    pid are both gone (the staleness the fix removes).
    """
    from ..cluster.manager import probe_state, prune_state, read_state

    summary: Dict[str, Any] = {"path": path, "present": False,
                               "dead": [], "alive": [],
                               "pruned": [], "deleted_file": False}
    try:
        state = read_state(path)
    except (OSError, ValueError):
        return summary
    summary["present"] = True
    report = probe_state(state)
    entries = dict(report["shards"])
    entries["router"] = report["router"]
    for name in sorted(entries):
        entry = entries[name]
        if entry["alive"] or entry["pid_alive"]:
            summary["alive"].append(name)
        else:
            summary["dead"].append(name)
    if fix and summary["dead"]:
        outcome = prune_state(path, state, report)
        summary["pruned"] = outcome["removed"]
        summary["deleted_file"] = outcome["deleted_file"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench doctor",
        description="Diagnose (and with --fix repair) the result cache "
                    "and the run ledger.",
    )
    parser.add_argument("--fix", action="store_true",
                        help="repair what the scan finds: rewrite torn "
                             "ledger lines away, quarantine corrupt cache "
                             "entries, sweep stale temp files")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger location (default: .repro/ledger, "
                             "or $REPRO_LEDGER_DIR)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache location (default: "
                             "$REPRO_BENCH_CACHE_DIR or "
                             "~/.cache/repro-bench)")
    parser.add_argument("--state", metavar="PATH",
                        default=".repro/cluster.json",
                        help="cluster state file to liveness-check "
                             "(default: .repro/cluster.json)")
    args = parser.parse_args(argv)

    problems = 0
    fixed = 0

    if args.fix:
        ledger_report = ledger.repair(args.ledger_dir)
    else:
        ledger_report = ledger.scan(args.ledger_dir)
    torn = len(ledger_report["torn_lines"])
    print(f"ledger {ledger_report['path']}: {ledger_report['records']} "
          f"record(s), {torn} torn line(s)")
    if torn:
        problems += torn
        if ledger_report.get("repaired"):
            fixed += torn
            print(f"  repaired; original kept at {ledger_report['backup']}")
        else:
            print(f"  torn lines: "
                  f"{', '.join(map(str, ledger_report['torn_lines']))} "
                  "(rerun with --fix to rewrite)")

    cache_dir = Path(args.cache_dir) if args.cache_dir \
        else _default_cache_dir()
    cache_report = check_cache_dir(cache_dir, fix=args.fix)
    corrupt = len(cache_report["corrupt"])
    print(f"cache {cache_report['path']}: {cache_report['entries']} "
          f"entr(ies), {corrupt} corrupt, "
          f"{cache_report['stale_tmp']} stale temp file(s), "
          f"{cache_report['quarantined']} quarantined")
    for item in cache_report["corrupt"]:
        print(f"  corrupt: {Path(item['file']).name} ({item['reason']})")
    problems += corrupt + cache_report["stale_tmp"]
    if args.fix:
        fixed += corrupt + cache_report["stale_tmp"]

    cluster_report = check_cluster_state(args.state, fix=args.fix)
    if cluster_report["present"]:
        dead = len(cluster_report["dead"])
        print(f"cluster state {cluster_report['path']}: "
              f"{len(cluster_report['alive'])} live entr(ies), "
              f"{dead} dead")
        if dead:
            problems += dead
            print(f"  dead: {', '.join(cluster_report['dead'])}")
            if cluster_report["deleted_file"]:
                fixed += dead
                print("  nothing recorded is alive; state file removed")
            elif cluster_report["pruned"]:
                fixed += len(cluster_report["pruned"])
                print(f"  pruned: {', '.join(cluster_report['pruned'])}")
            elif not args.fix:
                print("  (rerun with --fix to prune)")

    if problems == 0:
        print("ok: stores are healthy")
        return 0
    if fixed >= problems:
        print(f"fixed {fixed} problem(s)")
        return 0
    print(f"{problems - fixed} problem(s) remain (use --fix)",
          file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
