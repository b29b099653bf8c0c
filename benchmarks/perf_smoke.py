#!/usr/bin/env python
"""Perf smoke for the bench pipeline: cold vs warm ``repro-bench fidelity``.

Runs the fidelity target twice against a throwaway cache directory:

* the **cold** run simulates every table cell and populates the
  content-addressed disk cache;
* the **warm** run must be served almost entirely from that cache.

Fails (exit 1) when the cold time regresses more than
``regression_factor`` over the committed baseline
(``fidelity_baseline.json``), or when the warm run is not at least
``min_warm_speedup`` times faster than the cold one — the cache's
reason to exist.

It then runs ``repro-bench all --tier fast`` cold and warm on a second
throwaway cache, the warm run recorded to a throwaway run ledger, and
fails when the warm stdout differs from the cold stdout or when the
warm run stored any result: a warm run must serve every cell from the
cache.  Its misses are the paper's infeasible (dash) cells, which are
never stored, so the gate counts stores rather than misses.

Usage::

    python benchmarks/perf_smoke.py                    # check
    python benchmarks/perf_smoke.py --update-baseline  # re-measure
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).with_name("fidelity_baseline.json")


def run_bench(cache_dir: str, *args: str) -> Tuple[float, str]:
    """Wall time and stdout of one ``repro-bench ARGS`` on ``cache_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_BENCH_CACHE_DIR"] = cache_dir
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.cli", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"repro-bench {' '.join(args)} failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.exit(proc.returncode)
    return elapsed, proc.stdout


def check_warm_all() -> List[str]:
    """Failures of a warm ``repro-bench all --tier fast`` versus a cold one."""
    args = ("all", "--tier", "fast")
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        cache = os.path.join(tmp, "cache")
        ledger = os.path.join(tmp, "ledger")
        cold_s, cold = run_bench(cache, *args)
        warm_s, warm = run_bench(cache, *args, "--ledger-dir", ledger)
        with open(os.path.join(ledger, "ledger.jsonl")) as handle:
            stats = json.loads(handle.read().splitlines()[-1])["cache"]
    print(f"all --tier fast: cold {cold_s:5.1f}s, warm {warm_s:5.1f}s "
          f"({stats['misses']} misses, {stats['stores']} stores)")
    failures = []
    if warm != cold:
        failures.append("warm `all --tier fast` stdout differs from cold")
    if stats["stores"]:
        failures.append(f"warm `all --tier fast` computed and stored "
                        f"{stats['stores']} result(s)")
    return failures


def main() -> int:
    update = "--update-baseline" in sys.argv[1:]
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        cold, _ = run_bench(tmp, "fidelity")
        warm, _ = run_bench(tmp, "fidelity")
    speedup = cold / warm if warm > 0 else float("inf")
    print(f"cold: {cold:7.1f}s")
    print(f"warm: {warm:7.1f}s  ({speedup:.0f}x speedup)")

    if update or not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps({
            "target": "fidelity",
            "cold_seconds": round(cold, 1),
            "warm_seconds": round(warm, 1),
            "regression_factor": 2.0,
            "min_warm_speedup": 5.0,
        }, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    limit = baseline["cold_seconds"] * baseline.get("regression_factor", 2.0)
    min_speedup = baseline.get("min_warm_speedup", 5.0)
    failures = check_warm_all()
    if cold > limit:
        failures.append(
            f"cold run {cold:.1f}s exceeds {limit:.1f}s "
            f"({baseline['regression_factor']}x of the "
            f"{baseline['cold_seconds']}s baseline)")
    if speedup < min_speedup:
        failures.append(
            f"warm speedup {speedup:.1f}x below the required "
            f"{min_speedup}x (cache not effective)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"ok: within {baseline.get('regression_factor', 2.0)}x of "
              f"baseline, cache speedup >= {min_speedup}x")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
