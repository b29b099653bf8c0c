"""End-to-end and per-layer benchmark of the repro harness.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --seed 1                # all workloads
    python3 benchmarks/e2e/run.py --workload serve-daemon --seed 3 \\
        --seconds 20 --trace 0                            # one workload
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --trace-dir DIR
    python3 benchmarks/e2e/run.py --seed 1 --runs 5 --json OUT.json
    python3 benchmarks/e2e/run.py --compare PARENT.json CHANGE.json
    python3 benchmarks/e2e/run.py --smoke                 # ~1/10 size

Every metric is printed as ``workload metric value unit (n=...)``; the
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` without tracing, its ``per_layer`` metrics with
``--trace 1``.  Each workload runs in a process of its own on a fresh
working directory under ``.bench_work/``.

``--trace 1`` runs each workload twice, each for half the time: once
untraced, once with the span hooks on ``PYTHONPATH``; the per-layer
budget goes to ``DIR/layers.json``.  End-to-end numbers only ever come
from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(ROOT, ".bench_work")
#: a workload process that runs longer than this is killed and failed;
#: a traced run starts two, and must end within 180 s
CHILD_TIMEOUT_S = 80.0

sys.path.insert(0, HERE)
import spans  # noqa: E402
import stats  # noqa: E402


def load_catalog() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _stop_group(pgid: int) -> None:
    """Kill a workload's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except OSError:
            return
        time.sleep(0.05)


def run_workload(name: str, args, seconds: float, setup_reps: int,
                 minimum: int, trace_dir: Optional[str] = None
                 ) -> Dict[str, Any]:
    """One workload in its own process group and working directory."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    os.makedirs(os.path.join(work, "tmp"))
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    path = [os.path.join(ROOT, "src")]
    if trace_dir is not None:
        path.append(os.path.join(HERE, "hooks"))
        env[spans.ENV_DIR] = trace_dir
        env[spans.ENV_RUN] = os.path.basename(work)
    env["PYTHONPATH"] = os.pathsep.join(
        path + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_BENCH_CACHE_DIR"] = os.path.join(work, "cache")
    env["TMPDIR"] = os.path.join(work, "tmp")
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--work", work, "--setup-reps", str(setup_reps),
            "--minimum", str(minimum)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        stdout, stderr = proc.communicate()
        stderr += b"\nworkload timed out"
    finally:
        _stop_group(proc.pid)
    lines = stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        print(f"[{name}: workload process failed; kept {work}]\n"
              + "\n".join(tail), file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1,
                "gates": ["workload process failed"], "digest": "",
                "window_s": 0.0, "host_slowdown": 0.0, "metrics": {},
                "counters": {}}
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"[{name}: {'; '.join(result['gates']) or 'failed ops'}; "
              f"kept {work}]", file=sys.stderr)
    return result


def measure(name: str, args, catalog: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end metrics of one workload, plus the layer budget when
    tracing."""
    units = {m["name"]: m["unit"]
             for m in catalog["end_to_end"] + catalog["per_layer"]}
    reps = 1 if args.smoke else 3
    minimum = 1 if args.smoke else 2
    if not args.trace:
        result = run_workload(name, args, args.seconds, reps, minimum)
    else:
        half = args.seconds / 2.0
        result = run_workload(name, args, half, 1, 1)
        trace_dir = os.path.join(args.trace_dir, name)
        shutil.rmtree(trace_dir, ignore_errors=True)
        traced = run_workload(name, args, half, 0, 1, trace_dir)
        recorded = spans.load(trace_dir)
        layers = spans.layer_metrics(recorded, traced["counters"])
        rates = [side["metrics"].get("results_per_s", {}).get("value", 0.0)
                 for side in (result, traced)]
        layers["trace.overhead_ratio"] = \
            rates[0] / rates[1] if rates[1] else 0.0
        result["metrics"].update((key, {"value": value})
                                 for key, value in layers.items())
        result["budget"] = {"wall_s": traced["window_s"],
                            "layers": spans.layer_table(recorded)}
        for key in ("attempted", "failed"):
            result[key] += traced[key]
        result["correct"] = result["correct"] and traced["correct"]
        result["gates"] += traced["gates"]
    for key, entry in result["metrics"].items():
        entry["unit"] = units.get(key, "")
    return result


def _line(name: str, metric: str, entry: Dict[str, Any]) -> str:
    extra = []
    if "n" in entry:
        extra.append(f"n={entry['n']}")
    if "note" in entry:
        extra.append(entry["note"])
    suffix = f" ({', '.join(extra)})" if extra else ""
    return f"{name} {metric} {entry['value']:.6g} {entry['unit']}{suffix}"


def run_all(args, catalog: Dict[str, Any]) -> int:
    names = args.workload or [w["name"] for w in catalog["workloads"]]
    wanted = [m["name"] for m in catalog["per_layer" if args.trace
                                         else "end_to_end"]]
    runs: List[Dict[str, Any]] = []
    for _ in range(args.runs):
        run = {}
        for name in names:
            run[name] = measure(name, args, catalog)
            for metric, entry in sorted(run[name]["metrics"].items()):
                print(_line(name, metric, entry), flush=True)
            print(f"{name} correct={run[name]['correct']} "
                  f"attempted={run[name]['attempted']} "
                  f"failed={run[name]['failed']} "
                  f"host_slowdown={run[name]['host_slowdown']:.3f} "
                  f"sha256={run[name]['digest']}", flush=True)
        runs.append(run)
    if args.trace:
        last = runs[-1]
        budget = {name: dict(last[name]["budget"], metrics={
            metric: last[name]["metrics"][metric]["value"]
            for metric in wanted if metric in last[name]["metrics"]})
            for name in names}
        os.makedirs(args.trace_dir, exist_ok=True)
        with open(os.path.join(args.trace_dir, "layers.json"), "w") as out:
            json.dump(budget, out, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as out:
            json.dump({"schema": 1, "seed": args.seed,
                       "seconds": args.seconds, "smoke": args.smoke,
                       "trace": args.trace, "runs": runs}, out, indent=1,
                      sort_keys=True)

    def summary(name: str) -> Dict[str, Any]:
        values = {}
        for metric in wanted:
            samples = [run[name]["metrics"][metric]["value"] for run in runs
                       if metric in run[name]["metrics"]]
            if samples:
                values[metric] = {"value": statistics.median(samples),
                                  "unit": runs[0][name]["metrics"][metric]
                                  ["unit"]}
        return values

    correct = all(run[n]["correct"] and all(m in run[n]["metrics"]
                                            for m in wanted)
                  for run in runs for n in names)
    final = {"correct": correct,
             "attempted": sum(run[n]["attempted"] for run in runs
                              for n in names),
             "failed": sum(run[n]["failed"] for run in runs for n in names),
             "metrics": summary(names[0]) if len(names) == 1
             else {name: summary(name) for name in names}}
    print(json.dumps(final, sort_keys=True))
    return 0 if correct else 1


def run_compare(paths: List[str], catalog: Dict[str, Any]) -> int:
    sides = []
    for path in paths:
        with open(path) as handle:
            sides.append([{w: {m: e["value"] for m, e in r["metrics"].items()}
                           for w, r in run.items()}
                          for run in json.load(handle)["runs"]])
    rows = stats.compare(sides[0], sides[1], catalog["end_to_end"])
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['workload']} {row['metric']}: "
              f"{p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}] -> "
              f"{c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] {row['unit']}, "
              f"won {row['won']}/{row['pairs']}, lost {row['lost']}, "
              f"worse by {100 * row['worse_by']:+.1f}% "
              f"(bound {100 * row['bound']:.0f}%), "
              f"spread {100 * row['spread']:.1f}%: {row['verdict']}")
    verdicts = [row["verdict"] for row in rows]
    print(json.dumps({word: verdicts.count(word) for word in
                      ("improved", "no worse", "regressed", "unresolved")},
                     sort_keys=True))
    return 1 if "regressed" in verdicts else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the repro "
                    "harness.")
    parser.add_argument("--workload", action="append", default=None,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and report per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", default=os.path.join(WORK, "trace"),
                        help="where spans and layers.json go")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this many times")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write every run's metrics to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="about a tenth of each workload")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --json files under the bounds "
                             "of BENCHMARK.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro source tree under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    catalog = load_catalog()
    if args.compare:
        return run_compare(args.compare, catalog)
    known = [w["name"] for w in catalog["workloads"]]
    for name in args.workload or []:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(known)}")
    if args.seconds is None:
        args.seconds = float(catalog["run_seconds"])
    if args.smoke:
        args.seconds = min(args.seconds, 2.0)
    args.trace_dir = os.path.abspath(args.trace_dir)
    return run_all(args, catalog)


if __name__ == "__main__":
    sys.exit(main())
