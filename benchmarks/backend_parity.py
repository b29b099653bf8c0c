#!/usr/bin/env python
"""CI gate: every execution backend computes byte-identical results.

Runs the same 8-cell sweep (two systems, four workloads, mixed
affinity schemes) through each of the three backends —

* ``ThreadBackend`` (in-process pool),
* ``ProcessBackend`` (crash-isolated worker processes),
* ``RemoteBackend`` against an in-process daemon shard speaking the
  binary v3 protocol —

each against its own empty cache directory, and diffs the canonical
JSON of the result lists byte for byte.  Any divergence (a backend
leaking into the physics, a wire round-trip dropping float bits, a
cache key picking up backend state) fails the job with a per-cell
diff.

Usage::

    python benchmarks/backend_parity.py [--output parity.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.backends import (  # noqa: E402
    ProcessBackend,
    RemoteBackend,
    ThreadBackend,
)
from repro.core.affinity import AffinityScheme  # noqa: E402
from repro.core.cache import ResultCache  # noqa: E402
from repro.core.parallel import run_requests  # noqa: E402
from repro.service.protocol import handle_request  # noqa: E402
from repro.service.registry import resolve_workload  # noqa: E402
from repro.service.session import Session  # noqa: E402
from repro.service.transport import (  # noqa: E402
    make_server,
    serve_in_thread,
)


def build_cells():
    """The 8-cell parity sweep: all healthy, all wire-expressible."""
    from repro.core.parallel import JobRequest
    from repro.machine import dmz, longs, tiger

    plan = [
        (longs(), "stream", 4, AffinityScheme.DEFAULT),
        (longs(), "stream", 4, AffinityScheme.INTERLEAVE),
        (longs(), "stream", 8, AffinityScheme.DEFAULT),
        (longs(), "dgemm", 4, AffinityScheme.DEFAULT),
        (longs(), "cg", 4, AffinityScheme.DEFAULT),
        (dmz(), "stream", 4, AffinityScheme.DEFAULT),
        (dmz(), "stream", 2, AffinityScheme.INTERLEAVE),
        (tiger(), "stream", 2, AffinityScheme.DEFAULT),
    ]
    return [JobRequest(spec=spec, workload=resolve_workload(name, ntasks),
                       scheme=scheme)
            for spec, name, ntasks, scheme in plan]


def canonical(results) -> str:
    return json.dumps([r.to_dict() if r is not None else None
                       for r in results],
                      sort_keys=True, indent=1)


def run_backend(backend, cache_dir) -> str:
    start = time.perf_counter()
    outcomes = []
    try:
        results = run_requests(build_cells(),
                               cache=ResultCache(directory=cache_dir),
                               jobs=4, backend=backend, outcomes=outcomes)
    finally:
        backend.close()
    failures = [payload for status, payload in outcomes
                if status == "failed"]
    if failures:
        for failure in failures:
            print(f"  failure: {failure.message}", file=sys.stderr)
        raise SystemExit("backend reported failures on healthy cells")
    if any(r is None for r in results):
        raise SystemExit("backend returned a hole for a healthy cell")
    elapsed = time.perf_counter() - start
    return canonical(results), elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write a JSON report (digests, timings)")
    args = parser.parse_args()

    report = {"cells": 8, "backends": {}}
    payloads = {}
    with tempfile.TemporaryDirectory(prefix="repro-parity-") as tmp:
        tmp = Path(tmp)

        payloads["threads"], dt = run_backend(
            ThreadBackend(), tmp / "threads")
        report["backends"]["threads"] = {"seconds": round(dt, 3)}

        payloads["processes"], dt = run_backend(
            ProcessBackend(), tmp / "processes")
        report["backends"]["processes"] = {"seconds": round(dt, 3)}

        shard = Session(name="parity-shard",
                        cache=ResultCache(directory=tmp / "shard"))
        server = make_server(("127.0.0.1", 0),
                             lambda m: handle_request(shard, m))
        serve_in_thread(server, "parity-shard")
        try:
            backend = RemoteBackend(f"127.0.0.1:{server.address[1]}")
            payloads["remote"], dt = run_backend(backend, tmp / "remote")
            report["backends"]["remote"] = {"seconds": round(dt, 3)}
        finally:
            server.shutdown()
            server.close()
            shard.close()

    baseline = payloads["threads"]
    digest = hashlib.sha256(baseline.encode()).hexdigest()
    ok = True
    for name, payload in payloads.items():
        d = hashlib.sha256(payload.encode()).hexdigest()
        report["backends"][name]["sha256"] = d
        match = payload == baseline
        ok = ok and match
        status = "ok" if match else "DIVERGED"
        print(f"{name:10s} sha256={d[:16]}…  "
              f"{report['backends'][name]['seconds']:6.2f}s  {status}")
        if not match:
            for i, (a, b) in enumerate(zip(json.loads(baseline),
                                           json.loads(payload))):
                if a != b:
                    print(f"  cell {i} differs:", file=sys.stderr)
                    print(f"    threads: {json.dumps(a, sort_keys=True)}",
                          file=sys.stderr)
                    print(f"    {name}: {json.dumps(b, sort_keys=True)}",
                          file=sys.stderr)

    report["sha256"] = digest
    report["parity"] = ok
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.output}")
    if not ok:
        print("backend parity FAILED: results are not byte-identical",
              file=sys.stderr)
        return 1
    print(f"backend parity OK: 3 backends x 8 cells, digest {digest[:16]}…")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
