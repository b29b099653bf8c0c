"""``repro-bench micro`` — timeit microbenchmarks of the two executors.

The macro sweeps answer "is the pipeline fast enough"; this module
answers "which core got slower".  It times the primitives the two
execution tiers are built from:

* ``engine-event-loop`` — the discrete-event engine's schedule/step
  hot loop, isolated from any workload model (pure timeout churn).
* ``engine-cell`` — one exact-tier cell end to end (STREAM on longs),
  i.e. the event loop plus the machine/MPI model on top.
* ``engine-comm`` — AMBER ``jac`` on 4 ranks of longs through the exact
  tier, the mirror of ``surrogate-comm``: hundreds of messages, so this
  times queue-lock grants, flow completions feeding ``AllOf`` and the
  fluid pipes' wake-ups.  It should move with ``sweep-exact`` ``cold_ms``
  of the end-to-end benchmark.
* ``surrogate-batch`` — the same cell through the fast tier's
  evaluator, which is the number the ≥10× speedup claim rests on.
  STREAM sends almost no messages, so this mostly times compute costing.
* ``surrogate-comm`` — POP on 16 ranks of longs through the fast tier:
  thousands of halo and allreduce messages, so this times the virtual-
  clock scheduler (message matching and clock arithmetic), and also
  program generation: the POP generators and their compilation into
  bound steps by :meth:`SurrogateEvaluator._program_steps`, which is
  where each message shape is costed.  It should move with
  ``serve-daemon`` ``tail_ms`` of the end-to-end benchmark.
* ``surrogate-build`` — :class:`~repro.surrogate.SurrogateEvaluator`
  construction (topology/coefficient precompute), the fixed cost paid
  once per (spec, affinity) pair.
* ``wire-encode``/``wire-decode`` vs ``json-encode``/``json-decode`` —
  the :mod:`repro.wire` binary codec against the C ``json`` module on
  a result-bearing batch response (the hot payload shape of protocol
  v3 and cache schema 3).  These report MB/s, and the combined
  encode+decode ratio is the ≥2× claim the wire format rests on.
* ``served-key`` — the content address of one served cell:
  :func:`~repro.service.protocol.cell_from_wire` plus ``key()`` of a
  ``longs``/``pop``/16-rank wire cell, which a daemon pays once per
  submit and a cluster once in the router and once in the shard.  It
  should move with ``serve-daemon`` and ``serve-cluster`` ``warm_ms``
  of the end-to-end benchmark.

Each benchmark reports best-of-``--repeat`` seconds per iteration
(minimum over repeats is the standard noise floor for timeit).  With
``--ledger`` the results are appended to the run ledger as a
``tool="micro"`` record so regressions in either tier's core show up
in history alongside the macro runs.
"""

from __future__ import annotations

import argparse
import sys
import timeit
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["main", "run_benchmarks"]


def _bench_engine_event_loop() -> Callable[[], None]:
    """Pure schedule/step churn: 64 processes x 64 timeouts."""
    from ..sim import Engine

    def body() -> None:
        eng = Engine()

        def program(eng):
            for _ in range(64):
                yield eng.timeout(1.0)

        for _ in range(64):
            eng.process(program(eng))
        eng.run()

    return body


def _cell_request(tier: str):
    from ..core.parallel import JobRequest
    from ..machine import longs
    from ..workloads.hpcc import HpccStream

    return JobRequest(spec=longs(), workload=HpccStream(4), tier=tier)


def _bench_engine_cell() -> Callable[[], None]:
    request = _cell_request("exact")
    return lambda: request.execute()


def _bench_engine_comm() -> Callable[[], None]:
    from ..apps.md.amber import AmberSander
    from ..core.parallel import JobRequest
    from ..machine import longs

    request = JobRequest(spec=longs(), workload=AmberSander("jac", 4),
                         tier="exact")
    return lambda: request.execute()


def _bench_surrogate_batch() -> Callable[[], None]:
    request = _cell_request("fast")
    return lambda: request.execute()


def _bench_surrogate_comm() -> Callable[[], None]:
    from ..apps.pop.model import Pop
    from ..core.parallel import JobRequest
    from ..machine import longs

    request = JobRequest(spec=longs(), workload=Pop(16), tier="fast")
    return lambda: request.execute()


def _bench_surrogate_build() -> Callable[[], None]:
    from ..core.affinity import AffinityScheme, resolve_scheme
    from ..machine import longs
    from ..surrogate import SurrogateEvaluator
    from ..workloads.hpcc import HpccStream

    spec = longs()
    workload = HpccStream(4)
    affinity = resolve_scheme(AffinityScheme.DEFAULT, spec, workload.ntasks)
    return lambda: SurrogateEvaluator(spec, affinity)


_CODEC_MESSAGE: Optional[Dict[str, Any]] = None


def _codec_message() -> Dict[str, Any]:
    """A submit response carrying a real result — the hot wire shape.

    Built once per process: an ntasks=16 fast-tier cell (the widest
    cell the modelled systems can host) gives a result payload with
    full-width ``rank_times``/``category_times`` blocks, which is
    where the codec's float fast paths earn their keep.
    """
    global _CODEC_MESSAGE
    if _CODEC_MESSAGE is None:
        result = _cell_request_wide().execute().to_dict()
        _CODEC_MESSAGE = {"status": "ok", "op": "submit",
                          "source": "executed", "result": result}
    return _CODEC_MESSAGE


def _cell_request_wide():
    from ..core.parallel import JobRequest
    from ..machine import longs
    from ..workloads.hpcc import HpccStream

    return JobRequest(spec=longs(), workload=HpccStream(16), tier="fast")


def _bench_wire_encode() -> Callable[[], None]:
    from ..wire import codec

    message = _codec_message()
    body = lambda: codec.encode(message)  # noqa: E731
    body.payload_bytes = len(codec.encode(message))
    return body


def _bench_wire_decode() -> Callable[[], None]:
    from ..wire import codec

    blob = codec.encode(_codec_message())
    body = lambda: codec.decode(blob)  # noqa: E731
    body.payload_bytes = len(blob)
    return body


def _bench_json_encode() -> Callable[[], None]:
    import json

    message = _codec_message()
    body = lambda: json.dumps(message, sort_keys=True,  # noqa: E731
                              separators=(",", ":"))
    body.payload_bytes = len(json.dumps(message, sort_keys=True,
                                        separators=(",", ":")))
    return body


def _bench_json_decode() -> Callable[[], None]:
    import json

    text = json.dumps(_codec_message(), sort_keys=True,
                      separators=(",", ":"))
    body = lambda: json.loads(text)  # noqa: E731
    body.payload_bytes = len(text)
    return body


#: the served cell ``served-key`` keys: the widest POP run on Longs
SERVED_KEY_CELL: Dict[str, Any] = {"system": "longs", "workload": "pop",
                                   "ntasks": 16, "scheme": "default",
                                   "tier": "fast"}


def _bench_served_key() -> Callable[[], None]:
    from ..service.protocol import cell_from_wire

    return lambda: cell_from_wire(SERVED_KEY_CELL).key()


BENCHMARKS: List[Tuple[str, Callable[[], Callable[[], None]], int]] = [
    ("engine-event-loop", _bench_engine_event_loop, 5),
    ("engine-cell", _bench_engine_cell, 1),
    ("engine-comm", _bench_engine_comm, 1),
    ("surrogate-batch", _bench_surrogate_batch, 5),
    ("surrogate-comm", _bench_surrogate_comm, 3),
    ("surrogate-build", _bench_surrogate_build, 20),
    ("wire-encode", _bench_wire_encode, 50),
    ("wire-decode", _bench_wire_decode, 50),
    ("json-encode", _bench_json_encode, 50),
    ("json-decode", _bench_json_decode, 50),
    ("served-key", _bench_served_key, 200),
]

#: the codec quartet, for ``--only``-style selection in CI
CODEC_BENCHMARKS = ("wire-encode", "wire-decode",
                    "json-encode", "json-decode")


def run_benchmarks(repeat: int = 5,
                   number: Optional[int] = None,
                   only: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the suite; returns ``{name: {seconds, number, repeat}}``."""
    results: Dict[str, Any] = {}
    for name, setup, default_number in BENCHMARKS:
        if only and name not in only:
            continue
        body = setup()
        body()  # warm up imports/caches outside the timed region
        n = number if number is not None else default_number
        timer = timeit.Timer(body)
        best = min(timer.repeat(repeat=repeat, number=n)) / n
        results[name] = {"seconds": best, "number": n, "repeat": repeat}
        payload = getattr(body, "payload_bytes", None)
        if payload is not None and best > 0:
            results[name]["bytes"] = payload
            results[name]["mb_per_s"] = payload / best / 1e6
    return results


def main(argv: Optional[List[str]] = None) -> int:
    from ..telemetry import ledger as run_ledger

    parser = argparse.ArgumentParser(
        prog="repro-bench micro",
        description="microbenchmark the engine event loop and the "
                    "surrogate evaluator")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timeit repeats per benchmark (default 5; "
                             "best repeat is reported)")
    parser.add_argument("--number", type=int, default=None,
                        help="iterations per repeat (default: "
                             "per-benchmark)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        choices=[name for name, _s, _n in BENCHMARKS],
                        help="run only the named benchmark (repeatable)")
    parser.add_argument("--ledger", action="store_true",
                        help="append the results to the run ledger")
    parser.add_argument("--ledger-dir", default=None,
                        help="ledger directory (default: "
                             "REPRO_LEDGER_DIR or .repro-ledger)")
    args = parser.parse_args(argv)

    recorder = None
    if args.ledger or args.ledger_dir or run_ledger.env_configured():
        recorder = run_ledger.RunRecorder(tool="micro", argv=argv).start()

    results = run_benchmarks(repeat=max(1, args.repeat),
                             number=args.number, only=args.only)

    width = max(len(name) for name in results) if results else 0
    for name, scores in results.items():
        line = (f"{name:{width}s}  "
                f"{scores['seconds'] * 1e3:10.3f} ms/iter  "
                f"(best of {scores['repeat']} x {scores['number']})")
        if "mb_per_s" in scores:
            line += f"  {scores['mb_per_s']:8.1f} MB/s"
        print(line)
    engine = results.get("engine-cell")
    fast = results.get("surrogate-batch")
    if engine and fast and fast["seconds"] > 0:
        print(f"{'cell speedup':{width}s}  "
              f"{engine['seconds'] / fast['seconds']:10.1f} x  "
              "(exact engine-cell / surrogate-batch)")
    codec_scores = [results.get(name) for name in CODEC_BENCHMARKS]
    if all(codec_scores):
        wire_s = (results["wire-encode"]["seconds"]
                  + results["wire-decode"]["seconds"])
        json_s = (results["json-encode"]["seconds"]
                  + results["json-decode"]["seconds"])
        if wire_s > 0:
            print(f"{'codec speedup':{width}s}  "
                  f"{json_s / wire_s:10.2f} x  "
                  "(json enc+dec / wire enc+dec)")

    if recorder is not None:
        record = recorder.finish(
            config={"repeat": args.repeat, "number": args.number,
                    "only": args.only},
            micro=results,
        )
        path = run_ledger.append(record, args.ledger_dir)
        print(f"[micro run {record['run_id']} recorded to {path}]",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
