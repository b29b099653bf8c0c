"""Layer spans for the traced benchmark run, recorded from outside.

:func:`install` wraps public functions of each layer of ``repro`` --
it never edits them.  A wrapped call records one span: its name, its
layer (the module it belongs to), start, end, the enclosing span of the
same thread, the process, and the run id.  Each name is patched where
it is looked up: module attributes are replaced in every loaded
``repro`` module that bound the original (``from x import f`` copies),
methods on their class.

Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in the
trace directory when the process exits.  Forked pool workers leave
through ``os._exit``, which skips exit handlers, so a forked process
flushes whenever its outermost span closes, that is after each cell.
Timestamps come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans of different processes share one
time axis.

:func:`layer_metrics` turns the span files back into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import atexit
import functools
import glob
import importlib
import itertools
import json
import os
import re
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ENV_DIR = "REPRO_E2E_TRACE_DIR"
ENV_RUN = "REPRO_E2E_RUN_ID"


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, directory: str, run_id: str):
        self.directory = directory
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        #: calls made while inactive run unrecorded
        self.active = True
        self.forked = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self.spans.append(span)

    def after_fork(self) -> None:
        """A forked child keeps none of its parent's spans or stacks."""
        self.spans = []
        self.forked = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` with one span per call.

    ``before(args, kwargs)`` runs ahead of the call and its value is
    handed to ``after(state, args, kwargs, result)``, which returns the
    span's attributes (counts such as bytes or events).
    """
    pid, ppid = os.getpid, os.getppid

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        stack = recorder.stack()
        span_id = recorder.new_id()
        parent = stack[-1] if stack else None
        state = before(args, kwargs) if before is not None else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {"name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "id": span_id,
                    "pid": pid(), "ppid": ppid(), "run": recorder.run_id}
            if after is not None:
                span["attrs"] = after(state, args, kwargs, result)
            recorder.add(span)
            if recorder.forked and not stack:
                recorder.flush()

    traced.__e2e_traced__ = True
    return traced


# -- what each layer records ------------------------------------------------

def _pool_counts() -> Dict[str, int]:
    from repro.core.parallel import pool_stats
    return pool_stats().as_dict()


def _run_requests_after(before, args, kwargs, result):
    now = _pool_counts()
    delta = {key: now[key] - before[key] for key in now}
    return {"cells": delta["cells"], "duplicates": delta["duplicates"],
            "dispatched": delta["executed_serial"]
            + delta["executed_parallel"]}


def _submit_cells_after(before, args, kwargs, result):
    failed = 0
    for future in result or ():
        if future.done() and future.exception() is None \
                and future.result()[0] == "failed":
            failed += 1
    return {"cells": len(args[1]), "failed": failed,
            "retried": _pool_counts()["retried"] - before,
            "backend": type(args[0]).__name__}


def _cache_put_after(before, args, kwargs, result):
    cache, key = args[0], args[1]
    try:
        size = os.path.getsize(cache._path(key))
    except OSError:
        size = 0
    return {"bytes": size}


def _engine_after(before, args, kwargs, result):
    return {"events": args[0]._seq - before}


def _job_after(before, args, kwargs, result):
    return {"messages": result.messages, "bytes": result.bytes_sent} \
        if result is not None else {}


def _op_of(before, args, kwargs, result):
    message = args[-1] if args else kwargs.get("message")
    return {"op": message.get("op") if isinstance(message, dict) else None}


#: (module, attribute path, layer, before, after)
TARGETS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("repro.sim.engine", "Engine.run", "sim",
     lambda a, k: a[0]._seq, _engine_after),
    ("repro.core.execution", "JobRunner.__init__", "sim", None, None),
    ("repro.core.execution", "JobRunner.run", "sim", None, _job_after),
    ("repro.core.affinity", "resolve_scheme", "core.affinity", None, None),
    ("repro.surrogate.evaluator", "SurrogateEvaluator.__init__",
     "surrogate", None, None),
    ("repro.surrogate.evaluator", "SurrogateEvaluator.run", "surrogate",
     None, None),
    ("repro.core.cache", "ResultCache.get", "core.cache", None,
     lambda s, a, k, r: {"hit": r is not None}),
    ("repro.core.cache", "ResultCache.put", "core.cache", None,
     _cache_put_after),
    ("repro.core.cache", "job_key", "core.cache", None, None),
    ("repro.wire.codec", "encode", "wire", None,
     lambda s, a, k, r: {"bytes": len(r)}),
    ("repro.wire.codec", "decode", "wire", None,
     lambda s, a, k, r: {"bytes": len(a[0])}),
    ("repro.core.parallel", "run_requests", "core.parallel",
     lambda a, k: _pool_counts(), _run_requests_after),
    ("repro.core.parallel", "JobRequest.execute", "core.parallel",
     None, None),
    ("repro.backends.local", "ProcessBackend.submit_cells", "backends",
     lambda a, k: _pool_counts()["retried"], _submit_cells_after),
    ("repro.backends.local", "ThreadBackend.submit_cells", "backends",
     lambda a, k: _pool_counts()["retried"], _submit_cells_after),
    ("repro.backends.remote", "RemoteBackend.submit_cells", "backends",
     lambda a, k: _pool_counts()["retried"], _submit_cells_after),
    ("repro.service.session", "Session.submit", "service", None, None),
    ("repro.service.protocol", "handle_request", "service.transport",
     None, _op_of),
    ("repro.cluster.router", "Router.handle_message", "cluster", None,
     _op_of),
    ("repro.backends.remote", "RemoteBackend.forward", "cluster", None,
     _op_of),
)

#: modules holding the target builders of ``repro-bench``
BENCH_MODULES = ("repro.bench.tables", "repro.bench.figures",
                 "repro.bench.ablations", "repro.bench.extensions",
                 "repro.bench.fidelity")
BENCH_TARGET = re.compile(r"(table\d\d|figure\d\d(_latency)?|ablation_\w+"
                          r"|ext_\w+|fidelity_table)$")


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's copy of ``original`` at
    ``wrapper``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every target; idempotent."""
    for module_name, path, layer, before, after in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if getattr(original, "__e2e_traced__", False):
            continue
        wrapper = _wrap(recorder, original, path, layer, before, after)
        setattr(owner, attr, wrapper)
        if not outer:
            _rebind(original, wrapper)
    for module_name in BENCH_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if callable(value) and BENCH_TARGET.match(attr) \
                    and getattr(value, "__module__", None) == module_name \
                    and not getattr(value, "__e2e_traced__", False):
                wrapper = _wrap(recorder, value, attr, "bench")
                setattr(module, attr, wrapper)
                _rebind(value, wrapper)


#: this process's recorder, once :func:`install_from_env` started one
RECORDER: Optional[Recorder] = None


def install_from_env() -> Optional[Recorder]:
    """Start recording when the trace directory variable is set."""
    global RECORDER
    directory = os.environ.get(ENV_DIR)
    if not directory or RECORDER is not None:
        return RECORDER
    os.makedirs(directory, exist_ok=True)
    RECORDER = Recorder(directory, os.environ.get(ENV_RUN, ""))
    install(RECORDER)
    os.register_at_fork(after_in_child=RECORDER.after_fork)
    atexit.register(RECORDER.flush)
    return RECORDER


# -- from span files to per-layer metrics -----------------------------------

def load(directory: str) -> List[Dict[str, Any]]:
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: List[Dict[str, Any]]
              ) -> Dict[Tuple[int, int], List[Tuple[float, float]]]:
    """The intervals of each span's children, keyed by ``(pid, id)``."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"]))
    return children


def self_times(spans: List[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover,
    keyed by ``(pid, id)``."""
    children = _children(spans)
    return {(span["pid"], span["id"]):
            span["end"] - span["start"]
            - covered(children.get((span["pid"], span["id"]), ()),
                      span["start"], span["end"])
            for span in spans}


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Span count and self time of every layer, over all processes."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["layer"], {"spans": 0, "self_s": 0.0})
        row["spans"] += 1
        row["self_s"] += selfs[(span["pid"], span["id"])]
    return dict(sorted(table.items()))


def backend_overhead(spans: List[Dict[str, Any]]) -> float:
    """Time backend batches took beyond their busiest worker.

    The busiest worker of a batch is the calling thread itself for
    cells run in process, else the worker process (a child of the
    caller) whose cell spans cover most of the batch's interval.
    """
    children = _children(spans)
    workers: Dict[int, Dict[int, List[Tuple[float, float]]]] = {}
    for span in spans:
        if span.get("parent") is None and span["name"] == "JobRequest.execute":
            workers.setdefault(span["ppid"], {}).setdefault(
                span["pid"], []).append((span["start"], span["end"]))
    overhead = 0.0
    for batch in spans:
        if not batch["name"].endswith("submit_cells"):
            continue
        lo, hi = batch["start"], batch["end"]
        busy = covered(children.get((batch["pid"], batch["id"]), ()), lo, hi)
        for intervals in workers.get(batch["pid"], {}).values():
            busy = max(busy, covered(intervals, lo, hi))
        overhead += (hi - lo) - busy
    return overhead


def layer_metrics(spans: List[Dict[str, Any]],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced workload run.

    ``counters`` are numbers the workload read from the program itself
    (the ``stats`` op, reply fields, its own CPU time); see the
    benchmark README for which metric comes from where.
    """
    # aggregation runs in the benchmark, never in a traced process
    from stats import percentile_or_max

    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    selfs = self_times(spans)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def attr(name, key):
        return sum((s.get("attrs") or {}).get(key, 0) for s in named(name))

    def layer_self(layer):
        return sum(selfs[(s["pid"], s["id"])] for s in spans
                   if s["layer"] == layer)

    layer_of = {(s["pid"], s["id"]): s["layer"] for s in spans}
    targets = [s for s in spans if s["layer"] == "bench"
               and layer_of.get((s["pid"], s.get("parent"))) != "bench"]

    gets = len(named("ResultCache.get"))
    batches = [s for s in spans if s["name"].endswith("submit_cells")]
    run_cells = attr("run_requests", "cells")
    sim_events = attr("Engine.run", "events")
    sim_run = total("Engine.run")
    submits = [s for s in named("handle_request")
               if (s.get("attrs") or {}).get("op") == "submit"]
    routes = [s for s in named("Router.handle_message")
              if (s.get("attrs") or {}).get("op") == "submit"]
    front = routes or submits
    forwards = [s["end"] - s["start"] for s in named("RemoteBackend.forward")]
    net_ms = 0.0
    if front and counters.get("loadgen.latency_mean_ms"):
        front_ms = 1000.0 * sum(s["end"] - s["start"]
                                for s in front) / len(front)
        net_ms = counters["loadgen.latency_mean_ms"] - front_ms

    metrics = {
        "sim.cells": len(named("JobRunner.run")),
        "sim.run_s": sim_run,
        "sim.events": sim_events,
        "sim.us_per_event": 1e6 * sim_run / sim_events if sim_events else 0.0,
        "sim.build_s": total("JobRunner.__init__"),
        "core.affinity.place_s": total("resolve_scheme"),
        "mpi.messages": attr("JobRunner.run", "messages"),
        "mpi.bytes": attr("JobRunner.run", "bytes"),
        "surrogate.cells": len(named("SurrogateEvaluator.run")),
        "surrogate.run_s": total("SurrogateEvaluator.run"),
        "surrogate.build_s": total("SurrogateEvaluator.__init__"),
        "core.cache.gets": gets,
        "core.cache.hit_ratio":
            attr("ResultCache.get", "hit") / gets if gets else 0.0,
        "core.cache.get_s": total("ResultCache.get"),
        "core.cache.puts": len(named("ResultCache.put")),
        "core.cache.put_s": total("ResultCache.put"),
        "core.cache.write_bytes": attr("ResultCache.put", "bytes"),
        "core.cache.key_s": total("job_key"),
        "wire.decodes": len(named("decode")),
        "wire.decode_s": total("decode"),
        "wire.decode_bytes": attr("decode", "bytes"),
        "wire.encodes": len(named("encode")),
        "wire.encode_s": total("encode"),
        "wire.encode_bytes": attr("encode", "bytes"),
        "core.parallel.batches": len(named("run_requests")),
        "core.parallel.cells": run_cells,
        "core.parallel.dispatched": attr("run_requests", "dispatched"),
        "core.parallel.dup_ratio":
            attr("run_requests", "duplicates") / run_cells
            if run_cells else 0.0,
        "core.parallel.self_s": layer_self("core.parallel"),
        "backends.batches": len(batches),
        "backends.cells": sum(s["attrs"]["cells"] for s in batches),
        "backends.wait_s": sum(s["end"] - s["start"] for s in batches),
        "backends.overhead_s": backend_overhead(spans),
        "backends.failed": sum(s["attrs"]["failed"] for s in batches),
        "backends.retried": sum(s["attrs"]["retried"] for s in batches),
        "bench.targets": len(targets),
        "bench.self_s": layer_self("bench"),
        "service.submits": len(named("Session.submit")),
        "service.transport.handle_s": sum(s["end"] - s["start"]
                                          for s in submits),
        "service.transport.net_ms": net_ms,
        "cluster.forwards": len(forwards),
        "cluster.forward_p50_ms": 1000.0 * percentile_or_max(forwards, 50),
        "cluster.forward_p99_ms": 1000.0 * percentile_or_max(forwards, 99),
        "cluster.route_self_ms":
            1000.0 * sum(selfs[(s["pid"], s["id"])] for s in routes)
            / len(routes) if routes else 0.0,
    }
    for name in ("service.coalesced", "service.admission_hits",
                 "service.rejected", "service.wait_p50_ms",
                 "service.wait_p99_ms", "service.batch_s",
                 "service.busy_s", "cluster.reroutes",
                 "cluster.forward_failures", "loadgen.requests",
                 "loadgen.cpu_s", "bench.fidelity_rho"):
        metrics[name] = counters.get(name, 0.0)
    return metrics
