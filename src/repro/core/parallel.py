"""Parallel sweep executor: fan independent experiment cells out.

The paper's methodology is a grid of independent (system × workload ×
scheme × MPI) cells, i.e. embarrassingly parallel.  This module turns a
list of :class:`JobRequest` cells into results on an execution
backend (by default the crash-isolated worker-process pool of
:class:`~repro.backends.local.ProcessBackend`), with four guarantees:

* **deterministic ordering** — results come back aligned with the
  request list regardless of completion order;
* **bit-identical results** — every cell is a pure function of its
  request, so a worker process computes exactly what the serial path
  would (enforced by tests);
* **cache integration** — cells already present in the
  :mod:`content-addressed cache <repro.core.cache>` are never
  dispatched, duplicate requests within one batch are computed once,
  and fresh results are stored for later calls;
* **crash isolation** — a worker that dies (segfault, OOM kill,
  ``os._exit``) or stalls past the batch timeout loses only its own
  cells: they are retried with exponential backoff on a fresh pool
  and, when the retry budget runs out, surface as structured
  :class:`TargetFailure` records instead of aborting the sweep.

:func:`run_requests` folds each cell's outcome once, into ``("ok",
JobResult)``, ``("infeasible", reason)`` or ``("failed",
TargetFailure)``.  Infeasibility (the paper tables' dashes) is a pure
function of scheme, machine, task count and parked cores, so it is
settled here, after the cache miss and before dispatch: a backend only
ever runs feasible cells.  A caller that passes an ``outcomes`` list gets
exactly its own flight's outcomes there, so concurrent flights need no
lock; a bare call gets the ``Optional[JobResult]`` list and its
failures through :func:`take_failures`.

Worker count resolution: an explicit ``jobs=`` argument (a
:class:`~repro.service.session.Session` passes its own), else the
``REPRO_BENCH_JOBS`` environment variable, else 1 (serial).  The
per-batch stall timeout and retry budget resolve the same way through
``REPRO_BENCH_TIMEOUT`` (seconds; unset disables the watchdog) and
``REPRO_BENCH_RETRIES``.  :func:`run_requests` resolves them once and
hands the backend the results.  Requests that cannot be pickled (e.g.
monkeypatched workloads in tests) fall back to the serial path
transparently.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..machine.topology import MachineSpec
from ..mpi import MpiImplementation, OPENMPI
from ..telemetry import metrics as _metrics
from ..telemetry.tracing import span
from .affinity import (AffinityScheme, InfeasibleSchemeError,
                       ResolvedAffinity, resolve_scheme)
from .cache import ResultCache, Uncacheable, default_cache, job_key
from .execution import JobResult, JobRunner
from .workload import Workload

__all__ = [
    "JobRequest",
    "Outcome",
    "PoolStats",
    "TargetFailure",
    "default_jobs",
    "default_retries",
    "default_timeout",
    "pool_stats",
    "reset_pool_stats",
    "run_request",
    "run_requests",
    "shutdown_pool",
    "take_failures",
]

_LOG = logging.getLogger("repro.core.parallel")


@dataclass(frozen=True)
class JobRequest:
    """One experiment cell, fully described by value.

    ``affinity`` (an explicit :class:`ResolvedAffinity`) overrides
    ``scheme`` when given, mirroring :func:`repro.bench.common.run`.
    """

    spec: MachineSpec
    workload: Workload
    scheme: AffinityScheme = AffinityScheme.DEFAULT
    affinity: Optional[ResolvedAffinity] = None
    impl: Optional[MpiImplementation] = None
    lock: Optional[str] = None
    parked: int = 0
    #: attach a perfctr session and return counters with the result
    profile: bool = False
    #: degrade the modeled machine per this plan (distinct cache keys)
    faults: Optional[FaultPlan] = None
    #: execution tier: ``"exact"`` (or ``None``) steps the discrete-event
    #: engine, ``"fast"`` uses the analytic surrogate, ``"auto"`` picks
    #: fast where supported and falls back to exact otherwise
    tier: Optional[str] = None

    def effective_tier(self) -> str:
        """Resolve ``tier`` to the tier that will actually run.

        ``auto`` resolves *before* cache keying, so an auto cell that
        falls back to exact shares the exact tier's content address
        (byte-identical results, byte-identical key).
        """
        if self.tier in (None, "exact"):
            return "exact"
        if self.tier == "fast":
            return "fast"
        if self.tier == "auto":
            from ..surrogate import unsupported_reason
            reason = unsupported_reason(self.workload, self.profile,
                                        self.faults)
            return "exact" if reason else "fast"
        raise ValueError(
            f"tier must be 'fast', 'exact' or 'auto', got {self.tier!r}")

    def key(self) -> str:
        """Content address of this cell (raises :class:`Uncacheable`).

        Memoized on the frozen instance like
        :meth:`MachineSpec.cache_token`, so the session that admits a
        cell and the executor that runs it key it once between them;
        the memo is not a field, so ``==``, ``hash`` and ``replace``
        skip it.  An uncacheable cell is re-tried on every call.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = job_key(self.spec, self.workload, scheme=self.scheme,
                          affinity=self.affinity, impl=self.impl or OPENMPI,
                          lock=self.lock, parked=self.parked,
                          profile=self.profile, faults=self.faults,
                          tier=self.effective_tier())
            object.__setattr__(self, "_key", key)
        return key

    def filled(self, tier: Optional[str],
               faults: Optional[FaultPlan]) -> "JobRequest":
        """This cell with ``tier`` and ``faults`` where it leaves
        ``None``; the twin is memoized on the instance like :meth:`key`."""
        tier = self.tier if self.tier is not None else tier
        faults = self.faults if self.faults is not None else faults
        if tier is self.tier and faults is self.faults:
            return self
        twin = self.__dict__.get("_twin")
        if twin is None or twin.tier != tier or twin.faults is not faults:
            twin = replace(self, tier=tier, faults=faults)
            object.__setattr__(self, "_twin", twin)
        return twin

    def execute(self) -> JobResult:
        """Run the cell; raises :class:`InfeasibleSchemeError` for dashes."""
        affinity = self.affinity
        if affinity is None:
            affinity = resolve_scheme(self.scheme, self.spec,
                                      self.workload.ntasks,
                                      parked=self.parked)
        if self.effective_tier() == "fast":
            from ..surrogate import (SurrogateUnsupportedError,
                                     evaluate_request, unsupported_reason)
            # explicit tier="fast" on an unsupported cell: profiling and
            # fault plans refuse here, program checks inside the run
            try:
                if self.profile or self.faults:
                    raise SurrogateUnsupportedError(unsupported_reason(
                        self.workload, self.profile, self.faults))
                return evaluate_request(self.spec, self.workload, affinity,
                                        impl=self.impl or OPENMPI,
                                        lock=self.lock)
            except SurrogateUnsupportedError as exc:
                raise SurrogateUnsupportedError(
                    f"{self.label()}: {exc}") from None
        runner = JobRunner(self.spec, affinity, impl=self.impl or OPENMPI,
                           lock=self.lock, profile=self.profile,
                           faults=self.faults)
        return runner.run(self.workload)

    def label(self) -> str:
        """A short human-readable cell description for failure reports.

        Names the MPI implementation, lock and parked cores when the
        cell sets them, so the cells of one sweep get distinct labels.
        """
        workload = getattr(self.workload, "name", None) \
            or type(self.workload).__name__
        scheme = self.affinity.scheme.value if self.affinity is not None \
            else self.scheme.value
        runtime = [scheme]
        if self.impl is not None:
            runtime.append(self.impl.name)
        if self.lock is not None:
            runtime.append(self.lock)
        if self.parked:
            runtime.append(f"{self.parked} parked")
        return f"{workload} on {self.spec.name} [{', '.join(runtime)}]"


@dataclass
class TargetFailure:
    """One cell the executor gave up on (after retries, if eligible).

    ``kind`` is ``"crash"`` (worker process died), ``"timeout"`` (batch
    watchdog fired), ``"fault_exhausted"`` (an injected transport fault
    exceeded its retry budget inside the simulation), or ``"error"``
    (any other exception, named in ``message``).  ``repro-bench`` also
    records a target that a failed cell skipped as one, labelled
    ``target <name>`` with ``index`` its position among the targets.
    """

    index: int
    kind: str
    message: str
    attempts: int
    label: str
    key: Optional[str] = None

    def as_dict(self) -> dict:
        return {"index": self.index, "kind": self.kind,
                "message": self.message, "attempts": self.attempts,
                "label": self.label, "key": self.key}


#: one cell's folded outcome: ``("ok", JobResult)``, ``("infeasible",
#: reason)`` or ``("failed", TargetFailure)``
Outcome = Tuple[str, Any]

#: failures of bare :func:`run_requests` calls (no ``outcomes`` list)
_FAILURES: List[TargetFailure] = []


def take_failures() -> List[TargetFailure]:
    """Drain the failures accumulated since the last call."""
    global _FAILURES
    failures, _FAILURES = _FAILURES, []
    return failures


# -- executor accounting ---------------------------------------------------

@dataclass
class PoolStats:
    """Process-wide executor utilization counters (plain ints, always on).

    ``executed_parallel`` counts cells actually dispatched to worker
    processes; ``executed_serial`` counts cells run in-process (serial
    batches, unpicklable fallbacks, and :func:`run_request` calls).
    Together with ``cache_hits``, ``duplicates``, and ``failed`` they
    account for every ``cells`` entry, which is what the run ledger's ``pool`` section reports;
    ``retried`` counts extra dispatch attempts after crashes/timeouts.
    Concurrent flights bump the counters through :meth:`add`.
    """

    batches: int = 0
    cells: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    executed_serial: int = 0
    executed_parallel: int = 0
    infeasible: int = 0
    failed: int = 0
    retried: int = 0

    def add(self, **counts: int) -> None:
        """Bump the named counters atomically."""
        with _STATS_LOCK:
            for name, count in counts.items():
                setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "duplicates": self.duplicates,
            "executed_serial": self.executed_serial,
            "executed_parallel": self.executed_parallel,
            "infeasible": self.infeasible,
            "failed": self.failed,
            "retried": self.retried,
        }


_STATS_LOCK = threading.Lock()
_POOL_STATS = PoolStats()


def pool_stats() -> PoolStats:
    """The process-wide executor counters (cumulative; snapshot to diff)."""
    return _POOL_STATS


def reset_pool_stats() -> None:
    """Zero the executor counters (tests, run boundaries)."""
    global _POOL_STATS
    _POOL_STATS = PoolStats()


# -- worker-count / robustness defaults ------------------------------------

def default_jobs() -> int:
    """Worker count when a batch does not name one (``REPRO_BENCH_JOBS``)."""
    env = os.environ.get("REPRO_BENCH_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def default_timeout() -> Optional[float]:
    """Stall timeout in seconds from ``REPRO_BENCH_TIMEOUT``, or ``None``.

    The watchdog is *stall*-based: it fires only when a full window
    elapses with zero cell completions, so a big batch on few workers
    never trips it while progress continues.
    """
    env = os.environ.get("REPRO_BENCH_TIMEOUT")
    if env:
        try:
            value = float(env)
        except ValueError:
            return None
        return value if value > 0 else None
    return None


def default_retries() -> int:
    """Crashed/stalled-cell retry budget (``REPRO_BENCH_RETRIES``, else 1)."""
    env = os.environ.get("REPRO_BENCH_RETRIES")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return 1


def shutdown_pool() -> None:
    """Close the default backend and its worker pool (tests / CLI exit);
    a process that never loaded the backends has none to close."""
    backends = sys.modules.get(f"{__package__.rpartition('.')[0]}.backends")
    if backends is not None:
        backends.close_default()


# -- the executor ----------------------------------------------------------

def run_request(request: JobRequest,
                cache: Optional[ResultCache] = None) -> JobResult:
    """Run one cell through the cache; infeasibility raises."""
    cache = cache if cache is not None else default_cache()
    try:
        key = request.key()
    except Uncacheable:
        key = None
    if key is not None:
        hit = cache.get(key)
        if hit is not None:
            _POOL_STATS.add(cells=1, cache_hits=1)
            return hit
    _POOL_STATS.add(cells=1, executed_serial=1)
    result = request.execute()
    if key is not None:
        cache.put(key, result)
    return result


def run_requests(requests: Sequence[JobRequest],
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backend=None,
                 outcomes: Optional[List[Outcome]] = None,
                 ) -> List[Optional[JobResult]]:
    """Run a batch of cells, returning results in request order.

    Each cell's outcome is folded once (see the module docstring); a
    duplicate of a failed cell gets its own copy of the failure at its
    own ``index``.  Pass an ``outcomes`` list to receive them in request
    order; without one, failures go to :func:`take_failures`.  The
    returned list holds each ``ok`` result and ``None`` for the rest
    (the paper tables' dashes).

    Cache hits are served directly; a remaining unique cell whose scheme
    cannot be placed folds to ``("infeasible", reason)`` without being
    dispatched (the reason is the text the placement raises, which a
    cell's own ``execute`` would raise too).  The feasible rest are
    scheduled on ``backend`` (an
    :class:`~repro.backends.ExecutionBackend`; the process-wide
    default — the crash-isolated worker-process pool — when ``None``).
    The backend only ever *runs* cells: content addressing, duplicate
    coalescing, and cache stores happen here, so the backend choice
    can never leak into a cache key.  On the process backend, crashed
    or stalled workers lose only their own cells, which are retried up
    to ``retries`` times with exponential backoff before being
    reported as failures.
    """
    cache = cache if cache is not None else default_cache()
    jobs = default_jobs() if jobs is None else max(1, jobs)
    timeout = default_timeout() if timeout is None else (
        timeout if timeout > 0 else None)
    retries = default_retries() if retries is None else max(0, retries)
    stats = _POOL_STATS
    stats.add(batches=1, cells=len(requests))
    _metrics.inc("executor_batches_total")
    _metrics.inc("executor_cells_total", len(requests))

    folded: List[Any] = [None] * len(requests)  # one Outcome per cell
    keys: List[Optional[str]] = [None] * len(requests)
    pending: List[int] = []
    first_index_for_key: dict = {}
    duplicates: List[Tuple[int, int]] = []  # (index, index of first twin)

    for i, request in enumerate(requests):
        try:
            keys[i] = request.key()
        except Uncacheable:
            pending.append(i)
            continue
        hit = cache.get(keys[i])
        if hit is not None:
            folded[i] = ("ok", hit)
            stats.add(cache_hits=1)
            _metrics.inc("executor_cache_hits_total")
            continue
        twin = first_index_for_key.get(keys[i])
        if twin is not None:
            duplicates.append((i, twin))
            stats.add(duplicates=1)
            _metrics.inc("executor_duplicates_total")
            continue
        first_index_for_key[keys[i]] = i
        pending.append(i)

    for i in list(pending):
        cell = requests[i]
        try:
            if cell.affinity is None:
                resolve_scheme(cell.scheme, cell.spec, cell.workload.ntasks,
                               parked=cell.parked)
        except InfeasibleSchemeError as exc:
            folded[i] = ("infeasible", str(exc))
            pending.remove(i)
            stats.add(infeasible=1)
        except Exception:
            pass  # not a dash: the backend runs the cell and folds the error

    if pending:
        todo = [requests[i] for i in pending]
        _metrics.inc("executor_dispatched_total", len(todo))
        _metrics.set_gauge("executor_pool_jobs", jobs)
        _metrics.observe("executor_dispatch_cells", len(todo),
                         bounds=_metrics.COUNT_BUCKETS)
        if backend is None:
            from ..backends import default_backend
            backend = default_backend()
        with span("executor_batch", histogram="executor_batch_seconds",
                  cells=len(requests), dispatched=len(todo), jobs=jobs,
                  backend=backend.name) as timer:
            futures = backend.submit_cells(todo, jobs=jobs,
                                           timeout=timeout,
                                           retries=retries)
            answers = [future.result() for future in futures]
            timer.note(parallel=jobs > 1)
        for i, (status, payload) in zip(pending, answers):
            if status == "failed":
                stats.add(failed=1)
                _metrics.inc("executor_failed_total")
                detail = payload or {}
                payload = TargetFailure(
                    index=i,
                    kind=detail.get("kind", "error"),
                    message=detail.get("message", "unknown failure"),
                    attempts=1 + (retries if detail.get("kind")
                                  in ("crash", "timeout") else 0),
                    label=requests[i].label(),
                    key=keys[i],
                )
                _LOG.error("cell %d (%s) failed: %s", i,
                           requests[i].label(), payload.message)
            elif keys[i] is not None:
                cache.put(keys[i], payload)
            folded[i] = (status, payload)

    for i, twin in duplicates:
        status, payload = folded[twin]
        if status == "failed":  # the same cell fails at every index asking it
            payload = replace(payload, index=i)
        folded[i] = (status, payload)
    if outcomes is not None:
        outcomes.extend(folded)
    else:
        _FAILURES.extend(payload for status, payload in folded
                         if status == "failed")
    return [payload if status == "ok" else None
            for status, payload in folded]
