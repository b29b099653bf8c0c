"""Parallel sweep executor: fan independent experiment cells out.

The paper's methodology is a grid of independent (system × workload ×
scheme × MPI) cells, i.e. embarrassingly parallel.  This module turns a
list of :class:`JobRequest` cells into results using
``concurrent.futures`` worker processes, with four guarantees:

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
  :class:`TargetFailure` records (drain with :func:`take_failures`)
  instead of aborting the sweep.

Worker count resolution: an explicit ``jobs=`` argument, else
:func:`set_default_jobs` (the CLI's ``--jobs``), else the
``REPRO_BENCH_JOBS`` environment variable, else 1 (serial).  The
per-batch stall timeout and retry budget resolve the same way through
``REPRO_BENCH_TIMEOUT`` (seconds; unset disables the watchdog) and
``REPRO_BENCH_RETRIES``.  Requests that cannot be pickled (e.g.
monkeypatched workloads in tests) fall back to the serial path
transparently.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..faults.plan import FaultPlan, TransportExhaustedError
from ..machine.topology import MachineSpec
from ..mpi import MpiImplementation, OPENMPI
from ..telemetry import metrics as _metrics
from ..telemetry.tracing import span
from .affinity import (
    AffinityScheme,
    InfeasibleSchemeError,
    ResolvedAffinity,
    resolve_scheme,
)
from .cache import ResultCache, Uncacheable, default_cache, job_key
from .execution import JobResult, JobRunner
from .workload import Workload

__all__ = [
    "JobRequest",
    "PoolStats",
    "TargetFailure",
    "default_faults",
    "default_jobs",
    "default_retries",
    "default_tier",
    "default_timeout",
    "pool_stats",
    "prefetch",
    "reset_pool_stats",
    "run_request",
    "run_requests",
    "set_default_faults",
    "set_default_jobs",
    "set_default_retries",
    "set_default_tier",
    "set_default_timeout",
    "shutdown_pool",
    "take_failures",
]

_LOG = logging.getLogger("repro.core.parallel")

#: base wall-clock sleep before a retry; doubles per attempt
_RETRY_BACKOFF_S = 0.05


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
        """Content address of this cell (raises :class:`Uncacheable`)."""
        return job_key(self.spec, self.workload, scheme=self.scheme,
                       affinity=self.affinity, impl=self.impl or OPENMPI,
                       lock=self.lock, parked=self.parked,
                       profile=self.profile, faults=self.faults,
                       tier=self.effective_tier())

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
        """A short human-readable cell description for failure reports."""
        workload = getattr(self.workload, "name", None) \
            or type(self.workload).__name__
        scheme = self.affinity.scheme.value if self.affinity is not None \
            else self.scheme.value
        return f"{workload} on {self.spec.name} [{scheme}]"


@dataclass
class TargetFailure:
    """One cell the executor gave up on (after retries, if eligible).

    ``kind`` is ``"crash"`` (worker process died), ``"timeout"`` (batch
    watchdog fired), ``"fault_exhausted"`` (an injected transport fault
    exceeded its retry budget inside the simulation), or ``"error"``
    (any other exception, named in ``message``).
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
    batches, unpicklable fallbacks, and :func:`run_request` calls).  Together with ``cache_hits``,
    ``duplicates``, and ``failed`` they account for every ``cells``
    entry, which is what the run ledger's ``pool`` section reports;
    ``retried`` counts extra dispatch attempts after crashes/timeouts.
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


_POOL_STATS = PoolStats()


def pool_stats() -> PoolStats:
    """The process-wide executor counters (cumulative; snapshot to diff)."""
    return _POOL_STATS


def reset_pool_stats() -> None:
    """Zero the executor counters (tests, run boundaries)."""
    global _POOL_STATS
    _POOL_STATS = PoolStats()


# -- worker-count / robustness plumbing ------------------------------------

_DEFAULT_JOBS: Optional[int] = None
_DEFAULT_TIMEOUT: Optional[float] = None
_DEFAULT_TIMEOUT_SET = False
_DEFAULT_RETRIES: Optional[int] = None
_DEFAULT_FAULTS: Optional[FaultPlan] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide worker count (the CLI's ``--jobs``)."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs
    if jobs is not None and jobs != _pool_size():
        shutdown_pool()


def default_jobs() -> int:
    """Effective worker count when a call does not pass ``jobs=``."""
    if _DEFAULT_JOBS is not None:
        return max(1, _DEFAULT_JOBS)
    env = os.environ.get("REPRO_BENCH_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def set_default_timeout(seconds: Optional[float]) -> None:
    """Set the batch stall timeout (``None`` disables the watchdog)."""
    global _DEFAULT_TIMEOUT, _DEFAULT_TIMEOUT_SET
    _DEFAULT_TIMEOUT = seconds
    _DEFAULT_TIMEOUT_SET = True


def default_timeout() -> Optional[float]:
    """Effective stall timeout in seconds, or ``None`` when disabled.

    The watchdog is *stall*-based: it fires only when a full window
    elapses with zero cell completions, so a big batch on few workers
    never trips it while progress continues.
    """
    if _DEFAULT_TIMEOUT_SET:
        return _DEFAULT_TIMEOUT
    env = os.environ.get("REPRO_BENCH_TIMEOUT")
    if env:
        try:
            value = float(env)
        except ValueError:
            return None
        return value if value > 0 else None
    return None


def set_default_retries(retries: Optional[int]) -> None:
    """Set how many times a crashed/stalled cell is re-dispatched."""
    global _DEFAULT_RETRIES
    _DEFAULT_RETRIES = retries


def default_retries() -> int:
    """Effective retry budget for crashed/stalled cells (default 1)."""
    if _DEFAULT_RETRIES is not None:
        return max(0, _DEFAULT_RETRIES)
    env = os.environ.get("REPRO_BENCH_RETRIES")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return 1


def set_default_faults(plan: Optional[FaultPlan]) -> None:
    """Install a fault plan applied to every request without its own.

    Materialized *into* each request at batch entry (before keying), so
    fault-injected runs live under distinct cache addresses and worker
    processes — which do not share this module's globals — receive the
    plan by value.
    """
    global _DEFAULT_FAULTS
    _DEFAULT_FAULTS = plan if plan else None


def default_faults() -> Optional[FaultPlan]:
    """The process-wide fault plan, or ``None``."""
    return _DEFAULT_FAULTS


_DEFAULT_TIER: Optional[str] = None


def set_default_tier(tier: Optional[str]) -> None:
    """Install an execution tier for every request without its own.

    The CLIs' ``--tier``.  Like :func:`set_default_faults`, the tier is
    materialized *into* each request at batch entry — before keying, and
    by value, because worker processes do not share this module's
    globals.
    """
    global _DEFAULT_TIER
    if tier not in (None, "fast", "exact", "auto"):
        raise ValueError(
            f"tier must be 'fast', 'exact' or 'auto', got {tier!r}")
    _DEFAULT_TIER = tier


def default_tier() -> Optional[str]:
    """The process-wide execution tier, or ``None`` (exact)."""
    return _DEFAULT_TIER


_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0


def _pool_size() -> int:
    return _POOL_JOBS


def _pool(jobs: int) -> ProcessPoolExecutor:
    """A persistent worker pool, rebuilt when the size changes."""
    global _POOL, _POOL_JOBS
    if _POOL is None or _POOL_JOBS != jobs:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(max_workers=jobs)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (tests / CLI exit)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_JOBS = 0


def _abandon_pool(kill: bool = False) -> None:
    """Drop the persistent pool without waiting; optionally kill workers.

    Used when the pool is broken (a worker died) or stalled (watchdog
    fired): the next ``_pool()`` call builds a fresh one.  ``kill``
    terminates worker processes outright — the only way to reclaim a
    worker wedged in an infinite loop.
    """
    global _POOL, _POOL_JOBS
    pool = _POOL
    _POOL = None
    _POOL_JOBS = 0
    if pool is None:
        return
    if kill:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
    try:
        pool.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass  # a broken pool may refuse a clean shutdown


def _execute_cell(request: JobRequest) -> Tuple[str, object]:
    """Worker entry point: run one cell, folding every outcome to data.

    Infeasible placements are expected data (the paper tables' dashes).
    Any other exception — including an injected transport fault
    exhausting its retries — becomes a ``("failed", ...)`` outcome so
    one bad cell never aborts a whole sweep.
    """
    try:
        return ("ok", request.execute())
    except InfeasibleSchemeError as exc:
        return ("infeasible", str(exc))
    except TransportExhaustedError as exc:
        return ("failed", {"kind": "fault_exhausted", "message": str(exc)})
    except Exception as exc:
        return ("failed", {"kind": "error",
                           "message": f"{type(exc).__name__}: {exc}"})


# -- parallel dispatch with crash/stall recovery ---------------------------

def _submit_round(indices: List[int], todo: Sequence[JobRequest],
                  jobs: int, timeout: Optional[float],
                  ) -> Tuple[Dict[int, Tuple[str, object]], Set[int], Set[int]]:
    """Dispatch ``indices`` to the shared pool; harvest what survives.

    Returns ``(outcomes, timed_out, crashed)``.  The timeout is a stall
    watchdog: it fires only when a full window passes with zero
    completions, at which point the remaining futures are cancelled and
    the (possibly wedged) pool is killed.  A worker death breaks the
    whole pool — every in-flight future fails — so lost cells come back
    in ``crashed`` for the caller to retry or isolate.
    """
    pool = _pool(jobs)
    outcomes: Dict[int, Tuple[str, object]] = {}
    timed_out: Set[int] = set()
    crashed: Set[int] = set()
    try:
        futures = {pool.submit(_execute_cell, todo[i]): i for i in indices}
    except BrokenProcessPool:
        _abandon_pool()
        return outcomes, timed_out, set(indices)
    pending = set(futures)
    try:
        while pending:
            done, pending = wait(pending, timeout=timeout,
                                 return_when=FIRST_COMPLETED)
            if not done:
                # a full window with zero completions: the pool stalled
                _metrics.inc("executor_watchdog_fires_total")
                for future in pending:
                    future.cancel()
                timed_out.update(futures[f] for f in pending)
                _abandon_pool(kill=True)
                break
            for future in done:
                index = futures[future]
                try:
                    outcomes[index] = future.result()
                except BrokenProcessPool:
                    crashed.add(index)
                except Exception as exc:  # CancelledError and friends
                    crashed.add(index)
                    _LOG.debug("future for cell %d failed: %s", index, exc)
    except KeyboardInterrupt:
        for future in futures:
            future.cancel()
        _abandon_pool(kill=True)
        raise
    if crashed:
        _metrics.inc("executor_worker_crashes_total", len(crashed))
        _abandon_pool()
    return outcomes, timed_out, crashed


def _run_isolated(request: JobRequest, timeout: Optional[float],
                  ) -> Tuple[str, object]:
    """Run one suspect cell on a throwaway single-worker pool.

    After an ambiguous multi-cell crash (a broken pool fails every
    in-flight future, innocent and guilty alike), isolation re-runs each
    suspect alone so only the actually-crashing cell is blamed.
    """
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        future = pool.submit(_execute_cell, request)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            future.cancel()
            for proc in list((getattr(pool, "_processes", None)
                              or {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass
            return ("timeout", None)
        except BrokenProcessPool:
            return ("crash", None)
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def _run_parallel(todo: Sequence[JobRequest], jobs: int,
                  timeout: Optional[float], retries: int,
                  ) -> List[Tuple[str, object]]:
    """Drive a batch through the pool with retry, backoff, and isolation."""
    stats = _POOL_STATS
    outcomes: List[Optional[Tuple[str, object]]] = [None] * len(todo)
    attempts = [0] * len(todo)
    remaining = list(range(len(todo)))
    isolate = False
    while remaining:
        for index in remaining:
            attempts[index] += 1
        if isolate:
            lost: Dict[int, str] = {}
            for index in remaining:
                outcome = _run_isolated(todo[index], timeout)
                if outcome[0] in ("timeout", "crash"):
                    lost[index] = outcome[0]
                else:
                    outcomes[index] = outcome
        else:
            harvested, timed_out, crashed = _submit_round(
                remaining, todo, jobs, timeout)
            outcomes_update = harvested
            for index, outcome in outcomes_update.items():
                outcomes[index] = outcome
            lost = {index: "timeout" for index in timed_out}
            lost.update({index: "crash" for index in crashed})
            if len(crashed) > 1:
                # ambiguous attribution: a broken pool killed innocents
                # along with the guilty cell — isolate from here on
                isolate = True
                _LOG.warning("worker pool broke with %d cells in flight; "
                             "retrying each in isolation", len(crashed))
        next_remaining = []
        for index, kind in sorted(lost.items()):
            if attempts[index] > retries:
                verb = ("stalled past the %.3gs watchdog" % timeout
                        if kind == "timeout" and timeout
                        else "worker process died")
                outcomes[index] = ("failed", {
                    "kind": kind,
                    "message": f"{verb} on every attempt",
                })
            else:
                stats.retried += 1
                _metrics.inc("executor_retries_total")
                next_remaining.append(index)
        if next_remaining and not isolate:
            time.sleep(_RETRY_BACKOFF_S
                       * 2 ** (max(attempts[i] for i in next_remaining) - 1))
        remaining = next_remaining
    return [outcome if outcome is not None
            else ("failed", {"kind": "error", "message": "cell never ran"})
            for outcome in outcomes]


# -- the executor ----------------------------------------------------------

def run_request(request: JobRequest,
                cache: Optional[ResultCache] = None) -> JobResult:
    """Run one cell through the cache; infeasibility raises."""
    cache = cache if cache is not None else default_cache()
    if _DEFAULT_FAULTS is not None and request.faults is None:
        request = replace(request, faults=_DEFAULT_FAULTS)
    if _DEFAULT_TIER is not None and request.tier is None:
        request = replace(request, tier=_DEFAULT_TIER)
    stats = _POOL_STATS
    stats.cells += 1
    try:
        key = request.key()
    except Uncacheable:
        key = None
    if key is not None:
        hit = cache.get(key)
        if hit is not None:
            stats.cache_hits += 1
            return hit
    stats.executed_serial += 1
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
                 ) -> List[Optional[JobResult]]:
    """Run a batch of cells, returning results in request order.

    Infeasible cells come back as ``None`` (the paper tables' dashes),
    as do cells that failed outright — drain :func:`take_failures` to
    tell the two apart.  Cache hits are served directly; the remaining
    unique cells are scheduled on ``backend`` (an
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
    if _DEFAULT_FAULTS is not None:
        requests = [replace(r, faults=_DEFAULT_FAULTS)
                    if r.faults is None else r for r in requests]
    if _DEFAULT_TIER is not None:
        requests = [replace(r, tier=_DEFAULT_TIER)
                    if r.tier is None else r for r in requests]
    stats = _POOL_STATS
    stats.batches += 1
    stats.cells += len(requests)
    _metrics.inc("executor_batches_total")
    _metrics.inc("executor_cells_total", len(requests))

    results: List[Optional[JobResult]] = [None] * len(requests)
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
            results[i] = hit
            stats.cache_hits += 1
            _metrics.inc("executor_cache_hits_total")
            continue
        twin = first_index_for_key.get(keys[i])
        if twin is not None:
            duplicates.append((i, twin))
            stats.duplicates += 1
            _metrics.inc("executor_duplicates_total")
            continue
        first_index_for_key[keys[i]] = i
        pending.append(i)

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
            outcomes = [future.result() for future in futures]
            timer.note(parallel=jobs > 1)
        for i, (status, payload) in zip(pending, outcomes):
            if status == "infeasible":
                stats.infeasible += 1
                continue  # results[i] stays None
            if status == "failed":
                stats.failed += 1
                _metrics.inc("executor_failed_total")
                detail = payload or {}
                _FAILURES.append(TargetFailure(
                    index=i,
                    kind=detail.get("kind", "error"),
                    message=detail.get("message", "unknown failure"),
                    attempts=1 + (retries if detail.get("kind")
                                  in ("crash", "timeout") else 0),
                    label=requests[i].label(),
                    key=keys[i],
                ))
                _LOG.error("cell %d (%s) failed: %s", i,
                           requests[i].label(),
                           detail.get("message", "unknown failure"))
                continue  # results[i] stays None
            results[i] = payload
            if keys[i] is not None:
                cache.put(keys[i], payload)

    for i, twin in duplicates:
        results[i] = results[twin]
    return results


def prefetch(requests: Sequence[JobRequest],
             jobs: Optional[int] = None) -> int:
    """Warm the cache for a batch of cells; returns the feasible count.

    The bench generators keep their readable serial loops; calling this
    first makes every subsequent ``run()`` a memory-cache hit.
    """
    return sum(1 for r in run_requests(requests, jobs=jobs) if r is not None)
