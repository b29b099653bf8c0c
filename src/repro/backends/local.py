"""In-process backends: a thread pool and the crash-isolated process pool.

:class:`ProcessBackend` is the default.  Each instance owns its worker
pool (stall watchdog, crash isolation, retry with backoff), so two
process backends never share, resize or close each other's workers.
It keeps the executor's dispatch rules: ``jobs > 1`` sends even a
single straggler to the pool so crash isolation holds for the last
missing cell too, and a batch with any unpicklable cell falls back to
a serial in-process loop.

:class:`ThreadBackend` runs cells on a thread pool in this process.
No crash isolation and no watchdog (a thread cannot be killed), and
the simulator is pure Python, so threads buy overlap rather than
speedup — it exists as the zero-setup backend for tests, embedders,
and the backend-parity harness, where "same bytes from a completely
different execution plane" is the property under test.

Both take the worker count, stall timeout and retry budget as
:func:`~repro.core.parallel.run_requests` resolved them; a ``None``
here means one worker, no watchdog and no retries.
"""

from __future__ import annotations

import logging
import pickle
import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.affinity import InfeasibleSchemeError
from ..core.parallel import JobRequest, default_jobs, pool_stats
from ..faults.plan import TransportExhaustedError
from ..telemetry import metrics as _metrics
from .base import ExecutionBackend, Outcome

__all__ = ["ProcessBackend", "ThreadBackend"]

_LOG = logging.getLogger("repro.backends.local")

#: base wall-clock sleep before a retry; doubles per attempt
_RETRY_BACKOFF_S = 0.05


def _execute_cell(request: JobRequest) -> Outcome:
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


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes (the only cure for a wedged one)."""
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass


class ThreadBackend(ExecutionBackend):
    """Cells on an in-process thread pool; futures resolve as they run."""

    name = "threads"

    def __init__(self, workers: Optional[int] = None):
        super().__init__()
        self._workers = workers
        self._size = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _executor(self, jobs: Optional[int]) -> ThreadPoolExecutor:
        size = self._workers or jobs or 1
        with self._pool_lock:
            if self._pool is None or size > self._size:
                # growing is safe mid-flight: the old pool keeps running
                # the futures it already owns
                old, self._pool = self._pool, ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-backend")
                self._size = size
                if old is not None:
                    old.shutdown(wait=False)
            return self._pool

    def submit_cells(self, batch: Sequence[JobRequest],
                     jobs: Optional[int] = None,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     ) -> "List[Future[Outcome]]":
        # timeout/retries guard against crashed or stalled *worker
        # processes*; threads share this process, so neither applies
        pool = self._executor(jobs)
        pool_stats().add(executed_serial=len(batch))
        return [self._watch(pool.submit(_execute_cell, request))
                for request in batch]

    def capacity(self) -> int:
        return self._size or self._workers or default_jobs()

    def workers(self, jobs: int) -> int:
        return self._workers or jobs

    def drain(self) -> None:
        with self._pool_lock:
            pool = self._pool
        if pool is not None:
            # idle=True barrier: a fresh no-op future flushes the queue
            pool.submit(lambda: None).result()

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._size = 0
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessBackend(ExecutionBackend):
    """The crash-isolated worker-process executor behind the backend API.

    ``submit_cells`` returns already-resolved futures: the process
    pool's own workers are the concurrency, and running the dispatch on
    the caller's thread keeps ``KeyboardInterrupt`` semantics exactly
    as they were (the interrupt kills the pool and propagates to the
    caller, never to a detached dispatcher thread).  The instance lock
    guards the pool and serializes this backend's dispatches, so one
    flight's crash recovery never kills another flight's workers.
    """

    name = "processes"

    def __init__(self, jobs: Optional[int] = None):
        super().__init__()
        self._jobs = jobs
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_jobs = 0

    def submit_cells(self, batch: Sequence[JobRequest],
                     jobs: Optional[int] = None,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     ) -> "List[Future[Outcome]]":
        jobs = self._jobs or jobs or 1
        outcomes: Optional[List[Outcome]] = None
        # jobs > 1 dispatches even a single straggler to the pool:
        # crash isolation must hold for the last missing cell too
        if jobs > 1:
            try:
                # one probe for the batch: shared specs and workloads
                # pickle once, not once per cell
                pickle.dumps(list(batch))
            except Exception:
                outcomes = None  # unpicklable cell: serial fallback
            else:
                with self._lock:
                    outcomes = self._run_parallel(list(batch), jobs,
                                                  timeout, retries or 0)
                pool_stats().add(executed_parallel=len(batch))
        if outcomes is None:
            outcomes = [_execute_cell(request) for request in batch]
            pool_stats().add(executed_serial=len(batch))
        return [self._resolved(outcome) for outcome in outcomes]

    def capacity(self) -> int:
        return self._jobs or default_jobs()

    def workers(self, jobs: int) -> int:
        return self._jobs or jobs

    def close(self) -> None:
        with self._lock:
            pool, self._pool, self._pool_jobs = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    # -- the worker pool (callers hold self._lock) ---------------------------

    def _executor(self, jobs: int) -> ProcessPoolExecutor:
        """This backend's persistent pool, rebuilt when the size changes."""
        if self._pool is None or self._pool_jobs != jobs:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._pool = ProcessPoolExecutor(max_workers=jobs)
            self._pool_jobs = jobs
        return self._pool

    def _abandon(self, kill: bool = False) -> None:
        """Drop the pool without waiting; optionally kill its workers.

        Used when the pool is broken (a worker died) or stalled (watchdog
        fired): the next dispatch builds a fresh one.  ``kill``
        terminates worker processes outright — the only way to reclaim a
        worker wedged in an infinite loop.
        """
        pool, self._pool, self._pool_jobs = self._pool, None, 0
        if pool is None:
            return
        if kill:
            _terminate_workers(pool)
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:
            pass  # a broken pool may refuse a clean shutdown

    def _submit_round(self, indices: List[int], todo: Sequence[JobRequest],
                      jobs: int, timeout: Optional[float],
                      ) -> Tuple[Dict[int, Outcome], Set[int], Set[int]]:
        """Dispatch ``indices`` to the pool; harvest what survives.

        Returns ``(outcomes, timed_out, crashed)``.  The timeout is a
        stall watchdog: it fires only when a full window passes with zero
        completions, at which point the remaining futures are cancelled
        and the (possibly wedged) pool is killed.  A worker death breaks
        the whole pool — every in-flight future fails — so lost cells
        come back in ``crashed`` for the caller to retry or isolate.
        Each future reports its own completion on a queue, so harvesting
        one cell costs the same however many are still in flight.
        """
        pool = self._executor(jobs)
        outcomes: Dict[int, Outcome] = {}
        timed_out: Set[int] = set()
        crashed: Set[int] = set()
        try:
            futures = {pool.submit(_execute_cell, todo[i]): i
                       for i in indices}
        except BrokenProcessPool:
            self._abandon()
            return outcomes, timed_out, set(indices)
        finished: "queue.SimpleQueue[Future]" = queue.SimpleQueue()
        for future in futures:
            future.add_done_callback(finished.put)
        pending = set(futures)
        try:
            while pending:
                try:
                    future = finished.get(timeout=timeout)
                except queue.Empty:
                    # a full window with zero completions: the pool stalled
                    _metrics.inc("executor_watchdog_fires_total")
                    for future in pending:
                        future.cancel()
                    timed_out.update(futures[f] for f in pending)
                    self._abandon(kill=True)
                    break
                pending.discard(future)
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
            self._abandon(kill=True)
            raise
        if crashed:
            _metrics.inc("executor_worker_crashes_total", len(crashed))
            self._abandon()
        return outcomes, timed_out, crashed

    @staticmethod
    def _run_isolated(request: JobRequest, timeout: Optional[float],
                      ) -> Outcome:
        """Run one suspect cell on a throwaway single-worker pool.

        After an ambiguous multi-cell crash (a broken pool fails every
        in-flight future, innocent and guilty alike), isolation re-runs
        each suspect alone so only the actually-crashing cell is blamed.
        """
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            future = pool.submit(_execute_cell, request)
            try:
                return future.result(timeout=timeout)
            except FuturesTimeoutError:
                future.cancel()
                _terminate_workers(pool)
                return ("timeout", None)
            except BrokenProcessPool:
                return ("crash", None)
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def _run_parallel(self, todo: Sequence[JobRequest], jobs: int,
                      timeout: Optional[float], retries: int,
                      ) -> List[Outcome]:
        """Drive a batch through the pool with retry, backoff, isolation."""
        outcomes: List[Optional[Outcome]] = [None] * len(todo)
        attempts = [0] * len(todo)
        remaining = list(range(len(todo)))
        isolate = False
        while remaining:
            for index in remaining:
                attempts[index] += 1
            # cells an ambiguous break took down: each is owed its
            # isolated run before it may be failed, whatever the budget
            spared: Set[int] = set()
            if isolate:
                lost: Dict[int, str] = {}
                for index in remaining:
                    outcome = self._run_isolated(todo[index], timeout)
                    if outcome[0] in ("timeout", "crash"):
                        lost[index] = outcome[0]
                    else:
                        outcomes[index] = outcome
            else:
                harvested, timed_out, crashed = self._submit_round(
                    remaining, todo, jobs, timeout)
                for index, outcome in harvested.items():
                    outcomes[index] = outcome
                lost = {index: "timeout" for index in timed_out}
                lost.update({index: "crash" for index in crashed})
                if len(crashed) > 1:
                    # ambiguous attribution: a broken pool killed innocents
                    # along with the guilty cell — isolate from here on
                    isolate = True
                    spared = crashed
                    _LOG.warning("worker pool broke with %d cells in "
                                 "flight; retrying each in isolation",
                                 len(crashed))
            next_remaining = []
            for index, kind in sorted(lost.items()):
                if attempts[index] > retries and index not in spared:
                    verb = ("stalled past the %.3gs watchdog" % timeout
                            if kind == "timeout" and timeout
                            else "worker process died")
                    outcomes[index] = ("failed", {
                        "kind": kind,
                        "message": f"{verb} on every attempt",
                    })
                else:
                    pool_stats().add(retried=1)
                    _metrics.inc("executor_retries_total")
                    next_remaining.append(index)
            if next_remaining and not isolate:
                time.sleep(_RETRY_BACKOFF_S * 2 ** (
                    max(attempts[i] for i in next_remaining) - 1))
            remaining = next_remaining
        return [outcome if outcome is not None
                else ("failed", {"kind": "error", "message": "cell never ran"})
                for outcome in outcomes]
