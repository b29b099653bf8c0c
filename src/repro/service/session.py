"""The :class:`Session` facade: characterization as a long-running service.

A session is the execution context of every cell it runs.  It owns
the result cache, the executor settings — worker count, stall timeout,
retry budget, backend, execution tier and fault plan — and **one
outcome table** keyed by content address: its dedup, coalescing, memo
and kept failures.  An entry with no outcome yet is a job in flight,
which twins from every entry point attach to; an entry with an outcome
(``ok``, ``infeasible``, or a ``failed`` kind that depends only on the
cell: ``fault_exhausted`` or ``error``) answers every later request
for the cell.  Every other failure kind describes the host (``crash``,
``timeout``, ``transport``, ``cancelled``, a relayed ``queue_full``):
it is delivered, then forgotten.  On top sits an **async job queue**:

* ``submit(request)`` returns a ``concurrent.futures.Future`` that
  resolves to a :class:`~.api.RunResult`; a background dispatcher
  drains the queue in **batches** through the executor of
  :mod:`repro.core.parallel` on the session's backend (on the default
  process backend the stall watchdog, bounded retry, and worker-crash
  isolation all apply to served jobs).
* concurrent submits of **identical cells coalesce**: the first keyed
  submit owns the simulation, later twins attach as waiters and every
  future resolves to the same (byte-identical) payload — one
  simulation, N answers, each carrying its own request's ``tag``.
* **admission control**: the queue depth is bounded; a submit beyond
  it raises :class:`~repro.errors.QueueFullError` (the service's 429)
  carrying a ``retry_after`` hint derived from observed service times.
  Rejected jobs were never accepted, accepted jobs are never dropped.
* **graceful drain**: ``drain()`` stops admitting and completes every
  accepted job; ``close()`` drains and stops the dispatcher.  A
  session is a context manager (``with Session() as s: ...``).

``run(request)`` is the synchronous form: it executes in the calling
thread (attaching to an in-flight twin when one exists) and returns the
:class:`RunResult` directly; ``run_many``, ``outcomes`` and
``prefetch`` are its batch forms.  Every entry point takes a bare
:class:`~repro.core.parallel.JobRequest` or a :class:`~.api.RunRequest`
around one.  The sweep methods (:meth:`scheme_sweep`,
:meth:`compare_schemes`, :meth:`scaling_study`) are the typed,
session-routed sweep drivers.

Per-request telemetry: every batch is bracketed in a ``service_batch``
span (which also feeds the ``service_batch_seconds`` histogram), a
traced submit opens a ``session_job`` span closed at delivery, and
:meth:`gauges` exposes perfctr-style queue-depth / wait-time /
coalesce counters that the ``serve`` daemon folds into its ledger
record so ``repro-bench history``/``regress`` cover served traffic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..core.cache import ResultCache, Uncacheable, default_cache
from ..core.metrics import parallel_efficiency
from ..core.parallel import (JobRequest, Outcome, TargetFailure, default_jobs,
                             run_requests)
from ..core.report import TableResult
from ..errors import (
    NoFeasibleSchemeError,
    QueueFullError,
    SessionClosedError,
    UnknownMetricError,
)
from ..telemetry import metrics, tracing
from ..telemetry.tracing import span
from .api import RunRequest, RunResult

#: what every entry point takes: a bare cell or a served request around one
Request = Union[RunRequest, JobRequest]

__all__ = ["ServiceStats", "Session", "default_session", "set_default_session"]

#: default bound on queued-but-undispatched jobs (the admission limit)
DEFAULT_MAX_PENDING = 256
#: default cap on cells dispatched to the pool as one batch
DEFAULT_MAX_BATCH = 64

#: the failure kinds that depend on the cell alone and so are kept:
#: every other kind (a crash or stall the backend already retried, a
#: lost transport, a cancelled job, a rejection relayed by a remote
#: backend) describes the host, is delivered, then forgotten, and the
#: next request for the cell simulates it again
_CELL_FAILURES = frozenset({"fault_exhausted", "error"})


@dataclass
class ServiceStats:
    """Perfctr-style service counters and gauges, all plain numbers.

    Counter semantics: ``submitted`` counts every arrival, split into
    ``accepted`` (queued), ``coalesced`` (attached to an in-flight
    twin), ``cache_hits`` (answered at admission from the outcome table
    or result cache), and ``rejected`` (backpressure).  ``completed`` /
    ``infeasible`` / ``failed`` count *answers* by terminal status
    (admission hits included), ``computed`` only the jobs that ran;
    ``wait_s_*`` measure queue time from submit to
    delivery; ``queue_depth`` / ``queue_depth_peak`` gauge the backlog.
    """

    submitted: int = 0
    accepted: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    rejected: int = 0
    degraded: int = 0
    computed: int = 0
    completed: int = 0
    infeasible: int = 0
    failed: int = 0
    batches: int = 0
    queue_depth: int = 0
    queue_depth_peak: int = 0
    wait_s_total: float = 0.0
    wait_s_max: float = 0.0
    busy_s_total: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "computed": self.computed,
            "completed": self.completed,
            "infeasible": self.infeasible,
            "failed": self.failed,
            "batches": self.batches,
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "wait_s_total": round(self.wait_s_total, 6),
            "wait_s_max": round(self.wait_s_max, 6),
            "busy_s_total": round(self.busy_s_total, 6),
        }


class _Job:
    """One cell in flight and its waiters; ``request`` (``None`` for a
    bare cell) carries the tag and the trace the executor hop joins."""

    __slots__ = ("request", "job_request", "key", "waiters",
                 "submitted_at", "outcome", "degraded")

    def __init__(self, request: Optional[RunRequest],
                 job_request: JobRequest, key: Optional[str]):
        self.request = request
        self.job_request = job_request
        self.key = key
        #: (future, ``session_job`` span, tag); the first one is the owner
        self.waiters: List[Tuple[Future, Any, Optional[str]]] = []
        self.submitted_at = time.perf_counter()
        #: resolved inline via the surrogate by load shedding
        self.degraded = False
        #: the terminal outcome once delivered
        self.outcome: Optional[Outcome] = None

    @property
    def tag(self) -> Optional[str]:
        return self.request.tag if self.request is not None else None

    def failed(self, kind: str, message: str) -> Outcome:
        """A ``failed`` outcome for this cell, shaped like the executor's."""
        return "failed", TargetFailure(
            index=0, kind=kind, message=message, attempts=1,
            label=self.job_request.label(), key=self.key)


def _result(outcome: Outcome, key: Optional[str], tag: Optional[str],
            source: str, wait_s: float = 0.0,
            degraded: bool = False) -> RunResult:
    """The :class:`RunResult` one waiter receives for ``outcome``."""
    status, payload = outcome
    common = dict(status=status, key=key, source=source, wait_s=wait_s,
                  tag=tag, degraded=degraded)
    if status == "ok":
        return RunResult(job=payload, **common)
    if status == "infeasible":
        return RunResult(error=str(payload), code="infeasible_scheme",
                         **common)
    return RunResult(error=payload.message, code="job_failed",
                     kind=payload.kind, **common)


class Session:
    """A characterization service instance (see module docstring).

    ``cache=None`` shares the process-wide content-addressed cache;
    pass an explicit :class:`~repro.core.cache.ResultCache` for an
    isolated (e.g. per-tenant or per-test) session.  ``jobs``,
    ``timeout`` and ``retries`` left ``None`` resolve from the
    ``REPRO_BENCH_*`` environment; ``timeout=0`` disables the stall
    watchdog.  ``paused=True`` holds the dispatcher so tests and batch
    clients can stage submits — staging is also what makes coalescing
    deterministic to observe.
    ``backend`` picks the execution plane every batch is scheduled on
    (an :class:`~repro.backends.ExecutionBackend` or its CLI spelling:
    ``threads``, ``processes``, ``remote:<addr>``); the default is the
    process-wide crash-isolated worker pool, and since backends never
    touch the cache the choice cannot change a single result byte.
    ``tier`` (``fast``/``exact``/``auto``) and ``faults`` (a
    :class:`~repro.faults.FaultPlan`) apply to every cell that leaves
    its own ``None``; :meth:`cell` is where they are filled in.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 jobs: Optional[int] = None,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 batch_window: float = 0.0,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 name: str = "session",
                 paused: bool = False,
                 shed_threshold: Optional[float] = None,
                 backend=None,
                 tier: Optional[str] = None,
                 faults=None):
        if tier not in (None, "fast", "exact", "auto"):
            raise ValueError(
                f"tier must be 'fast', 'exact' or 'auto', got {tier!r}")
        self._cache = cache
        self.jobs = jobs
        #: the ExecutionBackend every batch is scheduled on (``None``
        #: defers to the process-wide default — see repro.backends);
        #: accepts a CLI spelling like "threads" or "remote:<addr>"
        self.backend = None
        if backend is not None:
            from ..backends import resolve_backend
            self.backend = resolve_backend(backend)
        self.max_pending = max(1, max_pending)
        self.max_batch = max(1, max_batch)
        self.batch_window = max(0.0, batch_window)
        self.timeout = timeout
        self.retries = retries
        self.tier = tier
        #: a FaultPlan; an empty plan counts as none
        self.faults = faults if faults else None
        self.name = name
        #: queue-wait p99 (seconds) beyond which submits are shed:
        #: rejected with a live retry-after, or — for ``tier="auto"``
        #: cells the surrogate supports — degraded to an inline fast
        #: evaluation that bypasses the backlog.  ``None`` disables.
        self.shed_threshold = shed_threshold
        self.stats = ServiceStats()

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[_Job] = deque()
        self._outstanding = 0          # accepted jobs not yet delivered
        #: the outcome table, by content address: a job in flight, or
        #: the outcome that answers every later request for the cell
        self._table: Dict[str, Union[_Job, Outcome]] = {}
        self._paused = paused
        self._draining = False
        self._closed = False
        self._dispatcher: Optional[threading.Thread] = None
        #: EWMA of per-cell service seconds, for retry-after hints
        self._cell_s = 0.05
        #: recent queue waits, the shedding signal (bounded window)
        self._wait_samples: Deque[float] = deque(maxlen=256)

    # -- plumbing --------------------------------------------------------

    @property
    def cache(self) -> ResultCache:
        """This session's result cache (the process default if unset)."""
        if self._cache is None:
            return default_cache()
        return self._cache

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-session-{self.name}", daemon=True)
            self._dispatcher.start()

    def cell(self, job: JobRequest) -> JobRequest:
        """The cell this session runs for ``job``.

        The session's ``tier`` and ``faults`` fill in whatever the cell
        leaves ``None``.  This is the one place they apply: submit and
        coalescing keys, the shedding check, and the cells sent to the
        executor all come from here, so fault-injected or fast-tier
        cells live under their own cache addresses and worker processes
        receive the settings by value.
        """
        return job.filled(self.tier, self.faults)

    def _job(self, request: Request) -> _Job:
        """A job for ``request``: its cell and content address.  The one
        place a :class:`RunRequest` is unwrapped."""
        if isinstance(request, JobRequest):
            request, cell = None, self.cell(request)
        else:
            cell = self.cell(request.cell)
        try:
            key = cell.key()
        except Uncacheable:
            key = None
        return _Job(request, cell, key)

    def _workers(self) -> int:
        """How many cells one flight of this session runs at once."""
        from ..backends import default_backend

        backend = self.backend if self.backend is not None \
            else default_backend()
        jobs = default_jobs() if self.jobs is None else max(1, self.jobs)
        # a sized backend runs that many workers whatever jobs= says
        return backend.workers(jobs)

    def _retry_after(self) -> float:
        """Backpressure hint: when the backlog should have drained."""
        backlog = len(self._queue) + 1
        return max(0.05, self._cell_s * backlog / self._workers())

    def wait_p99(self) -> float:
        """p99 of recent queue waits (0 until samples accumulate)."""
        with self._lock:
            samples = sorted(self._wait_samples)
        if not samples:
            return 0.0
        return samples[min(len(samples) - 1,
                           int(0.99 * (len(samples) - 1) + 0.5))]

    def _should_shed_locked(self) -> bool:
        """Is the queue-wait p99 past the shedding threshold?

        Only meaningful with backlog: an idle session never sheds, even
        right after a burst left high wait samples behind.
        """
        if self.shed_threshold is None or not self._queue:
            return False
        if len(self._wait_samples) < 4:  # too little signal to condemn
            return False
        return self.wait_p99() > self.shed_threshold

    @staticmethod
    def _degradable(job: _Job) -> bool:
        """May this job be shed to the surrogate fast path?

        Only ``tier="auto"`` cells the surrogate supports: their
        effective tier is already ``fast`` (resolved *before* cache
        keying), so the inline surrogate answer is byte- and
        key-identical to what the queued path would have produced.
        """
        if job.job_request.tier != "auto":
            return False
        try:
            return job.job_request.effective_tier() == "fast"
        except Exception:
            return False

    # -- the async plane -------------------------------------------------

    def _hop(self, job: _Job) -> Any:
        """A traced waiter's ``session_job`` span, submit to delivery."""
        request = job.request
        if request is None or request.trace_id is None:
            return tracing.NULL_SPAN
        with tracing.context(request.trace_id, request.parent_span):
            return span("session_job", session=self.name)

    def submit(self, request: Request) -> "Future[RunResult]":
        """Queue one cell; the future resolves to its :class:`RunResult`.

        Admission order: coalesce onto an in-flight twin (free), answer
        from the outcome table or the result cache (free), then admit
        against the queue bound — or reject with
        :class:`QueueFullError`.  A returned
        future is a promise: accepted jobs are never dropped, even by
        :meth:`drain`/:meth:`close` or a worker crash (failures resolve
        the future with a ``failed`` result, not silence).

        With ``shed_threshold`` set, an overloaded session (queue-wait
        p99 past the threshold, or queue full) **sheds**: ``tier="auto"``
        cells the surrogate supports are answered inline through the
        fast path (``degraded=True`` on the result, same content
        address as the queued path would produce); everything else is
        rejected with a live ``retry_after``.
        """
        job = self._job(request)
        hop = self._hop(job)
        degrade: Optional[_Job] = None
        with self._cond:
            if self._closed or self._draining:
                self.stats.rejected += 1
                metrics.inc("service_rejected_total")
                raise SessionClosedError(
                    f"session {self.name!r} is "
                    f"{'closed' if self._closed else 'draining'}")
            self.stats.submitted += 1
            metrics.inc("service_submitted_total")
            key = job.key
            if key is not None and key not in self._table:
                hit = self.cache.get(key)
                if hit is not None:
                    self._table[key] = ("ok", hit)
            future, entry = self._admit_locked(job, hop)
            if entry is not job:
                return future
            overloaded = len(self._queue) >= self.max_pending
            shedding = overloaded or self._should_shed_locked()
            if shedding and self.shed_threshold is not None \
                    and self._degradable(job):
                job.degraded = True
                self._outstanding += 1
                self.stats.accepted += 1
                self.stats.degraded += 1
                metrics.inc("service_accepted_total")
                metrics.inc("service_degraded_total")
                degrade = job
            elif shedding:
                self._table.pop(key, None)  # admitted above, not accepted
                self.stats.rejected += 1
                metrics.inc("service_rejected_total")
                retry_after = self._retry_after()
                if overloaded:
                    reason = f"queue is full ({self.max_pending} pending)"
                else:
                    reason = (f"queue wait p99 {self.wait_p99():.3f}s is "
                              f"over the shed threshold "
                              f"({self.shed_threshold}s)")
                raise QueueFullError(
                    f"session {self.name!r} {reason}",
                    retry_after=retry_after)
            else:
                self._queue.append(job)
                self._outstanding += 1
                self.stats.accepted += 1
                metrics.inc("service_accepted_total")
                self.stats.queue_depth = len(self._queue)
                self.stats.queue_depth_peak = max(
                    self.stats.queue_depth_peak, self.stats.queue_depth)
                metrics.set_gauge("service_queue_depth",
                                  self.stats.queue_depth)
                self._ensure_dispatcher()
                self._cond.notify_all()
        if degrade is not None:
            # execute outside the lock: shedding must not block the
            # very queue it is relieving
            self._fly([degrade])
        return future

    def _admit_locked(self, job: _Job, hop: Any = tracing.NULL_SPAN
                      ) -> Tuple["Future[RunResult]", Union[_Job, Outcome]]:
        """Look ``job``'s cell up in the outcome table (caller holds the
        lock): the waiter's future and the entry that answers it.

        A kept outcome answers at once (an admission hit); a twin in
        flight takes the waiter.  Otherwise ``job`` enters the table and
        is its own entry: the caller owns the simulation.
        """
        future: "Future[RunResult]" = Future()
        entry = self._table.get(job.key)
        if isinstance(entry, _Job):
            self.stats.coalesced += 1
            metrics.inc("service_coalesce_hits_total")
            entry.waiters.append((future, hop, job.tag))
            return future, entry
        if entry is not None:
            self.stats.cache_hits += 1
            metrics.inc("service_admission_cache_hits_total")
            self._account(entry[0], computed=False)
            hop.note(source="cache")
            hop.end()
            future.set_result(_result(entry, job.key, job.tag, "cache"))
            return future, entry
        job.waiters.append((future, hop, job.tag))
        if job.key is not None:
            self._table[job.key] = job
        return future, job

    def pause(self) -> None:
        """Hold the dispatcher (submits still accepted and coalesced)."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        """Release a paused dispatcher."""
        with self._cond:
            self._paused = False
            if self._queue:
                self._ensure_dispatcher()
            self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting; wait for every accepted job to complete.

        Returns ``True`` when the queue drained (``False`` on timeout).
        The session rejects new submits from the first ``drain`` call
        on — this is the shutdown half of backpressure.
        """
        t0 = time.monotonic()
        deadline = None if timeout is None else t0 + timeout
        with self._cond:
            self._draining = True
            self._paused = False
            self._cond.notify_all()
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining if remaining is not None
                                else 0.1)
        metrics.observe("service_drain_seconds", time.monotonic() - t0)
        return True

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Drain (by default) and stop the dispatcher thread."""
        if drain:
            self.drain(timeout=timeout)
        dispatcher = None
        with self._cond:
            self._draining = True
            self._closed = True
            undelivered = []
            while self._queue:
                undelivered.append(self._queue.popleft())
            self.stats.queue_depth = 0
            for job in undelivered:
                # only reachable on drain=False: surface, never drop
                self._deliver_locked(job, job.failed(
                    "cancelled", "session closed before the job ran"))
            dispatcher = self._dispatcher
            self._dispatcher = None
            self._cond.notify_all()
        if dispatcher is not None and dispatcher.is_alive():
            dispatcher.join(timeout=5.0)
        if self.backend is not None:
            self.backend.close()

    # -- the sync plane ---------------------------------------------------

    def run(self, request: Request) -> RunResult:
        """Execute one cell synchronously and return its result.

        Answered from the outcome table, or attached to the cell's job
        in flight; otherwise executes in the calling thread through the
        same cache/executor path the dispatcher uses, so sync and
        served results are byte-identical.
        """
        return self._claims([request])[0][0].result()

    def run_many(self, requests: Sequence[Request],
                 jobs: Optional[int] = None) -> List[RunResult]:
        """Execute a batch synchronously, in request order.

        The sweep primitive: infeasible cells come back as
        ``status="infeasible"`` results (the tables' dashes) rather
        than raising.  The cells the outcome table cannot answer run
        once each, as one executor flight.
        """
        return [future.result()
                for future, _entry in self._claims(requests, jobs=jobs)]

    def outcomes(self, requests: Sequence[Request]) -> List[Outcome]:
        """Each cell's outcome, in order: the batch read, answered from
        the outcome table, the rest run as one executor flight."""
        outcomes = []
        for future, entry in self._claims(requests):
            future.result()  # a twin another thread owns may still fly
            outcomes.append(entry.outcome if isinstance(entry, _Job)
                            else entry)
        return outcomes

    def prefetch(self, requests: Sequence[Request]) -> List[TargetFailure]:
        """Settle a batch of cells in one flight; returns the failed ones.

        Calling this first settles the cells of several later reads as
        one flight (in parallel with ``jobs > 1``), so every later
        :meth:`run` or :meth:`outcomes` is answered from the outcome
        table.  Each failed cell is reported once, ``index`` its first
        position.
        """
        failed: Dict[int, TargetFailure] = {}  # twins share one payload
        for index, (status, payload) in enumerate(self.outcomes(requests)):
            if status == "failed":
                failed.setdefault(id(payload), replace(payload, index=index))
        return list(failed.values())

    def failure(self, key: Optional[str]) -> Optional[TargetFailure]:
        """The failure this session keeps for the cell at ``key``."""
        with self._lock:
            entry = self._table.get(key)
        if isinstance(entry, tuple) and entry[0] == "failed":
            return entry[1]
        return None

    def _claims(self, requests: Sequence[Request], jobs: Optional[int] = None
                ) -> List[Tuple["Future[RunResult]", Union[_Job, Outcome]]]:
        """Admit a batch of cells and run the ones this thread owns as
        one flight; each cell's future and the entry answering it."""
        batch = [self._job(request) for request in requests]
        with self._cond:
            if self._closed:
                raise SessionClosedError(f"session {self.name!r} is closed")
            self.stats.submitted += len(batch)
            claims = [self._admit_locked(job) for job in batch]
        owned = [job for job, (_f, entry) in zip(batch, claims)
                 if entry is job]
        if owned:
            self._fly(owned, jobs=jobs, queued=False)
        return claims

    def _fly(self, batch: List[_Job], jobs: Optional[int] = None,
             queued: bool = True) -> None:
        """Execute owned jobs as one flight and deliver them.  A harness
        fault fails every waiter, keeps nothing, and propagates."""
        error = None
        try:
            outcomes = self._execute(batch, jobs=jobs)
        except BaseException as exc:  # deliver, never lose a promise
            error = exc
            outcomes = [job.failed("error", f"dispatcher error: "
                                            f"{type(exc).__name__}: {exc}")
                        for job in batch]
        with self._cond:
            for job, outcome in zip(batch, outcomes):
                self._deliver_locked(job, outcome, queued=queued,
                                     keep=error is None)
        if error is not None:
            raise error

    # -- execution core ---------------------------------------------------

    def _execute(self, batch: List[_Job],
                 jobs: Optional[int] = None) -> List[Outcome]:
        """Run a batch as one executor flight; the executor's outcomes.

        A shed job flies alone, at ``jobs=1`` on the in-process default
        backend: past the queue, and outside the service-time estimate.
        """
        degraded = batch[0].degraded
        backend = None if degraded else self.backend
        jobs = 1 if degraded else jobs if jobs is not None else self.jobs
        # the executor hop of each traced job; the whole batch shares one
        # pool flight, so every such span covers the same interval
        workers = []
        for job in batch:
            if job.request is not None and job.request.trace_id is not None:
                owner = job.waiters[0][1].span_id if job.waiters else None
                with tracing.context(job.request.trace_id,
                                     owner or job.request.parent_span):
                    workers.append(span("worker_batch", session=self.name,
                                        cells=len(batch)))
        outcomes: List[Outcome] = []
        with span("service_batch", histogram="service_batch_seconds",
                  timed=True, session=self.name,
                  cells=len(batch)) as batch_span:
            run_requests([job.job_request for job in batch], jobs=jobs,
                         cache=self.cache, timeout=self.timeout,
                         retries=self.retries, backend=backend,
                         outcomes=outcomes)
            failed = sum(status == "failed" for status, _ in outcomes)
            batch_span.note(failed=failed)
        elapsed = batch_span.elapsed
        metrics.observe("service_batch_cells", len(batch),
                        bounds=metrics.COUNT_BUCKETS)
        for worker in workers:
            worker.note(failed=failed)
            worker.end()
        if degraded:
            metrics.observe("service_degraded_seconds", elapsed)
            return outcomes
        with self._lock:
            self.stats.busy_s_total += elapsed
            # EWMA over per-cell service time feeds retry-after hints
            per_cell = elapsed / max(1, len(batch))
            self._cell_s = 0.7 * self._cell_s + 0.3 * per_cell
        return outcomes

    def _account(self, status: str, computed: bool = True) -> None:
        """Terminal-state statistics for one answer (caller holds the
        lock).  An admission hit (``computed`` false) bumps only the
        stats counter of its status; the ``service_*_total`` metrics
        count jobs, and the hit has its own metric."""
        if status == "ok":
            self.stats.completed += 1
            metric = "service_completed_total"
        elif status == "infeasible":
            self.stats.infeasible += 1
            metric = "service_infeasible_total"
        else:
            self.stats.failed += 1
            metric = "service_failed_total"
        if computed:
            self.stats.computed += 1
            metrics.inc(metric)

    def _deliver_locked(self, job: _Job, outcome: Outcome,
                        queued: bool = True, keep: bool = True) -> None:
        """Resolve ``job``'s waiters (caller holds the lock); ``queued``
        jobs (accepted by :meth:`submit`) feed the queue-wait statistics.
        The table keeps the outcome alone, or forgets a host loss."""
        wait_s = 0.0
        if queued:
            wait_s = time.perf_counter() - job.submitted_at
            self.stats.wait_s_total += wait_s
            self.stats.wait_s_max = max(self.stats.wait_s_max, wait_s)
            self._wait_samples.append(wait_s)
            metrics.observe("service_wait_seconds", wait_s)
            metrics.set_gauge("service_queue_depth", self.stats.queue_depth)
            self._outstanding -= 1
        job.outcome = outcome
        status, payload = outcome
        if self._table.get(job.key) is job:  # not cleared meanwhile
            if keep and (status != "failed"
                         or payload.kind in _CELL_FAILURES):
                self._table[job.key] = outcome
            else:
                del self._table[job.key]
        self._account(status)
        waiters, job.waiters = job.waiters, []
        for i, (future, hop, tag) in enumerate(waiters):
            source = "computed" if i == 0 else "coalesced"
            hop.note(source=source, status=status)
            hop.end()
            if not future.set_running_or_notify_cancel():
                continue  # a waiter cancelled; the job itself never is
            future.set_result(_result(outcome, job.key, tag, source,
                                      wait_s=wait_s, degraded=job.degraded))
        self._cond.notify_all()

    def _dispatch_loop(self) -> None:
        """Background dispatcher: drain the queue in batches."""
        while True:
            with self._cond:
                while not self._queue or self._paused:
                    if self._closed or (self._draining and not self._queue):
                        return
                    self._cond.wait(timeout=0.1)
                batch = []
                while self._queue and len(batch) < self.max_batch:
                    batch.append(self._queue.popleft())
                self.stats.queue_depth = len(self._queue)
            if (self.batch_window > 0 and len(batch) < self.max_batch
                    and self._workers() > 1):
                # brief accumulation window: let near-simultaneous
                # submits ride the same pool batch (a serial flight
                # runs its cells one by one, so waiting gains nothing)
                time.sleep(self.batch_window)
                with self._cond:
                    while self._queue and len(batch) < self.max_batch:
                        batch.append(self._queue.popleft())
                    self.stats.queue_depth = len(self._queue)
            with self._lock:
                self.stats.batches += 1
            try:
                self._fly(batch)
            except BaseException:
                pass  # delivered as failures; the dispatcher keeps serving

    def clear(self) -> None:
        """Forget the outcome table and the cache memory tier.

        On-disk cache entries stay valid.  A job still in flight
        delivers to its waiters but is not kept.
        """
        with self._lock:
            self._table.clear()
        self.cache.clear_memory()

    # -- telemetry ---------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Perfctr-style gauge snapshot for dashboards and the ledger."""
        stats = self.stats
        lookups = stats.coalesced + stats.cache_hits + stats.accepted
        gauges = {
            "service_queue_depth": stats.queue_depth,
            "service_queue_depth_peak": stats.queue_depth_peak,
            "service_outstanding": self._outstanding,
            "service_coalesce_hits": stats.coalesced,
            "service_cache_hits": stats.cache_hits,
            "service_rejected": stats.rejected,
            "service_degraded": stats.degraded,
            "service_wait_seconds_p99": round(self.wait_p99(), 6),
            "service_wait_seconds_max": round(stats.wait_s_max, 6),
            "service_wait_seconds_mean": round(
                stats.wait_s_total / stats.computed, 6)
                if stats.computed else 0.0,
            "service_coalesce_rate": round(stats.coalesced / lookups, 6)
                if lookups else 0.0,
        }
        if self.backend is not None:
            gauges.update(self.backend.gauges())
        return gauges

    # -- typed sweep API ----------------------------------------------------

    def scheme_sweep(self, system, workload_factory, task_counts,
                     schemes=None, impl=None, lock=None,
                     value=None, title="", jobs=None,
                     tier=None) -> TableResult:
        """A paper-style numactl table for one workload on one system.

        Rows are task counts, columns the affinity schemes; infeasible
        combinations render as dashes, exactly like the paper's tables.
        """
        from ..core.experiment import ALL_SCHEMES

        schemes = tuple(ALL_SCHEMES) if schemes is None else tuple(schemes)
        value = value if value is not None else (lambda r: r.wall_time)
        table = TableResult(
            title=title or f"{system.name}: numactl scheme sweep",
            headers=["MPI tasks"] + [str(s) for s in schemes],
        )
        requests = []
        for ntasks in task_counts:
            workload = workload_factory(ntasks)
            for scheme in schemes:
                requests.append(JobRequest(spec=system, workload=workload,
                                           scheme=scheme, impl=impl,
                                           lock=lock, tier=tier))
        with span("sweep", kind="scheme_sweep", table=table.title,
                  cells=len(requests)):
            results = self.run_many(requests, jobs=jobs)
        cells = iter(results)
        for ntasks in task_counts:
            row: List[Any] = [ntasks]
            for _scheme in schemes:
                result = next(cells)
                row.append(value(result.job) if result.ok else None)
            table.add_row(*row)
        return table

    def compare_schemes(self, system, workload_factory, schemes=None,
                        impl=None, lock=None, value=None, jobs=None,
                        tier=None):
        """Run one workload under every feasible scheme and rank them."""
        from ..core.experiment import ALL_SCHEMES, SchemeComparison

        schemes = tuple(ALL_SCHEMES) if schemes is None else tuple(schemes)
        value = value if value is not None else (lambda r: r.wall_time)
        workload = workload_factory()
        requests = [JobRequest(spec=system, workload=workload,
                               scheme=scheme, impl=impl, lock=lock,
                               tier=tier)
                    for scheme in schemes]
        with span("sweep", kind="compare_schemes", workload=workload.name,
                  cells=len(requests)):
            results = self.run_many(requests, jobs=jobs)
        times = {str(scheme): value(result.job)
                 for scheme, result in zip(schemes, results) if result.ok}
        if not times:
            raise NoFeasibleSchemeError("no feasible scheme for this "
                                        "workload")
        ordered = sorted(times, key=lambda k: times[k])
        return SchemeComparison(times=times, best=ordered[0],
                                worst=ordered[-1])

    def scaling_study(self, systems, workload_factory, task_counts,
                      scheme=None, impl=None, value=None, title="",
                      metric="efficiency", jobs=None,
                      tier=None) -> TableResult:
        """Parallel-efficiency (or speedup) rows per system (Table 4)."""
        from ..core.affinity import AffinityScheme

        scheme = scheme if scheme is not None else AffinityScheme.DEFAULT
        value = value if value is not None else (lambda r: r.wall_time)
        if metric not in ("efficiency", "speedup"):
            raise UnknownMetricError(f"unknown metric {metric!r}")
        table = TableResult(
            title=title or f"multi-core {metric}",
            headers=["System"] + [f"{n} cores" for n in task_counts],
        )
        requests = []
        cells: List[Tuple[Any, Optional[int]]] = []
        for system in systems:
            requests.append(JobRequest(spec=system,
                                       workload=workload_factory(1),
                                       impl=impl, tier=tier))
            cells.append((system, None))
            for n in task_counts:
                if n > system.total_cores:
                    continue
                requests.append(JobRequest(spec=system,
                                           workload=workload_factory(n),
                                           scheme=scheme, impl=impl,
                                           tier=tier))
                cells.append((system, n))
        with span("sweep", kind="scaling_study", table=table.title,
                  cells=len(requests)):
            results = dict(zip(cells, self.run_many(requests, jobs=jobs)))
        for system in systems:
            t1 = value(results[(system, None)].require())
            row: List[Any] = [system.name]
            for n in task_counts:
                if n > system.total_cores:
                    row.append(None)
                    continue
                tn = value(results[(system, n)].require())
                if metric == "efficiency":
                    row.append(parallel_efficiency(t1, tn, n))
                else:
                    row.append(t1 / tn)
            table.add_row(*row)
        return table


_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session (shares the default result cache).

    :mod:`repro.bench.common` delegates here, so the bench builders and
    session-based code share one outcome table and one cache.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = Session(name="default")
        return _DEFAULT_SESSION


def set_default_session(session: Optional[Session]) -> Optional[Session]:
    """Replace the process-wide session (tests); returns the old one."""
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        old, _DEFAULT_SESSION = _DEFAULT_SESSION, session
        return old
