"""Shard supervision: restart crashed shard daemons, within a budget.

``cluster up --supervise`` keeps a :class:`ShardSupervisor` next to the
router.  It polls the shard subprocesses; when one has exited it is
relaunched with exponential backoff, the new pid is written back into
the cluster state file **atomically** (tmp file + ``os.replace``, so
``status``/``down``/``top`` never read a torn file), a
``cluster_shard_restarts_total`` metric is incremented, and a restart
event is kept for the cluster's ledger record.

Restarts are bounded by a **budget**: more than ``restart_budget``
restarts of one shard inside ``budget_window_s`` marks the shard
*abandoned* — the supervisor gives up on it (the router's health
prober and circuit breaker already route around it) instead of
fork-bombing a crash loop.

The launch and readiness-probe hooks are injectable so the restart
logic is unit-testable without real subprocesses.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..telemetry import metrics as _metrics

__all__ = ["ShardSpec", "ShardSupervisor", "atomic_write_json"]


def atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write JSON so readers see either the old or the new file."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


@dataclass
class ShardSpec:
    """Everything needed to (re)launch one shard daemon."""

    name: str
    address: Tuple[str, int]
    cache_dir: Optional[str] = None
    jobs: Optional[int] = None
    queue_depth: int = 64
    log_dir: Optional[str] = None
    ledger_dir: Optional[str] = None
    shed_threshold: Optional[float] = None


@dataclass
class _ShardWatch:
    """Supervisor-side bookkeeping for one shard."""

    spec: ShardSpec
    proc: Any  # Popen-like: .pid, .poll()
    restart_times: List[float] = field(default_factory=list)
    not_before: float = 0.0     # earliest next relaunch (backoff)
    down_since: Optional[float] = None
    abandoned: bool = False


def _default_launch(spec: ShardSpec) -> Any:
    from .manager import launch_shard

    return launch_shard(spec.name, spec.address, spec.cache_dir,
                        jobs=spec.jobs, queue_depth=spec.queue_depth,
                        log_dir=spec.log_dir, ledger_dir=spec.ledger_dir,
                        shed_threshold=spec.shed_threshold)


def _default_ping(address: Tuple[str, int], deadline_s: float) -> bool:
    from .manager import wait_for_ping

    return wait_for_ping(address, deadline_s=deadline_s)


class ShardSupervisor:
    """Restart crashed shards with backoff, budget, and state rewrite.

    The supervisor owns the ``procs`` mapping it is given — restarts
    replace entries in place, so the cluster teardown path (which
    iterates the same mapping) always addresses the *current*
    subprocess of each shard.
    """

    def __init__(self, specs: List[ShardSpec], procs: Dict[str, Any],
                 state_path: Optional[str] = None,
                 state: Optional[Dict[str, Any]] = None,
                 restart_budget: int = 5, budget_window_s: float = 60.0,
                 backoff_s: float = 0.5, backoff_max_s: float = 10.0,
                 poll_interval_s: float = 0.5,
                 ready_timeout_s: float = 20.0,
                 launch_fn: Callable[[ShardSpec], Any] = _default_launch,
                 ping_fn: Callable[[Tuple[str, int], float],
                                   bool] = _default_ping,
                 clock: Callable[[], float] = time.monotonic,
                 external_stop: Optional[threading.Event] = None):
        self.restart_budget = max(1, restart_budget)
        self.budget_window_s = budget_window_s
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.poll_interval_s = poll_interval_s
        self.ready_timeout_s = ready_timeout_s
        self._launch = launch_fn
        self._ping = ping_fn
        self._clock = clock
        self._procs = procs
        self._state_path = state_path
        self._state = state
        self._watches = {spec.name: _ShardWatch(spec, procs[spec.name])
                         for spec in specs}
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._external_stop = external_stop
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Run the supervision loop in a daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._loop,
                                        name="shard-supervisor",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop supervising; no restarts happen after this returns."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.ready_timeout_s + 5.0)
            self._thread = None

    def _stopping(self) -> bool:
        if self._stop.is_set():
            return True
        return bool(self._external_stop is not None
                    and self._external_stop.is_set())

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            if self._stopping():
                return
            self.poll_once()

    # -- the supervision pass ----------------------------------------------

    def poll_once(self) -> List[Dict[str, Any]]:
        """One supervision pass; returns the events it generated."""
        events: List[Dict[str, Any]] = []
        for watch in self._watches.values():
            if self._stopping():
                break
            event = self._supervise_shard(watch)
            if event is not None:
                events.append(event)
        return events

    def _supervise_shard(self, watch: _ShardWatch
                         ) -> Optional[Dict[str, Any]]:
        if watch.abandoned or watch.proc.poll() is None:
            if watch.proc.poll() is None:
                watch.down_since = None
            return None
        now = self._clock()
        if watch.down_since is None:
            # first sighting of the corpse: schedule the relaunch with
            # backoff scaled by how many restarts the window holds
            watch.down_since = now
            self._prune_window(watch, now)
            delay = min(self.backoff_max_s,
                        self.backoff_s * (2 ** len(watch.restart_times)))
            watch.not_before = now + delay
        if now < watch.not_before:
            return None
        self._prune_window(watch, now)
        if len(watch.restart_times) >= self.restart_budget:
            return self._abandon(watch, now)
        return self._restart(watch, now)

    def _prune_window(self, watch: _ShardWatch, now: float) -> None:
        watch.restart_times = [t for t in watch.restart_times
                               if now - t < self.budget_window_s]

    def _abandon(self, watch: _ShardWatch, now: float) -> Dict[str, Any]:
        watch.abandoned = True
        _metrics.inc("cluster_shard_abandoned_total",
                     shard=watch.spec.name)
        event = {"event": "abandon", "shard": watch.spec.name,
                 "time": time.time(),
                 "restarts_in_window": len(watch.restart_times),
                 "budget": self.restart_budget,
                 "window_s": self.budget_window_s}
        with self._lock:
            self._events.append(event)
        return event

    def _restart(self, watch: _ShardWatch, now: float
                 ) -> Optional[Dict[str, Any]]:
        old_pid = getattr(watch.proc, "pid", None)
        try:
            proc = self._launch(watch.spec)
        except OSError as exc:  # exec failure counts against the budget
            watch.restart_times.append(now)
            watch.down_since = None
            event = {"event": "restart_failed", "shard": watch.spec.name,
                     "time": time.time(), "error": str(exc)}
            with self._lock:
                self._events.append(event)
            return event
        watch.proc = proc
        watch.restart_times.append(now)
        watch.down_since = None
        self._procs[watch.spec.name] = proc
        _metrics.inc("cluster_shard_restarts_total", shard=watch.spec.name)
        # recorded at launch, so restarts() counts the shard while the
        # new process is still coming up; ``ready`` fills in after
        event = {"event": "restart", "shard": watch.spec.name,
                 "time": time.time(), "old_pid": old_pid,
                 "new_pid": getattr(proc, "pid", None), "ready": None,
                 "restarts_in_window": len(watch.restart_times)}
        with self._lock:
            self._events.append(event)
        ready = self._ping(watch.spec.address, self.ready_timeout_s)
        with self._lock:
            event["ready"] = ready
        self._rewrite_state()
        return event

    def _rewrite_state(self) -> None:
        if self._state_path is None or self._state is None:
            return
        pids = dict(self._state.get("pids") or {})
        for name, proc in self._procs.items():
            pid = getattr(proc, "pid", None)
            if pid is not None:
                pids[name] = pid
        self._state["pids"] = pids
        self._state["supervised"] = True
        try:
            atomic_write_json(self._state_path, self._state)
        except OSError:  # state file is advisory; never kill supervision
            pass

    # -- introspection -----------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """All restart/abandon events so far (for the cluster ledger)."""
        with self._lock:
            return list(self._events)

    def restarts(self) -> Dict[str, int]:
        """Total restarts per shard (lifetime, not just the window)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for event in self._events:
                if event["event"] == "restart":
                    counts[event["shard"]] = \
                        counts.get(event["shard"], 0) + 1
            return counts

    def abandoned(self) -> List[str]:
        """Names of shards the supervisor has given up on."""
        return sorted(name for name, watch in self._watches.items()
                      if watch.abandoned)
