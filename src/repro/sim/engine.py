"""The discrete-event engine.

A minimal, deterministic event loop in the style of simpy.  Determinism
matters -- the test suite and the paper-reproduction benches rely on
bit-identical reruns -- so the schedule obeys one order rule:

**Order rule.**  Every heap entry is a ``(time, priority, seq, target)``
tuple, pushed by :meth:`Engine._enqueue` and nowhere else.  Entries run by time, then priority (``PRIORITY_URGENT`` before
``PRIORITY_NORMAL``), then ``seq``: the engine's ``_seq`` counter, which
increments once per push, so two entries for the same instant and
priority run in the order they were scheduled.  A change that adds,
removes or reorders an entry changes results; speed work keeps every
entry's ``(time, priority)`` and relative ``seq``.

**Heap-entry kinds.**  A target is anything with ``callbacks``, ``_ok``
and ``_defused`` attributes; the loop pops it, sets the clock, clears
``callbacks`` and calls each one with the target:

* an :class:`~repro.sim.events.Event` -- a :class:`Timeout`, a
  triggered event (``succeed``/``fail``, e.g. a flow completion, a
  granted queue lock, a finished :class:`Process`), a process's boot or
  interrupt event, or a :meth:`Engine.schedule_callback` event;
* a bandwidth wake-up (``repro.sim.resources._Wakeup``) -- a slotted
  urgent entry a :class:`BandwidthResource` pushes for its earliest
  flow completion; one superseded by a later membership change is still
  popped and dropped on a generation check.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from .events import AllOf, AnyOf, Event, Timeout

__all__ = ["Engine", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Engine.step` when no events remain."""


class Engine:
    """A deterministic discrete-event simulation engine.

    Typical use::

        eng = Engine()
        def program(eng):
            yield eng.timeout(1.0)
            return "done"
        proc = eng.process(program(eng))
        eng.run()
        assert proc.value == "done"
    """

    #: priority for ordinary events (lower runs first at equal time)
    PRIORITY_NORMAL = 1
    #: priority for urgent bookkeeping events (bandwidth recomputation)
    PRIORITY_URGENT = 0

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._seq = 0
        #: optional attached profiling session (set by PerfSession.bind)
        self.perf = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- marker regions (LIKWID_MARKER_START/STOP analogue) --------------

    def marker_start(self, name: str, core: int = 0) -> None:
        """Open a named profiling region on ``core``.

        No-op unless a :class:`~repro.perfctr.counters.PerfSession` is
        attached, so workloads may bracket phases unconditionally
        without perturbing unprofiled (byte-identical) runs.
        """
        if self.perf is not None:
            self.perf.region_start(name, core)

    def marker_stop(self, name: str, core: int = 0) -> None:
        """Close a named profiling region on ``core`` (no-op unprofiled)."""
        if self.perf is not None:
            self.perf.region_stop(name, core)

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Spawn ``generator`` as a process; returns its completion event."""
        from .process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds when the first of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a heap entry on the schedule ``delay`` from now.

        The one place that pushes: every event, timeout and bandwidth
        wake-up is scheduled here, so the order rule lives here too.
        """
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def schedule_callback(self, delay: float, callback, *,
                          urgent: bool = False) -> Event:
        """Run ``callback(event)`` at ``now + delay``.

        Returns the underlying event; cancel by ignoring (callbacks may
        check their own validity), or use a generation counter upstream.
        """
        # Re-prioritizing an existing heap entry is not possible, so the
        # urgent path enqueues a pre-triggered event at PRIORITY_URGENT
        # directly (a Timeout would self-enqueue a second, dead entry at
        # normal priority on construction).
        if urgent:
            ev = Event(self)
            ev._ok = True
            ev._value = None
            self._enqueue(ev, delay, self.PRIORITY_URGENT)
        else:
            ev = Timeout(self, delay)
        ev.add_callback(callback)
        return ev

    # -- main loop -------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise EmptySchedule()
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # A failed event that nobody waited on is a programming error;
            # surface it instead of silently dropping the exception.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError(f"until={until} lies in the past (now={self._now})")
        limit = float("inf") if until is None else until
        # step() inlined: one pop-and-dispatch loop, no call per event
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= limit:
            self._now, _prio, _seq, event = pop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                # same check as step(): surface an unhandled failure
                raise event._value
        if until is not None:
            self._now = until
