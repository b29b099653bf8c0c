"""Shared resources for the discrete-event engine.

Three resource kinds cover everything the machine model needs:

* :class:`Resource` — a counting semaphore with a FIFO grant queue (used
  for locks and limited-slot devices such as a memory controller's
  outstanding-request window).
* :class:`Store` — an unbounded FIFO of items with blocking ``get`` (used
  for MPI message queues).
* :class:`BandwidthResource` — a fluid-flow fair-share pipe: concurrent
  transfers progress simultaneously, each receiving a weighted share of
  the capacity, with shares recomputed whenever the set of active flows
  changes.  This is the standard fluid approximation for link and memory
  bandwidth sharing and is what produces contention effects in the model.

All three obey the engine's order rule (:mod:`repro.sim.engine`): heap
entries run by ``(time, priority, seq)``.  A granted request, a
delivered item and a finished flow each push one ordinary event through
``Event.succeed``; a :class:`BandwidthResource` additionally pushes one
urgent ``_Wakeup`` entry per membership change, which runs before any
ordinary event of the same instant.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from .engine import Engine
from .events import Event

__all__ = ["Resource", "Store", "BandwidthResource"]

#: residual bytes below which a flow counts as complete (absorbs float error)
_FLOW_EPSILON = 1e-6


class Resource:
    """A counting semaphore with FIFO fairness.

    ``request()`` returns an event that succeeds once a slot is granted;
    ``release()`` frees one slot and grants the oldest waiter.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for one slot; the returned event succeeds when granted."""
        ev = Event(self.engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot, granting the oldest waiter if any."""
        if self._in_use == 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that succeeds with the
    oldest item once one is available; waiting getters are served FIFO.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that succeeds with the next item."""
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class _Flow:
    __slots__ = ("remaining", "weight", "event", "nbytes", "tolerance",
                 "rate")

    def __init__(self, nbytes: float, weight: float, event: Event):
        self.remaining = float(nbytes)
        self.nbytes = float(nbytes)
        self.weight = float(weight)
        self.event = event
        # Residual bytes below which the flow counts as delivered,
        # relative to its size: float error accumulated over many share
        # recomputations scales with the transfer size, so a purely
        # absolute epsilon can strand a residual whose drain time rounds
        # to zero on the simulation clock (a livelock).
        self.tolerance = _FLOW_EPSILON + 1e-9 * self.nbytes
        #: bytes/s share, set by every ``_reschedule``
        self.rate = 0.0


class _Wakeup:
    """Heap entry of a pipe's urgent wake-up (see :mod:`repro.sim.engine`).

    Duck-types the event attributes the engine loop reads.  Its one
    callback is the pipe's ``_on_wakeup``, which drops the entry when a
    later membership change has bumped the pipe's generation.
    """

    __slots__ = ("callbacks", "generation")
    _ok = True
    _defused = False


class BandwidthResource:
    """A pipe shared fairly among concurrent transfers (fluid-flow model).

    Each active flow receives ``capacity * weight / total_weight`` bytes
    per second.  Whenever a flow starts or finishes, all shares are
    recomputed.  Completion events carry the simulation time at which the
    transfer finished.

    The fluid model is the first-order approximation used throughout the
    machine model for DRAM links, HyperTransport links, and shared-memory
    copy bandwidth; it captures the paper's core effect — two cores on one
    socket halving each other's STREAM bandwidth — without simulating
    individual cache lines.

    Event order: every membership change (a transfer starting, flows
    finishing, a capacity change) first advances all flows to ``now``,
    then recomputes the shares once -- total weight and per-flow rate,
    which the next advance reuses -- and pushes one urgent
    :class:`_Wakeup` heap entry at the earliest completion.  Entries
    pushed before the last change are superseded: still popped, then
    dropped on the generation check.  Completions succeed in flow start
    order, each as an ordinary event at the wake-up instant.
    """

    def __init__(self, engine: Engine, capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = float(capacity)
        self.name = name
        self._flows: Dict[int, _Flow] = {}
        self._next_flow_id = 0
        self._last_update = engine.now
        self._generation = 0
        self._wake_callbacks = (self._on_wakeup,)
        #: cumulative bytes fully delivered (for utilization accounting)
        self.total_transferred = 0.0

    @property
    def active_flows(self) -> int:
        """Number of in-flight transfers."""
        return len(self._flows)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of capacity used over ``elapsed`` seconds (default: now)."""
        horizon = self.engine.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return self.total_transferred / (self.capacity * horizon)

    def transfer(self, nbytes: float, weight: float = 1.0) -> Event:
        """Start moving ``nbytes`` through the pipe; event fires on delivery."""
        ev = Event(self.engine)
        if nbytes <= 0:
            ev.succeed(self.engine.now)
            return ev
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._advance()
        self._next_flow_id += 1
        self._flows[self._next_flow_id] = _Flow(nbytes, weight, ev)
        self._reschedule()
        return ev

    def set_capacity(self, capacity: float) -> None:
        """Change the pipe's capacity mid-run (fault injection).

        In-flight flows keep the bytes they have already moved at the
        old rate; their remaining bytes drain at the new one — the fluid
        analogue of a link renegotiating its width.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    # -- internal fluid mechanics ---------------------------------------

    def _advance(self) -> None:
        """Progress every active flow from the last update instant to now.

        Rates are the ones the last ``_reschedule`` computed: flows and
        capacity only change after an advance, so they still hold.
        """
        now = self.engine._now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows.values():
            # remaining -= min(remaining, rate * dt), without the call
            moved = flow.rate * dt
            remaining = flow.remaining
            flow.remaining = remaining - moved if moved < remaining else 0.0

    def _reschedule(self) -> None:
        """Recompute the shares; wake up at the earliest flow completion."""
        self._generation += 1
        flows = self._flows
        if not flows:
            return
        total_w = sum(f.weight for f in flows.values())
        capacity = self.capacity
        eta = None
        for f in flows.values():
            rate = f.rate = capacity * f.weight / total_w
            left = f.remaining - f.tolerance
            until = left / rate if left > 0.0 else 0.0
            if eta is None or until < eta:
                eta = until
        # Round the wake-up up past the clock's float resolution so the
        # advance always makes progress (never a zero-width step).
        engine = self.engine
        now = engine._now
        eta = eta * (1.0 + 1e-12) + 1e-15 * (1.0 + abs(now))
        wakeup = _Wakeup()
        wakeup.callbacks = self._wake_callbacks
        wakeup.generation = self._generation
        engine._enqueue(wakeup, eta, Engine.PRIORITY_URGENT)

    def _on_wakeup(self, wakeup: _Wakeup) -> None:
        if wakeup.generation != self._generation:
            return  # superseded by a later membership change
        self._advance()
        flows = self._flows
        finished = [key for key, f in flows.items()
                    if f.remaining <= f.tolerance]
        now = self.engine._now
        for key in finished:
            flow = flows.pop(key)
            self.total_transferred += flow.nbytes
            flow.event.succeed(now)
        self._reschedule()
