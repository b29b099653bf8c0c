"""Core event primitives for the discrete-event engine.

The engine follows the simpy model: an :class:`Event` is a one-shot
occurrence that may carry a value, and processes (generator coroutines)
yield events to wait on them.  Events are deliberately small; all
scheduling lives in :class:`repro.sim.engine.Engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["Event", "Timeout", "AllOf", "AnyOf", "Interrupt"]

_UNSET = object()


class Interrupt(Exception):
    """Raised inside a process when it is interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, and is *processed* once the engine has run
    its callbacks.  Each callback receives the event itself.
    """

    #: slotted to cut per-event allocation cost — event-heavy runs
    #: (PTRANS, RandomAccess) create millions of these
    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (it may still await callbacks)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the engine has invoked this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the exception for failed events)."""
        if self._value is _UNSET:
            raise RuntimeError("event has no value yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self._ok is not None:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if self._ok is not None:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.engine._enqueue(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (this keeps late waiters correct).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._ok is True:
            state = "ok"
        elif self._ok is False:
            state = "failed"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Event.__init__ inlined, so the push is the one call per timeout
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        engine._enqueue(self, delay)


class _Condition(Event):
    """Base for composite events over a set of child events."""

    __slots__ = ("events", "_outstanding")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("all events must belong to the same engine")
        self._outstanding = len(self.events)
        if not self.events:
            self.succeed({})
            return
        check = self._check
        for ev in self.events:
            # add_callback inlined: a processed child is checked now
            if ev.callbacks is None:
                check(ev)
            else:
                ev.callbacks.append(check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        # ``_ok`` is True only for triggered, successful children
        return {i: ev._value for i, ev in enumerate(self.events)
                if ev._ok is True}


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails (with that child's exception);
    the child's failure is absorbed (defused) by the condition.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        # slots, not the ok/triggered/value properties: a child reaches
        # its callbacks triggered, so ``_ok`` is never None here
        if not event._ok:
            event._defused = True  # the condition handles the failure
            if self._ok is None:
                self.fail(event._value)
            return
        if self._ok is not None:
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when the first child event succeeds."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True  # the condition handles the failure
        if self._ok is not None:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self._outstanding -= 1
            if self._outstanding == 0:
                self.fail(event._value)
