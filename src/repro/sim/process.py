"""Processes: generator coroutines driven by the engine.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
instances.  When a yielded event triggers, the process resumes with the
event's value (or the event's exception is thrown into the generator).
The process itself is an event that succeeds with the generator's return
value, so processes compose (a process can wait on another process).
"""

from __future__ import annotations

from typing import Any, Generator

from .engine import Engine
from .events import Event, Interrupt

__all__ = ["Process"]


class Process(Event):
    """A running generator coroutine inside the simulation."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, engine: Engine, generator: Generator):
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        self._generator = generator
        self._waiting_on: Event | None = None
        # Kick off the process at the current instant via an initial event.
        boot = Event(engine)
        boot._ok = True
        boot._value = None
        engine._enqueue(boot)
        boot.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process must currently be waiting on an event; that wait is
        abandoned (the event may still trigger later and is ignored).
        """
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        interrupt_ev = Event(self.engine)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        self.engine._enqueue(interrupt_ev)
        target = self._waiting_on
        self._waiting_on = None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_ev.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return  # finished (is_alive is False)
        self._waiting_on = None
        try:
            if event._ok:
                nxt = self._generator.send(event._value)
            else:
                # Mark the failure as handled: the process sees it.
                event._defused = True
                nxt = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            error = TypeError(
                f"process yielded {nxt!r}; processes must yield Event instances"
            )
            try:
                self._generator.throw(error)
            except StopIteration:
                pass
            except BaseException:
                pass
            self.fail(error)
            return
        self._waiting_on = nxt
        # add_callback inlined: an already-processed event resumes now
        callbacks = nxt.callbacks
        if callbacks is None:
            self._resume(nxt)
        else:
            callbacks.append(self._resume)
