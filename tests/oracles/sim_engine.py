"""A minimal process-based discrete-event simulation engine.

The paper's Appendix B validates schedules with ``simpy``; that package
is not available in this environment, so this module provides the small
subset of its semantics the validation needs, implemented from scratch:

* an :class:`Environment` with an event heap and integer time;
* :class:`Process` objects driving Python generators that ``yield``
  events (:meth:`Environment.timeout`, channel gets/puts, other events);
* :class:`Event` with callbacks and values — callbacks attached *after*
  an event has fired run immediately, so waiting on an already-completed
  process is safe;
* global deadlock detection: if the event heap drains while processes
  are still alive, the run is deadlocked and the blocked processes are
  reported (this is exactly the situation insufficient FIFO space
  creates, Figure 9).

The engine is deterministic: same inputs, same event order (ties broken
by insertion sequence).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable

from repro.sim.result import DeadlockError, SimulationError

__all__ = ["Environment", "Event", "Process"]


class Event:
    """A one-shot event; processes waiting on it resume when it fires.

    Lifecycle: created -> triggered (scheduled on the heap) ->
    processed (callbacks ran at its fire time).
    """

    __slots__ = ("env", "callbacks", "triggered", "processed", "value", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.processed = False
        self.value: Any = None
        self.name = name

    def trigger(self, value: Any = None, delay: int = 0) -> "Event":
        """Mark triggered; callbacks run ``delay`` units from now."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        self.env._schedule(self, delay)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Attach a callback; runs immediately if the event already fired."""
        if self.processed:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r}, triggered={self.triggered})"


class Process:
    """Wraps a generator; each yielded event suspends the process."""

    __slots__ = ("env", "gen", "name", "alive", "waiting_on", "completion")

    def __init__(self, env: "Environment", gen: Generator[Event, Any, Any], name: str):
        self.env = env
        self.gen = gen
        self.name = name
        self.alive = True
        self.waiting_on: Event | None = None
        self.completion = Event(env, name=f"{name}.done")
        env._alive += 1
        env.event(f"{name}.start").trigger().add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        self.waiting_on = None
        try:
            target = self.gen.send(event.value)
        except StopIteration as stop:
            self.alive = False
            self.env._alive -= 1
            self.completion.trigger(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        self.waiting_on = target
        target.add_callback(self._resume)


class Environment:
    """The simulation clock, event heap and process registry."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = itertools.count()
        self._alive = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), event))

    def timeout(self, delay: int, value: Any = None) -> Event:
        """An event that fires ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("negative delay")
        return Event(self, name=f"timeout({delay})").trigger(value, delay)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def process(self, gen: Generator[Event, Any, Any], name: str = "proc") -> Process:
        proc = Process(self, gen, name)
        self._processes.append(proc)
        return proc

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """An event firing once every input event has fired."""
        events = list(events)
        combined = Event(self, name=name)
        state = {"remaining": len(events)}

        def on_done(_: Event) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                combined.trigger()

        if not events:
            combined.trigger()
            return combined
        for ev in events:
            ev.add_callback(on_done)
        return combined

    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> int:
        """Run to completion (or ``until``); returns the final time.

        A bounded run leaves every event past the horizon on the heap,
        so calling ``run`` again resumes the simulation losslessly.
        Raises :class:`DeadlockError` when the heap empties while
        processes remain blocked.
        """
        while self._heap:
            time, _, event = self._heap[0]
            if until is not None and time > until:
                # the event stays scheduled for a later resume
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            event.processed = True
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event)
        if self._alive > 0:
            blocked = [
                f"{p.name} (on {p.waiting_on.name if p.waiting_on else '?'})"
                for p in self._processes
                if p.alive
            ]
            raise DeadlockError(self.now, blocked)
        return self.now
