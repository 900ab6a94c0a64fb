"""Bounded FIFO channels with blocking-after-service semantics.

Streaming edges are modeled as finite FIFOs (Section 6): a ``put`` blocks
while the channel is full; reads happen in two phases — wait until an
element is *available* (:meth:`FifoChannel.when_nonempty`), then
:meth:`FifoChannel.pop` it.  The two-phase protocol lets a multi-input
task wait until **all** of its inputs hold an element and only then
consume one from each: eagerly draining the fast input would free FIFO
space early and weaken the backpressure that the Section 6 buffer-space
formula reasons about (the Figure 9 example needs exactly 18 slots, which
assumes non-eager consumption).

Memory-backed (non-streaming) inputs are modeled by :class:`MemoryStream`:
the reader may pull elements freely once the producer's data is ready in
global memory — global memory has infinite size and cannot deadlock.

Each channel has a single consumer (a canonical edge is point-to-point),
which the two-phase protocol relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.result import SimulationError

from .sim_engine import Environment, Event

__all__ = ["FifoChannel", "MemoryStream"]


class FifoChannel:
    """A finite FIFO between two streaming tasks.

    Statistics (``max_occupancy``, totals) support the validation
    experiments: observed occupancy never exceeds the configured
    capacity, and with the Section 6 sizing the execution completes.
    """

    __slots__ = (
        "env",
        "capacity",
        "name",
        "items",
        "_pending_puts",
        "_nonempty_waiter",
        "max_occupancy",
        "total_put",
        "total_popped",
    )

    def __init__(self, env: Environment, capacity: int, name: str = "fifo"):
        if capacity < 1:
            raise ValueError("FIFO capacity must be at least 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._pending_puts: deque[tuple[Event, Any]] = deque()
        self._nonempty_waiter: Event | None = None
        self.max_occupancy = 0
        self.total_put = 0
        self.total_popped = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def put(self, item: Any = None) -> Event:
        """Write one element; the returned event fires once accepted."""
        ev = Event(self.env, name=f"{self.name}.put")
        if len(self.items) < self.capacity:
            self._accept(item)
            ev.trigger()
        else:
            self._pending_puts.append((ev, item))
        return ev

    def _accept(self, item: Any) -> None:
        self.total_put += 1
        self.items.append(item)
        self.max_occupancy = max(self.max_occupancy, len(self.items))
        if self._nonempty_waiter is not None:
            waiter, self._nonempty_waiter = self._nonempty_waiter, None
            waiter.trigger()

    # ------------------------------------------------------------------
    # consumer side (two-phase: availability, then pop)
    # ------------------------------------------------------------------
    def when_nonempty(self) -> Event:
        """Event firing when the channel holds at least one element."""
        ev = Event(self.env, name=f"{self.name}.avail")
        if self.items:
            ev.trigger()
        else:
            if self._nonempty_waiter is not None:
                raise SimulationError(
                    f"channel {self.name!r} has two concurrent consumers"
                )
            self._nonempty_waiter = ev
        return ev

    def pop(self) -> Any:
        """Consume one element (must be available)."""
        if not self.items:
            raise SimulationError(f"pop from empty channel {self.name!r}")
        value = self.items.popleft()
        self.total_popped += 1
        while self._pending_puts and len(self.items) < self.capacity:
            ev, item = self._pending_puts.popleft()
            self._accept(item)
            ev.trigger()
        return value

    @property
    def occupancy(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FifoChannel({self.name!r}, cap={self.capacity}, "
            f"occ={len(self.items)}, waiting_puts={len(self._pending_puts)})"
        )


class MemoryStream:
    """A read-only view of data sitting in global memory.

    ``ready_event`` fires when the producer has fully committed its data
    (``None`` means available from t=0: graph inputs, preloaded weights).
    After readiness every read succeeds instantly; the reader's own
    one-element-per-cycle loop provides the pacing.
    """

    __slots__ = ("env", "ready_event", "name", "total_popped")

    def __init__(self, env: Environment, ready_event: Event | None, name: str = "mem"):
        self.env = env
        self.ready_event = ready_event
        self.name = name
        self.total_popped = 0

    def when_nonempty(self) -> Event:
        ev = Event(self.env, name=f"{self.name}.avail")
        if self.ready_event is None or self.ready_event.processed:
            ev.trigger()
        else:
            self.ready_event.add_callback(lambda _: ev.trigger())
        return ev

    def pop(self) -> Any:
        self.total_popped += 1
        return None
