"""Shared result and error types of the simulation engines.

The array-state engine (:mod:`repro.sim.indexed`) and the
generator-based reference engine kept as a test oracle
(``tests/oracles/sim_reference.py``) report their outcome through
:class:`SimulationResult` and raise :class:`DeadlockError`; keeping the
types (and the :data:`BlockPolicy` literal) in their own module lets
both engines, and the service, import them without cycles.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Literal

__all__ = ["BlockPolicy", "DeadlockError", "SimulationError", "SimulationResult"]

BlockPolicy = Literal["barrier", "pe", "dataflow"]


class SimulationError(RuntimeError):
    """Generic simulation failure (bad yield, double trigger, ...)."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    ``channels`` (when the raiser knows about them — both schedule
    simulation engines attach it) maps each streaming channel's name
    (``"u->v"``) to its ``(occupancy, capacity)`` at deadlock time, so
    an undersized-FIFO failure (Figure 9) is diagnosable straight from
    the exception: the full channels are the ones whose blocked
    producers close the cycle.
    """

    def __init__(
        self,
        time: int,
        blocked: list[str],
        channels: dict[str, tuple[int, int]] | None = None,
    ):
        self.time = time
        self.blocked = sorted(blocked)
        self.channels = dict(channels) if channels else {}
        preview = ", ".join(self.blocked[:8])
        more = (
            "" if len(self.blocked) <= 8 else f" (+{len(self.blocked) - 8} more)"
        )
        message = (
            f"deadlock at t={time}: {len(self.blocked)} blocked "
            f"process{'' if len(self.blocked) == 1 else 'es'}: {preview}{more}"
        )
        if self.channels:
            full = [n for n, (occ, cap) in self.channels.items() if occ >= cap]
            message += (
                f"; {len(full)}/{len(self.channels)} FIFOs full"
                + (f" ({', '.join(full[:4])}"
                   + ("…" if len(full) > 4 else "") + ")" if full else "")
            )
        super().__init__(message)

    def full_channels(self) -> dict[str, tuple[int, int]]:
        """The channels at capacity when the simulation deadlocked."""
        return {
            name: oc for name, oc in self.channels.items() if oc[0] >= oc[1]
        }


class SimulationResult:
    """Outcome of one simulated execution, backed by the engine's columns.

    The engine hands over id-indexed columns: ``names`` (id → node
    name), ``finish``/``start`` (id → time, ``-1`` when never reached)
    and ``channels``, the streaming FIFOs as ``(source ids, destination
    ids, capacities, accept times, pop times)``.  ``makespan``,
    ``deadlocked``, ``blocked``, ``deadlock_channels`` and
    ``num_channels`` are plain attributes; the name-keyed views below
    are built on first read, so a caller that needs only the makespan
    (the service) never builds them.

    ``start_times`` records the instant each task began its first
    execution cycle (after its gate, first input availability and read
    pacing) — the simulated analogue of the analytic ``ST``; tasks that
    never started (gated behind a deadlock) are absent.  On a deadlock,
    ``finish_times`` holds only the tasks that completed and
    ``deadlock_channels`` maps every streaming channel's name
    (``"u->v"``, the same strings the blocked list uses) to its exact
    ``(occupancy, capacity)`` at deadlock time — the Figure 9
    diagnostics, identical across both engines (``channel_stats`` peak
    occupancies, by contrast, may differ by same-instant races).
    """

    def __init__(
        self,
        makespan: int,
        names=(),
        finish=(),
        start=(),
        channels=((), (), (), (), ()),
        *,
        deadlocked: bool = False,
        blocked=(),
        deadlock_channels: dict[str, tuple[int, int]] | None = None,
    ):
        self.makespan = makespan
        self.deadlocked = deadlocked
        self.blocked = list(blocked)
        self.deadlock_channels = dict(deadlock_channels or {})
        self.num_channels = len(channels[0])
        self._columns = names, finish, start, channels

    @classmethod
    def from_tables(
        cls,
        makespan: int,
        finish_times: dict[Hashable, int],
        channel_stats: dict[tuple[Hashable, Hashable], tuple[int, int]],
        start_times: dict[Hashable, int],
        **diagnostics,
    ) -> "SimulationResult":
        """A result from name-keyed tables (the reference engine's)."""
        result = cls(makespan, **diagnostics)
        result.num_channels = len(channel_stats)
        result.finish_times = finish_times
        result.channel_stats = channel_stats
        result.start_times = start_times
        return result

    @cached_property
    def finish_times(self) -> dict[Hashable, int]:
        names, finish, _, _ = self._columns
        return {names[i]: t for i, t in enumerate(finish) if t >= 0}

    @cached_property
    def start_times(self) -> dict[Hashable, int]:
        names, _, start, _ = self._columns
        return {names[i]: t for i, t in enumerate(start) if t >= 0}

    @cached_property
    def channel_stats(self) -> dict[tuple[Hashable, Hashable], tuple[int, int]]:
        """edge -> (capacity, max occupancy); the occupancy merges the
        accept/pop times with pops winning ties, the minimal occupancy
        profile consistent with the timestamps."""
        names, _, _, (src, dst, caps, accepts, pops) = self._columns
        out = {}
        for u, v, cap, arr, popped in zip(src, dst, caps, accepts, pops):
            occ = mx = ip = 0
            npop = len(popped)
            for a in arr:
                while ip < npop and popped[ip] <= a:
                    occ -= 1
                    ip += 1
                occ += 1
                if occ > mx:
                    mx = occ
            out[names[u], names[v]] = (cap, mx)
        return out

    def full_channels(self) -> dict[str, tuple[int, int]]:
        """The channels at capacity when the run deadlocked (the
        backpressure cycle's culprits); empty on a clean run."""
        return {
            name: oc
            for name, oc in self.deadlock_channels.items()
            if oc[0] >= oc[1]
        }

    def relative_error(self, analytic_makespan: int) -> float:
        """``(analytic - simulated) / simulated`` (DESIGN.md convention:
        negative means the analysis underestimates the execution)."""
        if self.makespan <= 0:
            raise ValueError("simulation produced no work")
        return (analytic_makespan - self.makespan) / self.makespan
