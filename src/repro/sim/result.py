"""Shared result types of the simulation engines.

Both the generator-based reference engine (:mod:`repro.sim.reference`)
and the flat array-state engine (:mod:`repro.sim.indexed`) report their
outcome through :class:`SimulationResult`; keeping the type (and the
:data:`BlockPolicy` literal) in its own module lets both engines import
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Literal

__all__ = ["BlockPolicy", "SimulationResult"]

BlockPolicy = Literal["barrier", "pe", "dataflow"]


@dataclass
class SimulationResult:
    """Outcome of one simulated execution.

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

    makespan: int
    finish_times: dict[Hashable, int]
    deadlocked: bool = False
    blocked: list[str] = field(default_factory=list)
    channel_stats: dict[tuple[Hashable, Hashable], tuple[int, int]] = field(
        default_factory=dict
    )  # edge -> (capacity, max occupancy)
    start_times: dict[Hashable, int] = field(default_factory=dict)
    deadlock_channels: dict[str, tuple[int, int]] = field(default_factory=dict)

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
