"""Execute a streaming schedule under discrete-event simulation.

This is the Appendix B validation harness front door: given a
:class:`~repro.core.scheduler.StreamingSchedule`, execute it
cycle-accurately and report simulated timing, channel statistics and
deadlocks.  There is one run-time engine and one oracle:

* ``engine="indexed"`` (default) — the array-state timestamp-dataflow
  engine of :mod:`repro.sim.indexed`: flat integer state, no generator
  processes, no per-element events; an order of magnitude faster at
  validation-campaign scale.  It is pure Python on every install: the
  array backend of :mod:`repro.core.backend` only affects scheduling;
* ``engine="reference"`` — the original process/heap engine of
  :mod:`repro.sim.reference`, kept as the readable specification and
  the differential-testing oracle (tests and ``--engine reference``).

Both produce the same makespans, per-task start/finish times, deadlock
times and blocked sets (golden differential tests assert it); pick the
reference engine only to cross-check or to debug the substrate itself.
"""

from __future__ import annotations

from typing import Literal

from ..core.scheduler import StreamingSchedule
from .indexed import simulate_schedule_indexed
from .reference import simulate_schedule_reference
from .result import BlockPolicy, SimulationResult

__all__ = ["SimulationResult", "simulate_schedule", "BlockPolicy", "SIM_ENGINES"]

#: selectable simulation engines: the run-time engine, then the oracle
SIM_ENGINES = ("indexed", "reference")


def simulate_schedule(
    schedule: StreamingSchedule,
    *,
    policy: BlockPolicy = "barrier",
    pacing: Literal["steady", "greedy"] = "steady",
    capacity_override: int | None = None,
    raise_on_deadlock: bool = False,
    engine: Literal["indexed", "reference"] = "indexed",
) -> SimulationResult:
    """Simulate ``schedule`` cycle-accurately; returns timing + stats.

    Parameters
    ----------
    policy:
        ``"barrier"`` — a spatial block starts only after the previous
        one fully completed (the paper's gang-scheduled temporal
        multiplexing); ``"pe"`` — a task waits only for the previous
        task mapped to the same PE; ``"dataflow"`` — dependencies only.
    pacing:
        ``"steady"`` — tasks read and write at their steady-state
        streaming intervals, the regime the analysis models (default,
        used by the Figure 13 validation); ``"greedy"`` — tasks free-run
        at one element per cycle, paced only by data availability and
        backpressure (a lower bound on execution time).
    capacity_override:
        Force every streaming FIFO to this capacity instead of the
        schedule's Section 6 sizes (ablation / deadlock demonstrations).
    raise_on_deadlock:
        Re-raise :class:`~repro.sim.engine.DeadlockError` instead of
        reporting it in the result; the error carries per-channel
        occupancy/capacity diagnostics.
    engine:
        ``"indexed"`` (default, fast) or ``"reference"`` (the legacy
        process-based oracle).
    """
    if engine == "indexed":
        run = simulate_schedule_indexed
    elif engine == "reference":
        run = simulate_schedule_reference
    else:
        raise ValueError(
            f"unknown simulation engine {engine!r} "
            f"(known: {', '.join(SIM_ENGINES)})"
        )
    return run(
        schedule,
        policy=policy,
        pacing=pacing,
        capacity_override=capacity_override,
        raise_on_deadlock=raise_on_deadlock,
    )
