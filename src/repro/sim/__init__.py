"""Discrete-event simulation substrate (Appendix B validation).

:func:`simulate_schedule` is the one run-time entry point: the
array-state engine of :mod:`repro.sim.indexed` (flat integer channel
state over the frozen :class:`~repro.core.indexed.IndexedGraph`,
timestamp-dataflow evaluation, one generator per task and no
per-element events).  There is no engine selector.

The original simpy-like process engine is kept outside the package,
as the readable specification and the differential-testing oracle:
``tests/oracles/sim_reference.py`` (over ``sim_engine`` +
``sim_channel``).  Tests and ``benchmarks/bench_sim.py`` import it as
``oracles.sim_reference``; nothing under ``src/`` does.
:class:`DeadlockError` and :class:`SimulationError` live in
:mod:`repro.sim.result`, shared by both engines.

:mod:`repro.sim.trace` exports simulated timelines in the same JSON /
Chrome-trace schemas the analytic schedule serializers use.
"""

from .indexed import simulate_schedule
from .result import BlockPolicy, DeadlockError, SimulationError, SimulationResult
from .trace import simulation_to_chrome_trace, simulation_to_dict

__all__ = [
    "BlockPolicy",
    "DeadlockError",
    "SimulationError",
    "SimulationResult",
    "simulate_schedule",
    "simulation_to_chrome_trace",
    "simulation_to_dict",
]
