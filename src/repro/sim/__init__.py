"""Discrete-event simulation substrate (Appendix B validation).

:func:`simulate_schedule` is the one run-time entry point: the
array-state engine of :mod:`repro.sim.indexed` (flat integer
task/channel state over the frozen
:class:`~repro.core.indexed.IndexedGraph`, timestamp-dataflow
evaluation, no generators and no per-element events).  There is no
engine selector.

The original simpy-like process engine, :mod:`repro.sim.reference`
(over :mod:`repro.sim.engine` + :mod:`repro.sim.channel`), is kept as
the readable specification and the differential-testing oracle; tests
and benchmarks import it from its submodule, and importing this package
does not load it.

:mod:`repro.sim.trace` exports simulated timelines in the same JSON /
Chrome-trace schemas the analytic schedule serializers use.
"""

from .engine import DeadlockError, SimulationError
from .indexed import simulate_schedule
from .result import BlockPolicy, SimulationResult
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
