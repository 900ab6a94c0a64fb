"""Reference schedule execution on the process-based DES engine.

This is the original Appendix B validation harness, preserved as the
readable specification of the execution semantics: one Python generator
:class:`~oracles.sim_engine.Process` per computational task, FIFO channels
for the streaming edges (sized by the Section 6 pass, or overridden for
ablations), memory streams for the buffered edges, and a heap-driven
event loop.  The production path is the array-state engine in
:mod:`repro.sim.indexed`, which reproduces this engine's makespans,
per-task start/finish times and deadlock sets exactly (asserted by the
golden differential tests); tests and benchmarks call this one directly
as :func:`simulate_schedule_reference`.

The simulation respects:

* data volumes and dependencies of the task graph;
* the communication mode of every edge (streaming vs memory-backed), as
  decided by the spatial block partition;
* the one-element-per-cycle dataflow cost model (a task consumes at most
  one element per input edge and produces at most one element per output
  edge per cycle, with constant internal space);
* the temporal multiplexing of spatial blocks (selectable policy).

The simulated makespan is compared against the analytic one by the
Figure 13 experiment; a :class:`~repro.sim.result.DeadlockError` means
the FIFO capacities were insufficient.
"""

from __future__ import annotations

import math
from typing import Hashable, Literal

from repro.core.node_types import NodeKind
from repro.core.scheduler import StreamingSchedule
from repro.sim.result import BlockPolicy, DeadlockError, SimulationResult

from .sim_channel import FifoChannel, MemoryStream
from .sim_engine import Environment, Event

__all__ = ["simulate_schedule_reference"]


def _task_process(
    env: Environment,
    inputs: list,
    outputs: list[FifoChannel],
    in_volume: int,
    out_volume: int,
    gate: Event | None,
    read_interval=None,
    write_interval=None,
    mark_start=None,
):
    """The canonical dataflow loop of one computational task.

    Per cycle the task either ingests one element from *each* input edge
    (waiting until all of them hold one — non-eager consumption, see
    :mod:`oracles.sim_channel`) or, when enough input has accumulated,
    emits one element to each output edge.  The loop realizes all three
    node kinds: for ``I == O`` it is an element-wise pipeline, for
    ``I > O`` a downsampler (accumulate, then emit), for ``O > I`` an
    upsampler (ingest, then fan out over multiple cycles).

    ``read_interval`` / ``write_interval`` (:class:`~fractions.Fraction`)
    pace the task at its steady-state streaming intervals: element ``k``
    is consumed no earlier than ``read_anchor + ceil(k * S_i)`` and
    emitted no earlier than ``write_anchor + ceil(k * S_o)`` (anchors are
    the first read/write instants).  The paper's validation simulates
    exactly this regime — "data flows according to the streaming
    intervals" (Appendix B) — so analytic and simulated makespans are
    comparable.  Pass ``None`` to let the task free-run at one element
    per cycle, paced only by channel backpressure (the "greedy" ablation
    mode, a lower bound on the real execution).

    ``mark_start`` (when given) is called once, at the instant the first
    execution cycle begins — after the gate, input availability and read
    pacing — so results can report simulated start times.
    """
    if gate is not None:
        yield gate
    consumed = 0
    produced = 0
    started = False
    read_anchor: int | None = None
    write_anchor: int | None = None

    def emit():
        nonlocal produced, write_anchor
        if write_interval is not None:
            if write_anchor is None:
                write_anchor = env.now
            due = write_anchor + math.ceil(produced * write_interval)
            if due > env.now:
                yield env.timeout(due - env.now)
        for out in outputs:
            yield out.put()
        produced += 1

    while consumed < in_volume or produced < out_volume:
        need = (
            math.ceil((produced + 1) * in_volume / out_volume)
            if produced < out_volume
            else in_volume
        )
        if consumed < need:
            if inputs:
                yield env.all_of([ch.when_nonempty() for ch in inputs])
                if read_interval is not None:
                    if read_anchor is None:
                        read_anchor = env.now
                    due = read_anchor + math.ceil(consumed * read_interval)
                    if due > env.now:
                        yield env.timeout(due - env.now)
                for ch in inputs:
                    ch.pop()
            if not started:
                started = True
                if mark_start is not None:
                    mark_start()
            consumed += 1
            yield env.timeout(1)
            if produced < out_volume and consumed >= math.ceil(
                (produced + 1) * in_volume / out_volume
            ):
                yield from emit()
        else:
            if not started:
                started = True
                if mark_start is not None:
                    mark_start()
            yield env.timeout(1)
            yield from emit()


def simulate_schedule_reference(
    schedule: StreamingSchedule,
    *,
    policy: BlockPolicy = "barrier",
    pacing: Literal["steady", "greedy"] = "steady",
    capacity_override: int | None = None,
    raise_on_deadlock: bool = False,
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
        Re-raise :class:`DeadlockError` instead of reporting it in the
        result (the raised error carries the per-channel
        occupancy/capacity diagnostics).
    """
    graph = schedule.graph
    env = Environment()

    # ---- channels for streaming edges ---------------------------------
    channels: dict[tuple[Hashable, Hashable], FifoChannel] = {}
    for u, v in graph.edges:
        if schedule.is_streaming_edge(u, v):
            cap = (
                capacity_override
                if capacity_override is not None
                else schedule.buffer_sizes.get((u, v), 1)
            )
            channels[(u, v)] = FifoChannel(env, cap, name=f"{u}->{v}")

    # ---- readiness events for memory-backed producers -----------------
    comp_nodes = graph.computational_nodes()
    completion: dict[Hashable, Event] = {
        v: env.event(f"{v}.completion") for v in comp_nodes
    }
    ready: dict[Hashable, Event | None] = {}
    for v in graph.topological_order():
        kind = graph.kind(v)
        if kind is NodeKind.SOURCE:
            ready[v] = None
        elif kind.is_computational:
            ready[v] = completion[v]
        elif kind is NodeKind.BUFFER:
            preds = [ready[u] for u in graph.predecessors(v)]
            live = [e for e in preds if e is not None]
            ready[v] = env.all_of(live, name=f"{v}.stored") if live else None
        else:  # sink — nothing downstream
            ready[v] = None

    # ---- block gating ---------------------------------------------------
    num_blocks = schedule.num_blocks
    gates: dict[Hashable, Event | None] = {}
    if policy == "barrier":
        block_start = [env.event(f"block{b}.start") for b in range(num_blocks)]
        for v in comp_nodes:
            gates[v] = block_start[schedule.block_of(v)]
    elif policy == "pe":
        prev_on_pe: dict[int, Hashable] = {}
        order = sorted(
            comp_nodes, key=lambda v: (schedule.block_of(v), schedule.pe_of[v])
        )
        for v in order:
            pe = schedule.pe_of[v]
            gates[v] = completion[prev_on_pe[pe]] if pe in prev_on_pe else None
            prev_on_pe[pe] = v
    else:
        gates = {v: None for v in comp_nodes}

    # ---- task processes -------------------------------------------------
    finish: dict[Hashable, int] = {}
    starts: dict[Hashable, int] = {}

    def make_runner(v: Hashable):
        spec = graph.spec(v)
        ins: list = []
        any_stream = False
        for u in graph.predecessors(v):
            if (u, v) in channels:
                ins.append(channels[(u, v)])
                any_stream = True
            else:
                ins.append(MemoryStream(env, ready[u], name=f"{u}~>{v}"))
        if not ins:
            ins = [MemoryStream(env, None, name=f"mem~>{v}")]
        outs = [channels[(v, w)] for w in graph.successors(v) if (v, w) in channels]
        if pacing == "steady":
            read_interval = schedule.si.get(v)
            write_interval = schedule.so.get(v)
        else:  # greedy: free-run; only block sources keep read pacing so
            # injection from memory still follows the schedule's model
            read_interval = None if any_stream else schedule.si.get(v)
            write_interval = None

        def runner():
            yield from _task_process(
                env,
                ins,
                outs,
                spec.input_volume,
                spec.output_volume,
                gates[v],
                read_interval,
                write_interval,
                lambda: starts.setdefault(v, env.now),
            )
            finish[v] = env.now
            completion[v].trigger()

        return runner

    procs = {v: env.process(make_runner(v)(), name=f"task:{v}") for v in comp_nodes}

    if policy == "barrier":
        block_members: list[list[Hashable]] = [[] for _ in range(num_blocks)]
        for v in comp_nodes:
            block_members[schedule.block_of(v)].append(v)
        block_start[0].trigger()
        for b in range(1, num_blocks):
            done = env.all_of(
                [completion[v] for v in block_members[b - 1]], name=f"block{b-1}.done"
            )
            done.add_callback(lambda _, g=block_start[b]: g.trigger())

    # ---- run --------------------------------------------------------------
    try:
        makespan = env.run()
    except DeadlockError as exc:
        occupancies = {
            c.name: (c.occupancy, c.capacity) for c in channels.values()
        }
        if raise_on_deadlock:
            raise DeadlockError(
                exc.time, exc.blocked, channels=occupancies
            ) from None
        return SimulationResult.from_tables(
            exc.time,
            finish,
            {e: (c.capacity, c.max_occupancy) for e, c in channels.items()},
            starts,
            deadlocked=True,
            blocked=exc.blocked,
            deadlock_channels=occupancies,
        )
    return SimulationResult.from_tables(
        makespan,
        finish,
        {e: (c.capacity, c.max_occupancy) for e, c in channels.items()},
        starts,
    )
