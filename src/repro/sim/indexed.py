"""Array-state schedule simulation — the simulator's one engine.

:func:`simulate_schedule` is the Appendix B validation harness front
door: given a :class:`~repro.core.scheduler.StreamingSchedule`, execute
it cycle-accurately and report simulated timing, channel statistics and
deadlocks.  It is pure Python on every install.

The reference engine (the test oracle ``tests/oracles/sim_reference.py``)
drives its task generators off a time-ordered heap with one event
object per element transfer; at fig13/ablation scale those event
allocations dominate the whole validation campaign.  This module lowers a
:class:`~repro.core.scheduler.StreamingSchedule` over a frozen
:class:`~repro.core.indexed.IndexedGraph` into flat integer arrays —
CSR-ordered channel lists, per-block gate state, memory readiness —
and executes the identical dataflow semantics as a *timestamp dataflow
network*:

* every streaming channel keeps the (monotone) sequence of element
  **accept times** and **pop times** instead of live element objects;
  the bounded-FIFO law ``accept(k) = max(attempt, pop(k - capacity))``
  then prices backpressure exactly, with no pending-put event objects;
* every computational task is one Python generator running the
  canonical dataflow loop of the reference engine's ``_task_process``
  — same need/emit arithmetic, same streaming-interval pacing (integer
  ceilings over the interval's numerator/denominator), same gate
  semantics for all three block policies.  Its counters, clock, pacing
  anchors and output index live in the generator frame; every suspend
  point (an unfired gate, an element not yet produced, memory not yet
  ready, a full FIFO whose freeing pop is not yet known) is a ``yield``
  inside a ``while <timestamp unknown>`` loop;
* a worklist resumes each runnable task (``next``) and lets it run as
  far as its inputs' known timestamps allow.  Because each channel has
  a single producer and a single consumer and all enabling conditions
  are monotone, this maximum-progress order reaches the same unique
  fixed point as the reference engine's time-ordered heap (so the
  worklist order is free): identical makespans, start/finish times,
  deadlock times and blocked sets (asserted by the golden differential
  tests).

Why a frame per task: on the served shapes (lts schedules of 1k-node
layered/serpar graphs at 64 PEs) 97–98% of streaming FIFOs are sized to
capacity 1, so no task runs more than one element ahead of its
neighbour, and a simulation is tens of thousands of resumes that each
advance about one element.  The price of a resume is the cost; a
suspended generator frame keeps the task's state where the loop reads
it, instead of reloading and storing it per activation.

A drained worklist with unfinished tasks is exactly the reference
engine's drained heap with live processes: a deadlock.  The blocked-on
strings are reconstructed in the reference engine's format
(``task:v (on u->w.put)`` etc.), and the raised
:class:`~repro.sim.result.DeadlockError` carries every channel's
occupancy/capacity at deadlock time.

One knowingly weaker statistic: ``max_occupancy`` is reconstructed (by
:attr:`~repro.sim.result.SimulationResult.channel_stats`, on first read) by
merging the accept/pop time sequences with pops winning ties, the
minimal occupancy profile consistent with the timestamps.  The
reference engine resolves same-instant accept/pop races by event
insertion order, so its reported maximum may exceed this by transient
same-cycle races; capacities, totals and deadlock occupancies agree
exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Literal

from ..core.indexed import freeze
from ..core.node_types import NodeKind
from .result import BlockPolicy, DeadlockError, SimulationResult

__all__ = ["simulate_schedule"]

#: the blocking reason of a task waiting on an input (an element or
#: memory readiness): the reference engine's ``all_of`` wait
_AVAIL = ("avail",)


def simulate_schedule(
    schedule,
    *,
    policy: BlockPolicy = "barrier",
    pacing: Literal["steady", "greedy"] = "steady",
    capacity_override: int | None = None,
    raise_on_deadlock: bool = False,
) -> SimulationResult:
    """Simulate ``schedule`` cycle-accurately; returns timing + stats.

    Same signature and semantics as the test oracle
    ``oracles.sim_reference.simulate_schedule_reference``.

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
        Re-raise :class:`~repro.sim.result.DeadlockError` instead of
        reporting it in the result; the error carries per-channel
        occupancy/capacity diagnostics.
    """
    ig = freeze(schedule.graph)
    n = ig.n
    names = ig.names
    comp = ig.comp
    kinds = ig.kinds
    in_vol, out_vol = ig.in_vol, ig.out_vol
    sp, sa = ig.succ_ptr, ig.succ_adj
    pp, pa = ig.pred_ptr, ig.pred_adj

    blk = [b if c else -1 for b, c in zip(schedule.block_idx, comp)]
    comp_ids = [i for i in range(n) if comp[i]]

    # ---- channels for streaming edges (CSR successor order, which is
    # the reference runner's put order) --------------------------------
    buffer_sizes = schedule.buffer_sizes
    ch_src: list[int] = []
    ch_dst: list[int] = []
    ch_cap: list[int] = []
    out_ch: list[list[int]] = [[] for _ in range(n)]
    fifo_in: list[list[int]] = [[] for _ in range(n)]
    mem_in: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        cu = comp[u]
        bu = blk[u]
        for j in range(sp[u], sp[u + 1]):
            v = sa[j]
            if not comp[v]:
                continue
            if cu and bu == blk[v]:
                cap = (
                    capacity_override
                    if capacity_override is not None
                    else buffer_sizes.get((names[u], names[v]), 1)
                )
                if cap < 1:
                    raise ValueError("FIFO capacity must be at least 1")
                out_ch[u].append(len(ch_src))
                fifo_in[v].append(len(ch_src))
                ch_src.append(u)
                ch_dst.append(v)
                ch_cap.append(cap)
            else:
                mem_in[v].append(u)
    nch = len(ch_src)
    ch_arr: list[list[int]] = [[] for _ in range(nch)]  #: accept times
    ch_pop: list[list[int]] = [[] for _ in range(nch)]  #: pop times
    cons_wait = [False] * nch  #: consumer blocked on next element
    prod_wait = [False] * nch  #: producer blocked on next pop

    # ---- memory readiness: which computational tasks must complete
    # before node u's data sits in global memory (sources: none; comp
    # nodes: themselves; buffers: the transitive closure through their
    # predecessors — the all_of(".stored") chain of the reference) -----
    contrib: list[tuple[int, ...]] = [()] * n
    for i in ig.topo:
        if comp[i]:
            contrib[i] = (i,)
        elif kinds[i] is NodeKind.BUFFER:
            acc: list[int] = []
            seen: set[int] = set()
            for j in range(pp[i], pp[i + 1]):
                for t in contrib[pa[j]]:
                    if t not in seen:
                        seen.add(t)
                        acc.append(t)
            contrib[i] = tuple(acc)
    ready_t: list[int | None] = [None] * n  #: resolved readiness times

    # ---- block gating -------------------------------------------------
    num_blocks = schedule.num_blocks
    gate_block = [-1] * n
    gate_task = [-1] * n
    block_gate: list[int] | None = None
    if policy == "barrier":
        block_members: list[int] = [0] * num_blocks
        for i in comp_ids:
            gate_block[i] = blk[i]
            block_members[blk[i]] += 1
        block_gate = [-1] * num_blocks  #: fire time, -1 = not yet fired
        block_rem = list(block_members)
        block_max = [0] * num_blocks
        block_waiters: list[list[int]] = [[] for _ in range(num_blocks)]
        if num_blocks:
            block_gate[0] = 0
        for b in range(1, num_blocks):
            # an empty block's completion barrier fires at t=0 (the
            # reference's all_of over no events), releasing the next
            if block_members[b - 1] == 0:
                block_gate[b] = 0
    elif policy == "pe":
        pe_of = schedule.pe_of
        prev_on_pe: dict[int, int] = {}
        for i in sorted(comp_ids, key=lambda i: (blk[i], pe_of[names[i]])):
            pe = pe_of[names[i]]
            if pe in prev_on_pe:
                gate_task[i] = prev_on_pe[pe]
            prev_on_pe[pe] = i
    elif policy != "dataflow":
        raise ValueError(f"unknown block policy {policy!r}")

    # ---- pacing: streaming intervals as numerator/denominator pairs
    # (denominator 0 = free-running) ------------------------------------
    si_n = [0] * n
    si_d = [0] * n
    so_n = [0] * n
    so_d = [0] * n
    si, so = schedule.si, schedule.so
    for i in comp_ids:
        v = names[i]
        r = si.get(v)
        w = so.get(v)
        if pacing != "steady":  # greedy: free-run, memory reads stay paced
            w = None
            if fifo_in[i]:
                r = None
        if r is not None:
            si_n[i], si_d[i] = r.numerator, r.denominator
        if w is not None:
            so_n[i], so_d[i] = w.numerator, w.denominator

    # ---- tasks: one generator each ------------------------------------
    started = [-1] * n
    finish_t = [-1] * n
    why: list[tuple | None] = [None] * n  #: blocking reason for diagnostics
    comp_waiters: list[list[int]] = [[] for _ in range(n)]
    # every suspend registers the task with exactly one waker (a flag
    # or a waiter list) that fires once, so no task is queued twice
    run_q = deque(comp_ids)

    def task(i: int):
        """Task ``i``'s dataflow loop; yields its clock on every
        suspend, i.e. on the first timestamp it cannot know yet."""
        # closure cells -> frame locals: these are touched every cycle
        arrs, pops_, caps, cwait, pwait = ch_arr, ch_pop, ch_cap, cons_wait, prod_wait
        enqueue = run_q.append
        t = 0
        b, g = gate_block[i], gate_task[i]
        if b >= 0:
            while block_gate[b] < 0:
                block_waiters[b].append(i)
                why[i] = ("gate_block", b)
                yield t
            t = block_gate[b]
        elif g >= 0:
            while finish_t[g] < 0:
                comp_waiters[g].append(i)
                why[i] = ("gate_task", g)
                yield t
            t = finish_t[g]

        fin, mem, och = fifo_in[i], mem_in[i], out_ch[i]
        vol_i, vol_o = in_vol[i], out_vol[i]
        rn, rd, wn, wd = si_n[i], si_d[i], so_n[i], so_d[i]
        ra = wa = st = -1  #: read / write anchors, start time
        c = p = 0  #: elements consumed / produced
        while c < vol_i or p < vol_o:
            need = -(-((p + 1) * vol_i) // vol_o) if p < vol_o else vol_i
            if c < need:
                # -- wait until every input holds element c -------------
                for e in fin:
                    arr = arrs[e]
                    while len(arr) <= c:  # not yet produced
                        cwait[e] = True
                        why[i] = _AVAIL
                        yield t
                    if arr[c] > t:
                        t = arr[c]
                for u in mem:
                    rt = ready_t[u]
                    if rt is None:
                        for tk in contrib[u]:
                            while finish_t[tk] < 0:  # producer still running
                                comp_waiters[tk].append(i)
                                why[i] = _AVAIL
                                yield t
                        rt = ready_t[u] = max(
                            (finish_t[tk] for tk in contrib[u]), default=0
                        )
                    if rt > t:
                        t = rt
                if rd:  # read pacing: element c no earlier than due
                    if ra < 0:
                        ra = t
                    due = ra + -(-(c * rn) // rd)
                    if due > t:
                        t = due
                for e in fin:  # non-eager pop of one element each
                    pops_[e].append(t)
                    if pwait[e]:
                        pwait[e] = False
                        enqueue(ch_src[e])
                if st < 0:
                    st = started[i] = t
                c += 1
                t += 1
                if p >= vol_o or c < need:
                    continue
            else:
                if st < 0:
                    st = started[i] = t
                t += 1
            # -- emit one element to every output, in order -------------
            if wd:  # write pacing
                if wa < 0:
                    wa = t
                due = wa + -(-(p * wn) // wd)
                if due > t:
                    t = due
            for e in och:
                arr = arrs[e]
                j = len(arr) - caps[e]
                if j >= 0:  # full unless element j was popped
                    pops = pops_[e]
                    while len(pops) <= j:  # space not freed yet
                        pwait[e] = True
                        why[i] = ("put", e)
                        yield t
                    if pops[j] > t:
                        t = pops[j]
                arr.append(t)
                if cwait[e]:
                    cwait[e] = False
                    enqueue(ch_dst[e])
            p += 1

        # ---- task finished ---------------------------------------------
        finish_t[i] = t
        if comp_waiters[i]:
            run_q.extend(comp_waiters[i])
            comp_waiters[i] = []
        if block_gate is not None:
            b = blk[i]
            if t > block_max[b]:
                block_max[b] = t
            block_rem[b] -= 1
            if block_rem[b] == 0 and b + 1 < num_blocks:
                block_gate[b + 1] = block_max[b]
                run_q.extend(block_waiters[b + 1])
                block_waiters[b + 1] = []

    # ---- worklist: resume runnable tasks until none can progress ------
    tasks = [task(i) if comp[i] else None for i in range(n)]
    horizon = 0  #: max realized event time == the engine clock at drain
    pop_task = run_q.popleft
    while run_q:
        t = next(tasks[pop_task()], 0)
        if t > horizon:
            horizon = t
    horizon = max(horizon, max(finish_t, default=0))

    channels = ch_src, ch_dst, ch_cap, ch_arr, ch_pop
    unfinished = [i for i in comp_ids if finish_t[i] < 0]
    if not unfinished:
        return SimulationResult(horizon, names, finish_t, started, channels)
    blocked = []
    for i in unfinished:
        reason = why[i]
        kind = reason[0] if reason else "?"
        if kind == "gate_block":
            ev = f"block{reason[1]}.start"
        elif kind == "gate_task":
            ev = f"{names[reason[1]]}.completion"
        elif kind == "put":
            e = reason[1]
            ev = f"{names[ch_src[e]]}->{names[ch_dst[e]]}.put"
        else:
            ev = "all_of"
        blocked.append(f"task:{names[i]} (on {ev})")
    error = DeadlockError(
        horizon,
        blocked,
        channels={
            f"{names[ch_src[e]]}->{names[ch_dst[e]]}": (
                len(ch_arr[e]) - len(ch_pop[e]),
                ch_cap[e],
            )
            for e in range(nch)
        },
    )
    if raise_on_deadlock:
        raise error
    return SimulationResult(
        error.time, names, finish_t, started, channels, deadlocked=True,
        blocked=error.blocked, deadlock_channels=error.channels,
    )
