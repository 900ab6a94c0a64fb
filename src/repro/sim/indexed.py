"""Array-state schedule simulation — the simulator's one engine.

:func:`simulate_schedule` is the Appendix B validation harness front
door: given a :class:`~repro.core.scheduler.StreamingSchedule`, execute
it cycle-accurately and report simulated timing, channel statistics and
deadlocks.  It is pure Python on every install.

The reference engine (the test oracle ``tests/oracles/sim_reference.py``)
drives one Python generator per task and one heap event per
element transfer; at fig13/ablation scale those allocations dominate
the whole validation campaign.  This module lowers a
:class:`~repro.core.scheduler.StreamingSchedule` over a frozen
:class:`~repro.core.indexed.IndexedGraph` into flat integer arrays —
per-task produced/consumed counters and anchors, CSR-ordered channel
lists, per-block gate state — and executes the identical dataflow
semantics as a *timestamp dataflow network*:

* every streaming channel keeps the (monotone) sequence of element
  **accept times** and **pop times** instead of live element objects;
  the bounded-FIFO law ``accept(k) = max(attempt, pop(k - capacity))``
  then prices backpressure exactly, with no pending-put event objects;
* every task is a small integer state machine replaying the canonical
  dataflow loop of the reference engine's ``_task_process`` — same
  need/emit arithmetic, same streaming-interval pacing (integer
  ceilings over the interval's numerator/denominator), same gate
  semantics for all three block policies;
* a worklist advances each runnable task as far as its inputs' known
  timestamps allow — typically a whole blocking horizon of cycles per
  activation — and suspends it on the first *unknown* timestamp (an
  element not yet produced, a pop not yet performed, an unfired gate).
  Because each channel has a single producer and a single consumer and
  all enabling conditions are monotone, this maximum-progress order
  reaches the same unique fixed point as the reference engine's
  time-ordered heap: identical makespans, start/finish times, deadlock
  times and blocked sets (asserted by the golden differential tests).

A drained worklist with unfinished tasks is exactly the reference
engine's drained heap with live processes: a deadlock.  The blocked-on
strings are reconstructed in the reference engine's format
(``task:v (on u->w.put)`` etc.), and the raised
:class:`~repro.sim.result.DeadlockError` carries every channel's
occupancy/capacity at deadlock time.

One knowingly weaker statistic: ``max_occupancy`` is reconstructed by
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

#: task state-machine phases
_GATE, _LOOP, _EMIT, _DONE = 0, 1, 2, 3


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

    # ---- task state ----------------------------------------------------
    phase = [_GATE] * n
    cns = [0] * n  #: consumed
    prd = [0] * n  #: produced
    tau = [0] * n  #: task-local clock
    ra = [-1] * n  #: read anchor
    wa = [-1] * n  #: write anchor
    oi = [0] * n  #: output index of a suspended emit
    started = [-1] * n
    finish_t = [-1] * n
    why: list[tuple | None] = [None] * n  #: blocking reason for diagnostics
    comp_waiters: list[list[int]] = [[] for _ in range(n)]
    queued = [True] * n
    horizon = 0  #: max realized event time == the engine clock at drain
    remaining = len(comp_ids)

    run_q = deque(comp_ids)

    def wake(i: int) -> None:
        if not queued[i] and phase[i] != _DONE:
            queued[i] = True
            run_q.append(i)

    def advance(i: int) -> None:
        """Run task ``i`` until it blocks on an unknown timestamp."""
        nonlocal horizon, remaining
        # closure cells -> locals: these are touched every cycle
        arrs, pops_, caps = ch_arr, ch_pop, ch_cap
        cwait, pwait = cons_wait, prod_wait
        ph = phase[i]
        t = tau[i]
        c = cns[i]
        p = prd[i]
        vol_i = in_vol[i]
        vol_o = out_vol[i]
        o = oi[i] if ph == _EMIT else 0

        if ph == _GATE:
            b = gate_block[i]
            if b >= 0:
                gt = block_gate[b]
                if gt < 0:
                    block_waiters[b].append(i)
                    why[i] = ("gate_block", b)
                    phase[i] = _GATE
                    return
                if gt > t:
                    t = gt
            else:
                g = gate_task[i]
                if g >= 0:
                    ft = finish_t[g]
                    if ft < 0:
                        comp_waiters[g].append(i)
                        why[i] = ("gate_task", g)
                        return
                    if ft > t:
                        t = ft
            ph = _LOOP

        fin = fifo_in[i]
        mem = mem_in[i]
        och = out_ch[i]
        rn, rd = si_n[i], si_d[i]
        wn, wd = so_n[i], so_d[i]

        while True:
            if ph == _LOOP:
                if c >= vol_i and p >= vol_o:
                    break  # the dataflow loop is complete
                need = -(-((p + 1) * vol_i) // vol_o) if p < vol_o else vol_i
                if c < need:
                    # -- wait until every input holds element c ---------
                    for e in fin:
                        arr = arrs[e]
                        if len(arr) <= c:  # not yet produced: suspend
                            cwait[e] = True
                            why[i] = ("avail",)
                            cns[i], prd[i], tau[i], phase[i] = c, p, t, _LOOP
                            if t > horizon:
                                horizon = t
                            return
                        a = arr[c]
                        if a > t:
                            t = a
                    for u in mem:
                        rt = ready_t[u]
                        if rt is None:
                            rt = 0
                            pend = -1
                            for tk in contrib[u]:
                                ft = finish_t[tk]
                                if ft < 0:
                                    pend = tk
                                    break
                                if ft > rt:
                                    rt = ft
                            if pend >= 0:  # producer still running
                                comp_waiters[pend].append(i)
                                why[i] = ("avail",)
                                cns[i], prd[i], tau[i], phase[i] = c, p, t, _LOOP
                                if t > horizon:
                                    horizon = t
                                return
                            ready_t[u] = rt
                        if rt > t:
                            t = rt
                    if rd:  # read pacing: element c no earlier than due
                        anchor = ra[i]
                        if anchor < 0:
                            anchor = ra[i] = t
                        due = anchor + -(-(c * rn) // rd)
                        if due > t:
                            t = due
                    for e in fin:  # non-eager pop of one element each
                        pops_[e].append(t)
                        if pwait[e]:
                            pwait[e] = False
                            w = ch_src[e]
                            if not queued[w]:
                                queued[w] = True
                                run_q.append(w)
                    if started[i] < 0:
                        started[i] = t
                    c += 1
                    t += 1
                    if p < vol_o and c >= need:
                        ph = _EMIT
                        o = 0
                else:
                    if started[i] < 0:
                        started[i] = t
                    t += 1
                    ph = _EMIT
                    o = 0
            else:  # _EMIT: one element to every output, in order
                if wd:  # write pacing (idempotent on emit resume)
                    anchor = wa[i]
                    if anchor < 0:
                        anchor = wa[i] = t
                    due = anchor + -(-(p * wn) // wd)
                    if due > t:
                        t = due
                nout = len(och)
                while o < nout:
                    e = och[o]
                    arr = arrs[e]
                    k = len(arr)
                    cap = caps[e]
                    if k >= cap:
                        pops = pops_[e]
                        j = k - cap
                        if len(pops) <= j:  # space not freed yet: suspend
                            pwait[e] = True
                            why[i] = ("put", e)
                            oi[i] = o
                            cns[i], prd[i], tau[i], phase[i] = c, p, t, _EMIT
                            if t > horizon:
                                horizon = t
                            return
                        pt = pops[j]
                        if pt > t:
                            t = pt
                    arr.append(t)
                    if cwait[e]:
                        cwait[e] = False
                        w = ch_dst[e]
                        if not queued[w]:
                            queued[w] = True
                            run_q.append(w)
                    o += 1
                p += 1
                ph = _LOOP

        # ---- task finished ---------------------------------------------
        phase[i] = _DONE
        tau[i] = t
        finish_t[i] = t
        if t > horizon:
            horizon = t
        remaining -= 1
        waiters = comp_waiters[i]
        if waiters:
            comp_waiters[i] = []
            for w in waiters:
                wake(w)
        if block_gate is not None:
            b = blk[i]
            if t > block_max[b]:
                block_max[b] = t
            block_rem[b] -= 1
            if block_rem[b] == 0 and b + 1 < num_blocks:
                block_gate[b + 1] = block_max[b]
                bw = block_waiters[b + 1]
                if bw:
                    block_waiters[b + 1] = []
                    for w in bw:
                        wake(w)

    while run_q:
        i = run_q.popleft()
        queued[i] = False
        advance(i)

    finish = {names[i]: finish_t[i] for i in comp_ids if finish_t[i] >= 0}
    starts = {names[i]: started[i] for i in comp_ids if started[i] >= 0}

    def channel_stats() -> dict:
        out = {}
        for e in range(nch):
            occ = mx = ia = ip = 0
            arr, pops = ch_arr[e], ch_pop[e]
            na, npop = len(arr), len(pops)
            while ia < na:
                if ip < npop and pops[ip] <= arr[ia]:
                    occ -= 1
                    ip += 1
                else:
                    occ += 1
                    ia += 1
                    if occ > mx:
                        mx = occ
            out[(names[ch_src[e]], names[ch_dst[e]])] = (ch_cap[e], mx)
        return out

    if remaining:
        blocked = []
        for i in comp_ids:
            if finish_t[i] >= 0:
                continue
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
            makespan=error.time,
            finish_times=finish,
            deadlocked=True,
            blocked=error.blocked,
            channel_stats=channel_stats(),
            start_times=starts,
            deadlock_channels=error.channels,
        )
    return SimulationResult(
        makespan=horizon,
        finish_times=finish,
        channel_stats=channel_stats(),
        start_times=starts,
    )
