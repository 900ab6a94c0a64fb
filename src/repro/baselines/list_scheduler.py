"""Non-streaming baseline scheduler (NSTR-SCH, Section 7).

A classical critical-path list scheduler for homogeneous PEs with
bottom-level priorities (in the spirit of CP/MISF, Kasahara & Narita) and
*insertion* slot selection: a task may be placed into an idle gap of a
PE's timeline as long as it fits entirely.

Execution model: all communication is buffered through global memory, so
a task becomes ready only when every predecessor has finished, and its
execution time is its work ``W(v) = max(I(v), O(v))`` (the dataflow-
centric one-element-per-cycle cost model of Section 4.2; reading inputs
and writing outputs overlap inside the task).  Passive nodes (buffers,
sources, sinks) are memory and cost nothing by themselves.

The scheduler runs on the frozen view's integer columns only: bottom
levels over the successor CSR, ready times over the predecessor CSR,
and the PE timelines as flat per-PE slot columns.  Its result keeps
start, PE and scheduling order per node index; the name-keyed
:class:`PlacedTask` view is built only when something reads it, so a
portfolio candidate that loses the race never creates per-task objects.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Hashable, Sequence

from ..core.graph import CanonicalGraph
from ..core.indexed import IndexedGraph, freeze
from ..core.levels import bottom_levels_idx

__all__ = ["ListSchedule", "schedule_nonstreaming", "condensed_dependencies"]


@dataclass(frozen=True)
class PlacedTask:
    """One task occurrence on a PE timeline."""

    name: Hashable
    start: int
    finish: int
    pe: int


class ListSchedule:
    """Result of the non-streaming list scheduler.

    ``order_idx`` lists the computational node ids in scheduling order;
    ``start_idx`` / ``pe_idx`` give each id's start time and PE (its
    finish is ``start + W(v)``).  ``placements`` (name -> PlacedTask, in
    scheduling order) and ``timelines`` (per-PE lists by start) are
    built from these columns on first access.
    """

    def __init__(
        self,
        graph: CanonicalGraph,
        num_pes: int,
        makespan: int,
        order_idx: list[int],
        start_idx: list[int],
        pe_idx: list[int],
    ) -> None:
        self.graph = graph
        self.num_pes = num_pes
        self.makespan = makespan
        self.order_idx = order_idx
        self.start_idx = start_idx
        self.pe_idx = pe_idx

    @cached_property
    def placements(self) -> dict[Hashable, PlacedTask]:
        return placements_from_columns(
            freeze(self.graph), self.order_idx, self.start_idx, self.pe_idx
        )

    fifo_total = 0  #: no streaming FIFOs: every edge goes through memory

    @cached_property
    def timelines(self) -> list[list[PlacedTask]]:
        placed: list[list[PlacedTask]] = [[] for _ in range(self.num_pes)]
        for p in self.placements.values():
            placed[p.pe].append(p)
        # works are positive, so starts are unique per PE: ordering by
        # start is the timeline order
        for timeline in placed:
            timeline.sort(key=lambda p: p.start)
        return placed

    def busy_time(self) -> int:
        work = freeze(self.graph).work
        return sum(work[v] for v in self.order_idx)

    def validate(self) -> None:
        """Every task placed once for ``W(v)`` cycles, precedence, and
        mutual exclusion on PEs."""
        ig = freeze(self.graph)
        placements = self.placements
        for v in ig.computational_nodes():
            if v not in placements:
                raise ValueError(f"{v!r} is not placed")
        counts = Counter(p.name for tl in self.timelines for p in tl)
        for v, k in counts.items():
            if k != 1:
                raise ValueError(f"{v!r} is placed {k} times")
        work, index = ig.work, ig.index
        for v, p in placements.items():
            if p.finish - p.start != work[index[v]]:
                raise ValueError(
                    f"{v!r} runs {p.finish - p.start} cycles, "
                    f"W(v) = {work[index[v]]}"
                )
        for v, preds in condensed_dependencies(self.graph).items():
            for u in preds:
                if placements[v].start < placements[u].finish:
                    raise ValueError(
                        f"{v!r} starts before predecessor {u!r} finishes"
                    )
        for timeline in self.timelines:
            ordered = sorted(timeline, key=lambda p: p.start)
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.finish:
                    raise ValueError(
                        f"overlap on PE {a.pe}: {a.name!r} and {b.name!r}"
                    )


def placements_from_columns(
    ig: IndexedGraph,
    order_idx: Sequence[int],
    start_idx: Sequence[int],
    pe_idx: Sequence[int],
) -> dict[Hashable, PlacedTask]:
    """Name-keyed placements (in scheduling order) from int columns."""
    names, work = ig.names, ig.work
    return {
        names[v]: PlacedTask(
            names[v], start_idx[v], start_idx[v] + work[v], pe_idx[v]
        )
        for v in order_idx
    }


def condensed_dependencies(
    graph: CanonicalGraph,
) -> dict[Hashable, set[Hashable]]:
    """Dependencies between computational tasks, skipping passive nodes.

    ``u -> buffer -> v`` means ``v`` depends on the completion of ``u``:
    passive nodes are transparent memory hops.  Runs over the frozen
    integer arrays; the returned mapping uses node names.
    """
    ig = freeze(graph)
    comp = ig.comp
    pp, pa = ig.pred_ptr, ig.pred_adj
    names = ig.names
    comp_preds: list[set[int] | None] = [None] * ig.n
    deps: dict[Hashable, set[Hashable]] = {}
    for v in ig.topo:
        acc: set[int] = set()
        for j in range(pp[v], pp[v + 1]):
            u = pa[j]
            if comp[u]:
                acc.add(u)
            else:
                acc |= comp_preds[u]
        if comp[v]:
            deps[names[v]] = {names[u] for u in acc}
            comp_preds[v] = {v}
        else:
            comp_preds[v] = acc
    return deps


class PESlots:
    """The idle time of ``num_pes`` PE timelines, in flat per-PE columns.

    A timeline is busy from 0 to ``last_end[pe]`` except for the sorted
    idle ``gaps[pe]`` (``(start, end)`` pairs); ``max_gap[pe]`` is the
    longest of them, so a PE none of whose gaps fits a task is answered
    without a bisect.
    """

    __slots__ = ("last_end", "gaps", "max_gap")

    def __init__(self, num_pes: int) -> None:
        self.last_end = [0] * num_pes
        self.gaps: list[list[tuple[int, int]]] = [[] for _ in range(num_pes)]
        self.max_gap = [0] * num_pes

    def earliest(self, pe: int, ready: int, duration: int) -> int:
        """Earliest start >= ready of an idle span fitting ``duration``."""
        last_end = self.last_end[pe]
        if ready >= last_end:
            return ready
        if self.max_gap[pe] >= duration:
            gaps = self.gaps[pe]
            # first gap that ends after `ready` (earlier gaps are useless);
            # gap starts are increasing, so the first feasible gap wins
            idx = bisect_left(gaps, (ready, ready))
            if idx and gaps[idx - 1][1] > ready:
                idx -= 1
            for j in range(idx, len(gaps)):
                start, end = gaps[j]
                if start < ready:
                    start = ready
                if start + duration <= end:
                    return start
        return last_end

    def insert(self, pe: int, start: int, duration: int) -> None:
        end = start + duration
        last_end = self.last_end[pe]
        gaps = self.gaps[pe]
        if start >= last_end:
            if start > last_end:
                # every gap ends at or before last_end: stays sorted
                gaps.append((last_end, start))
                if start - last_end > self.max_gap[pe]:
                    self.max_gap[pe] = start - last_end
            self.last_end[pe] = end
            return
        # placing inside a gap: split it
        idx = bisect_left(gaps, (start, start + 1))
        if idx == len(gaps) or gaps[idx][0] > start:
            idx -= 1
        g_start, g_end = gaps[idx]
        if not (g_start <= start and end <= g_end):
            raise ValueError(f"slot [{start},{end}) not idle on PE {pe}")
        pieces = []
        if g_start < start:
            pieces.append((g_start, start))
        if end < g_end:
            pieces.append((end, g_end))
        gaps[idx : idx + 1] = pieces
        if g_end - g_start == self.max_gap[pe]:
            self.max_gap[pe] = max((e - s for s, e in gaps), default=0)


#: above any start time: no PE has offered a slot yet
_NO_START = sys.maxsize


def place_in_order(
    ig: IndexedGraph, num_pes: int, order: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Place the tasks ``order`` (a topological order of the computational
    node ids) one by one on the PE offering the earliest insertion slot,
    the lowest PE index among equal starts.

    A task is ready when every computational predecessor has finished,
    looking through passive nodes: a passive node is available at the
    latest finish among its own predecessors, memoized the first time a
    consumer asks.  Returns ``(start_idx, pe_idx, makespan)``.
    """
    n = ig.n
    work = ig.work
    pp, pa = ig.pred_ptr, ig.pred_adj
    # finish time of a placed task, or availability of a resolved
    # passive node; -1 = not known yet (finishes are >= 1)
    avail = [-1] * n
    start_idx = [0] * n
    pe_idx = [0] * n
    slots = PESlots(num_pes)
    last_end, gaps, max_gap = slots.last_end, slots.gaps, slots.max_gap
    insert = slots.insert
    pes = range(num_pes)
    makespan = 0
    for v in order:
        duration = work[v]
        ready = 0
        for j in range(pp[v], pp[v + 1]):
            f = avail[pa[j]]
            if f < 0:
                f = _resolve_passive(pa[j], avail, pp, pa)
            if f > ready:
                ready = f
        # PEs in index order; a later PE must offer a strictly earlier
        # start to win, so each PE's gaps are searched only below `best`
        best_pe, best = 0, _NO_START
        key = (ready, ready)
        for pe in pes:
            start = last_end[pe]
            if start <= ready:  # idle from `ready` on: cannot start earlier
                best_pe, best = pe, ready
                break
            if max_gap[pe] >= duration:
                g = gaps[pe]
                if g[-1][1] - duration >= ready:
                    # PESlots.earliest inlined (the call costs ~15% on
                    # serpar-10k) and cut off at gaps starting at or
                    # after `best`
                    k = bisect_left(g, key)
                    if k and g[k - 1][1] > ready:
                        k -= 1
                    for j in range(k, len(g)):
                        g_start, g_end = g[j]
                        if g_start < ready:
                            g_start = ready
                        elif g_start >= best:
                            break
                        if g_start + duration <= g_end:
                            start = g_start
                            break
            if start < best:
                best_pe, best = pe, start
                if start == ready:
                    break
        insert(best_pe, best, duration)
        start_idx[v] = best
        pe_idx[v] = best_pe
        finish = avail[v] = best + duration
        if finish > makespan:
            makespan = finish
    return start_idx, pe_idx, makespan


def _resolve_passive(p: int, avail: list[int], pp, pa) -> int:
    """Availability of passive node ``p``: the latest finish among its
    predecessors, through chains of passive nodes (iterative, memoized
    in ``avail``).  Every computational ancestor is already placed."""
    stack = [p]
    while stack:
        q = stack[-1]
        best, pending = 0, False
        for j in range(pp[q], pp[q + 1]):
            f = avail[pa[j]]
            if f < 0:
                stack.append(pa[j])
                pending = True
            elif f > best:
                best = f
        if not pending:
            avail[q] = best
            stack.pop()
    return avail[p]


def schedule_nonstreaming(graph: CanonicalGraph, num_pes: int) -> ListSchedule:
    """Schedule ``graph`` on ``num_pes`` PEs with buffered communication.

    Tasks are served in descending bottom-level order, ties by node id
    (a valid topological order since works are strictly positive), and
    placed on the PE offering the earliest insertion slot.
    """
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    ig = freeze(graph)
    bl = bottom_levels_idx(ig)
    # sorted() is stable under reverse=True: equal levels keep id order
    order = sorted(compress(range(ig.n), ig.comp), key=bl.__getitem__,
                   reverse=True)
    start_idx, pe_idx, makespan = place_in_order(ig, num_pes, order)
    return ListSchedule(graph, num_pes, makespan, order, start_idx, pe_idx)
