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
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Hashable

from ..core.graph import CanonicalGraph
from ..core.levels import bottom_levels, critical_path_length

__all__ = ["ListSchedule", "schedule_nonstreaming", "condensed_dependencies"]


@dataclass(frozen=True)
class PlacedTask:
    """One task occurrence on a PE timeline."""

    name: Hashable
    start: int
    finish: int
    pe: int


@dataclass
class ListSchedule:
    """Result of the non-streaming list scheduler."""

    graph: CanonicalGraph
    num_pes: int
    placements: dict[Hashable, PlacedTask]
    makespan: int
    timelines: list[list[PlacedTask]] = field(repr=False, default_factory=list)

    def busy_time(self) -> int:
        return sum(p.finish - p.start for p in self.placements.values())

    def validate(self) -> None:
        """Precedence + mutual exclusion on PEs."""
        deps = condensed_dependencies(self.graph)
        for v, preds in deps.items():
            for u in preds:
                if self.placements[v].start < self.placements[u].finish:
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


def condensed_dependencies(
    graph: CanonicalGraph,
) -> dict[Hashable, set[Hashable]]:
    """Dependencies between computational tasks, skipping passive nodes.

    ``u -> buffer -> v`` means ``v`` depends on the completion of ``u``:
    passive nodes are transparent memory hops.  Runs over the frozen
    integer arrays; the returned mapping uses node names.
    """
    from ..core.indexed import freeze

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


_start = attrgetter("start")


class _Timeline:
    """A PE's busy timeline, represented by its idle *gaps*.

    The timeline is a prefix of busy intervals from 0 to ``last_end``
    minus a (usually short) sorted list of idle gaps.  Insertion-slot
    search is then a bisect over the gaps plus the append position,
    instead of a scan over all placed tasks.
    """

    __slots__ = ("gaps", "last_end")

    def __init__(self) -> None:
        self.gaps: list[tuple[int, int]] = []  # sorted idle [start, end)
        self.last_end = 0

    def earliest_slot(self, ready: int, duration: int) -> int:
        """Earliest start >= ready of an idle span fitting ``duration``."""
        if ready >= self.last_end:
            return ready
        gaps = self.gaps
        # first gap that ends after `ready` (earlier gaps are useless);
        # gap starts are increasing, so the first feasible gap wins
        idx = bisect_left(gaps, (ready, ready)) if gaps else 0
        if idx > 0 and gaps[idx - 1][1] > ready:
            idx -= 1
        for start, end in gaps[idx:]:
            candidate = max(start, ready)
            if candidate + duration <= end:
                return candidate
        return self.last_end

    def insert(self, start: int, duration: int) -> None:
        end = start + duration
        if start >= self.last_end:
            if start > self.last_end:
                insort(self.gaps, (self.last_end, start))
            self.last_end = end
            return
        # placing inside a gap: split it
        idx = bisect_left(self.gaps, (start, start + 1))
        if idx == len(self.gaps) or self.gaps[idx][0] > start:
            idx -= 1
        g_start, g_end = self.gaps[idx]
        if not (g_start <= start and end <= g_end):
            raise ValueError(f"slot [{start},{end}) not idle on this PE")
        pieces = []
        if g_start < start:
            pieces.append((g_start, start))
        if end < g_end:
            pieces.append((end, g_end))
        self.gaps[idx : idx + 1] = pieces


def schedule_nonstreaming(graph: CanonicalGraph, num_pes: int) -> ListSchedule:
    """Schedule ``graph`` on ``num_pes`` PEs with buffered communication.

    Tasks are served in descending bottom-level order (which is a valid
    topological order since works are strictly positive) and placed on
    the PE offering the earliest insertion slot.
    """
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    from ..core.indexed import freeze

    ig = freeze(graph)
    # condensed dependencies and bottom levels are graph-intrinsic (no
    # request parameters), so memoize them on the frozen view like the
    # levels: the portfolio re-runs nstr over the same graph repeatedly
    derived = ig._derived
    if derived is None:
        derived = ig._derived = {}
    cached = derived.get("nstr")
    if cached is None:
        cached = derived["nstr"] = (
            condensed_dependencies(graph), bottom_levels(graph)
        )
    deps, bl = cached
    counter = itertools.count()
    order = [
        (-bl[v], next(counter), v)
        for v in ig.computational_nodes()
    ]
    heapq.heapify(order)

    work, index = ig.work, ig.index
    timelines = [_Timeline() for _ in range(num_pes)]
    placed: list[list[PlacedTask]] = [[] for _ in range(num_pes)]
    placements: dict[Hashable, PlacedTask] = {}
    makespan = 0
    while order:
        _, _, v = heapq.heappop(order)
        duration = work[index[v]]
        ready = max((placements[u].finish for u in deps[v]), default=0)
        best_pe, best_start = 0, None
        for pe, timeline in enumerate(timelines):
            start = timeline.earliest_slot(ready, duration)
            if best_start is None or start < best_start:
                best_pe, best_start = pe, start
                if start == ready:  # cannot start any earlier
                    break
        assert best_start is not None
        timelines[best_pe].insert(best_start, duration)
        task = placements[v] = PlacedTask(
            v, best_start, best_start + duration, best_pe
        )
        placed[best_pe].append(task)
        makespan = max(makespan, best_start + duration)

    # works are positive, so starts are unique per PE: ordering by start
    # is the timeline order
    for timeline in placed:
        timeline.sort(key=_start)
    return ListSchedule(graph, num_pes, placements, makespan, placed)
