"""Scan list scheduler: the oracle for NSTR-SCH and unit-speed HEFT.

The name-keyed implementation :mod:`repro.baselines.list_scheduler`
replaced: a heap of ``(-bottom level, counter, name)`` entries, the
:func:`~repro.baselines.condensed_dependencies` name sets, and one
:class:`_Timeline` object per PE whose ``earliest_slot`` is tried on
every PE in index order until one can start at ``ready``.  Placements, scheduling order
and serialized bytes of the runtime schedulers must match these
exactly (``tests/test_list_scheduler_oracle.py``).  Test-only: nothing
under ``repro`` imports it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Hashable, Sequence

from repro.baselines.heft import _comm_volume, _exec_time, upward_ranks
from repro.baselines.list_scheduler import PlacedTask, condensed_dependencies
from repro.core.levels import bottom_levels

__all__ = ["ScanSchedule", "scan_nonstreaming", "scan_heft"]


@dataclass
class ScanSchedule:
    """Oracle result; serializes like a list schedule (``placements``
    in scheduling order)."""

    graph: object
    num_pes: int
    placements: dict[Hashable, PlacedTask]
    makespan: int
    timelines: list[list[PlacedTask]] = field(repr=False, default_factory=list)


_start = attrgetter("start")


class _Timeline:
    """A PE's busy timeline, represented by its idle *gaps*."""

    __slots__ = ("gaps", "last_end")

    def __init__(self) -> None:
        self.gaps: list[tuple[int, int]] = []  # sorted idle [start, end)
        self.last_end = 0

    def earliest_slot(self, ready: int, duration: int) -> int:
        """Earliest start >= ready of an idle span fitting ``duration``."""
        if ready >= self.last_end:
            return ready
        gaps = self.gaps
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


def scan_nonstreaming(graph, num_pes: int) -> ScanSchedule:
    """NSTR-SCH: descending bottom level, earliest insertion slot."""
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    deps = condensed_dependencies(graph)
    bl = bottom_levels(graph)
    counter = itertools.count()
    order = [(-bl[v], next(counter), v) for v in graph.computational_nodes()]
    heapq.heapify(order)

    timelines = [_Timeline() for _ in range(num_pes)]
    placed: list[list[PlacedTask]] = [[] for _ in range(num_pes)]
    placements: dict[Hashable, PlacedTask] = {}
    makespan = 0
    while order:
        _, _, v = heapq.heappop(order)
        duration = graph.spec(v).work
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

    for timeline in placed:
        timeline.sort(key=_start)
    return ScanSchedule(graph, num_pes, placements, makespan, placed)


def scan_heft(
    graph, speeds: Sequence[float], bandwidth: float = math.inf
) -> ScanSchedule:
    """HEFT: decreasing upward rank, minimum finish over every PE."""
    speeds = tuple(float(s) for s in speeds)
    comm = _comm_volume(graph)
    deps = condensed_dependencies(graph)
    ranks = upward_ranks(graph, speeds, bandwidth)
    order = sorted(ranks, key=lambda v: -ranks[v])

    timelines = [_Timeline() for _ in speeds]
    placements: dict[Hashable, PlacedTask] = {}
    makespan = 0
    for v in order:
        work = graph.spec(v).work
        best: tuple[int, int, int] | None = None  # (finish, start, pe)
        for pe, (speed, timeline) in enumerate(zip(speeds, timelines)):
            duration = _exec_time(work, speed)
            ready = 0
            for u in deps[v]:
                arrive = placements[u].finish
                if placements[u].pe != pe and math.isfinite(bandwidth):
                    arrive += math.ceil(comm[(u, v)] / bandwidth)
                ready = max(ready, arrive)
            start = timeline.earliest_slot(ready, duration)
            finish = start + duration
            if best is None or finish < best[0]:
                best = (finish, start, pe)
        assert best is not None
        finish, start, pe = best
        timelines[pe].insert(start, finish - start)
        placements[v] = PlacedTask(v, start, finish, pe)
        makespan = max(makespan, finish)
    return ScanSchedule(graph, len(speeds), placements, makespan)
