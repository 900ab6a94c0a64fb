"""HEFT — heterogeneous list scheduling (extension; Topcuoglu et al.).

The paper's conclusion names heterogeneous processing elements as the
natural extension of the model.  This module provides the classic
Heterogeneous Earliest Finish Time baseline over the same buffered
execution model as NSTR-SCH:

* every PE ``p`` has a speed factor; task ``v`` runs in
  ``ceil(W(v) / speed[p])`` cycles;
* optional communication cost: a buffered edge costs
  ``ceil(volume / bandwidth)`` when producer and consumer run on
  different PEs (data goes through memory/NoC), zero on the same PE;
* tasks are served in decreasing *upward rank* (mean execution time
  plus mean communication along the heaviest path to an exit) and
  placed on the PE minimizing the earliest finish time, with insertion.

With unit speeds and infinite bandwidth HEFT degenerates to a
bottom-level list scheduler, so the NSTR-SCH results are a special
case — asserted in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from ..core.graph import CanonicalGraph
from ..core.indexed import freeze
from ..core.levels import bottom_levels_idx
from .list_scheduler import (
    PESlots,
    PlacedTask,
    condensed_dependencies,
    place_in_order,
    placements_from_columns,
)

__all__ = ["HeftSchedule", "schedule_heft", "upward_ranks"]


@dataclass
class HeftSchedule:
    graph: CanonicalGraph
    speeds: tuple[float, ...]
    bandwidth: float
    placements: dict[Hashable, PlacedTask]
    makespan: int

    @property
    def num_pes(self) -> int:
        return len(self.speeds)

    def busy_time(self) -> int:
        return sum(p.finish - p.start for p in self.placements.values())

    def validate(self) -> None:
        deps = condensed_dependencies(self.graph)
        for v, preds in deps.items():
            for u in preds:
                if self.placements[v].start < self.placements[u].finish:
                    raise ValueError(f"{v!r} starts before {u!r} finishes")
        by_pe: dict[int, list[PlacedTask]] = {}
        for p in self.placements.values():
            by_pe.setdefault(p.pe, []).append(p)
        for items in by_pe.values():
            items.sort(key=lambda p: p.start)
            for a, b in zip(items, items[1:]):
                if b.start < a.finish:
                    raise ValueError(f"overlap on PE {a.pe}")


def _exec_time(work: int, speed: float) -> int:
    return max(1, math.ceil(work / speed))


def _comm_volume(graph: CanonicalGraph) -> dict[tuple[Hashable, Hashable], int]:
    """Data volume between computational tasks, through passive hops."""
    volumes: dict[tuple[Hashable, Hashable], int] = {}
    carrier: dict[Hashable, list[tuple[Hashable, int]]] = {}
    for v in graph.topological_order():
        spec = graph.spec(v)
        sources: list[tuple[Hashable, int]] = []
        for u in graph.predecessors(v):
            vol = graph.volume(u, v)
            if graph.spec(u).kind.is_computational:
                sources.append((u, vol))
            else:
                sources.extend((w, vol) for w, _ in carrier.get(u, []))
        if spec.kind.is_computational:
            for w, vol in sources:
                key = (w, v)
                volumes[key] = max(volumes.get(key, 0), vol)
            carrier[v] = [(v, spec.output_volume)]
        else:
            carrier[v] = sources
    return volumes


def upward_ranks(
    graph: CanonicalGraph, speeds: Sequence[float], bandwidth: float
) -> dict[Hashable, float]:
    """``rank_u(v) = mean_exec(v) + max_succ (mean_comm + rank_u)``."""
    mean_speed = sum(speeds) / len(speeds)
    comm = _comm_volume(graph)
    succs: dict[Hashable, list[Hashable]] = {}
    for (u, v) in comm:
        succs.setdefault(u, []).append(v)
    ranks: dict[Hashable, float] = {}
    for v in reversed(graph.topological_order()):
        if not graph.spec(v).kind.is_computational:
            continue
        w = graph.spec(v).work / mean_speed
        best = 0.0
        for s in succs.get(v, ()):
            c = comm[(v, s)] / bandwidth if math.isfinite(bandwidth) else 0.0
            best = max(best, c + ranks[s])
        ranks[v] = w + best
    return ranks


def schedule_heft(
    graph: CanonicalGraph,
    speeds: Sequence[float],
    bandwidth: float = math.inf,
) -> HeftSchedule:
    """Schedule ``graph`` on heterogeneous PEs with buffered edges."""
    if not speeds:
        raise ValueError("need at least one PE")
    if any(s <= 0 for s in speeds):
        raise ValueError("PE speeds must be positive")
    speeds = tuple(float(s) for s in speeds)
    if not math.isfinite(bandwidth) and all(s == 1.0 for s in speeds):
        return _schedule_heft_unit(graph, speeds, bandwidth)
    comm = _comm_volume(graph)
    deps = condensed_dependencies(graph)
    ranks = upward_ranks(graph, speeds, bandwidth)
    order = sorted(ranks, key=lambda v: -ranks[v])

    slots = PESlots(len(speeds))
    placements: dict[Hashable, PlacedTask] = {}
    makespan = 0
    for v in order:
        work = graph.spec(v).work
        best: tuple[int, int, int] | None = None  # (finish, start, pe)
        for pe, speed in enumerate(speeds):
            duration = _exec_time(work, speed)
            ready = 0
            for u in deps[v]:
                arrive = placements[u].finish
                if placements[u].pe != pe and math.isfinite(bandwidth):
                    arrive += math.ceil(comm[(u, v)] / bandwidth)
                ready = max(ready, arrive)
            start = slots.earliest(pe, ready, duration)
            finish = start + duration
            if best is None or finish < best[0]:
                best = (finish, start, pe)
        assert best is not None
        finish, start, pe = best
        slots.insert(pe, start, finish - start)
        placements[v] = PlacedTask(v, start, finish, pe)
        makespan = max(makespan, finish)

    return HeftSchedule(graph, speeds, bandwidth, placements, makespan)


def _schedule_heft_unit(
    graph: CanonicalGraph, speeds: tuple[float, ...], bandwidth: float
) -> HeftSchedule:
    """HEFT at unit speeds and infinite bandwidth, on the list
    scheduler's placement routine.

    Every PE then runs a task in ``W(v)`` cycles and a task is ready
    when its last dependency finishes, so HEFT's rule (minimum finish,
    lowest PE index) is NSTR-SCH's (minimum start, lowest PE index),
    and the upward rank is the bottom level.  Only the order differs:
    :func:`upward_ranks` visits tasks in reverse topological order, and
    the stable sort keeps that order among equal ranks.
    """
    ig = freeze(graph)
    bl = bottom_levels_idx(ig)
    comp = ig.comp
    order = sorted((v for v in reversed(ig.topo) if comp[v]),
                   key=bl.__getitem__, reverse=True)
    start_idx, pe_idx, makespan = place_in_order(ig, len(speeds), order)
    placements = placements_from_columns(ig, order, start_idx, pe_idx)
    return HeftSchedule(graph, speeds, bandwidth, placements, makespan)
