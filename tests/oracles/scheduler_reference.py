"""The pre-indexed scheduling path, kept as the golden reference.

Test-only: nothing under ``repro`` imports it.

These are the original dict/hash implementations of the Section 5/6
pipeline, walking the :class:`networkx.DiGraph` per node and doing the
steady-state arithmetic in :class:`fractions.Fraction`.  The production
entry points (:func:`repro.core.schedule_streaming` and friends) now run
on the flat :class:`~repro.core.indexed.IndexedGraph` arrays; this
module exists so that

* the golden-output regression tests can assert, sweep by sweep, that
  the indexed path produces **byte-identical** schedules, buffer sizes
  and makespans; and
* ``benchmarks/bench_hotpaths.py`` can report the indexed speedup
  against the exact code it replaced.

Nothing here should be used in a hot path; it deliberately bypasses the
memoized ``topological_order`` cache so its cost profile stays that of
the pre-optimization code.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Hashable, Mapping

import networkx as nx

from repro.core.block_schedule import BlockSchedule, TaskTimes
from repro.core.graph import CanonicalGraph
from repro.core.node_types import NodeKind
from repro.core.partition import Partition, Variant
from repro.core.scheduler import StreamingSchedule
from repro.core.streaming import compute_streaming_intervals

__all__ = [
    "cycle_nodes_of_block",
    "compute_spatial_blocks_reference",
    "partition_by_work_reference",
    "schedule_block_reference",
    "compute_buffer_sizes_reference",
    "schedule_streaming_reference",
]


def cycle_nodes_of_block(
    stream_graph: nx.Graph,
) -> set[Hashable]:
    """Nodes of the block's streaming topology that lie on undirected cycles.

    The paper uses a marking DFS; equivalently, an edge lies on an
    undirected cycle iff it is not a bridge, and a node lies on a cycle
    iff it is incident to a non-bridge edge.  Complexity O(V + E).
    """
    bridges = set(nx.bridges(stream_graph)) if stream_graph.number_of_edges() else set()
    on_cycle: set[Hashable] = set()
    for u, v in stream_graph.edges:
        if (u, v) in bridges or (v, u) in bridges:
            continue
        on_cycle.add(u)
        on_cycle.add(v)
    return on_cycle


def _topological_order(graph: CanonicalGraph) -> list[Hashable]:
    """Uncached topological sort — the pre-indexed cost profile."""
    return list(nx.topological_sort(graph.nx))


def _node_levels(graph: CanonicalGraph) -> dict[Hashable, Fraction]:
    """The original per-call ``node_levels`` loop (Section 4.2)."""
    levels: dict[Hashable, Fraction] = {}
    g = graph.nx
    for v in _topological_order(graph):
        preds = list(g.predecessors(v))
        if not preds:
            levels[v] = Fraction(1)
            continue
        spec = graph.spec(v)
        if spec.kind is NodeKind.SOURCE:
            term = Fraction(1)
        else:
            rate = spec.production_rate
            term = rate if rate > 1 else Fraction(1)
        levels[v] = term + max(levels[u] for u in preds)
    return levels


class _State:
    """Shared bookkeeping for the greedy partitioners."""

    def __init__(self, graph: CanonicalGraph):
        self.graph = graph
        self.indeg: dict[Hashable, int] = {v: graph.in_degree(v) for v in graph.nodes}
        self.assigned: dict[Hashable, int] = {}
        self.blocks: list[list[Hashable]] = [[]]
        self.block_idx = 0
        self.reach_min: dict[Hashable, int | None] = {}
        self.is_block_source: dict[Hashable, bool] = {}
        self.sources_per_block: list[set[Hashable]] = [set()]

    def in_block_comp_preds(self, v: Hashable) -> list[Hashable]:
        g = self.graph
        return [
            u
            for u in g.predecessors(v)
            if self.assigned.get(u) == self.block_idx and g.spec(u).kind.is_computational
        ]

    def min_reaching_source_volume(self, v: Hashable) -> int | None:
        best: int | None = None
        for u in self.in_block_comp_preds(v):
            vol = (
                self.graph.spec(u).output_volume
                if self.is_block_source[u]
                else self.reach_min[u]
            )
            if vol is not None and (best is None or vol < best):
                best = vol
        return best

    def assign(self, v: Hashable, *, passive: bool = False) -> None:
        self.assigned[v] = self.block_idx
        if not passive:
            preds = self.in_block_comp_preds(v)
            source = not preds
            self.is_block_source[v] = source
            self.reach_min[v] = None if source else self.min_reaching_source_volume(v)
            self.blocks[self.block_idx].append(v)
            if source:
                self.sources_per_block[self.block_idx].add(v)

    def close_block(self) -> None:
        self.blocks.append([])
        self.sources_per_block.append(set())
        self.block_idx += 1

    def finish(self, variant: str, num_pes: int) -> Partition:
        if self.blocks and not self.blocks[-1]:
            self.blocks.pop()
            self.sources_per_block.pop()
        return Partition.from_tables(
            self.graph, self.blocks, self.assigned, variant, num_pes,
            self.sources_per_block,
        )


def compute_spatial_blocks_reference(
    graph: CanonicalGraph, num_pes: int, variant: Variant = "lts"
) -> Partition:
    """Algorithm 1 over the networkx graph (original implementation)."""
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    if variant not in ("lts", "rlx"):
        raise ValueError(f"unknown variant {variant!r}")

    state = _State(graph)
    levels = _node_levels(graph)
    counter = itertools.count()

    ready_heap: list[tuple[int, float, int, Hashable]] = []
    deferred: list[tuple[int, float, int, Hashable]] = []

    def push_ready(v: Hashable) -> None:
        spec = graph.spec(v)
        heapq.heappush(
            ready_heap,
            (spec.output_volume, float(levels[v]), next(counter), v),
        )

    def release_successors(v: Hashable) -> None:
        stack = [v]
        while stack:
            u = stack.pop()
            for w in graph.successors(u):
                state.indeg[w] -= 1
                if state.indeg[w] == 0:
                    if graph.spec(w).kind.is_computational:
                        push_ready(w)
                    else:
                        state.assign(w, passive=True)
                        stack.append(w)

    entries = [v for v in graph.nodes if state.indeg[v] == 0]
    for v in entries:
        if graph.spec(v).kind.is_computational:
            push_ready(v)
        else:
            state.assign(v, passive=True)
            release_successors(v)

    remaining = graph.num_tasks()
    while remaining > 0:
        cand: Hashable | None = None
        while ready_heap:
            vol, lvl, seq, v = heapq.heappop(ready_heap)
            reach = state.min_reaching_source_volume(v)
            if reach is None or vol <= reach:
                cand = v
                break
            deferred.append((vol, lvl, seq, v))
        if cand is None and variant == "rlx" and deferred:
            deferred.sort()
            cand = deferred.pop(0)[3]
        if cand is None:
            if not state.blocks[state.block_idx] and not deferred:
                raise RuntimeError("partitioner stalled: graph has a cycle?")
            state.close_block()
            for item in deferred:
                heapq.heappush(ready_heap, item)
            deferred.clear()
            continue
        state.assign(cand)
        remaining -= 1
        release_successors(cand)
        if len(state.blocks[state.block_idx]) >= num_pes:
            state.close_block()
            for item in deferred:
                heapq.heappush(ready_heap, item)
            deferred.clear()

    return state.finish(f"sb-{variant}", num_pes)


def partition_by_work_reference(graph: CanonicalGraph, num_pes: int) -> Partition:
    """Appendix A, Algorithm 2 (original implementation)."""
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    state = _State(graph)
    levels = _node_levels(graph)
    counter = itertools.count()
    heap: list[tuple[int, float, int, Hashable]] = []

    def push_ready(v: Hashable) -> None:
        spec = graph.spec(v)
        heapq.heappush(heap, (-spec.work, float(levels[v]), next(counter), v))

    def release_successors(v: Hashable) -> None:
        stack = [v]
        while stack:
            u = stack.pop()
            for w in graph.successors(u):
                state.indeg[w] -= 1
                if state.indeg[w] == 0:
                    if graph.spec(w).kind.is_computational:
                        push_ready(w)
                    else:
                        state.assign(w, passive=True)
                        stack.append(w)

    entries = [v for v in graph.nodes if state.indeg[v] == 0]
    for v in entries:
        if graph.spec(v).kind.is_computational:
            push_ready(v)
        else:
            state.assign(v, passive=True)
            release_successors(v)

    remaining = graph.num_tasks()
    while remaining > 0:
        _, _, _, cand = heapq.heappop(heap)
        if len(state.blocks[state.block_idx]) >= num_pes:
            state.close_block()
        state.assign(cand)
        remaining -= 1
        release_successors(cand)

    return state.finish("work", num_pes)


def _ceil(x: Fraction | int) -> int:
    return math.ceil(x)


def schedule_block_reference(
    graph: CanonicalGraph,
    block_nodes: set[Hashable],
    ready: Mapping[Hashable, int],
    release: int = 0,
) -> BlockSchedule:
    """Section 5.1 recurrences in Fraction arithmetic (original)."""
    comp = [v for v in block_nodes if graph.spec(v).kind.is_computational]
    sub = graph.subgraph(comp)
    intervals = compute_streaming_intervals(sub)

    times: dict[Hashable, TaskTimes] = {}
    si: dict[Hashable, Fraction] = {}
    so: dict[Hashable, Fraction] = {}

    def node_ready(u: Hashable) -> int:
        if u in times:
            kind = graph.kind(u)
            if kind.is_computational:
                return times[u].lo
            if kind is NodeKind.BUFFER:
                return times[u].st
            return 0
        if u in ready:
            return ready[u]
        kind = graph.kind(u)
        if kind is NodeKind.SOURCE:
            return 0
        raise KeyError(f"predecessor {u!r} of the block is not scheduled yet")

    order = [v for v in _topological_order(graph) if v in block_nodes]

    for v in order:
        spec = graph.spec(v)
        kind = spec.kind

        if kind is NodeKind.SOURCE:
            out_iv = Fraction(1)
            so[v] = out_iv
            lo = _ceil((spec.output_volume - 1) * out_iv) + 1
            times[v] = TaskTimes(st=0, fo=1, lo=lo)
            continue

        if kind is NodeKind.BUFFER:
            preds = list(graph.predecessors(v))
            stored = max((node_ready(u) for u in preds), default=0)
            out_iv = Fraction(1)
            si[v] = Fraction(1)
            so[v] = out_iv
            lo = stored + _ceil((spec.output_volume - 1) * out_iv) + 1
            times[v] = TaskTimes(st=stored, fo=stored + 1, lo=lo)
            continue

        if kind is NodeKind.SINK:
            preds = list(graph.predecessors(v))
            fo = max(
                (times[u].fo for u in preds if u in times and graph.kind(u).is_computational),
                default=0,
            ) + 1
            lo = max((node_ready(u) for u in preds), default=0) + 1
            times[v] = TaskTimes(st=max(0, fo - 1), fo=fo, lo=lo)
            continue

        rate = spec.production_rate
        s_i = intervals.si.get(v, Fraction(1))
        s_o = intervals.so.get(v, Fraction(1))
        si[v], so[v] = s_i, s_o

        in_block_fo: list[int] = []
        in_block_lo: list[int] = []
        base = release
        has_memory_input = False
        preds = list(graph.predecessors(v))
        if not preds:
            has_memory_input = True
        for u in preds:
            if u in block_nodes and graph.kind(u).is_computational:
                in_block_fo.append(times[u].fo)
                in_block_lo.append(times[u].lo)
            else:
                has_memory_input = True
                base = max(base, node_ready(u))

        lat_fo = _ceil((1 / rate - 1) * s_i) + 1 if rate < 1 else 1
        lat_lo = _ceil((rate - 1) * s_o) + 1 if rate > 1 else 1

        first_avail = max(in_block_fo, default=0)
        if has_memory_input:
            first_avail = max(first_avail, base)
        elif release:
            first_avail = max(first_avail, release)
        fo = first_avail + lat_fo

        last_avail = max(in_block_lo, default=0)
        if has_memory_input:
            mem_la = base + _ceil((spec.input_volume - 1) * s_i)
            last_avail = max(last_avail, mem_la)
        lo = last_avail + lat_lo

        st_candidates = list(in_block_fo)
        if has_memory_input or not preds:
            st_candidates.append(base)
        st = max(st_candidates, default=release)
        times[v] = TaskTimes(st=st, fo=fo, lo=lo)

    return BlockSchedule(times, si, so, intervals)


def compute_buffer_sizes_reference(
    schedule, default_capacity: int = 1
) -> dict[tuple[Hashable, Hashable], int]:
    """Section 6 FIFO sizing over nx graphs (original implementation)."""
    graph = schedule.graph
    sizes: dict[tuple[Hashable, Hashable], int] = {}

    for b in range(schedule.num_blocks):
        members = [
            v
            for v, blk in schedule.partition.block_of.items()
            if blk == b and graph.kind(v).is_computational
        ]
        member_set = set(members)
        stream_edges = [
            (u, v)
            for u in members
            for v in graph.successors(u)
            if v in member_set
        ]
        if not stream_edges:
            continue
        undirected = nx.Graph()
        undirected.add_nodes_from(members)
        undirected.add_edges_from(stream_edges)
        hot = cycle_nodes_of_block(undirected)

        for u, v in stream_edges:
            if v not in hot or u not in hot:
                sizes[(u, v)] = default_capacity
                continue
            worst = 0
            for t in graph.predecessors(v):
                if t in member_set:
                    worst = max(worst, schedule.times[t].fo)
                else:
                    worst = max(worst, _memory_ready(schedule, t) + 1)
            slack = worst - schedule.times[u].fo
            if slack <= 0:
                sizes[(u, v)] = default_capacity
                continue
            space = math.ceil(slack / schedule.so[u])
            space = min(space, graph.volume(u, v))
            sizes[(u, v)] = max(default_capacity, space)
    return sizes


def _memory_ready(schedule, u: Hashable) -> int:
    kind = schedule.graph.kind(u)
    if kind is NodeKind.SOURCE:
        return 0
    t = schedule.times[u]
    if kind is NodeKind.BUFFER:
        return t.st
    return t.lo


def schedule_streaming_reference(
    graph: CanonicalGraph,
    num_pes: int,
    variant="lts",
    *,
    sequential_blocks: bool = True,
    size_buffers: bool = True,
):
    """The full STR-SCH pipeline on the pre-indexed implementations."""
    if variant == "work":
        partition = partition_by_work_reference(graph, num_pes)
    else:
        partition = compute_spatial_blocks_reference(graph, num_pes, variant)

    times: dict[Hashable, TaskTimes] = {}
    si: dict[Hashable, Fraction] = {}
    so: dict[Hashable, Fraction] = {}
    ready: dict[Hashable, int] = {}
    pe_of: dict[Hashable, int] = {}

    release = 0
    makespan = 0
    members_by_block: list[list[Hashable]] = [[] for _ in range(partition.num_blocks)]
    for v, b in partition.block_of.items():
        members_by_block[b].append(v)

    for b, members in enumerate(members_by_block):
        block = schedule_block_reference(
            graph,
            set(members),
            ready,
            release=release if sequential_blocks else 0,
        )
        times.update(block.times)
        si.update(block.si)
        so.update(block.so)
        block_end = release
        for v in members:
            kind = graph.kind(v)
            t = block.times[v]
            if kind.is_computational:
                ready[v] = t.lo
                block_end = max(block_end, t.lo)
                makespan = max(makespan, t.lo)
            elif kind is NodeKind.BUFFER:
                ready[v] = t.st
                makespan = max(makespan, t.st)
            elif kind is NodeKind.SOURCE:
                ready[v] = 0
            else:
                ready[v] = t.lo
        for pe, v in enumerate(partition.blocks[b]):
            pe_of[v] = pe
        release = block_end

    schedule = StreamingSchedule.from_tables(
        graph, num_pes, partition, times, si, so, pe_of, makespan,
    )
    if size_buffers:
        schedule.buffer_sizes = compute_buffer_sizes_reference(schedule)
    return schedule
