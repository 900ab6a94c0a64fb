"""Spatial block partitioning (Section 5.2, Algorithm 1; Appendix A, Algorithm 2).

A *spatial block* is a set of at most ``P`` computational tasks that are
co-scheduled (gang-scheduled) on the device; edges inside a block stream,
edges between blocks are buffered through global memory.  The partition
must keep inter-block dependencies acyclic, which both greedy heuristics
guarantee by construction: a node only becomes a candidate once all its
predecessors have been assigned to some block.

Two variants of Algorithm 1:

* **SB-LTS** ("less-than-source"): a candidate may join the current block
  only if it does not produce more data than the block sources it
  (transitively, through streaming paths inside the block) depends on —
  this protects the sources' streaming intervals.  Blocks may close early.
* **SB-RLX** ("relaxed"): when no LTS-eligible candidate exists, the ready
  node producing the least data is admitted anyway; every block except the
  last holds exactly ``P`` tasks.

Passive nodes (buffers, sources, sinks) occupy no PE slot; they are
auto-assigned to the block that is open when they become ready, purely for
bookkeeping — the schedule treats them as memory anchors either way.

The partitioners run entirely over the flat integer arrays of the
memoized :class:`~repro.core.indexed.IndexedGraph` (CSR adjacency,
precomputed float level keys); the original dict/hash implementation is
preserved in ``tests/oracles/scheduler_reference.py`` and the golden-output tests
assert both produce identical partitions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Literal

from .graph import CanonicalGraph
from .indexed import IndexedGraph, freeze

__all__ = ["Partition", "compute_spatial_blocks", "partition_by_work", "Variant"]

Variant = Literal["lts", "rlx"]


@dataclass
class Partition:
    """Result of a spatial block partitioning.

    ``blocks[i]`` lists the computational tasks of block ``i`` in
    insertion order; ``block_of`` maps every node (passive ones included)
    to its block index.
    """

    blocks: list[list[Hashable]]
    block_of: dict[Hashable, int]
    variant: str = ""
    num_pes: int = 0
    sources_per_block: list[set[Hashable]] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def columns(
        self, ig: IndexedGraph
    ) -> tuple[list[int], list[int], list[list[int]]]:
        """``(block, pe, members)`` over the node ids of ``ig``.

        ``block[i]`` is node ``i``'s block (-1 if unassigned), ``pe[i]``
        a computational node's position in its block (-1 otherwise), and
        ``members[b]`` block ``b``'s computational ids in ``block_of``
        insertion order.
        """
        index, comp = ig.index, ig.comp
        blk = [-1] * ig.n
        pe = [-1] * ig.n
        members = [[] for _ in self.blocks]
        for v, b in self.block_of.items():
            i = index[v]
            blk[i] = b
            if comp[i]:
                members[b].append(i)
        for block in self.blocks:
            for p, v in enumerate(block):
                pe[index[v]] = p
        return blk, pe, members

    def validate(self, graph: CanonicalGraph, num_pes: int) -> None:
        """Check partition invariants: coverage, capacity, acyclicity."""
        seen: set[Hashable] = set()
        for block in self.blocks:
            if len(block) > num_pes:
                raise ValueError(f"block exceeds {num_pes} PEs: {len(block)} tasks")
            seen.update(block)
        comp = set(graph.computational_nodes())
        if seen != comp:
            missing = comp - seen
            extra = seen - comp
            raise ValueError(f"partition mismatch: missing={missing} extra={extra}")
        # dependencies must never point from a later block to an earlier one
        for u, v in graph.edges:
            if self.block_of[u] > self.block_of[v]:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) crosses blocks backwards: "
                    f"{self.block_of[u]} -> {self.block_of[v]}"
                )


class _State:
    """Shared integer-indexed bookkeeping for the greedy partitioners."""

    __slots__ = (
        "ig",
        "indeg",
        "assigned",
        "assigned_order",
        "blocks",
        "block_idx",
        "reach_min",
        "is_source",
        "sources_per_block",
    )

    def __init__(self, ig: IndexedGraph):
        self.ig = ig
        pp = ig.pred_ptr
        self.indeg = [pp[i + 1] - pp[i] for i in range(ig.n)]
        self.assigned = [-1] * ig.n
        #: assignment event order, so ``block_of`` keeps the insertion
        #: order of the pre-indexed implementation
        self.assigned_order: list[int] = []
        self.blocks: list[list[int]] = [[]]
        self.block_idx = 0
        # minimum block-source volume reaching each assigned node through
        # streaming (computational) paths inside its own block; None for
        # block sources themselves and for passive nodes.
        self.reach_min: list[int | None] = [None] * ig.n
        self.is_source = [False] * ig.n
        self.sources_per_block: list[set[int]] = [set()]

    def min_reaching_source_volume(self, v: int) -> int | None:
        """Smallest O(s) over block sources reaching ``v`` in the open block.

        ``None`` when ``v`` would itself become a block source (no
        streaming predecessor inside the open block).
        """
        ig = self.ig
        pp, pa = ig.pred_ptr, ig.pred_adj
        assigned, comp = self.assigned, ig.comp
        bi = self.block_idx
        best: int | None = None
        for j in range(pp[v], pp[v + 1]):
            u = pa[j]
            if assigned[u] != bi or not comp[u]:
                continue
            vol = ig.out_vol[u] if self.is_source[u] else self.reach_min[u]
            if vol is not None and (best is None or vol < best):
                best = vol
        return best

    _RECOMPUTE = -1  #: sentinel: assign() must compute the reach itself

    def assign(self, v: int, *, passive: bool = False,
               reach: int | None = _RECOMPUTE) -> None:
        """Assign ``v`` to the open block.

        ``reach`` may pass a *fresh* result of
        :meth:`min_reaching_source_volume` (the admission check just
        computed it with no assignment in between) to skip the second
        predecessor scan; a non-source node's reach is ``None`` exactly
        when it has no computational predecessor in the open block,
        i.e. when it is itself a block source.
        """
        self.assigned[v] = self.block_idx
        self.assigned_order.append(v)
        if not passive:
            if reach is _State._RECOMPUTE:
                reach = self.min_reaching_source_volume(v)
            source = reach is None
            self.is_source[v] = source
            self.reach_min[v] = reach
            bi = self.block_idx
            self.blocks[bi].append(v)
            if source:
                self.sources_per_block[bi].add(v)

    def close_block(self) -> None:
        self.blocks.append([])
        self.sources_per_block.append(set())
        self.block_idx += 1

    def finish(self, variant: str, num_pes: int) -> Partition:
        if self.blocks and not self.blocks[-1]:
            self.blocks.pop()
            self.sources_per_block.pop()
        names = self.ig.names
        return Partition(
            [[names[i] for i in block] for block in self.blocks],
            {names[i]: self.assigned[i] for i in self.assigned_order},
            variant,
            num_pes,
            [{names[i] for i in srcs} for srcs in self.sources_per_block],
        )


def compute_spatial_blocks(
    graph: CanonicalGraph, num_pes: int, variant: Variant = "lts"
) -> Partition:
    """Algorithm 1 — greedy spatial block computation.

    Candidates are ready computational nodes (all predecessors assigned),
    ordered by produced data volume, breaking ties by level and insertion
    order.  Complexity is near-linear in nodes + edges thanks to the lazy
    re-validation heap (the paper quotes O(N^2) for the naive loop).
    """
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    if variant not in ("lts", "rlx"):
        raise ValueError(f"unknown variant {variant!r}")

    ig = freeze(graph)
    state = _State(ig)
    level_key = ig.level_keys()
    out_vol, comp = ig.out_vol, ig.comp
    sp, sa = ig.succ_ptr, ig.succ_adj
    counter = itertools.count()

    ready_heap: list[tuple[int, float, int, int]] = []
    deferred: list[tuple[int, float, int, int]] = []

    def push_ready(v: int) -> None:
        heapq.heappush(
            ready_heap, (out_vol[v], level_key[v], next(counter), v)
        )

    indeg = state.indeg

    def release_successors(v: int) -> None:
        """Decrement successor indegrees; cascade through passive nodes."""
        stack = [v]
        while stack:
            u = stack.pop()
            for j in range(sp[u], sp[u + 1]):
                w = sa[j]
                indeg[w] -= 1
                if indeg[w] == 0:
                    if comp[w]:
                        push_ready(w)
                    else:
                        state.assign(w, passive=True)
                        stack.append(w)

    # seed: entry nodes (snapshot first — the passive cascade mutates
    # indegrees, and a node it already assigned must not be re-seeded)
    for v in ig.entries:
        if comp[v]:
            push_ready(v)
        else:
            state.assign(v, passive=True)
            release_successors(v)

    remaining = ig.num_tasks
    while remaining > 0:
        cand = -1
        cand_reach: int | None = _State._RECOMPUTE
        while ready_heap:
            item = heapq.heappop(ready_heap)
            v = item[3]
            reach = state.min_reaching_source_volume(v)
            if reach is None or item[0] <= reach:
                cand = v
                cand_reach = reach  # fresh: nothing assigned since
                break
            deferred.append(item)
        if cand < 0 and variant == "rlx" and deferred:
            # relaxed: admit the ready node producing the least data
            # anyway (its deferred reach may be stale: recompute)
            deferred.sort()
            cand = deferred.pop(0)[3]
        if cand < 0:
            # SB-LTS with no eligible candidate: close the block; deferred
            # nodes become eligible again (their preds leave the open block)
            if not state.blocks[state.block_idx] and not deferred:
                raise RuntimeError("partitioner stalled: graph has a cycle?")
            state.close_block()
            for item in deferred:
                heapq.heappush(ready_heap, item)
            deferred.clear()
            continue
        state.assign(cand, reach=cand_reach)
        remaining -= 1
        release_successors(cand)
        if len(state.blocks[state.block_idx]) >= num_pes:
            state.close_block()
            for item in deferred:
                heapq.heappush(ready_heap, item)
            deferred.clear()

    return state.finish(f"sb-{variant}", num_pes)


def partition_by_work(graph: CanonicalGraph, num_pes: int) -> Partition:
    """Appendix A, Algorithm 2 — work-ordered partitioning.

    Designed for graphs of element-wise and downsampler nodes: picks the
    ready node with the highest work (ties: lowest level), filling blocks
    of exactly ``P`` tasks.  Along any path work is non-increasing in such
    graphs, so blocks group nodes of similar work, which yields the
    Theorem A.2 bound ``T_P <= T_1/P + T_s_inf + (x-1)(L(G)-1)``.
    """
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    ig = freeze(graph)
    state = _State(ig)
    level_key = ig.level_keys()
    work, comp = ig.work, ig.comp
    sp, sa = ig.succ_ptr, ig.succ_adj
    counter = itertools.count()
    heap: list[tuple[int, float, int, int]] = []

    def push_ready(v: int) -> None:
        heapq.heappush(heap, (-work[v], level_key[v], next(counter), v))

    indeg = state.indeg

    def release_successors(v: int) -> None:
        stack = [v]
        while stack:
            u = stack.pop()
            for j in range(sp[u], sp[u + 1]):
                w = sa[j]
                indeg[w] -= 1
                if indeg[w] == 0:
                    if comp[w]:
                        push_ready(w)
                    else:
                        state.assign(w, passive=True)
                        stack.append(w)

    for v in ig.entries:
        if comp[v]:
            push_ready(v)
        else:
            state.assign(v, passive=True)
            release_successors(v)

    remaining = ig.num_tasks
    while remaining > 0:
        _, _, _, cand = heapq.heappop(heap)
        if len(state.blocks[state.block_idx]) >= num_pes:
            state.close_block()
        state.assign(cand)
        remaining -= 1
        release_successors(cand)

    return state.finish("work", num_pes)
