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

Both algorithms are one greedy loop (:func:`_greedy_blocks`) over the
node ids of the memoized :class:`~repro.core.indexed.IndexedGraph`: its
CSR adjacency, its float level keys and a handful of per-node int
columns, with the ready heap, the passive cascade and the Algorithm 1
reach test written out inline.  The result is a column-backed
:class:`Partition`; its name-keyed views are built only when something
reads them.  The original dict/hash implementation is preserved in
``tests/oracles/scheduler_reference.py`` and the differential tests
assert both produce identical partitions.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from typing import Hashable, Literal, Sequence

from .graph import CanonicalGraph
from .indexed import IndexedGraph, freeze

__all__ = ["Partition", "compute_spatial_blocks", "partition_by_work", "Variant"]

Variant = Literal["lts", "rlx"]


class Partition:
    """Result of a spatial block partitioning, as node-id columns.

    * ``block[i]`` — node ``i``'s block (-1 if unassigned); passive
      nodes carry the block that was open when they became ready;
    * ``pe[i]`` — a computational node's position in its block (-1 for
      passive nodes);
    * ``members[b]`` — block ``b``'s computational ids in assignment
      order;
    * ``block_sources[b]`` — the ids of block ``b``'s sources (members
      with no streaming predecessor inside the block), in assignment
      order;
    * ``assign_order`` — every assigned id in assignment order.

    The name-keyed ``blocks`` (per block, its tasks in insertion order),
    ``block_of`` (every node, passive ones included, to its block, in
    assignment order) and ``sources_per_block`` are views built from
    the columns on first read, so a partition only the schedulers and
    serializers read (every served candidate) never builds them.
    """

    def __init__(
        self,
        names: Sequence[Hashable],
        variant: str,
        num_pes: int,
        *,
        block: list[int],
        pe: list[int],
        members: list[list[int]],
        block_sources: list[list[int]],
        assign_order: list[int],
    ) -> None:
        self.names = names
        self.variant = variant
        self.num_pes = num_pes
        self.block = block
        self.pe = pe
        self.members = members
        self.block_sources = block_sources
        self.assign_order = assign_order

    @classmethod
    def from_tables(
        cls,
        graph: "CanonicalGraph | IndexedGraph",
        blocks: list[list[Hashable]],
        block_of: dict[Hashable, int],
        variant: str,
        num_pes: int,
        sources_per_block: list[set[Hashable]],
    ) -> "Partition":
        """A partition over name-keyed tables (the reference oracle's
        output).  The columns are derived from the tables (``members``
        in ``block_of`` insertion order, ``block_sources`` in set
        order), and the tables themselves are kept as the views."""
        ig = freeze(graph)
        index, comp = ig.index, ig.comp
        order = [index[v] for v in block_of]
        block = [-1] * ig.n
        pe = [-1] * ig.n
        members: list[list[int]] = [[] for _ in blocks]
        for i, b in zip(order, block_of.values()):
            block[i] = b
            if comp[i]:
                members[b].append(i)
        for tasks in blocks:
            for p, v in enumerate(tasks):
                pe[index[v]] = p
        partition = cls(
            ig.names, variant, num_pes, block=block, pe=pe, members=members,
            block_sources=[[index[v] for v in s] for s in sources_per_block],
            assign_order=order,
        )
        vars(partition).update(
            blocks=blocks, block_of=block_of,
            sources_per_block=sources_per_block,
        )
        return partition

    # ------------------------------------------------------------------
    # name-keyed views, built on first read
    # ------------------------------------------------------------------
    @cached_property
    def blocks(self) -> list[list[Hashable]]:
        names = self.names
        return [[names[i] for i in m] for m in self.members]

    @cached_property
    def block_of(self) -> dict[Hashable, int]:
        names, block = self.names, self.block
        return {names[i]: block[i] for i in self.assign_order}

    @cached_property
    def sources_per_block(self) -> list[set[Hashable]]:
        names = self.names
        return [{names[i] for i in s} for s in self.block_sources]

    @property
    def num_blocks(self) -> int:
        return len(self.members)

    def columns(self) -> tuple[list[int], list[int], list[list[int]]]:
        """``(block, pe, members)``, the stored columns (not copies)."""
        return self.block, self.pe, self.members

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
    return _greedy_blocks(
        ig, num_pes, ig.out_vol, True, variant == "rlx", f"sb-{variant}")


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
    return _greedy_blocks(
        ig, num_pes, [-w for w in ig.work], False, False, "work")


def _greedy_blocks(
    ig: IndexedGraph,
    num_pes: int,
    key: list[int],
    gated: bool,
    relaxed: bool,
    variant: str,
) -> Partition:
    """The greedy loop both algorithms share.

    Ready computational nodes pop from a heap ordered by ``(key, level,
    push order)``.  With ``gated`` (Algorithm 1) a candidate producing
    more than the smallest block-source volume reaching it is deferred
    until the open block closes; ``relaxed`` (SB-RLX) then admits the
    least-producing deferred node instead of closing early.  Without
    ``gated`` (Algorithm 2) every popped node is admitted.  A block
    closes once it holds ``num_pes`` tasks.

    Every admitted node records its *reach* — the smallest output
    volume of the block sources reaching it through streaming paths
    inside its block, or its own output volume when it is a block
    source itself — so a candidate's reach is one minimum over its
    in-block computational predecessors.
    """
    n = ig.n
    level = ig.level_keys()
    out_vol, comp = ig.out_vol, ig.comp
    sp, sa, pp, pa = ig.succ_ptr, ig.succ_adj, ig.pred_ptr, ig.pred_adj
    indeg = [pp[i + 1] - pp[i] for i in range(n)]
    block = [-1] * n
    pe = [-1] * n
    #: block of every assigned computational node (-1 otherwise): the
    #: reach scan's in-block filter
    cblock = [-1] * n
    reach = [0] * n
    order: list[int] = []
    cur: list[int] = []
    cur_src: list[int] = []
    members = [cur]
    block_sources = [cur_src]
    bi = 0
    heap: list[tuple[int, float, int, int]] = []
    deferred: list[tuple[int, float, int, int]] = []
    seq = 0

    # seed: entry nodes in id order; a passive entry is assigned and its
    # release cascade runs before the next entry is looked at
    for v in ig.entries:
        if comp[v]:
            heappush(heap, (key[v], level[v], seq, v))
            seq += 1
            continue
        block[v] = 0
        order.append(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in sa[sp[u]:sp[u + 1]]:
                d = indeg[w] = indeg[w] - 1
                if not d:
                    if comp[w]:
                        heappush(heap, (key[w], level[w], seq, w))
                        seq += 1
                    else:
                        block[w] = 0
                        order.append(w)
                        stack.append(w)

    remaining = ig.num_tasks
    while remaining:
        if heap:
            item = heappop(heap)
            forced = False
        elif relaxed and deferred:
            # SB-RLX: admit the ready node producing the least data anyway
            item = heappop(deferred)
            forced = True
        else:
            # no eligible candidate: close the block; deferred nodes
            # become eligible again (their preds leave the open block)
            if not cur and not deferred:
                raise RuntimeError("partitioner stalled: graph has a cycle?")
            bi += 1
            cur, cur_src = [], []
            members.append(cur)
            block_sources.append(cur_src)
            heap, deferred = deferred, heap
            continue
        cand = item[3]
        # the least reach over cand's computational predecessors in the
        # open block; -1 when there is none (cand is a block source)
        r = -1
        for u in pa[pp[cand]:pp[cand + 1]]:
            if cblock[u] == bi and (r < 0 or reach[u] < r):
                r = reach[u]
        if gated and 0 <= r < out_vol[cand] and not forced:
            heappush(deferred, item)
            continue

        # admit
        block[cand] = cblock[cand] = bi
        pe[cand] = len(cur)
        cur.append(cand)
        order.append(cand)
        if r < 0:
            reach[cand] = out_vol[cand]
            cur_src.append(cand)
        else:
            reach[cand] = r
        remaining -= 1

        # release successors, cascading through passive nodes
        stack = [cand]
        while stack:
            u = stack.pop()
            for w in sa[sp[u]:sp[u + 1]]:
                d = indeg[w] = indeg[w] - 1
                if not d:
                    if comp[w]:
                        heappush(heap, (key[w], level[w], seq, w))
                        seq += 1
                    else:
                        block[w] = bi
                        order.append(w)
                        stack.append(w)

        if len(cur) >= num_pes:
            bi += 1
            cur, cur_src = [], []
            members.append(cur)
            block_sources.append(cur_src)
            for item in deferred:
                heappush(heap, item)
            deferred.clear()

    if not cur:
        members.pop()
        block_sources.pop()
    return Partition(
        ig.names, variant, num_pes, block=block, pe=pe, members=members,
        block_sources=block_sources, assign_order=order,
    )
