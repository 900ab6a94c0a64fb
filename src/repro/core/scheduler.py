"""End-to-end streaming scheduler (STR-SCH, Sections 5-6).

``schedule_streaming`` runs the full pipeline of Figure 1:

1. partition the canonical task graph into spatial blocks (Algorithm 1,
   SB-LTS or SB-RLX variant);
2. analyze each block's steady state (Theorem 4.1) and compute per-task
   ``ST``/``FO``/``LO`` times (Section 5.1), with blocks executed one
   after the other;
3. optionally size the FIFO channels for deadlock-free pipelined
   execution (Section 6).

The resulting :class:`StreamingSchedule` carries everything downstream
consumers need: times, streaming intervals, task-to-PE assignment, FIFO
capacities and the derived metrics inputs (makespan, busy times), held
as node-id columns with name-keyed views built on first read.

Steps 2-3 run on the NumPy kernels (:mod:`repro.core.kernels`) when
``numpy`` imports and on :func:`schedule_sweep_python` otherwise; the
platform decides, no option selects, and the documents are
byte-identical (:mod:`repro.core.backend`).
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Hashable, Literal

from .block_schedule import TaskTimes, _interval_tables, _schedule_block_indexed
from . import backend
from .buffer_sizing import buffer_sizes_python
from .graph import CanonicalGraph
from .indexed import IndexedGraph, freeze
from .node_types import NodeKind
from .partition import Partition, Variant, compute_spatial_blocks, partition_by_work

__all__ = ["StreamingSchedule", "schedule_streaming", "schedule_sweep_python"]


class StreamingSchedule:
    """A complete streaming schedule for a canonical task graph.

    ``graph`` may be a :class:`CanonicalGraph` or an already-frozen
    :class:`~repro.core.indexed.IndexedGraph` (the service ingest path).
    The schedule is stored as columns over the graph's node ids:

    * ``st_idx`` / ``fo_idx`` / ``lo_idx`` — the Section 5.1 times;
    * ``block_idx`` / ``pe_idx`` — block and PE of every node (-1 where
      none);
    * ``const_idx`` — the Theorem-4.1 constant ``C`` of every
      computational node's streaming WCC (0 for passive nodes);
    * ``order_idx`` — the scheduled ids, blocks in order and each
      block in topological order;
    * ``fifo_src`` / ``fifo_dst`` / ``fifo_cap`` — the Section 6 FIFO
      capacity of every streaming edge, blocks in order, each block's
      edges by producer then successor slot.

    The name-keyed tables ``times``, ``si``, ``so``, ``pe_of`` and
    ``buffer_sizes`` are views built from the columns on first read, in
    that same order, so a schedule nobody reads that way (a losing
    portfolio candidate, a served winner that is only serialized)
    never builds them.  An assigned ``schedule.buffer_sizes`` (or an
    edit of the built dict) takes precedence over the FIFO columns for
    every later reader, :attr:`fifo_total` and the serializers included.
    """

    def __init__(
        self,
        graph: "CanonicalGraph | IndexedGraph",
        num_pes: int,
        partition: Partition,
        *,
        makespan: int,
        order_idx: list[int],
        st_idx: list[int],
        fo_idx: list[int],
        lo_idx: list[int],
        const_idx: list[int],
        block_idx: list[int],
        pe_idx: list[int],
        fifo_src: list[int] = (),
        fifo_dst: list[int] = (),
        fifo_cap: list[int] = (),
    ) -> None:
        self.graph = graph
        self.num_pes = num_pes
        self.partition = partition
        self.makespan = makespan
        self.order_idx = order_idx
        self.st_idx = st_idx
        self.fo_idx = fo_idx
        self.lo_idx = lo_idx
        self.const_idx = const_idx
        self.block_idx = block_idx
        self.pe_idx = pe_idx
        self.fifo_src = fifo_src
        self.fifo_dst = fifo_dst
        self.fifo_cap = fifo_cap

    @classmethod
    def from_tables(
        cls,
        graph: "CanonicalGraph | IndexedGraph",
        num_pes: int,
        partition: Partition,
        times: dict[Hashable, TaskTimes],
        si: dict[Hashable, Fraction],
        so: dict[Hashable, Fraction],
        pe_of: dict[Hashable, int],
        makespan: int,
    ) -> "StreamingSchedule":
        """A schedule over name-keyed tables (the reference oracle's
        output).  The columns are derived from the tables, and the
        tables themselves are kept as the views."""
        ig = freeze(graph)
        index, comp, in_vol = ig.index, ig.comp, ig.in_vol
        n = ig.n
        st, fo, lo = [0] * n, [0] * n, [0] * n
        order = []
        for v, t in times.items():
            i = index[v]
            order.append(i)
            st[i], fo[i], lo[i] = t.st, t.fo, t.lo
        const = [0] * n
        for v, f in si.items():
            i = index[v]
            if comp[i]:  # S_i = C / I exactly
                const[i] = int(f * in_vol[i])
        blk, pe, _ = partition.columns()
        schedule = cls(
            graph, num_pes, partition, makespan=makespan, order_idx=order,
            st_idx=st, fo_idx=fo, lo_idx=lo, const_idx=const,
            block_idx=blk, pe_idx=pe,
        )
        vars(schedule).update(times=times, si=si, so=so, pe_of=pe_of)
        return schedule

    # ------------------------------------------------------------------
    # name-keyed views, built on first read
    # ------------------------------------------------------------------
    @cached_property
    def times(self) -> dict[Hashable, TaskTimes]:
        names = freeze(self.graph).names
        st, fo, lo = self.st_idx, self.fo_idx, self.lo_idx
        return {
            names[i]: TaskTimes(st[i], fo[i], lo[i]) for i in self.order_idx
        }

    @cached_property
    def si(self) -> dict[Hashable, Fraction]:
        """Input streaming interval ``C/I`` of every scheduled
        computational node, 1 for buffers."""
        return self._intervals[0]

    @cached_property
    def so(self) -> dict[Hashable, Fraction]:
        """Output streaming interval ``C/O`` of every scheduled
        computational node, 1 for buffers and sources."""
        return self._intervals[1]

    @cached_property
    def _intervals(self):
        return _interval_tables(
            freeze(self.graph), self.order_idx, self.const_idx)

    @cached_property
    def pe_of(self) -> dict[Hashable, int]:
        return {
            v: pe for block in self.partition.blocks
            for pe, v in enumerate(block)
        }

    @cached_property
    def buffer_sizes(self) -> dict[tuple[Hashable, Hashable], int]:
        names = freeze(self.graph).names
        return {
            (names[u], names[v]): c
            for u, v, c in zip(self.fifo_src, self.fifo_dst, self.fifo_cap)
        }

    @property
    def fifo_total(self) -> int:
        """Summed FIFO capacities."""
        sizes = vars(self).get("buffer_sizes")
        return sum(self.fifo_cap if sizes is None else sizes.values())

    def fifo_rows(self):
        """``(src id, dst id, capacity)`` per FIFO, in table order."""
        sizes = vars(self).get("buffer_sizes")
        if sizes is None:
            return zip(self.fifo_src, self.fifo_dst, self.fifo_cap)
        index = freeze(self.graph).index
        return ((index[u], index[v], c) for (u, v), c in sizes.items())

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.partition.num_blocks

    def block_of(self, v: Hashable) -> int:
        return self.partition.block_of[v]

    def is_streaming_edge(self, u: Hashable, v: Hashable) -> bool:
        """True when edge (u, v) is pipelined: both endpoints are
        computational tasks gang-scheduled in the same spatial block."""
        ig = freeze(self.graph)
        ig.volume(u, v)  # KeyError unless (u, v) is an edge
        i, j = ig.index[u], ig.index[v]
        return self._streams(ig, i, j)

    def _streams(self, ig: IndexedGraph, i: int, j: int) -> bool:
        blk = self.block_idx
        return ig.comp[i] and ig.comp[j] and blk[i] == blk[j]

    def streaming_edges(self) -> list[tuple[Hashable, Hashable]]:
        """The pipelined edges, in ``graph.edges`` order."""
        ig = freeze(self.graph)
        names, sp, sa = ig.names, ig.succ_ptr, ig.succ_adj
        return [
            (names[u], names[sa[j]])
            for u in range(ig.n)
            for j in range(sp[u], sp[u + 1])
            if self._streams(ig, u, sa[j])
        ]

    def busy_time(self) -> int:
        """Total PE occupancy: sum over tasks of ``LO - ST``."""
        comp, st, lo = freeze(self.graph).comp, self.st_idx, self.lo_idx
        return sum(lo[i] - st[i] for i in range(len(comp)) if comp[i])

    def validate(self) -> None:
        """Internal consistency checks (precedence + capacity)."""
        self.partition.validate(self.graph, self.num_pes)
        ig = freeze(self.graph)
        names, comp = ig.names, ig.comp
        sp, sa = ig.succ_ptr, ig.succ_adj
        st, fo, lo = self.st_idx, self.fo_idx, self.lo_idx
        for u in range(ig.n):
            if not comp[u]:
                continue
            for v in sa[sp[u]:sp[u + 1]]:
                if not comp[v]:
                    continue
                if self._streams(ig, u, v):
                    if fo[v] <= fo[u]:
                        raise ValueError(
                            f"streaming edge ({names[u]!r},{names[v]!r}): "
                            f"FO not increasing")
                elif st[v] < lo[u]:
                    raise ValueError(
                        f"buffered edge ({names[u]!r},{names[v]!r}): consumer "
                        f"starts before producer completes "
                        f"({st[v]} < {lo[u]})"
                    )


def schedule_streaming(
    graph: "CanonicalGraph | IndexedGraph",
    num_pes: int,
    variant: Variant | Literal["work"] = "lts",
    *,
    sequential_blocks: bool = True,
    size_buffers: bool = True,
    partition: Partition | None = None,
) -> StreamingSchedule:
    """Produce a streaming schedule of ``graph`` on ``num_pes`` PEs.

    Parameters
    ----------
    variant:
        ``"lts"`` (STR-SCH-1), ``"rlx"`` (STR-SCH-2) or ``"work"``
        (Appendix A Algorithm 2).
    sequential_blocks:
        Enforce the paper's temporal multiplexing model: block ``i+1``
        may not occupy the device before block ``i`` completed.  Disable
        to obtain the bare dependency-driven recurrences.
    size_buffers:
        Run the Section 6 FIFO sizing pass on every streaming edge.
    partition:
        Reuse a precomputed partition of ``graph`` instead of running
        the partitioner (it is the same on both kernel sets, so
        benchmarks and portfolio re-analyses can share it).  Must have
        been produced by the same ``variant``.
    """
    if partition is None:
        if variant == "work":
            partition = partition_by_work(graph, num_pes)
        else:
            partition = compute_spatial_blocks(graph, num_pes, variant)

    if backend.HAVE_NUMPY:
        from .kernels import schedule_sweep_numpy

        sched = schedule_sweep_numpy(
            graph, freeze(graph), partition, num_pes,
            sequential_blocks=sequential_blocks,
            size_buffers=size_buffers,
        )
        if sched is not None:
            return sched
        # volumes beyond int64 (counted fallback): the exact sweep
    return schedule_sweep_python(
        graph, partition, num_pes,
        sequential_blocks=sequential_blocks,
        size_buffers=size_buffers,
    )


def schedule_sweep_python(
    graph: "CanonicalGraph | IndexedGraph",
    partition: Partition,
    num_pes: int,
    *,
    sequential_blocks: bool = True,
    size_buffers: bool = True,
) -> StreamingSchedule:
    """Steps 2-3 over ``partition`` in exact pure-Python integers: the
    no-numpy path, the fallback for volumes beyond int64, and the
    kernel-parity oracle."""
    ig = freeze(graph)
    n = ig.n
    kinds, comp = ig.kinds, ig.comp
    blk, pe, _ = partition.columns()

    members_by_block: list[list[int]] = [[] for _ in range(partition.num_blocks)]
    for i in ig.topo:
        if blk[i] >= 0:
            members_by_block[blk[i]].append(i)

    st, fo, lo = [0] * n, [0] * n, [0] * n
    const = [0] * n
    order: list[int] = []
    ready: dict[int, int] = {}
    release = 0
    makespan = 0
    for members in members_by_block:
        b_times, b_const, _, _ = _schedule_block_indexed(
            ig, members, ready, release if sequential_blocks else 0,
        )
        for i, c in b_const.items():
            const[i] = c
        order += members
        block_end = release
        for i in members:
            t = b_times[i]
            st[i], fo[i], lo[i] = t
            if comp[i]:
                ready[i] = t.lo
                block_end = max(block_end, t.lo)
                makespan = max(makespan, t.lo)
            elif kinds[i] is NodeKind.BUFFER:
                ready[i] = t.st  # stored time
                makespan = max(makespan, t.st)
            elif kinds[i] is NodeKind.SOURCE:
                ready[i] = 0
            else:  # sink
                ready[i] = t.lo
        release = block_end

    schedule = StreamingSchedule(
        graph, num_pes, partition, makespan=makespan, order_idx=order,
        st_idx=st, fo_idx=fo, lo_idx=lo, const_idx=const,
        block_idx=blk, pe_idx=pe,
    )
    if size_buffers:
        (schedule.fifo_src, schedule.fifo_dst,
         schedule.fifo_cap) = buffer_sizes_python(schedule)
    return schedule
