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
consumers need: times, per-block intervals, task-to-PE assignment, FIFO
capacities and the derived metrics inputs (makespan, busy times).

Steps 2-3 run on the NumPy kernels (:mod:`repro.core.kernels`) when
``numpy`` imports and on :func:`schedule_sweep_python` otherwise; the
platform decides, no option selects, and the documents are
byte-identical (:mod:`repro.core.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Literal

from .block_schedule import (
    BlockSchedule,
    TaskTimes,
    _schedule_block_indexed,
)
from . import backend
from .buffer_sizing import buffer_sizes_python
from .graph import CanonicalGraph
from .indexed import IndexedGraph, freeze
from .node_types import NodeKind
from .partition import Partition, Variant, compute_spatial_blocks, partition_by_work

__all__ = ["StreamingSchedule", "schedule_streaming", "schedule_sweep_python"]


@dataclass
class StreamingSchedule:
    """A complete streaming schedule for a canonical task graph.

    ``graph`` may be a :class:`CanonicalGraph` or an already-frozen
    :class:`~repro.core.indexed.IndexedGraph` (the service ingest path);
    both expose the read vocabulary the consumers use.  ``times_idx`` /
    ``const_idx`` are optional id-indexed mirrors of ``times`` and the
    per-node Theorem-4.1 constants, populated by ``schedule_streaming``
    so the FIFO sizing pass and the serializers skip per-name dict
    round trips (absent on schedules built by the reference path).
    """

    graph: CanonicalGraph
    num_pes: int
    partition: Partition
    times: dict[Hashable, TaskTimes]
    si: dict[Hashable, Fraction]
    so: dict[Hashable, Fraction]
    pe_of: dict[Hashable, int]
    block_schedules: list[BlockSchedule] = field(repr=False, default_factory=list)
    buffer_sizes: dict[tuple[Hashable, Hashable], int] = field(default_factory=dict)
    makespan: int = 0
    times_idx: list[TaskTimes | None] | None = field(repr=False, default=None)
    const_idx: list[int | None] | None = field(repr=False, default=None)

    @property
    def num_blocks(self) -> int:
        return self.partition.num_blocks

    def block_of(self, v: Hashable) -> int:
        return self.partition.block_of[v]

    def is_streaming_edge(self, u: Hashable, v: Hashable) -> bool:
        """True when edge (u, v) is pipelined: both endpoints are
        computational tasks gang-scheduled in the same spatial block."""
        if not self.graph.nx.has_edge(u, v):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        if not (
            self.graph.kind(u).is_computational
            and self.graph.kind(v).is_computational
        ):
            return False
        return self.partition.block_of[u] == self.partition.block_of[v]

    def streaming_edges(self) -> list[tuple[Hashable, Hashable]]:
        return [e for e in self.graph.edges if self.is_streaming_edge(*e)]

    def busy_time(self) -> int:
        """Total PE occupancy: sum over tasks of ``LO - ST``."""
        return sum(
            self.times[v].busy
            for v in self.graph.computational_nodes()
        )

    def validate(self) -> None:
        """Internal consistency checks (precedence + capacity)."""
        self.partition.validate(self.graph, self.num_pes)
        for u, v in self.graph.edges:
            ku, kv = self.graph.kind(u), self.graph.kind(v)
            if not (ku.is_computational and kv.is_computational):
                continue
            tu, tv = self.times[u], self.times[v]
            if self.is_streaming_edge(u, v):
                if tv.fo <= tu.fo:
                    raise ValueError(f"streaming edge ({u!r},{v!r}): FO not increasing")
            else:
                if tv.st < tu.lo:
                    raise ValueError(
                        f"buffered edge ({u!r},{v!r}): consumer starts before "
                        f"producer completes ({tv.st} < {tu.lo})"
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
    names, index = ig.names, ig.index
    kinds, comp = ig.kinds, ig.comp
    topo_pos = ig.topo_pos

    times: dict[Hashable, TaskTimes] = {}
    si: dict[Hashable, Fraction] = {}
    so: dict[Hashable, Fraction] = {}
    ready: dict[int, int] = {}
    pe_of: dict[Hashable, int] = {}
    block_schedules: list[BlockSchedule] = []

    release = 0
    makespan = 0
    members_by_block: list[list[int]] = [[] for _ in range(partition.num_blocks)]
    for v, b in partition.block_of.items():
        members_by_block[b].append(index[v])

    times_idx: list[TaskTimes | None] = [None] * ig.n
    const_idx: list[int | None] = [None] * ig.n
    fraction_memo: dict = {}  # interval Fractions shared across blocks
    for b, members in enumerate(members_by_block):
        members.sort(key=topo_pos.__getitem__)
        b_times, b_si, b_so, iview = _schedule_block_indexed(
            ig,
            members,
            ready,
            release=release if sequential_blocks else 0,
            fraction_memo=fraction_memo,
            const_out=const_idx,
        )
        block_times = {names[i]: t for i, t in b_times.items()}
        block_si = {names[i]: s for i, s in b_si.items()}
        block_so = {names[i]: s for i, s in b_so.items()}
        block_schedules.append(
            BlockSchedule(block_times, block_si, block_so, iview)
        )
        times.update(block_times)
        si.update(block_si)
        so.update(block_so)
        block_end = release
        for i in members:
            kind = kinds[i]
            t = b_times[i]
            times_idx[i] = t
            if comp[i]:
                ready[i] = t.lo
                block_end = max(block_end, t.lo)
                makespan = max(makespan, t.lo)
            elif kind is NodeKind.BUFFER:
                ready[i] = t.st  # stored time
                makespan = max(makespan, t.st)
            elif kind is NodeKind.SOURCE:
                ready[i] = 0
            else:  # sink
                ready[i] = t.lo
        for pe, v in enumerate(partition.blocks[b]):
            pe_of[v] = pe
        release = block_end

    schedule = StreamingSchedule(
        graph=graph,
        num_pes=num_pes,
        partition=partition,
        times=times,
        si=si,
        so=so,
        pe_of=pe_of,
        block_schedules=block_schedules,
        makespan=makespan,
        times_idx=times_idx,
        const_idx=const_idx,
    )
    if size_buffers:
        schedule.buffer_sizes = buffer_sizes_python(schedule)
    return schedule
