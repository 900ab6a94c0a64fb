"""Per-spatial-block scheduling recurrences (Section 5.1).

Within one spatial block all tasks are gang-scheduled and communicate over
streaming channels.  For every node we compute three times:

* ``ST(v)`` — starting time: when the task's PE becomes busy;
* ``FO(v)`` — first-out time: when the first element leaves the node;
* ``LO(v)`` — last-out time: when the last element leaves the node (the
  task's completion time).

The recurrences (validated against the worked examples of Figures 8/9, see
``tests/test_paper_examples.py``)::

    lat_fo(v) = ceil((1/R - 1) * S_i(v)) + 1   if R(v) < 1 else 1
    lat_lo(v) = ceil((R - 1) * S_o(v)) + 1     if R(v) > 1 else 1

    FO(v) = max(base(v), max in-block FO(u)) + lat_fo(v)
    LO(v) = max(memLA(v), max in-block LO(u)) + lat_lo(v)

where *base(v)* is the earliest time the node may start pulling data that
sits in global memory (the maximum completion time of cross-block
predecessors / buffer predecessors, and the block release time), and
``memLA(v) = base(v) + ceil((I(v)-1) * S_i(v))`` is the time the last
element "leaves memory" when the node self-paces its reads.  Passive
predecessors (buffers, sources) act as memory anchors: streaming cannot
cross them, so they contribute to ``base`` instead of to the in-block
``FO``/``LO`` maxima (DESIGN.md, interpretation 4).

Buffer nodes themselves are not scheduled on a PE but still get times:
``stored(b)`` (all inputs absorbed, recorded as ``ST``),
``FO(b) = stored + 1`` and ``LO(b) = stored + ceil((O-1)*S_o) + 1``.

Hot-path note: the steady-state intervals inside one block are
``S_i(v) = C/I(v)`` and ``S_o(v) = C/O(v)`` for the per-WCC constant
``C`` (Theorem 4.1), so every ceiling above is an exact integer ceiling
division — the recurrences run in plain integer arithmetic over the
:class:`~repro.core.indexed.IndexedGraph` arrays, with no
:class:`~fractions.Fraction` in the loop.  ``C`` is found with a
union-find over the block's streaming edges instead of building a
buffer-split networkx graph per block.  The original Fraction
implementation lives in ``tests/oracles/scheduler_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, NamedTuple

from .graph import CanonicalGraph
from .indexed import IndexedGraph, freeze
from .node_types import NodeKind
from .streaming import StreamingIntervals

__all__ = ["TaskTimes", "BlockSchedule", "schedule_block"]

#: shared immutable constants; Fraction construction runs a gcd, so the
#: hot path memoizes every (num, den) pair per schedule run instead
_ONE = Fraction(1)


def _memo_fraction(memo: dict, num: int, den: int) -> Fraction:
    key = (num, den)
    f = memo.get(key)
    if f is None:
        f = memo[key] = Fraction(num, den)
    return f


class TaskTimes(NamedTuple):
    """Schedule times of one node (integers, in cycles).

    A named tuple rather than a frozen dataclass: the block recurrences
    construct one per node per schedule, and frozen-dataclass ``__init__``
    pays an ``object.__setattr__`` per field on that hot path.
    """

    st: int
    fo: int
    lo: int

    @property
    def busy(self) -> int:
        """PE occupancy: from start to last output."""
        return self.lo - self.st


@dataclass
class BlockSchedule:
    """Times and intervals for the nodes of one spatial block."""

    times: dict[Hashable, TaskTimes]
    si: dict[Hashable, Fraction]
    so: dict[Hashable, Fraction]
    intervals: StreamingIntervals

    def makespan_contribution(self, graph: CanonicalGraph) -> int:
        """Latest completion among this block's schedulable work."""
        out = 0
        for v, t in self.times.items():
            kind = graph.kind(v)
            if kind.is_computational:
                out = max(out, t.lo)
            elif kind is NodeKind.BUFFER:
                out = max(out, t.st)  # stored time: data safely in memory
        return out


def _block_constants(
    ig: IndexedGraph, members: list[int]
) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """Theorem 4.1 constants for the block's *computational* members.

    Union-find over the streaming (comp-to-comp, in-block) edges, then a
    per-component max of ``max(I(v), O(v))``, floored at 1 (matching the
    legacy ``compute_streaming_intervals`` top seed).  Returns the
    per-node constant ``C``, the per-node component index (first-seen
    member order) and the per-component maxima."""
    comp = ig.comp
    comp_members = [v for v in members if comp[v]]
    parent = {v: v for v in comp_members}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    in_block = set(comp_members)
    sp, sa = ig.succ_ptr, ig.succ_adj
    for u in comp_members:
        for j in range(sp[u], sp[u + 1]):
            w = sa[j]
            if w in in_block:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[ru] = rw
    top: dict[int, int] = {}
    for v in comp_members:
        r = find(v)
        vol = ig.in_vol[v]
        if ig.out_vol[v] > vol:
            vol = ig.out_vol[v]
        if vol < 1:
            vol = 1
        if top.get(r, 0) < vol:
            top[r] = vol
    constants: dict[int, int] = {}
    comp_of: dict[int, int] = {}
    maxima: list[int] = []
    root_index: dict[int, int] = {}
    for v in comp_members:  # component ids in first-seen member order
        r = find(v)
        k = root_index.get(r)
        if k is None:
            k = root_index[r] = len(maxima)
            maxima.append(top[r])
        comp_of[v] = k
        constants[v] = top[r]
    return constants, comp_of, maxima


def _interval_tables(
    ig: IndexedGraph, ids, constants, memo: dict | None = None,
) -> tuple[dict[Hashable, Fraction], dict[Hashable, Fraction]]:
    """The name-keyed ``S_i`` / ``S_o`` tables of nodes ``ids``, in
    that order: ``C/I`` and ``C/O`` for a computational node with
    Theorem-4.1 constant ``constants[v]``, 1 on both sides for a buffer
    and on the output side for a source (sinks get neither)."""
    if memo is None:
        memo = {}
    names, kinds, comp = ig.names, ig.kinds, ig.comp
    in_vol, out_vol = ig.in_vol, ig.out_vol
    si: dict[Hashable, Fraction] = {}
    so: dict[Hashable, Fraction] = {}
    for v in ids:
        name = names[v]
        if comp[v]:
            c = constants[v]
            si[name] = _memo_fraction(memo, c, in_vol[v])
            so[name] = _memo_fraction(memo, c, out_vol[v])
        elif kinds[v] is NodeKind.BUFFER:
            si[name] = so[name] = _ONE
        elif kinds[v] is NodeKind.SOURCE:
            so[name] = _ONE
    return si, so


def _intervals_view(
    ig: IndexedGraph,
    constants: dict[int, int],
    comp_of: dict[int, int],
    maxima: list[int],
    fraction_memo: dict,
) -> StreamingIntervals:
    """A :class:`StreamingIntervals` over the block's computational
    members (API-compatible with the legacy per-block analysis)."""
    so: dict[Hashable, Fraction] = {}
    si: dict[Hashable, Fraction] = {}
    wcc_of: dict[Hashable, int] = {}
    for v, c in constants.items():
        name = ig.names[v]
        if ig.in_vol[v] > 0:
            si[name] = _memo_fraction(fraction_memo, c, ig.in_vol[v])
        if ig.out_vol[v] > 0:
            so[name] = _memo_fraction(fraction_memo, c, ig.out_vol[v])
        wcc_of[name] = comp_of[v]
    return StreamingIntervals(so, si, wcc_of, tuple(maxima))


def schedule_block(
    graph: CanonicalGraph,
    block_nodes: set[Hashable],
    ready: Mapping[Hashable, int],
    release: int = 0,
) -> BlockSchedule:
    """Schedule the tasks of one spatial block.

    Parameters
    ----------
    graph:
        The full canonical task graph.
    block_nodes:
        Nodes belonging to this block: its computational tasks plus any
        passive nodes assigned here for bookkeeping.
    ready:
        Memory-readiness time of every *previously scheduled* node
        (completion ``LO`` for computational nodes, ``stored`` for
        buffers, 0 for sources).  Consulted for cross-block predecessors.
    release:
        Earliest time this block may occupy the device (the completion
        time of the previous block under the paper's "blocks are scheduled
        one after the other" execution model; pass 0 to reproduce the
        bare dependency-driven recurrences).

    Returns
    -------
    BlockSchedule with integer times for every node in ``block_nodes``
    and the block's steady-state streaming intervals.
    """
    ig = freeze(graph)
    index = ig.index
    topo_pos = ig.topo_pos
    members = sorted((index[v] for v in block_nodes), key=topo_pos.__getitem__)
    ready_idx: dict[int, int] = {}
    for name, t in ready.items():
        i = index.get(name)
        if i is not None:
            ready_idx[i] = t
    times_idx, constants, comp_of, maxima = _schedule_block_indexed(
        ig, members, ready_idx, release
    )
    memo: dict = {}
    si, so = _interval_tables(ig, members, constants, memo)
    return BlockSchedule(
        {ig.names[i]: t for i, t in times_idx.items()},
        si,
        so,
        _intervals_view(ig, constants, comp_of, maxima, memo),
    )


def _schedule_block_indexed(
    ig: IndexedGraph,
    members: list[int],
    ready: dict[int, int],
    release: int,
) -> tuple[dict[int, TaskTimes], dict[int, int], dict[int, int], list[int]]:
    """Integer-arithmetic Section 5.1 recurrences over one block.

    ``members`` must be in topological order; ``ready`` maps node index
    to memory-readiness time for previously scheduled nodes.  Returns
    the members' times and the :func:`_block_constants` of the block.
    """
    constants, comp_of, maxima = _block_constants(ig, members)

    kinds, comp = ig.kinds, ig.comp
    in_vol, out_vol = ig.in_vol, ig.out_vol
    pp, pa = ig.pred_ptr, ig.pred_adj
    member_set = set(members)

    times: dict[int, TaskTimes] = {}

    def node_ready(u: int) -> int:
        """Memory-readiness of predecessor ``u`` (any block, any kind)."""
        t = times.get(u)
        if t is not None:  # scheduled in this block already
            if comp[u]:
                return t.lo
            if kinds[u] is NodeKind.BUFFER:
                return t.st
            return 0  # source
        if u in ready:
            return ready[u]
        if kinds[u] is NodeKind.SOURCE:
            return 0
        raise KeyError(
            f"predecessor {ig.names[u]!r} of the block is not scheduled yet"
        )

    for v in members:
        kind = kinds[v]

        if kind is NodeKind.SOURCE:
            # informational times: memory port streaming from t=0
            times[v] = TaskTimes(st=0, fo=1, lo=out_vol[v])
            continue

        if kind is NodeKind.BUFFER:
            stored = 0
            for j in range(pp[v], pp[v + 1]):
                r = node_ready(pa[j])
                if r > stored:
                    stored = r
            # emission pacing: the paper uses the block's S_o; consumers in
            # this implementation self-pace reads, so we record the
            # canonical emission window for reference (S_i = S_o = 1).
            times[v] = TaskTimes(
                st=stored, fo=stored + 1, lo=stored + out_vol[v]
            )
            continue

        if kind is NodeKind.SINK:
            fo = 0
            lo = 0
            for j in range(pp[v], pp[v + 1]):
                u = pa[j]
                tu = times.get(u)
                if tu is not None and comp[u] and tu.fo > fo:
                    fo = tu.fo
                r = node_ready(u)
                if r > lo:
                    lo = r
            fo += 1
            lo += 1
            times[v] = TaskTimes(st=max(0, fo - 1), fo=fo, lo=lo)
            continue

        # ---- computational node ---------------------------------------
        i_vol, o_vol = in_vol[v], out_vol[v]
        c = constants[v]

        in_block_fo = 0
        in_block_lo = 0
        has_in_block = False
        base = release
        has_memory_input = pp[v] == pp[v + 1]  # graph entry reads memory
        for j in range(pp[v], pp[v + 1]):
            u = pa[j]
            if u in member_set and comp[u]:
                tu = times[u]
                has_in_block = True
                if tu.fo > in_block_fo:
                    in_block_fo = tu.fo
                if tu.lo > in_block_lo:
                    in_block_lo = tu.lo
            else:
                has_memory_input = True
                r = node_ready(u)
                if r > base:
                    base = r

        # lat_fo = ceil((1/R - 1) * C/I) + 1 = ceil((I-O)*C / (O*I)) + 1
        if o_vol < i_vol:
            lat_fo = -(-((i_vol - o_vol) * c) // (o_vol * i_vol)) + 1
        else:
            lat_fo = 1
        # lat_lo = ceil((R - 1) * C/O) + 1 = ceil((O-I)*C / (I*O)) + 1
        if o_vol > i_vol:
            lat_lo = -(-((o_vol - i_vol) * c) // (i_vol * o_vol)) + 1
        else:
            lat_lo = 1

        first_avail = in_block_fo
        if has_memory_input:
            if base > first_avail:
                first_avail = base
        elif release and release > first_avail:
            first_avail = release
        fo = first_avail + lat_fo

        last_avail = in_block_lo
        if has_memory_input:
            # memLA = base + ceil((I-1) * C/I)
            mem_la = base + -(-((i_vol - 1) * c) // i_vol)
            if mem_la > last_avail:
                last_avail = mem_la
        lo = last_avail + lat_lo

        if has_memory_input:
            st = base if not has_in_block else max(in_block_fo, base)
        else:
            st = in_block_fo if has_in_block else release
        times[v] = TaskTimes(st=st, fo=fo, lo=lo)

    return times, constants, comp_of, maxima
