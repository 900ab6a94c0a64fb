"""NumPy structure-of-arrays kernels for the scheduling core.

The pure-Python indexed pipeline (:mod:`repro.core.block_schedule`,
:mod:`repro.core.buffer_sizing`) pays CPython interpreter dispatch per
node and per edge.  This module batches the same exact-integer arithmetic
over int64 arrays, following the ``bdf_vectorized3`` "per-object code
-> one structure-of-arrays module" rewrite pattern:

* the cg3 graph fingerprint: hashed 1-WL rounds as whole-array uint64
  arithmetic (per-node neighbour sums are differences of one wrapping
  prefix sum over the CSR slots) plus the final canonical sort — the
  same :func:`graph_arrays` mirror the streaming candidates reuse, so a
  cold request builds it once;
* per-WCC Theorem-4.1 constants and the on-cycle node mask from one
  iterative low-link DFS over all streaming edges (the WCC label is the
  DFS root; bridges are a graph invariant, so one pass over every
  block at once finds the reference's per-block sets);
* the Section 5.1 ``ST``/``FO``/``LO`` block recurrences with every
  per-node quantity (latencies, memory deltas, the in-block/memory
  predecessor split as two CSR arrays) precomputed as one vectorized
  pass — the remaining propagation along topo order is a dependence
  chain, so it runs as a lean scalar sweep that writes the schedule's
  id columns; no per-node object or name-keyed table is built (the
  :class:`~repro.core.scheduler.StreamingSchedule` views do that on
  first read), and nothing is memoized across calls: a cold request
  analyses each (graph, partition) pair exactly once;
* Section 6 FIFO sizing as batched per-edge arithmetic across all
  blocks at once (worst-arrival segment maxima, one vectorized
  ceiling division, one clip) over the streaming-edge arrays and the
  on-cycle mask the sweep already derived.

**Byte-identity contract.**  All sweep *state* (times, readiness,
release chaining) is kept in plain Python ints, so accumulation can
never overflow; only per-node/per-edge *products* are vectorized in
int64, and every such product is bounded up front: ``C <= 2^31`` per
WCC guards the latency numerators, and ``makespan * max_volume`` guards
the FIFO slack products.  A WCC/block/call whose bound trips is
recomputed on the exact pure-Python path (identical output, counted in
``core.kernel_fallbacks{kernel}``); volumes that do not even fit int64
drop the whole call back to the reference path.  Results are therefore
byte-identical to the ``python`` backend on every input, which the
backend-parity suites assert.  The fingerprint kernel needs no guard:
it computes mod 2^64 by definition and never reads a volume.

This module imports numpy at module load; callers must only import it
when :data:`repro.core.backend.HAVE_NUMPY` is true.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import TYPE_CHECKING

import numpy as np

from . import graph as _graph
from .backend import count_fallback
from .block_schedule import _schedule_block_indexed
from .node_types import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .indexed import IndexedGraph
    from .partition import Partition
    from .scheduler import StreamingSchedule

__all__ = [
    "graph_arrays",
    "wl_refine_numpy",
    "wl_digest_numpy",
    "schedule_sweep_numpy",
    "buffer_sizes_numpy",
]

_I64 = np.int64
_U64 = np.uint64
#: cg3 constants as uint64 scalars (see repro.core.graph)
_K_PRED, _K_SUCC, _C_PRED, _C_SUCC, _MIX1, _MIX2 = (
    _U64(c) for c in (_graph._K_PRED, _graph._K_SUCC, _graph._C_PRED,
                      _graph._C_SUCC, _graph._MIX1, _graph._MIX2))
_U27, _U30, _U31 = _U64(27), _U64(30), _U64(31)
#: largest magnitude a vectorized int64 product may reach; products are
#: pre-bounded (not checked after the fact) because numpy wraps silently
_SAFE = 1 << 62
_C_SAFE = 1 << 31  #: per-WCC constant bound: C * vol < 2^62 elementwise
#: per-node kind codes for the sweep's dispatch (faster than enum `is`)
_K_SOURCE, _K_BUFFER, _K_SINK, _K_COMP = 0, 1, 2, 3
_KIND_CODE = {
    NodeKind.SOURCE: _K_SOURCE, NodeKind.BUFFER: _K_BUFFER,
    NodeKind.SINK: _K_SINK,
}


class _Arrays:
    """Memoized int64 mirrors of one IndexedGraph's flat lists."""

    __slots__ = (
        "pred_ptr", "pred_adj", "succ_ptr", "succ_adj",
        "in_vol", "out_vol", "comp", "is_source", "is_buffer",
        "kind_code", "e_src", "pred_dst", "topo", "topo_pos",
        "oversized",
    )

    def __init__(self, ig: "IndexedGraph") -> None:
        n = ig.n
        self.pred_ptr = np.asarray(ig.pred_ptr, dtype=_I64)
        self.pred_adj = np.asarray(ig.pred_adj, dtype=_I64)
        self.succ_ptr = np.asarray(ig.succ_ptr, dtype=_I64)
        self.succ_adj = np.asarray(ig.succ_adj, dtype=_I64)
        try:
            self.in_vol = np.asarray(ig.in_vol, dtype=_I64)
            self.out_vol = np.asarray(ig.out_vol, dtype=_I64)
            self.oversized = False
        except OverflowError:
            # volumes beyond int64: every kernel falls back wholesale
            self.in_vol = self.out_vol = None
            self.oversized = True
        self.comp = np.asarray(ig.comp, dtype=bool)
        codes = [_KIND_CODE.get(k, _K_COMP) for k in ig.kinds]
        self.kind_code = codes  # python list: read in the scalar sweep
        code_arr = np.asarray(codes, dtype=np.int8)
        self.is_source = code_arr == _K_SOURCE
        self.is_buffer = code_arr == _K_BUFFER
        #: producer node of every CSR successor slot (edge-parallel view)
        self.e_src = np.repeat(
            np.arange(n, dtype=_I64), np.diff(self.succ_ptr))
        #: consumer node of every CSR predecessor slot
        self.pred_dst = np.repeat(
            np.arange(n, dtype=_I64), np.diff(self.pred_ptr))
        self.topo = np.asarray(ig.topo, dtype=_I64)
        tp = np.empty(n, dtype=_I64)
        tp[self.topo] = np.arange(n, dtype=_I64)
        self.topo_pos = tp


def graph_arrays(ig: "IndexedGraph") -> _Arrays:
    """The (cached) structure-of-arrays mirror of ``ig``."""
    cache = ig._np_cache
    if cache is None:
        cache = ig._np_cache = _Arrays(ig)
    return cache


def _segment_max(values: np.ndarray, row_starts: np.ndarray,
                 counts: np.ndarray, empty: int) -> np.ndarray:
    """Per-row maximum of ragged segments; ``empty`` for zero-length rows."""
    out = np.full(len(counts), empty, dtype=_I64)
    nonempty = counts > 0
    if values.size:
        # reduceat mishandles empty segments: reduce only the nonempty
        # rows, whose starts are strictly increasing and in range
        out[nonempty] = np.maximum.reduceat(values, row_starts[nonempty])
    return out


# ----------------------------------------------------------------------
# cg3 fingerprint: hashed 1-WL over 64-bit labels
# ----------------------------------------------------------------------

def _mix64(z: np.ndarray) -> np.ndarray:
    """Elementwise splitmix64 finalizer (uint64 arithmetic wraps)."""
    z = z ^ (z >> _U30)
    z *= _MIX1
    z ^= z >> _U27
    z *= _MIX2
    z ^= z >> _U31
    return z


def _csr_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per-row sums mod 2^64 of a CSR value array (empty rows sum to 0).

    Differences of one wrapping prefix sum, so empty segments need no
    special case (unlike ``add.reduceat``)."""
    prefix = np.zeros(values.size + 1, dtype=_U64)
    np.cumsum(values, out=prefix[1:])
    return prefix[ptr[1:]] - prefix[ptr[:-1]]


def wl_refine_numpy(ig: "IndexedGraph", labels) -> np.ndarray:
    """The cg3 1-WL rounds of :func:`repro.core.graph._wl_refine_python`
    over the CSR mirror; returns the stable labels as a uint64 array.

    Only the adjacency arrays are read, so there is no overflow guard
    and no fallback: every operation is exact arithmetic mod 2^64,
    the same as the ``& _M64`` of the pure-Python twin.
    """
    A = graph_arrays(ig)
    L = np.asarray(labels, dtype=_U64)
    num_classes = np.unique(L).size
    for _ in range(ig.n):
        up = _mix64(L ^ _C_PRED)[A.pred_adj]
        down = _mix64(L ^ _C_SUCC)[A.succ_adj]
        L = _mix64(L + _K_PRED * _csr_sums(up, A.pred_ptr)
                   + _K_SUCC * _csr_sums(down, A.succ_ptr))
        refined_classes = np.unique(L).size
        if refined_classes == num_classes:  # partition is stable
            break
        num_classes = refined_classes
    return L


def wl_digest_numpy(ig: "IndexedGraph", labels: list[int],
                    header: bytes) -> str:
    """cg3 hex digest of ``ig`` from its stable labels.

    The layout matches :func:`repro.core.graph._wl_digest_python`:
    ``header``, the sorted labels as big-endian 8-byte words, then the
    edge pairs sorted by ``(label(u), label(v))`` as 16-byte records.
    """
    A = graph_arrays(ig)
    L = np.asarray(labels, dtype=_U64)
    h = hashlib.sha256(header)
    h.update(np.sort(L).astype(">u8").tobytes())
    lu, lv = L[A.e_src], L[A.succ_adj]
    order = np.lexsort((lv, lu))
    pairs = np.empty((lu.size, 2), dtype=">u8")
    pairs[:, 0] = lu[order]
    pairs[:, 1] = lv[order]
    h.update(pairs.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Theorem 4.1 constants + Section 5.1 block recurrences
# ----------------------------------------------------------------------

def _stream_components(
    n: int, eu: np.ndarray, ev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """WCC label and on-cycle mask of the streaming subgraph.

    One iterative low-link DFS over *all* streaming edges (taken as
    undirected) yields both: every node reached from a root carries
    that root as its weakly connected component's label (nodes on no
    streaming edge label themselves), and a node is on an undirected
    cycle iff it is incident to a non-bridge edge.  Streaming edges
    never cross blocks, so these global components are exactly the
    per-block components, and bridges are a graph invariant, so a block
    with fewer than 3 streaming edges simply yields no hot nodes — the
    same sets the reference's per-block passes find.
    """
    if eu.size == 0:
        return np.arange(n, dtype=_I64), np.zeros(n, dtype=bool)
    ends = np.concatenate((eu, ev))
    deg = np.bincount(ends, minlength=n)
    uptr_l = np.concatenate(([0], np.cumsum(deg))).tolist()
    uadj_l = np.concatenate((ev, eu))[
        np.argsort(ends, kind="stable")].tolist()
    deg_l = deg.tolist()
    disc = [-1] * n
    low = [0] * n
    par = [-1] * n
    pos = uptr_l[:-1]  # slicing copies: per-node adjacency resume cursor
    hot_l = [False] * n
    label_l = list(range(n))
    clock = 0
    for root in np.nonzero(deg)[0].tolist():
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        v = root
        j = uptr_l[root]
        end = uptr_l[root + 1]
        while True:
            if j < end:
                w = uadj_l[j]
                j += 1
                dw = disc[w]
                if dw < 0:  # tree edge
                    label_l[w] = root
                    if deg_l[w] == 1:  # to a leaf: a bridge, nothing below
                        disc[w] = clock
                        clock += 1
                        continue
                    par[w] = v  # descend
                    disc[w] = low[w] = clock
                    clock += 1
                    pos[v] = j
                    v = w
                    j = uptr_l[w]
                    end = uptr_l[w + 1]
                elif dw < low[v] and w != par[v]:
                    # back edge (the graph is simple, so the parent's
                    # single occurrence is exactly the tree edge)
                    low[v] = dw
            else:  # v exhausted: retreat to its parent
                p = par[v]
                if p < 0:
                    break
                lv_ = low[v]
                if lv_ < low[p]:
                    low[p] = lv_
                if lv_ <= disc[p]:
                    # tree edge (p, v) is not a bridge.  A back edge
                    # closes a cycle with the tree path it spans, so its
                    # ends are ends of non-bridge tree edges as well
                    hot_l[p] = True
                    hot_l[v] = True
                v = p
                j = pos[p]
                end = uptr_l[p + 1]
    return np.asarray(label_l, dtype=_I64), np.asarray(hot_l, dtype=bool)


def _stream_edges(
    A: _Arrays, blk_arr: np.ndarray, members: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The streaming (comp-to-comp, same-block) edges in reference
    order: blocks ascending, producer's ``block_of`` insertion rank,
    then CSR slot."""
    bu = blk_arr[A.e_src]
    mask = (A.comp[A.e_src] & A.comp[A.succ_adj] & (bu >= 0)
            & (bu == blk_arr[A.succ_adj]))
    eu = A.e_src[mask]
    ev = A.succ_adj[mask]
    ranked = np.fromiter(itertools.chain.from_iterable(members), _I64,
                         count=sum(map(len, members)))
    rank = np.zeros(blk_arr.size, dtype=_I64)
    rank[ranked] = np.arange(ranked.size, dtype=_I64)
    order = np.argsort(rank[eu], kind="stable")
    return eu[order], ev[order]


def schedule_sweep_numpy(
    graph,
    ig: "IndexedGraph",
    partition: "Partition",
    num_pes: int,
    *,
    sequential_blocks: bool = True,
    size_buffers: bool = True,
) -> "StreamingSchedule | None":
    """The ``schedule_streaming`` analysis pipeline on the numpy backend.

    Partitioning already happened (it is backend-independent); this runs
    the Section 5.1 recurrences with all per-node quantities batched up
    front, then the Section 6 FIFO sizing, producing a
    ``StreamingSchedule`` byte-identical to the pure-Python path.
    Returns ``None`` when the graph's volumes exceed int64 entirely
    (counted): the caller runs the reference path instead.
    """
    from .scheduler import StreamingSchedule

    A = graph_arrays(ig)
    if A.oversized:
        count_fallback("core.block_sweep")
        return None
    n = ig.n
    nb = partition.num_blocks
    blk, pe, members = partition.columns()
    blk_arr = np.asarray(blk, dtype=_I64)

    # sweep order: blocks ascending, topo order inside each block
    ids = np.nonzero(blk_arr >= 0)[0]
    sweep = ids[np.lexsort((A.topo_pos[ids], blk_arr[ids]))]
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(blk_arr[ids], minlength=nb)))).tolist()
    order = sweep.tolist()

    # ---- Theorem 4.1 constants: C = WCC max of max(I, O, 1) -----------
    eu, ev = _stream_edges(A, blk_arr, members)
    label, hot = _stream_components(n, eu, ev)
    top = np.maximum(np.maximum(A.in_vol, A.out_vol), 1)
    cmax = np.zeros(n, dtype=_I64)
    np.maximum.at(cmax, label, top)
    c_arr = np.where(A.comp, cmax[label], 0)

    # per-WCC overflow guard on the latency numerators: numerators are
    # (I-O)*C and (I-1)*C with I, O <= C inside the WCC, so C < 2^31
    # bounds every product.  A block holding an unsafe WCC is
    # recomputed on the exact path.
    unsafe = c_arr >= _C_SAFE
    if unsafe.any():
        unsafe_wccs = np.unique(label[unsafe])
        count_fallback("core.block_sweep", int(unsafe_wccs.size))
        fallback_blocks = set(blk_arr[unsafe_wccs].tolist())
        cc = np.where(unsafe, 0, c_arr)
    else:
        fallback_blocks = ()
        cc = c_arr

    # ---- vectorized per-node latencies and memory deltas --------------
    iv, ov = A.in_vol, A.out_vol
    down = A.comp & (ov < iv) & (ov > 0) & (cc > 0)
    up = A.comp & (ov > iv) & (iv > 0) & (cc > 0)
    lat_fo = np.ones(n, dtype=_I64)
    lat_fo[down] = -(-((iv[down] - ov[down]) * cc[down])
                     // (ov[down] * iv[down])) + 1
    lat_lo = np.ones(n, dtype=_I64)
    lat_lo[up] = -(-((ov[up] - iv[up]) * cc[up])
                   // (iv[up] * ov[up])) + 1
    mem_delta = np.zeros(n, dtype=_I64)
    cm = A.comp & (iv > 0) & (cc > 0)
    mem_delta[cm] = -(-((iv[cm] - 1) * cc[cm]) // iv[cm])
    lat_fo_l = lat_fo.tolist()
    lat_lo_l = lat_lo.tolist()
    mem_delta_l = mem_delta.tolist()

    # in-block-computational flag per CSR predecessor slot: decides
    # whether a predecessor feeds the streaming FO/LO maxima or the
    # memory-readiness base.  CSR slots are grouped by consumer, so
    # filtering the adjacency by the flag keeps per-node runs
    # contiguous: the split is two CSR arrays.
    ibc = (A.comp[A.pred_adj]
           & (blk_arr[A.pred_adj] == blk_arr[A.pred_dst]))
    in_pa = A.pred_adj[ibc].tolist()
    mem_pa = A.pred_adj[~ibc].tolist()
    in_ptr = np.concatenate(([0], np.cumsum(
        np.bincount(A.pred_dst[ibc], minlength=n)))).tolist()
    mem_ptr = np.concatenate(([0], np.cumsum(
        np.bincount(A.pred_dst[~ibc], minlength=n)))).tolist()
    kind_code = A.kind_code
    out_vol = ig.out_vol

    # ---- the sweep (python-int state: accumulation cannot overflow) ---
    st_l = [0] * n
    fo_l = [0] * n
    lo_l = [0] * n
    readiness = [0] * n  #: node_ready(u) once u's block reached it
    release = 0
    makespan = 0

    for b in range(nb):
        block = order[bounds[b]:bounds[b + 1]]
        # a block touching a fallen WCC is recomputed on the exact
        # reference path; the python-int `readiness` doubles as `ready`
        if b in fallback_blocks:
            ready_map = {u: readiness[u] for u in order[:bounds[b]]}
            b_times = _schedule_block_indexed(
                ig, block, ready_map,
                release if sequential_blocks else 0,
            )[0]
            block_end = release
            for i in block:
                t = b_times[i]
                st_l[i], fo_l[i], lo_l[i] = t
                code = kind_code[i]
                if code == _K_COMP:
                    readiness[i] = t.lo
                    if t.lo > block_end:
                        block_end = t.lo
                    if t.lo > makespan:
                        makespan = t.lo
                elif code == _K_BUFFER:
                    readiness[i] = t.st
                    if t.st > makespan:
                        makespan = t.st
                elif code == _K_SOURCE:
                    readiness[i] = 0
                else:
                    readiness[i] = t.lo
            release = block_end
            continue

        rel = release if sequential_blocks else 0
        block_end = release

        for v in block:
            code = kind_code[v]
            if code == _K_COMP:
                in_fo = 0
                in_lo = 0
                pin = in_pa[in_ptr[v]:in_ptr[v + 1]]
                for u in pin:
                    f = fo_l[u]
                    if f > in_fo:
                        in_fo = f
                    f = lo_l[u]
                    if f > in_lo:
                        in_lo = f
                m0 = mem_ptr[v]
                m1 = mem_ptr[v + 1]
                if m0 != m1 or not pin:  # reads global memory
                    base = rel
                    for u in mem_pa[m0:m1]:
                        r = readiness[u]
                        if r > base:
                            base = r
                    fov = (base if base > in_fo else in_fo) + lat_fo_l[v]
                    mem_la = base + mem_delta_l[v]
                    lov = (mem_la if mem_la > in_lo else in_lo) + lat_lo_l[v]
                    if pin:
                        stv = in_fo if in_fo > base else base
                    else:
                        stv = base
                else:
                    # no memory inputs implies in-block preds exist
                    fov = (in_fo if in_fo > rel else rel) + lat_fo_l[v]
                    lov = in_lo + lat_lo_l[v]
                    stv = in_fo
                readiness[v] = lov
                if lov > block_end:
                    block_end = lov
                if lov > makespan:
                    makespan = lov
            elif code == _K_SOURCE:
                stv, fov, lov = 0, 1, out_vol[v]
                readiness[v] = 0
            elif code == _K_BUFFER:
                stored = 0
                for u in in_pa[in_ptr[v]:in_ptr[v + 1]]:
                    r = readiness[u]
                    if r > stored:
                        stored = r
                for u in mem_pa[mem_ptr[v]:mem_ptr[v + 1]]:
                    r = readiness[u]
                    if r > stored:
                        stored = r
                stv, fov, lov = stored, stored + 1, stored + out_vol[v]
                readiness[v] = stv
                if stv > makespan:
                    makespan = stv
            else:  # sink
                fov = 0
                lov = 0
                for u in in_pa[in_ptr[v]:in_ptr[v + 1]]:
                    if fo_l[u] > fov:
                        fov = fo_l[u]
                    r = readiness[u]
                    if r > lov:
                        lov = r
                for u in mem_pa[mem_ptr[v]:mem_ptr[v + 1]]:
                    r = readiness[u]
                    if r > lov:
                        lov = r
                fov += 1
                lov += 1
                stv = fov - 1
                readiness[v] = lov

            st_l[v] = stv
            fo_l[v] = fov
            lo_l[v] = lov

        release = block_end

    schedule = StreamingSchedule(
        graph, num_pes, partition, makespan=makespan, order_idx=order,
        st_idx=st_l, fo_idx=fo_l, lo_idx=lo_l, const_idx=c_arr.tolist(),
        block_idx=blk, pe_idx=pe,
    )
    if size_buffers:
        fifos = buffer_sizes_numpy(
            schedule, ig, _shared=(blk_arr, eu, ev, hot, c_arr))
        if fifos is None:  # guard tripped (counted): exact path
            from .buffer_sizing import buffer_sizes_python

            fifos = buffer_sizes_python(schedule)
        schedule.fifo_src, schedule.fifo_dst, schedule.fifo_cap = fifos
    return schedule


# ----------------------------------------------------------------------
# Section 6 FIFO sizing
# ----------------------------------------------------------------------

def buffer_sizes_numpy(
    schedule,
    ig: "IndexedGraph",
    default_capacity: int = 1,
    *,
    _shared: tuple | None = None,
) -> tuple[list[int], list[int], list[int]] | None:
    """Batched Section 6 FIFO sizing; ``None`` when the overflow guard
    trips (caller reruns the exact path).

    Everything arithmetic — worst-arrival segment maxima, the
    ``ceil(slack * O / C)`` products, the clips — runs as one batched
    pass over all streaming edges of all blocks; only the bridge DFS is
    scalar (one flat pass, :func:`_stream_components`).  Returns the
    FIFO columns ``(src ids, dst ids, capacities)`` in the reference
    order (the serialized FIFO list is part of the byte-identity
    contract): blocks in order, each block's edges by member insertion
    order then CSR successor slot.

    ``_shared`` carries the block column, streaming-edge arrays,
    on-cycle mask and constants straight from
    :func:`schedule_sweep_numpy`, which has just derived them.
    """
    A = graph_arrays(ig)
    if A.oversized:
        count_fallback("core.buffer_sizes")
        return None
    if _shared is not None:
        blk_arr, eu, ev, hot, c_arr = _shared
    else:
        blk, _, members = schedule.partition.columns()
        blk_arr = np.asarray(blk, dtype=_I64)
        eu, ev = _stream_edges(A, blk_arr, members)
        hot = _stream_components(ig.n, eu, ev)[1]
        c_arr = np.asarray(schedule.const_idx, dtype=_I64)
    if eu.size == 0:
        return [], [], []
    fo_l, lo_l = schedule.fo_idx, schedule.lo_idx

    # overflow guard on the slack products (python ints, exact):
    # slack <= max_t + 1 and every multiplier is a volume <= max_v
    max_t = max(max(fo_l, default=0), max(lo_l, default=0))
    max_v = max(ig.out_vol, default=1)
    if (max_t + 1) * max(max_v, 1) >= _SAFE:
        count_fallback("core.buffer_sizes")
        return None

    fo = np.asarray(fo_l, dtype=_I64)
    lo = np.asarray(lo_l, dtype=_I64)
    st = np.asarray(schedule.st_idx, dtype=_I64)
    mem_ready = np.where(A.is_source, 0, np.where(A.is_buffer, st, lo))

    # worst arrival over *all* predecessors of each node: FO for
    # same-block computational preds, memory-readiness + 1 otherwise
    same_blk = (A.comp[A.pred_adj]
                & (blk_arr[A.pred_adj] == blk_arr[A.pred_dst]))
    arrival = np.where(same_blk, fo[A.pred_adj], mem_ready[A.pred_adj] + 1)
    worst = _segment_max(arrival, A.pred_ptr[:-1], np.diff(A.pred_ptr), 0)

    slack = worst[ev] - fo[eu]
    pos = hot[eu] & hot[ev] & (slack > 0)
    # ceil(slack / S_o(u)) with S_o(u) = C/O(u): the unreduced integers
    # give the same ceiling as the reference's Fraction, and the guard
    # above bounds slack * O
    space = np.full(eu.size, default_capacity, dtype=_I64)
    eu_pos = eu[pos]
    ov_u = A.out_vol[eu_pos]
    sp_pos = -(-slack[pos] * ov_u // c_arr[eu_pos])
    # reference clamp order: cap at the edge volume first, then floor
    sp_pos = np.maximum(np.minimum(sp_pos, ov_u), default_capacity)
    space[pos] = sp_pos
    return eu.tolist(), ev.tolist(), space.tolist()
