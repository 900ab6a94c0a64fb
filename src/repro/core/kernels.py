"""NumPy structure-of-arrays kernels for the scheduling core.

The pure-Python indexed pipeline (:mod:`repro.core.block_schedule`,
:mod:`repro.core.buffer_sizing`, the level recurrence in
:mod:`repro.core.indexed`) pays CPython interpreter dispatch per node
and per edge.  This module batches the same exact-integer arithmetic
over int64 arrays, following the ``bdf_vectorized3`` "per-object code
-> one structure-of-arrays module" rewrite pattern:

* the Section 4.2 level recurrence ``L(v)`` as per-generation
  ``maximum.reduceat`` sweeps over the CSR predecessor arrays;
* the cg3 graph fingerprint: hashed 1-WL rounds as whole-array uint64
  arithmetic (per-node neighbour sums are differences of one wrapping
  prefix sum over the CSR slots) plus the final canonical sort — the
  same :func:`graph_arrays` mirror the streaming candidates reuse, so a
  cold request builds it once;
* per-WCC Theorem-4.1 constants from one union-find pass over the
  streaming edges, and the Section 5.1 ``ST``/``FO``/``LO`` block
  recurrences with every per-node quantity (latencies, memory
  deltas, interval Fractions, edge classes) precomputed as one
  vectorized pass — the remaining propagation along topo order is a
  dependence chain, so it runs as a lean scalar sweep over the
  precomputed arrays, and the ``TaskTimes``/dict outputs are built in
  bulk afterwards (``map``/``dict(zip)``) instead of per node;
* Section 6 FIFO sizing as batched per-edge arithmetic across all
  blocks at once (worst-arrival segment maxima, one vectorized
  ceiling division, one clip); only the bridge DFS that finds the
  on-cycle node sets stays scalar, as a single flat-array pass over
  all blocks together.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable

import numpy as np

from . import graph as _graph
from .backend import count_fallback
from .block_schedule import (
    _ONE,
    BlockSchedule,
    TaskTimes,
    _schedule_block_indexed,
)
from .node_types import NodeKind
from .streaming import StreamingIntervals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .indexed import IndexedGraph
    from .partition import Partition
    from .scheduler import StreamingSchedule

__all__ = [
    "graph_arrays",
    "levels_numpy",
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
        "kind_code", "e_src", "pred_dst", "topo", "topo_pos", "gen",
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
        self.gen = None  #: Kahn generation per node, lazy (levels kernel)


def graph_arrays(ig: "IndexedGraph") -> _Arrays:
    """The (cached) structure-of-arrays mirror of ``ig``."""
    cache = ig._np_cache
    if cache is None:
        cache = ig._np_cache = _Arrays(ig)
    return cache


class _PartArrays:
    """Partition-derived index arrays, cached on the Partition object.

    A partition is immutable once built, and the service/portfolio/bench
    paths re-analyze the same partition many times (variant racing,
    backend comparisons, re-sizing after volume updates), so everything
    that depends only on (partition, graph topology) is derived once per
    pair: the members/rank/block arrays, the streaming-edge arrays in
    reference order, and the on-cycle ("hot") node mask — task times
    never influence which edges lie on undirected cycles.
    """

    __slots__ = (
        "blk", "blk_arr", "rank_arr", "members_topo", "members_comp",
        "covered", "stream_eu", "stream_ev", "hot",
        "cm_idx", "cm_blk", "cm_bounds", "members_comp_topo",
        "analysis",
    )

    def __init__(self, ig: "IndexedGraph", partition: "Partition",
                 A: _Arrays) -> None:
        n = ig.n
        index, comp = ig.index, ig.comp
        nb = partition.num_blocks
        blk = [-1] * n
        rank = [0] * n
        members_comp: list[list[int]] = [[] for _ in range(nb)]
        for v, b in partition.block_of.items():
            i = index[v]
            blk[i] = b
            if comp[i]:
                mc = members_comp[b]
                rank[i] = len(mc)
                mc.append(i)
        self.blk = blk
        self.blk_arr = blk_arr = np.asarray(blk, dtype=_I64)
        self.rank_arr = np.asarray(rank, dtype=_I64)
        self.members_comp = members_comp
        ids = np.nonzero(blk_arr >= 0)[0]
        self.covered = int(ids.size)
        order = np.lexsort((A.topo_pos[ids], blk_arr[ids]))
        sorted_ids = ids[order]
        bc = np.bincount(blk_arr[ids], minlength=nb)
        bounds = np.concatenate(([0], np.cumsum(bc)))
        self.members_topo = [
            sorted_ids[bounds[i]:bounds[i + 1]].tolist() for i in range(nb)
        ]
        # computational members only, same (block, topo) order: the
        # interval views and WCC renumbering range over exactly these
        comp_sel = A.comp[sorted_ids]
        self.cm_idx = cm_idx = sorted_ids[comp_sel]
        self.cm_blk = blk_arr[cm_idx]
        cmc = np.bincount(self.cm_blk, minlength=nb)
        self.cm_bounds = cm_bounds = np.concatenate(([0], np.cumsum(cmc)))
        self.members_comp_topo = [
            cm_idx[cm_bounds[i]:cm_bounds[i + 1]].tolist() for i in range(nb)
        ]
        # streaming edges (comp-to-comp, same block) in reference order:
        # blocks ascending, producer's insertion rank, then CSR slot
        mask = (A.comp[A.e_src] & A.comp[A.succ_adj]
                & (blk_arr[A.e_src] == blk_arr[A.succ_adj]))
        eu = A.e_src[mask]
        ev = A.succ_adj[mask]
        order = np.lexsort((self.rank_arr[eu], blk_arr[eu]))
        self.stream_eu = eu = eu[order]
        self.stream_ev = ev = ev[order]
        self.hot = _hot_nodes(n, eu, ev, blk_arr[eu], nb)
        self.analysis: "_SweepCache | None" = None  # built lazily


def _partition_arrays(
    ig: "IndexedGraph", partition: "Partition", A: _Arrays
) -> _PartArrays:
    cache = getattr(partition, "_kernel_cache", None)
    if cache is not None and cache[0] is ig:
        return cache[1]
    P = _PartArrays(ig, partition, A)
    try:
        partition._kernel_cache = (ig, P)
    except Exception:  # pragma: no cover - slotted/frozen partitions
        pass
    return P


def _generations(ig: "IndexedGraph", A: _Arrays) -> np.ndarray:
    """Kahn generation index of every node (longest-path depth).

    One O(V+E) pass over the CSR arrays in topo order, memoized on the
    array cache.
    """
    if A.gen is None:
        pp, pa = ig.pred_ptr, ig.pred_adj
        gen = [0] * ig.n
        for v in ig.topo:
            best = -1
            for j in range(pp[v], pp[v + 1]):
                g = gen[pa[j]]
                if g > best:
                    best = g
            gen[v] = best + 1
        A.gen = np.asarray(gen, dtype=_I64)
    return A.gen


def _ragged_gather(ptr: np.ndarray, rows: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices into a CSR value array for a batch of rows.

    Returns ``(flat_idx, row_starts, counts)``: ``flat_idx`` addresses
    every CSR slot of every requested row, concatenated in row order;
    ``row_starts`` delimits the segments (for ``maximum.reduceat``).
    """
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=_I64), np.zeros(len(rows), dtype=_I64),
                counts)
    row_starts = np.zeros(len(rows), dtype=_I64)
    np.cumsum(counts[:-1], out=row_starts[1:])
    flat_idx = np.arange(total, dtype=_I64) - np.repeat(row_starts, counts)
    flat_idx += np.repeat(starts, counts)
    return flat_idx, row_starts, counts


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
# Section 4.2 levels
# ----------------------------------------------------------------------

def levels_numpy(ig: "IndexedGraph", den: int, *, force: bool = False
                 ) -> list[int] | None:
    """``L(v)`` numerators over the common denominator, vectorized.

    ``den`` is the precomputed rate denominator (the lcm scan is shared
    with the pure-Python path).  Returns the numerator list exactly
    matching ``IndexedGraph._compute_levels``, or ``None`` when the
    caller should use the pure-Python loop instead — either the int64
    overflow guard tripped (counted) or, unless ``force``, the DAG is
    too narrow for per-generation sweeps to pay off (a heuristic, not a
    fallback: both paths are exact).
    """
    n = ig.n
    if n == 0:
        return []
    A = graph_arrays(ig)
    if A.oversized:
        count_fallback("core.levels")
        return None
    # overflow guard: every numerator is bounded by (depth+1) terms of
    # at most den * max_out each
    max_out = max(int(A.out_vol.max()), 1)
    if den >= _C_SAFE or den * max_out * (n + 1) >= _SAFE:
        count_fallback("core.levels")
        return None
    # narrow-DAG heuristic: per-generation arrays only pay off when the
    # average generation is wide; probe entry width before committing to
    # the O(V+E) generation scan
    if not force and len(ig.entries) < 32:
        return None
    gen = _generations(ig, A)
    depth = int(gen.max()) + 1
    if not force and n < depth * 24:
        return None
    ups = (~A.is_source) & (A.in_vol > 0) & (A.out_vol > A.in_vol)
    term = np.full(n, den, dtype=_I64)
    term[ups] = A.out_vol[ups] * den // A.in_vol[ups]
    num = np.zeros(n, dtype=_I64)
    order = A.topo[np.argsort(gen[A.topo], kind="stable")]
    bounds = np.searchsorted(gen[order], np.arange(depth + 1))
    for g in range(depth):
        rows = order[bounds[g]:bounds[g + 1]]
        flat, row_starts, counts = _ragged_gather(A.pred_ptr, rows)
        best = _segment_max(num[A.pred_adj[flat]], row_starts, counts, 0)
        vals = term[rows] + best
        vals[counts == 0] = den  # entry nodes: L = D (one full term)
        num[rows] = vals
    return num.tolist()


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

def _wcc_constants(
    ig: "IndexedGraph", A: _Arrays, eu: np.ndarray, ev: np.ndarray
) -> tuple[list[int], list[int]]:
    """Per-node Theorem-4.1 constant ``C`` over the streaming WCCs.

    ``eu``/``ev`` are the streaming (comp-to-comp, same-block) edges;
    components come from a python union-find; ``C`` is the
    per-component max of ``max(I, O, 1)``.  Returns the per-node
    constant (0 for passive nodes) and the per-node WCC label (-1 for
    passive nodes).  Because
    streaming edges never cross blocks, these global components are
    exactly the per-block components ``_block_constants`` finds, and
    the label values are arbitrary (the intervals view renumbers by
    first-seen member).
    """
    n = ig.n
    top = np.maximum(np.maximum(A.in_vol, A.out_vol), 1)
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(eu.tolist(), ev.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    top_l = top.tolist()
    comp = ig.comp
    roots = [find(v) if comp[v] else -1 for v in range(n)]
    cmax: dict[int, int] = {}
    for v, r in enumerate(roots):
        if r >= 0:
            t = top_l[v]
            if cmax.get(r, 0) < t:
                cmax[r] = t
    const = [cmax[r] if r >= 0 else 0 for r in roots]
    return const, roots


def _fraction_lists(
    cc: np.ndarray,
    vol: np.ndarray,
    sel: np.ndarray,
    fraction_memo: dict,
) -> list[Fraction | None]:
    """Per-node ``Fraction(C, vol)`` for the selected nodes, built once
    per unique (C, vol) pair.  ``cc`` must already be bounded < 2^31
    (the caller zeroes fallen WCCs and fills them on the exact path)."""
    out: list[Fraction | None] = [None] * len(cc)
    idx = np.nonzero(sel)[0]
    if idx.size == 0:
        return out
    codes = cc[idx] * _C_SAFE + vol[idx]  # C < 2^31 and vol <= C < 2^31
    # sort-based unique: the hash-based np.unique is slower for the few
    # distinct (C, vol) pairs a real graph has
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    starts = np.nonzero(np.concatenate(([True], sc[1:] != sc[:-1])))[0]
    fracs = []
    for code in sc[starts].tolist():
        c, v = divmod(code, _C_SAFE)
        key = (c, v)
        f = fraction_memo.get(key)
        if f is None:
            f = fraction_memo[key] = Fraction(c, v)
        fracs.append(f)
    inv = np.zeros(idx.size, dtype=_I64)
    inv[starts[1:]] = 1
    inv = np.cumsum(inv)
    out_arr = np.empty(len(cc), dtype=object)
    out_arr[idx[order]] = np.asarray(fracs, dtype=object)[inv]
    return out_arr.tolist()


class _SweepCache:
    """Time-independent products of one (graph, partition) analysis.

    Everything ``schedule_sweep_numpy`` derives before touching task
    times — the Theorem-4.1 constants, Section-5.1 latencies, interval
    Fractions, per-node predecessor splits, interval views and FIFO
    edge metadata — is a pure function of the graph and the partition,
    so it is computed once and cached next to :class:`_PartArrays`
    (same ``ig``-identity key: a volume update builds a new graph and
    misses).  Repeat analyses of the same pair (portfolio racing,
    re-sizing, backend comparisons, benchmarks) then run only the
    scalar state recurrence and the per-call dict assembly.
    """

    __slots__ = (
        "const", "wcc_root", "unsafe_wccs", "fallback_blocks",
        "rows", "member_names", "fraction_memo",
        "block_si", "block_so", "iviews", "const_idx", "pe_pairs",
        "edge_names", "c_eu", "ov_eu",
    )

    def __init__(self, ig: "IndexedGraph", A: _Arrays, P: _PartArrays,
                 partition: "Partition") -> None:
        n = ig.n
        names = ig.names
        names_get = names.__getitem__
        nb = partition.num_blocks
        const, wcc_root = _wcc_constants(ig, A, P.stream_eu, P.stream_ev)
        self.const = const
        self.wcc_root = wcc_root
        c_arr = np.asarray(const, dtype=_I64)

        # per-WCC overflow guard on the latency numerators: numerators
        # are (I-O)*C and (I-1)*C with I, O <= C inside the WCC (C is
        # the WCC max of max(I, O, 1)), so C < 2^31 bounds every product
        if const and max(const) >= _C_SAFE:
            safe_node = [c < _C_SAFE for c in const]
            self.unsafe_wccs = {
                wcc_root[i] for i in range(n) if not safe_node[i]
            }
            cc = np.where(np.asarray(safe_node, dtype=bool), c_arr, 0)
        else:
            self.unsafe_wccs = set()
            cc = c_arr
        self.fallback_blocks = frozenset(
            b for b, members in enumerate(P.members_topo)
            if self.unsafe_wccs
            and any(wcc_root[i] in self.unsafe_wccs for i in members)
        )

        # ---- vectorized per-node latencies and memory deltas ----------
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

        self.fraction_memo = {}
        si_f = _fraction_lists(cc, iv, cm, self.fraction_memo)
        so_f = _fraction_lists(
            cc, ov, A.comp & (ov > 0) & (cc > 0), self.fraction_memo)
        # per-node interval entries for the bulk dict builds: buffers
        # carry 1/1 on both sides, sources only on the output side
        si_full = list(si_f)
        so_full = list(so_f)
        for i in np.nonzero(A.is_buffer)[0].tolist():
            si_full[i] = _ONE
            so_full[i] = _ONE
        for i in np.nonzero(A.is_source)[0].tolist():
            so_full[i] = _ONE

        # in-block-computational flag per CSR predecessor slot: decides
        # whether a predecessor feeds the streaming FO/LO maxima or the
        # memory-readiness base.  CSR slots are grouped by consumer, so
        # filtering the adjacency by the flag keeps per-node runs
        # contiguous: each node's pred split is a pair of list slices.
        blk_arr = P.blk_arr
        ibc = (A.comp[A.pred_adj]
               & (blk_arr[A.pred_adj] == blk_arr[A.pred_dst]))
        in_pa = A.pred_adj[ibc].tolist()
        mem_pa = A.pred_adj[~ibc].tolist()
        in_ptr = np.concatenate(([0], np.cumsum(
            np.bincount(A.pred_dst[ibc], minlength=n)))).tolist()
        mem_ptr = np.concatenate(([0], np.cumsum(
            np.bincount(A.pred_dst[~ibc], minlength=n)))).tolist()

        # ---- packed sweep rows: one tuple per node, in sweep order ----
        # (node, kind, FO/LO latencies, memory delta, out volume,
        #  in-block streaming preds, memory preds, reads-memory flag)
        kind_code = A.kind_code
        out_vol_l = ig.out_vol
        si_get = si_full.__getitem__
        so_get = so_full.__getitem__
        kc_get = kind_code.__getitem__
        lf_get = lat_fo_l.__getitem__
        ll_get = lat_lo_l.__getitem__
        md_get = mem_delta_l.__getitem__
        ov_get = out_vol_l.__getitem__
        rows: list[list[tuple]] = []
        member_names: list[list[Hashable]] = []
        block_si: list[dict] = []
        block_so: list[dict] = []
        for members in P.members_topo:
            pin_col = [in_pa[in_ptr[v]:in_ptr[v + 1]] for v in members]
            pmem_col = [mem_pa[mem_ptr[v]:mem_ptr[v + 1]] for v in members]
            hm_col = [bool(pm) or not pi
                      for pi, pm in zip(pin_col, pmem_col)]
            rows.append(list(zip(
                members, map(kc_get, members), map(lf_get, members),
                map(ll_get, members), map(md_get, members),
                map(ov_get, members), pin_col, pmem_col, hm_col,
            )))
            mnames = list(map(names_get, members))
            member_names.append(mnames)
            block_si.append({
                nm: f for nm, f in zip(mnames, map(si_get, members))
                if f is not None
            })
            block_so.append({
                nm: f for nm, f in zip(mnames, map(so_get, members))
                if f is not None
            })
        self.rows = rows
        self.member_names = member_names
        self.block_si = block_si
        self.block_so = block_so

        # ---- interval views (undefined for fallback blocks: those get
        # the reference view per call) --------------------------------
        wv_l, maxima = _intervals_batch(P, wcc_root, c_arr, nb)
        cmb = P.cm_bounds.tolist()
        si_fget = si_f.__getitem__
        so_fget = so_f.__getitem__
        iviews = []
        for b in range(nb):
            mc = P.members_comp_topo[b]
            mcn = list(map(names_get, mc))
            iviews.append(StreamingIntervals(
                {nm: f for nm, f in zip(mcn, map(so_fget, mc))
                 if f is not None},
                {nm: f for nm, f in zip(mcn, map(si_fget, mc))
                 if f is not None},
                dict(zip(mcn, wv_l[cmb[b]:cmb[b + 1]])),
                maxima[b],
            ))
        self.iviews = iviews

        comp_l = ig.comp
        blk_l = P.blk
        self.const_idx: list[int | None] = [
            const[i] if comp_l[i] and blk_l[i] >= 0 else None
            for i in range(n)
        ]
        self.pe_pairs = [
            (v, pe) for bl in partition.blocks for pe, v in enumerate(bl)
        ]
        # FIFO sizing metadata per streaming edge (reference order)
        eu, ev = P.stream_eu, P.stream_ev
        self.edge_names = list(zip(
            map(names_get, eu.tolist()), map(names_get, ev.tolist())))
        self.c_eu = c_arr[eu]
        self.ov_eu = A.out_vol[eu]


def _sweep_cache(ig: "IndexedGraph", A: _Arrays, P: _PartArrays,
                 partition: "Partition") -> _SweepCache:
    if P.analysis is None:
        P.analysis = _SweepCache(ig, A, P, partition)
    return P.analysis


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
    names = ig.names

    P = _partition_arrays(ig, partition, A)
    members_by_block = P.members_topo
    SC = _sweep_cache(ig, A, P, partition)
    if SC.unsafe_wccs:
        count_fallback("core.block_sweep", len(SC.unsafe_wccs))
    kind_code = A.kind_code
    fallback_blocks = SC.fallback_blocks

    # ---- the sweep (python-int state: accumulation cannot overflow) ---
    st_l = [0] * n
    fo_l = [0] * n
    lo_l = [0] * n
    readiness = [0] * n  #: node_ready(u) once u's block reached it
    fallback_results: dict[int, tuple] = {}
    release = 0
    makespan = 0

    for b, rws in enumerate(SC.rows):
        # a block touching a fallen WCC is recomputed on the exact
        # reference path; the python-int `readiness` doubles as `ready`
        if b in fallback_blocks:
            members = members_by_block[b]
            ready_map: dict[int, int] = {}
            for mb in members_by_block[:b]:
                for u in mb:
                    ready_map[u] = readiness[u]
            b_times, b_si, b_so, iview = _schedule_block_indexed(
                ig, members, ready_map,
                release=release if sequential_blocks else 0,
                fraction_memo=SC.fraction_memo,
            )
            fallback_results[b] = (b_times, b_si, b_so, iview)
            block_end = release
            for i in members:
                t = b_times[i]
                st_l[i], fo_l[i], lo_l[i] = t.st, t.fo, t.lo
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

        for v, code, lf, ll, md, ovv, pin, pmem, hm in rws:
            if code == _K_COMP:
                in_fo = 0
                in_lo = 0
                for u in pin:
                    f = fo_l[u]
                    if f > in_fo:
                        in_fo = f
                    f = lo_l[u]
                    if f > in_lo:
                        in_lo = f
                if hm:
                    base = rel
                    for u in pmem:
                        r = readiness[u]
                        if r > base:
                            base = r
                    fov = (base if base > in_fo else in_fo) + lf
                    mem_la = base + md
                    lov = (mem_la if mem_la > in_lo else in_lo) + ll
                    if pin:
                        stv = in_fo if in_fo > base else base
                    else:
                        stv = base
                else:
                    # no memory inputs implies in-block preds exist
                    fov = (in_fo if in_fo > rel else rel) + lf
                    lov = in_lo + ll
                    stv = in_fo
                readiness[v] = lov
                if lov > block_end:
                    block_end = lov
                if lov > makespan:
                    makespan = lov
            elif code == _K_SOURCE:
                stv, fov, lov = 0, 1, ovv
                readiness[v] = 0
            elif code == _K_BUFFER:
                stored = 0
                for u in pin:
                    r = readiness[u]
                    if r > stored:
                        stored = r
                for u in pmem:
                    r = readiness[u]
                    if r > stored:
                        stored = r
                stv, fov, lov = stored, stored + 1, stored + ovv
                readiness[v] = stv
                if stv > makespan:
                    makespan = stv
            else:  # sink
                fov = 0
                lov = 0
                for u in pin:
                    if fo_l[u] > fov:
                        fov = fo_l[u]
                    r = readiness[u]
                    if r > lov:
                        lov = r
                for u in pmem:
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

    # ---- bulk output construction (C-level map/zip, not per node) -----
    tt_all = list(map(TaskTimes, st_l, fo_l, lo_l))
    if P.covered == n:
        times_idx: list[TaskTimes | None] = tt_all
    else:
        times_idx = [None] * n
        for members in members_by_block:
            for i in members:
                times_idx[i] = tt_all[i]
    const_idx = SC.const_idx

    times: dict[Hashable, TaskTimes] = {}
    si: dict[Hashable, Fraction] = {}
    so: dict[Hashable, Fraction] = {}
    block_schedules: list[BlockSchedule] = []
    tt_get = tt_all.__getitem__
    for b, members in enumerate(members_by_block):
        fb = fallback_results.get(b)
        if fb is not None:
            b_times, b_si, b_so, iview = fb
            block_times = {names[i]: t for i, t in b_times.items()}
            block_si = {names[i]: s for i, s in b_si.items()}
            block_so = {names[i]: s for i, s in b_so.items()}
        else:
            block_times = dict(zip(SC.member_names[b], map(tt_get, members)))
            block_si = dict(SC.block_si[b])
            block_so = dict(SC.block_so[b])
            iview = SC.iviews[b]
        block_schedules.append(
            BlockSchedule(block_times, block_si, block_so, iview))
        times.update(block_times)
        si.update(block_si)
        so.update(block_so)
    pe_of: dict[Hashable, int] = dict(SC.pe_pairs)

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
        sizes = buffer_sizes_numpy(
            schedule, ig,
            _shared=(P, SC, fo_l, lo_l, st_l),
        )
        if sizes is None:  # guard tripped (counted): exact path
            from .buffer_sizing import buffer_sizes_python

            sizes = buffer_sizes_python(schedule)
        schedule.buffer_sizes = sizes
    return schedule


def _intervals_batch(
    P: _PartArrays,
    wcc_root: list[int],
    c_arr: np.ndarray,
    nb: int,
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Block-local first-seen WCC ids for every computational member.

    One global renumbering pass replacing a per-block scan: WCCs never
    cross blocks, so grouping ``P.cm_idx`` (comp members, block-major
    topo order) by global WCC label and ranking the groups by first
    occurrence yields exactly the reference's per-block first-seen ids.
    Returns the id per ``cm_idx`` slot (slice with ``P.cm_bounds``) and
    the per-block WCC maxima tuples.
    """
    cm_idx = P.cm_idx
    if cm_idx.size == 0:
        return [], [()] * nb
    r = np.asarray(wcc_root, dtype=_I64)[cm_idx]
    uniq, first_idx, inv = np.unique(
        r, return_index=True, return_inverse=True)
    # groups in first-seen order are block-contiguous (cm_idx is
    # block-major), so rank-within-block = global position - block start
    grp_order = np.argsort(first_idx, kind="stable")
    gblk = P.cm_blk[first_idx]
    runs = np.concatenate(
        ([0], np.cumsum(np.bincount(gblk, minlength=nb))))
    grank = np.empty(uniq.size, dtype=_I64)
    grank[grp_order] = (np.arange(uniq.size, dtype=_I64)
                        - runs[gblk[grp_order]])
    gmax = c_arr[cm_idx[first_idx]][grp_order].tolist()
    runs_l = runs.tolist()
    maxima = [tuple(gmax[runs_l[b]:runs_l[b + 1]]) for b in range(nb)]
    return grank[inv].tolist(), maxima


# ----------------------------------------------------------------------
# Section 6 FIFO sizing
# ----------------------------------------------------------------------

def _hot_nodes(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    blk_e: np.ndarray,
    num_blocks: int,
) -> np.ndarray:
    """Mask of nodes incident to a non-bridge streaming edge.

    Blocks with fewer than 3 streaming edges cannot close an undirected
    cycle and are excluded up front (the reference skips its DFS there
    too).  The remaining blocks form one disjoint union, so a single
    flat-array low-link DFS over all of them finds exactly the same
    per-block bridge sets as the reference's per-block passes — bridges
    are a graph invariant, independent of traversal order.
    """
    hot = np.zeros(n, dtype=bool)
    if eu.size == 0:
        return hot
    cnt = np.bincount(blk_e, minlength=num_blocks)
    keep = cnt[blk_e] >= 3
    if not keep.any():
        return hot
    ku = eu[keep]
    kv = ev[keep]
    ids = np.unique(np.concatenate((ku, kv)))
    m = int(ids.size)
    lu = np.searchsorted(ids, ku)
    lv = np.searchsorted(ids, kv)
    ends = np.concatenate((lu, lv))
    deg = np.bincount(ends, minlength=m)
    uptr = np.concatenate(([0], np.cumsum(deg)))
    uadj_l = np.concatenate((lv, lu))[
        np.argsort(ends, kind="stable")].tolist()
    uptr_l = uptr.tolist()
    disc = [-1] * m
    low = [0] * m
    par = [-1] * m
    pos = uptr_l[:-1]  # slicing copies: per-node adjacency resume cursor
    hot_l = [False] * m
    clock = 0
    for root in range(m):
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
                if dw < 0:  # tree edge: descend
                    par[w] = v
                    disc[w] = low[w] = clock
                    clock += 1
                    pos[v] = j
                    v = w
                    j = uptr_l[w]
                    end = uptr_l[w + 1]
                elif w != par[v]:
                    # non-tree edge: on a cycle by definition (the
                    # underlying graph is simple, so the single parent
                    # occurrence is exactly the tree edge)
                    hot_l[v] = True
                    hot_l[w] = True
                    if dw < low[v]:
                        low[v] = dw
            else:  # v exhausted: retreat to its parent
                p = par[v]
                if p < 0:
                    break
                lv_ = low[v]
                if lv_ < low[p]:
                    low[p] = lv_
                if lv_ <= disc[p]:  # tree edge (p, v) is not a bridge
                    hot_l[p] = True
                    hot_l[v] = True
                v = p
                j = pos[p]
                end = uptr_l[p + 1]
    hot[ids[np.asarray(hot_l, dtype=bool)]] = True
    return hot


def buffer_sizes_numpy(
    schedule,
    ig: "IndexedGraph",
    default_capacity: int = 1,
    *,
    _shared: tuple | None = None,
) -> dict[tuple[Hashable, Hashable], int] | None:
    """Batched Section 6 FIFO sizing; ``None`` when the overflow guard
    trips (caller reruns the exact path).

    Everything arithmetic — worst-arrival segment maxima, the
    ``ceil(slack * O / C)`` products, the clips — runs as one batched
    pass over all streaming edges of all blocks; only the bridge DFS is
    scalar (one flat pass, :func:`_hot_nodes`).  The result dict's
    insertion order matches the reference exactly (the serialized FIFO
    list is part of the byte-identity contract): blocks in order, each
    block's edges by member insertion order then CSR successor slot.

    ``_shared`` carries the partition arrays, streaming-edge arrays and
    ST/FO/LO lists straight from :func:`schedule_sweep_numpy` so the
    combined pipeline extracts them once.
    """
    A = graph_arrays(ig)
    if A.oversized:
        count_fallback("core.buffer_sizes")
        return None
    names = ig.names

    if _shared is not None:
        P, SC, fo_l, lo_l, st_l = _shared
    else:
        P = _partition_arrays(ig, schedule.partition, A)
        SC = _sweep_cache(ig, A, P, schedule.partition)
        times = schedule.times_idx
        if times is None:
            times = [schedule.times.get(name) for name in names]
        fo_l = [t.fo if t is not None else 0 for t in times]
        lo_l = [t.lo if t is not None else 0 for t in times]
        st_l = [t.st if t is not None else 0 for t in times]
    eu = P.stream_eu
    ev = P.stream_ev
    if eu.size == 0:
        return {}

    # overflow guard on the slack products (python ints, exact):
    # slack <= max_t + 1 and every multiplier is a volume <= max_v
    max_t = max(max(fo_l, default=0), max(lo_l, default=0))
    max_v = max(ig.out_vol, default=1)
    if (max_t + 1) * max(max_v, 1) >= _SAFE:
        count_fallback("core.buffer_sizes")
        return None

    blk_arr = P.blk_arr
    fo = np.asarray(fo_l, dtype=_I64)
    lo = np.asarray(lo_l, dtype=_I64)
    st = np.asarray(st_l, dtype=_I64)
    mem_ready = np.where(A.is_source, 0, np.where(A.is_buffer, st, lo))

    # worst arrival over *all* predecessors of each node: FO for
    # same-block computational preds, memory-readiness + 1 otherwise
    same_blk = (A.comp[A.pred_adj]
                & (blk_arr[A.pred_adj] == blk_arr[A.pred_dst]))
    arrival = np.where(same_blk, fo[A.pred_adj], mem_ready[A.pred_adj] + 1)
    worst = _segment_max(arrival, A.pred_ptr[:-1], np.diff(A.pred_ptr), 0)

    hot = P.hot
    slack = worst[ev] - fo[eu]
    pos = hot[eu] & hot[ev] & (slack > 0)
    # ceil(slack / S_o(u)) with S_o(u) = C/O(u): the cached unreduced
    # integers give the same ceiling as the reference's Fraction (or its
    # const_idx shortcut), and the guard above bounds slack * O
    space = np.full(eu.size, default_capacity, dtype=_I64)
    ov_u = SC.ov_eu[pos]
    sp_pos = -(-slack[pos] * ov_u // SC.c_eu[pos])
    # reference clamp order: cap at the edge volume first, then floor
    sp_pos = np.maximum(np.minimum(sp_pos, ov_u), default_capacity)
    space[pos] = sp_pos

    return dict(zip(SC.edge_names, space.tolist()))
