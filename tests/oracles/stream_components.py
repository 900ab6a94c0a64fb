"""Two-pass oracle for the fused streaming-edge pass.

The numpy sweep once walked the streaming edges twice: a union-find for
the per-WCC Theorem-4.1 constants, then a low-link DFS over the blocks
with at least 3 streaming edges for the on-cycle ("hot") node mask used
by FIFO sizing.  :func:`repro.core.kernels._stream_components` does both
in one DFS; its constants, WCC partition and hot mask must match these
(``tests/test_properties.py``).  Test-only: nothing under ``repro``
imports it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wcc_constants", "hot_nodes"]


def wcc_constants(ig, eu, ev) -> tuple[list[int], list[int]]:
    """Per-node constant ``C`` (0 for passive nodes) and WCC root (-1
    for passive nodes): union-find over the streaming edges, then the
    per-component max of ``max(I, O, 1)``."""
    n = ig.n
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(list(eu), list(ev)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comp = ig.comp
    roots = [find(v) if comp[v] else -1 for v in range(n)]
    cmax: dict[int, int] = {}
    for v, r in enumerate(roots):
        if r >= 0:
            t = max(ig.in_vol[v], ig.out_vol[v], 1)
            if cmax.get(r, 0) < t:
                cmax[r] = t
    const = [cmax[r] if r >= 0 else 0 for r in roots]
    return const, roots


def hot_nodes(n: int, eu, ev, blk_e, num_blocks: int) -> np.ndarray:
    """Mask of nodes incident to a non-bridge streaming edge.

    Blocks with fewer than 3 streaming edges cannot close an undirected
    cycle and are skipped; the rest get one flat low-link DFS that marks
    the ends of every non-tree edge and of every tree edge ``(p, v)``
    with ``low[v] <= disc[p]``.
    """
    eu, ev, blk_e = np.asarray(eu), np.asarray(ev), np.asarray(blk_e)
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
    uptr = np.concatenate(([0], np.cumsum(deg))).tolist()
    uadj = np.concatenate((lv, lu))[np.argsort(ends, kind="stable")].tolist()
    disc = [-1] * m
    low = [0] * m
    par = [-1] * m
    pos = uptr[:-1]
    hot_l = [False] * m
    clock = 0
    for root in range(m):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        v, j, end = root, uptr[root], uptr[root + 1]
        while True:
            if j < end:
                w = uadj[j]
                j += 1
                dw = disc[w]
                if dw < 0:
                    par[w] = v
                    disc[w] = low[w] = clock
                    clock += 1
                    pos[v] = j
                    v, j, end = w, uptr[w], uptr[w + 1]
                elif w != par[v]:
                    hot_l[v] = hot_l[w] = True
                    low[v] = min(low[v], dw)
            else:
                p = par[v]
                if p < 0:
                    break
                low[p] = min(low[p], low[v])
                if low[v] <= disc[p]:
                    hot_l[p] = hot_l[v] = True
                v, j, end = p, pos[p], uptr[p + 1]
    hot[ids[np.asarray(hot_l, dtype=bool)]] = True
    return hot
