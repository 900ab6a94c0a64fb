"""Levels, work and critical paths (Section 4.2).

The *level* generalizes depth to streaming graphs: it measures the time the
last element leaving a source needs to traverse the graph, accounting for
upsampler nodes that must emit more than one element per input::

    L(v) = 1                                   if v has no parent
    L(v) = max(R(v), 1) + max_{(u,v)} L(u)     otherwise

The *work* of a node is ``W(v) = max(I(v), O(v))`` (its ideal isolated
execution time) and the graph work ``T_1 = sum_v W(v)`` equals the
sequential execution time on one PE.  The *critical path* (sum of works
along the heaviest path) is the classical non-streaming depth used by the
Scheduling Length Ratio of the NSTR baseline.

All of these are memoized on (or computed over) the frozen
:class:`~repro.core.indexed.IndexedGraph`, so repeated calls on one
graph — the portfolio races several schedulers over the same graph —
pay the traversal once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable

from .graph import CanonicalGraph
from .indexed import IndexedGraph, freeze

__all__ = [
    "node_levels",
    "num_levels",
    "total_work",
    "critical_path_length",
    "bottom_levels",
    "bottom_levels_idx",
]


def node_levels(graph: CanonicalGraph) -> dict[Hashable, Fraction]:
    """The level ``L(v)`` of every node (general canonical DAG form)."""
    return dict(freeze(graph).levels_by_name())


def num_levels(graph: CanonicalGraph) -> Fraction:
    """``L(G)`` — the maximum level over all vertices; 0 for empty graphs."""
    return freeze(graph).max_level()


def total_work(graph: CanonicalGraph) -> int:
    """``T_1`` — sum of node works (single-PE execution time)."""
    return graph.total_work()


def critical_path_length(graph: CanonicalGraph) -> int:
    """Longest path weighted by node work (non-streaming depth).

    This is the classical lower bound for buffered execution: a task can
    only start once all its predecessors have finished, so any path costs
    the sum of its works.
    """
    ig = freeze(graph)
    if ig.n == 0:
        return 0
    pp, pa, work = ig.pred_ptr, ig.pred_adj, ig.work
    best = [0] * ig.n
    out = 0
    for v in ig.topo:
        acc = 0
        for j in range(pp[v], pp[v + 1]):
            b = best[pa[j]]
            if b > acc:
                acc = b
        acc += work[v]
        best[v] = acc
        if acc > out:
            out = acc
    return out


def bottom_levels_idx(ig: IndexedGraph) -> list[int]:
    """Bottom level of each node id of a frozen view (see
    :func:`bottom_levels`), over the successor CSR."""
    sp, sa, work = ig.succ_ptr, ig.succ_adj, ig.work
    bl = [0] * ig.n
    for v in reversed(ig.topo):
        acc = 0
        for j in range(sp[v], sp[v + 1]):
            b = bl[sa[j]]
            if b > acc:
                acc = b
        bl[v] = work[v] + acc
    return bl


def bottom_levels(graph: CanonicalGraph) -> dict[Hashable, int]:
    """Bottom level of each node: ``bl(v) = W(v) + max_succ bl``.

    Used as the list-scheduling priority of the non-streaming baseline
    (CP/MISF-style, Section 7 "comparison metrics").
    """
    ig = freeze(graph)
    bl = bottom_levels_idx(ig)
    names = ig.names
    return {names[v]: bl[v] for v in reversed(ig.topo)}
