"""FIFO buffer sizing for deadlock-free pipelined execution (Section 6).

Streaming channels have finite buffer space and blocking-after-service
semantics (a write blocks while the FIFO is full).  An acyclic task graph
can still deadlock when the *undirected* version of a spatial block's
streaming subgraph contains a cycle: data racing down a short path fills
its FIFO while the long path has not delivered its first element yet
(Figure 9).  Deadlocks cannot involve buffered (memory-backed) edges, so
each spatial block is analyzed independently.

For a node ``v`` on an undirected cycle with more than one in-block
predecessor, each incident streaming edge ``(u, v)`` receives

    B(u, v) = ceil( (max_{(t,v)} arrival(t) - FO(u)) / S_o(u) )        (Eq. 5)

capped by the edge's data volume (there is never a reason to buffer more
than everything that will be sent).  ``arrival(t)`` is ``FO(t)`` for
in-block streaming predecessors, and the node's memory-readiness time
for cross-block/buffer inputs — those inputs cannot deadlock themselves
but *do* delay ``v``'s consumption of the streaming inputs.

Every streaming edge not involved in an undirected cycle keeps the
minimal capacity of 1: a deadlock needs a cycle in the blocked-on
relation, which is a subgraph of the undirected channel topology.

:func:`buffer_sizes_python` runs over the
:class:`~repro.core.indexed.IndexedGraph` CSR arrays with an iterative
bridge-finding DFS and exact integer ceiling divisions (``S_o(u) =
C/O(u)``, so ``ceil(slack / S_o)`` is ``ceil(slack * O(u) / C)``).  :func:`compute_buffer_sizes` runs the batched NumPy twin
(:func:`repro.core.kernels.buffer_sizes_numpy`) instead when ``numpy``
imports, and falls back to the pure-Python pass when its overflow guard
trips; there is no selector.  The original networkx implementation is
kept in ``tests/oracles/scheduler_reference.py`` as a test oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from . import backend
from .indexed import freeze
from .node_types import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import StreamingSchedule

__all__ = ["buffer_sizes_python", "compute_buffer_sizes"]


def _cycle_nodes_flat(
    nodes: Iterable[int], edges: list[tuple[int, int]]
) -> set[int]:
    """Endpoints of non-bridge edges, via one iterative low-link DFS.

    ``edges`` are undirected (the block's streaming topology is a simple
    graph: the underlying task graph is a DAG with no parallel edges, so
    skipping the single tree-parent per DFS child is sound).
    """
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[tuple[int, int]] = set()  #: normalized (min, max) pairs
    clock = 0
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack: list[tuple[int, int, Iterable[int]]] = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            descended = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(adj[w])))
                    descended = True
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            if not descended:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bridges.add((parent, v) if parent < v else (v, parent))
    on_cycle: set[int] = set()
    for u, v in edges:
        if ((u, v) if u < v else (v, u)) not in bridges:
            on_cycle.add(u)
            on_cycle.add(v)
    return on_cycle


def compute_buffer_sizes(
    schedule: "StreamingSchedule",
    default_capacity: int = 1,
) -> dict[tuple[Hashable, Hashable], int]:
    """Capacity (in elements) of every streaming FIFO channel.

    Returns a mapping from streaming edge to capacity; non-streaming
    edges are absent (they go through global memory).  Runs on the
    NumPy kernel when ``numpy`` imports and on
    :func:`buffer_sizes_python` otherwise (byte-identical results; see
    :mod:`repro.core.backend`).
    """
    ig = freeze(schedule.graph)
    fifos = None
    if backend.HAVE_NUMPY:
        from .kernels import buffer_sizes_numpy

        fifos = buffer_sizes_numpy(schedule, ig, default_capacity)
        # None: overflow guard tripped (counted), take the exact path
    if fifos is None:
        fifos = buffer_sizes_python(schedule, default_capacity)
    names = ig.names
    return {
        (names[u], names[v]): c for u, v, c in zip(*fifos)
    }


def buffer_sizes_python(
    schedule: "StreamingSchedule",
    default_capacity: int = 1,
) -> tuple[list[int], list[int], list[int]]:
    """:func:`compute_buffer_sizes` in exact pure-Python integers: the
    no-numpy path, the overflow fallback and the kernel-parity oracle.

    Returns the FIFO columns ``(src ids, dst ids, capacities)`` in
    reference order: blocks in order, each block's computational
    members in ``block_of`` insertion order, then CSR successor slots
    (the serialized FIFO list is part of the byte-identity contract).
    """
    ig = freeze(schedule.graph)
    comp, kinds, out_vol = ig.comp, ig.kinds, ig.out_vol
    sp, sa = ig.succ_ptr, ig.succ_adj
    pp, pa = ig.pred_ptr, ig.pred_adj
    blk, _, members_by_block = schedule.partition.columns()
    st, fo, lo = schedule.st_idx, schedule.fo_idx, schedule.lo_idx
    const = schedule.const_idx

    def memory_ready(u: int) -> int:
        if kinds[u] is NodeKind.SOURCE:
            return 0
        return st[u] if kinds[u] is NodeKind.BUFFER else lo[u]

    src: list[int] = []
    dst: list[int] = []
    cap: list[int] = []
    for b, members in enumerate(members_by_block):
        stream_edges = [
            (u, sa[j])
            for u in members
            for j in range(sp[u], sp[u + 1])
            if comp[sa[j]] and blk[sa[j]] == b
        ]
        if not stream_edges:
            continue
        for u, v in stream_edges:
            src.append(u)
            dst.append(v)
        if len(stream_edges) < 3:
            # an undirected cycle in a simple graph needs >= 3 edges, so
            # everything here is a bridge: minimal capacities, no DFS
            cap += [default_capacity] * len(stream_edges)
            continue
        hot = _cycle_nodes_flat(members, stream_edges)

        for u, v in stream_edges:
            if v not in hot or u not in hot:
                cap.append(default_capacity)
                continue
            # slowest arrival across all of v's inputs
            worst = 0
            for j in range(pp[v], pp[v + 1]):
                t = pa[j]
                if comp[t] and blk[t] == b:
                    arrival = fo[t]
                else:
                    # memory-backed input: first element readable right
                    # after the data is ready in global memory
                    arrival = memory_ready(t) + 1
                if arrival > worst:
                    worst = arrival
            slack = worst - fo[u]
            if slack <= 0:
                cap.append(default_capacity)
                continue
            # ceil(slack / S_o(u)) with S_o(u) = C/O(u) exactly; the
            # unreduced integers give the same ceiling as the Fraction
            space = -(-slack * out_vol[u] // const[u])
            if space > out_vol[u]:
                space = out_vol[u]
            cap.append(space if space > default_capacity else default_capacity)
    return src, dst, cap
