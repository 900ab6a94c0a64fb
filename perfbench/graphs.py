"""Seeded task-graph documents for the benchmark, built without the
program under test.

The load generator must not import the package it measures: a change to
the package's own generators would otherwise change the benchmark's
inputs, and a change to its parser could hide behind a matching change
in the generator.  These builders produce the wire format the service
accepts (``canonical-task-graph`` version 1) from a ``random.Random``
stream alone, so the same seed yields byte-identical request lines on
every commit.

Two families, matching the shapes the service is sized for:

* ``layered`` — tasks dealt into layers of width 2..8; each reads one to
  three tasks of the previous layer and, with probability 0.15, one of
  an earlier layer (the undirected cycles the FIFO sizing pass exists
  for);
* ``serpar`` — recursive series/parallel composition: a block is a
  series of two blocks or a fork, two to four branches and a join.

Volumes follow the canonical rule: every producer feeding one consumer
emits the same volume (co-predecessors share a volume class), drawn
from powers of two in [8, 64]; the node kind then follows from the
input/output ratio.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

VOLUMES = (8, 16, 32, 64)


@dataclass
class Graph:
    """A generated graph: the wire document plus what the validator
    needs, keyed by the node names the document uses."""

    doc: dict
    names: list
    edges: list  #: (u, v) name pairs

    @property
    def n(self) -> int:
        return len(self.names)


def _layered_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    layers = [[0]]
    nxt = 1
    while nxt < n:
        rem = n - nxt
        width = 1 if rem == 1 else min(rng.randint(2, 8), rem - 1)
        layers.append(list(range(nxt, nxt + width)))
        nxt += width
    edges = []
    out_deg = [0] * n
    for li in range(1, len(layers)):
        prev, cur = layers[li - 1], layers[li]
        for v in cur:
            for u in rng.sample(prev, min(rng.randint(1, 3), len(prev))):
                edges.append((u, v))
                out_deg[u] += 1
            if li > 1 and rng.random() < 0.15:
                u = rng.choice(layers[rng.randrange(li - 1)])
                edges.append((u, v))
                out_deg[u] += 1
        for u in prev:
            if out_deg[u] == 0:
                edges.append((u, rng.choice(cur)))
                out_deg[u] += 1
    return edges


def _serpar_edges(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    edges: list[tuple[int, int]] = []
    count = 0

    def fresh() -> int:
        nonlocal count
        count += 1
        return count - 1

    def build(budget: int) -> tuple[int, int]:
        if budget <= 2:
            first = node = fresh()
            for _ in range(budget - 1):
                nxt = fresh()
                edges.append((node, nxt))
                node = nxt
            return first, node
        if budget >= 4 and rng.random() < 0.55:
            branches = min(rng.randint(2, 4), budget - 2)
            fork, join = fresh(), fresh()
            inner = budget - 2
            for i in range(branches):
                size = inner // branches + (1 if i < inner % branches else 0)
                entry, exit_ = build(max(1, size))
                edges.append((fork, entry))
                edges.append((exit_, join))
            return fork, join
        left = rng.randint(1, budget - 1)
        a_entry, a_exit = build(left)
        b_entry, b_exit = build(budget - left)
        edges.append((a_exit, b_entry))
        return a_entry, b_exit

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        build(n)
    finally:
        sys.setrecursionlimit(limit)
    return count, edges


def _volumes(n: int, edges: list[tuple[int, int]], rng: random.Random):
    """Canonical (input, output) volumes per node id."""
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        preds[v].append(u)
        succs[u].append(v)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ps in preds:
        for a, b in zip(ps, ps[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    indeg = [len(ps) for ps in preds]
    order = [i for i in range(n) if indeg[i] == 0]
    for u in order:  # Kahn: `order` grows while iterated
        for v in succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    class_volume: dict[int, int] = {}

    def volume_of(x: int) -> int:
        root = find(x)
        if root not in class_volume:
            class_volume[root] = rng.choice(VOLUMES)
        return class_volume[root]

    vols = [(0, 0)] * n
    for v in order:
        iv = volume_of(preds[v][0]) if preds[v] else rng.choice(VOLUMES)
        vols[v] = (iv, volume_of(v))
    return vols


def _kind(iv: int, ov: int) -> str:
    if iv == ov:
        return "elementwise"
    return "downsampler" if ov < iv else "upsampler"


def make_graph(family: str, n: int, rng: random.Random) -> Graph:
    """One ``family`` graph of about ``n`` tasks from ``rng``."""
    if family == "layered":
        edges = _layered_edges(n, rng)
    elif family == "serpar":
        n, edges = _serpar_edges(n, rng)
    else:
        raise ValueError(f"unknown family {family!r}")
    vols = _volumes(n, edges, rng)
    nodes = [
        {"name": i, "kind": _kind(iv, ov), "input_volume": iv,
         "output_volume": ov, "label": ""}
        for i, (iv, ov) in enumerate(vols)
    ]
    doc = {
        "format": "canonical-task-graph",
        "version": 1,
        "nodes": nodes,
        "edges": [[u, v] for u, v in edges],
    }
    return Graph(doc, list(range(n)), list(edges))


def renamed(graph: Graph, rng: random.Random) -> Graph:
    """An isomorphic copy: fresh string names, shuffled node and edge
    order.  Its fingerprint equals the original's; its document digest
    does not, so the service must remap a cached schedule onto it."""
    labels = list(range(graph.n))
    rng.shuffle(labels)
    tag = f"{rng.getrandbits(32):08x}"
    name = {old: f"t{tag}-{new}" for old, new in zip(graph.names, labels)}
    nodes = [dict(nd, name=name[nd["name"]]) for nd in graph.doc["nodes"]]
    rng.shuffle(nodes)
    edges = [(name[u], name[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    doc = dict(graph.doc, nodes=nodes, edges=[[u, v] for u, v in edges])
    return Graph(doc, [nd["name"] for nd in nodes], edges)
