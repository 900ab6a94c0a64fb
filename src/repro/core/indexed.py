"""Flat, integer-indexed view of a canonical task graph — the hot-path IR.

Every scheduling and analysis pass used to re-walk the underlying
:class:`networkx.DiGraph` through per-node dict/hash lookups and redo
``topological_order()`` / ``node_levels()`` from scratch on each call.
:func:`freeze` performs that traversal *once* and lays the graph out in
contiguous Python lists indexed by a dense integer node id:

* ``names`` / ``index`` — the id <-> original-name bijection (ids follow
  node insertion order, so iteration order matches ``graph.nodes``);
* ``kinds`` / ``in_vol`` / ``out_vol`` / ``comp`` / ``work`` /
  ``labels`` — the :class:`~repro.core.node_types.NodeSpec` data the
  schedulers consume;
* ``pred_ptr``/``pred_adj`` and ``succ_ptr``/``succ_adj`` — CSR
  adjacency (successor order per node preserves edge insertion order,
  which the greedy partitioners rely on for deterministic tie-breaks);
* ``topo`` / ``topo_pos`` — the cached topological order and each
  node's position in it;
* ``entries`` / ``exits`` / ``num_tasks`` — the derived sets every
  analysis recomputed per call.

Both ways in share one assembly (:meth:`IndexedGraph._assemble`: the
generation-order Kahn sort, the acyclicity check, the CSR arrays):
``IndexedGraph(graph)`` reads a :class:`CanonicalGraph`'s columns, and
:mod:`repro.core.ingest` parses a wire document's columns straight into
it, so an :class:`IndexedGraph` can exist *without* a networkx-backed
graph behind it.  For such graphs the
``graph`` attribute is materialized lazily — code that only touches the
flat arrays (the partitioners, the block recurrences, buffer sizing,
the 1-WL fingerprint) never builds a networkx graph at all, while the
cold callers that genuinely need one (``graph.nx`` escape hatches)
trigger a one-time reconstruction.  To keep the scheduler stack source
compatible either way, the class also duck-types the *read-only*
``CanonicalGraph`` vocabulary (``spec``/``kind``/``nodes``/``edges``/
``topological_order``/``computational_nodes``/...) directly over the
arrays.

Derived quantities that need rational arithmetic (node levels, the
Section 4.2 ``L(v)`` recurrence) are memoized here as exact integers
over a single precomputed common denominator of the production rates —
the float projection used as a heap tie-break key is bit-identical to
``float(Fraction(...))`` of the legacy path because CPython rounds both
``int/int`` true division and ``Fraction -> float`` conversion
correctly.

The frozen view is cached on the :class:`CanonicalGraph` itself and
invalidated on mutation, so the portfolio racing several schedulers over
one graph pays the freeze exactly once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from typing import TYPE_CHECKING, Hashable, Iterator

from .node_types import (
    COMPUTATIONAL_KINDS,
    PASSIVE_KINDS,
    CanonicalityError,
    NodeKind,
    NodeSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import CanonicalGraph

__all__ = ["IndexedGraph", "freeze"]


class IndexedGraph:
    """Immutable flat-array mirror of one canonical task graph."""

    __slots__ = (
        "_graph",
        "n",
        "names",
        "index",
        "kinds",
        "in_vol",
        "out_vol",
        "comp",
        "work",
        "labels",
        "pred_ptr",
        "pred_adj",
        "succ_ptr",
        "succ_adj",
        "topo",
        "topo_pos",
        "entries",
        "exits",
        "num_tasks",
        "_specs",
        "_np_cache",
        "_level_num",
        "_level_den",
        "_level_key",
        "_levels_by_name",
        "_wl_stable",
    )

    def __init__(self, graph: "CanonicalGraph") -> None:
        names = list(graph.nodes)
        index = {name: i for i, name in enumerate(names)}
        specs = list(map(graph.spec, names))
        succs: list[list[int]] = [[] for _ in names]
        for u, v in graph.edges:
            succs[index[u]].append(index[v])
        self._assemble(
            names,
            index,
            [s.kind for s in specs],
            [s.input_volume for s in specs],
            [s.output_volume for s in specs],
            [s.label for s in specs],
            succs,
            graph,
            specs,
        )

    @classmethod
    def from_columns(cls, *columns) -> "IndexedGraph":
        """A view assembled from parsed columns (:mod:`repro.core.ingest`),
        with no graph behind it: ``graph`` and the specs are built on
        first use.  ``columns`` are :meth:`_assemble`'s first seven."""
        self = cls.__new__(cls)
        self._assemble(*columns)
        return self

    def _assemble(
        self,
        names: list[Hashable],
        index: dict[Hashable, int],
        kinds: list[NodeKind],
        in_vol: list[int],
        out_vol: list[int],
        labels: list[str],
        succs: list[list[int]],
        graph: "CanonicalGraph | None" = None,
        specs: list[NodeSpec] | None = None,
    ) -> None:
        """The one assembly: topological order, CSR arrays, derived
        columns and memo slots from per-node columns (ids in node order)
        and per-producer successor lists in edge insertion order (the
        order the partitioners' ready-counter tie-breaks depend on).

        The topological order is the generation-order Kahn traversal
        ``nx.topological_sort`` yields (each generation in id order,
        the next one in discovery order), so topo-position tie-breaks
        do not depend on how the graph arrived.  Raises
        :class:`~repro.core.node_types.CanonicalityError` on a cycle.
        """
        n = len(names)
        preds: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for v in succs[u]:
                preds[v].append(u)
        indeg = list(map(len, preds))
        entries = [i for i in range(n) if not indeg[i]]
        topo: list[int] = []
        generation = entries
        while generation:
            topo.extend(generation)
            nxt: list[int] = []
            for u in generation:
                for v in succs[u]:
                    indeg[v] -= 1
                    if not indeg[v]:
                        nxt.append(v)
            generation = nxt
        if len(topo) != n:
            raise CanonicalityError("task graph must be acyclic")

        self._graph = graph
        self._specs = specs
        self.names = names
        self.n = n
        self.index = index
        self.kinds = kinds
        self.in_vol = in_vol
        self.out_vol = out_vol
        self.labels = labels
        comp = [k in COMPUTATIONAL_KINDS for k in kinds]
        self.comp = comp
        self.work = [
            0 if k in PASSIVE_KINDS else max(iv, ov)
            for k, iv, ov in zip(kinds, in_vol, out_vol)
        ]
        self.num_tasks = sum(comp)

        self.succ_ptr, self.succ_adj = _csr(succs)
        self.pred_ptr, self.pred_adj = _csr(preds)
        self.topo = topo
        topo_pos = [0] * n
        for pos, i in enumerate(topo):
            topo_pos[i] = pos
        self.topo_pos = topo_pos
        self.entries = entries
        self.exits = [i for i in range(n) if not succs[i]]

        self._np_cache = None  #: repro.core.kernels array mirror
        self._level_num = None
        self._level_den = 1
        self._level_key = None
        self._levels_by_name = None
        self._wl_stable = None

    # ------------------------------------------------------------------
    # the (lazily materialized) networkx-backed view
    # ------------------------------------------------------------------
    @property
    def graph(self) -> "CanonicalGraph":
        """The :class:`CanonicalGraph` behind this view.

        For graphs frozen from a ``CanonicalGraph`` this is the original
        object; for wire-ingested graphs a networkx-backed twin is built
        on first access (and caches *this* view as its frozen form, so
        ``freeze(ig.graph) is ig``).
        """
        g = self._graph
        if g is None:
            from .ingest import materialize_graph

            g = self._graph = materialize_graph(self)
        return g

    @property
    def nx(self):
        """The underlying networkx graph (materializes it if needed)."""
        return self.graph.nx

    # ------------------------------------------------------------------
    # adjacency helpers (hot loops index the CSR arrays directly; these
    # exist for the colder callers and the tests)
    # ------------------------------------------------------------------
    def preds(self, i: int) -> list[int]:
        return self.pred_adj[self.pred_ptr[i] : self.pred_ptr[i + 1]]

    def succs(self, i: int) -> list[int]:
        return self.succ_adj[self.succ_ptr[i] : self.succ_ptr[i + 1]]

    def in_degree(self, i: int) -> int:
        return self.pred_ptr[i + 1] - self.pred_ptr[i]

    def out_degree(self, i: int) -> int:
        return self.succ_ptr[i + 1] - self.succ_ptr[i]

    # ------------------------------------------------------------------
    # read-only CanonicalGraph vocabulary over the arrays, so the
    # scheduler stack (partitioners, list schedulers, serializers)
    # accepts an ingested graph without materializing networkx
    # ------------------------------------------------------------------
    def spec(self, name: Hashable) -> NodeSpec:
        try:
            i = self.index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None
        specs = self._specs
        if specs is None:
            specs = self._specs = [
                NodeSpec(
                    self.names[j],
                    self.kinds[j],
                    self.in_vol[j],
                    self.out_vol[j],
                    self.labels[j],
                )
                for j in range(self.n)
            ]
        return specs[i]

    def kind(self, name: Hashable) -> NodeKind:
        try:
            return self.kinds[self.index[name]]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def volume(self, u: Hashable, v: Hashable) -> int:
        """Data volume carried by edge ``(u, v)``."""
        ui, vi = self.index[u], self.index[v]
        sp, sa = self.succ_ptr, self.succ_adj
        for j in range(sp[ui], sp[ui + 1]):
            if sa[j] == vi:
                return self.out_vol[ui]
        raise KeyError(f"no edge ({u!r}, {v!r})")

    @property
    def nodes(self) -> list[Hashable]:
        return list(self.names)

    @property
    def edges(self) -> list[tuple[Hashable, Hashable]]:
        names, sp, sa = self.names, self.succ_ptr, self.succ_adj
        return [
            (names[u], names[sa[j]])
            for u in range(self.n)
            for j in range(sp[u], sp[u + 1])
        ]

    def number_of_edges(self) -> int:
        return len(self.succ_adj)

    def __contains__(self, name: Hashable) -> bool:
        return name in self.index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.names)

    def __len__(self) -> int:
        return self.n

    def predecessors(self, v: Hashable) -> Iterator[Hashable]:
        i = self.index[v]
        names, pp, pa = self.names, self.pred_ptr, self.pred_adj
        return iter([names[pa[j]] for j in range(pp[i], pp[i + 1])])

    def successors(self, v: Hashable) -> Iterator[Hashable]:
        i = self.index[v]
        names, sp, sa = self.names, self.succ_ptr, self.succ_adj
        return iter([names[sa[j]] for j in range(sp[i], sp[i + 1])])

    def topological_order(self) -> list[Hashable]:
        names = self.names
        return [names[i] for i in self.topo]

    def entry_nodes(self) -> list[Hashable]:
        return [self.names[i] for i in self.entries]

    def exit_nodes(self) -> list[Hashable]:
        return [self.names[i] for i in self.exits]

    def computational_nodes(self) -> list[Hashable]:
        names, comp = self.names, self.comp
        return [names[i] for i in range(self.n) if comp[i]]

    def buffer_nodes(self) -> list[Hashable]:
        kinds = self.kinds
        return [
            self.names[i]
            for i in range(self.n)
            if kinds[i] is NodeKind.BUFFER
        ]

    def total_work(self) -> int:
        """``T_1`` — the sequential execution time (sum of node works)."""
        return sum(self.work)

    def fingerprint(self) -> str:
        """Isomorphism-stable content hash (cg3 1-WL over the arrays)."""
        from .graph import graph_fingerprint

        return graph_fingerprint(self)

    # ------------------------------------------------------------------
    # levels (Section 4.2) — exact integers over one common denominator
    # ------------------------------------------------------------------
    def _compute_levels(self) -> None:
        """``L(v) = max(R(v), 1) + max_preds L(u)`` without Fractions.

        All rate terms ``O(v)/I(v)`` (only nodes with ``O > I``
        contribute a non-unit term) share the common denominator
        ``D = lcm(I(v))``, so the recurrence runs in plain integers:
        one rate-term column (``D`` everywhere but at upsamplers with
        predecessors), then one maximum over each node's predecessor
        slice in topological order.
        """
        n, kinds, in_vol, out_vol = self.n, self.kinds, self.in_vol, self.out_vol
        source = NodeKind.SOURCE
        ups = [
            i for i, k, iv, ov in zip(range(n), kinds, in_vol, out_vol)
            if ov > iv > 0 and k is not source
        ]
        den = 1
        for v in {in_vol[i] for i in ups}:
            den = lcm(den, v)

        term = [den] * n
        for i in ups:
            term[i] = out_vol[i] * den // in_vol[i]
        for i in self.entries:  # an entry's level is one full term
            term[i] = den
        num = [0] * n
        pp, pa = self.pred_ptr, self.pred_adj
        for i in self.topo:
            best = 0
            for u in pa[pp[i]:pp[i + 1]]:
                lu = num[u]
                if lu > best:
                    best = lu
            num[i] = term[i] + best
        self._level_num = num
        self._level_den = den
        # correctly-rounded int/int division == float(Fraction(num, den))
        self._level_key = [x / den for x in num]

    def level_keys(self) -> list[float]:
        """Float projection of the exact levels (heap tie-break keys)."""
        if self._level_key is None:
            self._compute_levels()
        return self._level_key

    def levels_by_name(self) -> dict[Hashable, Fraction]:
        """The legacy ``node_levels`` mapping, materialized once."""
        if self._levels_by_name is None:
            if self._level_num is None:
                self._compute_levels()
            den = self._level_den
            self._levels_by_name = {
                self.names[i]: Fraction(self._level_num[i], den)
                for i in range(self.n)
            }
        return self._levels_by_name

    def max_level(self) -> Fraction:
        """``L(G)``; 0 for the empty graph."""
        if self.n == 0:
            return Fraction(0)
        if self._level_num is None:
            self._compute_levels()
        return Fraction(max(self._level_num), self._level_den)


def _csr(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    ptr = [0]
    ptr += accumulate(map(len, adj))
    return ptr, list(chain.from_iterable(adj))


def freeze(graph: "CanonicalGraph | IndexedGraph") -> IndexedGraph:
    """The (memoized) indexed view of ``graph``.

    An :class:`IndexedGraph` is already frozen and passes through
    unchanged.  For a :class:`CanonicalGraph` the view is cached on the
    graph and invalidated when it mutates through its own construction
    API; code mutating the raw ``graph.nx`` escape hatch must call
    ``graph.invalidate_caches()`` itself.
    """
    if isinstance(graph, IndexedGraph):
        return graph
    cache = graph._cache
    ig = cache.get("indexed")
    if ig is None:
        ig = IndexedGraph(graph)
        cache["indexed"] = ig
    return ig
