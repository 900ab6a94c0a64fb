"""The canonical task graph intermediate representation.

A :class:`CanonicalGraph` wraps a :class:`networkx.DiGraph` whose nodes
carry :class:`~repro.core.node_types.NodeSpec` attributes.  Edge data
volumes are *derived*: by canonicality, every edge ``(u, v)`` carries
exactly ``O(u) == I(v)`` elements, so volumes live on the nodes and the
graph validates the matching constraint.

The class exposes the small vocabulary the analyses need: predecessors,
successors, topological order, entry/exit nodes, and the canonicality
validator used by generators and front-ends.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from itertools import chain
from typing import Hashable, Iterable, Iterator

import networkx as nx

from . import backend
from .indexed import IndexedGraph, freeze
from .node_types import CanonicalityError, NodeKind, NodeSpec, classify_rate

__all__ = [
    "CanonicalGraph",
    "CanonicalityError",
    "graph_fingerprint",
    "find_isomorphism",
]

#: bump when the fingerprint construction changes — folded into the hash
#: so fingerprints from different algorithm versions can never collide.
#: ``cg3``: hashed 1-WL over 64-bit integer labels (commutative multiset
#: sums instead of cg2's per-node SHA-256 over sorted neighbour labels),
#: with SHA-256 applied once, to the final canonical digest.
FINGERPRINT_VERSION = "cg3"

_M64 = (1 << 64) - 1
#: odd multipliers weighting the predecessor / successor multiset sums
_K_PRED = 0x9E3779B97F4A7C15
_K_SUCC = 0xC2B2AE3D27D4EB4F
#: direction salts xor'ed into a neighbour's label before mixing, so a
#: predecessor and a successor with the same label contribute differently
_C_PRED = 0x243F6A8885A308D3
_C_SUCC = 0x13198A2E03707344
#: splitmix64 finalizer multipliers
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    """The splitmix64 finalizer (a bijection on 64-bit words)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _label64(payload: bytes) -> int:
    """First 8 bytes of SHA-256 as a big-endian 64-bit label."""
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@lru_cache(maxsize=4096)
def _seed_label(kind: NodeKind, in_vol: int, out_vol: int) -> int:
    # graphs carry a handful of distinct (kind, I, O) triples, so the
    # SHA-256 runs per triple, not per node
    return _label64(f"{kind.value}|{in_vol}|{out_vol}".encode())


def _wl_seed_labels(ig: IndexedGraph) -> list[int]:
    """Initial 1-WL labels: a digest of each node's cost data
    ``(kind, I(v), O(v))`` — exactly what the schedulers consume."""
    return list(map(_seed_label, ig.kinds, ig.in_vol, ig.out_vol))


def _wl_refine_python(ig: IndexedGraph, labels: list[int]) -> list[int]:
    """1-WL color refinement to stability (at most ``|V|`` rounds).

    Each round maps ``L[v]`` to ``mix(L[v] + K_PRED * sum(mix(L[u] ^
    C_PRED) for u in preds) + K_SUCC * sum(mix(L[w] ^ C_SUCC) for w in
    succs))`` mod 2^64: the sums are commutative, so no sort is needed,
    and the salts keep the construction direction-aware (mirrored DAGs
    do not collide).  Stops once the number of label classes stops
    growing.  :func:`repro.core.kernels.wl_refine_numpy` is the array
    twin; both compute the same labels bit for bit.
    """
    n = ig.n
    pp, pa = ig.pred_ptr, ig.pred_adj
    sp, sa = ig.succ_ptr, ig.succ_adj
    num_classes = len(set(labels))
    for _ in range(n):
        up = [_mix(x ^ _C_PRED) for x in labels]
        down = [_mix(x ^ _C_SUCC) for x in labels]
        up = [up[u] for u in pa]  # per CSR predecessor slot
        down = [down[w] for w in sa]  # per CSR successor slot
        labels = [
            _mix(
                (
                    labels[v]
                    + _K_PRED * sum(up[pp[v] : pp[v + 1]])
                    + _K_SUCC * sum(down[sp[v] : sp[v + 1]])
                )
                & _M64
            )
            for v in range(n)
        ]
        refined_classes = len(set(labels))
        if refined_classes == num_classes:  # partition is stable
            break
        num_classes = refined_classes
    return labels


def _wl_refine(ig: IndexedGraph, labels: list[int]) -> list[int]:
    """:func:`_wl_refine_python`, on the NumPy kernel when installed."""
    if backend.HAVE_NUMPY:
        from .kernels import wl_refine_numpy

        return wl_refine_numpy(ig, labels).tolist()
    return _wl_refine_python(ig, labels)


def _wl_stable_labels(ig: IndexedGraph) -> list[int]:
    """Refined-to-stability labels, memoized on the frozen view."""
    if ig._wl_stable is None:
        ig._wl_stable = _wl_refine(ig, _wl_seed_labels(ig))
    return ig._wl_stable


def _wl_header(ig: IndexedGraph) -> bytes:
    return f"{FINGERPRINT_VERSION}|{ig.n}|{len(ig.succ_adj)}".encode()


def _wl_digest_python(ig: IndexedGraph, labels: list[int]) -> str:
    """SHA-256 over the header, the sorted 8-byte labels and the sorted
    16-byte ``(label(u), label(v))`` edge pairs, all big-endian."""
    h = hashlib.sha256(_wl_header(ig))
    h.update(struct.pack(f">{ig.n}Q", *sorted(labels)))
    sp, sa = ig.succ_ptr, ig.succ_adj
    edges = sorted(
        (labels[u], labels[sa[j]])
        for u in range(ig.n)
        for j in range(sp[u], sp[u + 1])
    )
    h.update(struct.pack(f">{2 * len(edges)}Q", *chain.from_iterable(edges)))
    return h.hexdigest()


def graph_fingerprint(graph: "CanonicalGraph | IndexedGraph") -> str:
    """Canonical, isomorphism-stable fingerprint of a task graph.

    Two graphs that differ only in node naming (or node insertion order)
    hash identically; any change to the topology or to a node's
    cost/volume data changes the fingerprint.  The construction (cg3)
    is hashed 1-WL (Weisfeiler-Leman) color refinement over the DAG with
    64-bit integer labels, as in Shervashidze et al., "Weisfeiler-Lehman
    Graph Kernels" (JMLR 2011):

    1. every node starts from the first 8 bytes of the SHA-256 of its
       cost data ``(kind, I(v), O(v))`` — exactly what the schedulers
       consume;
    2. each round replaces a node's label by a splitmix64 mix of the
       label plus direction-salted, weighted *sums* of its mixed
       predecessor and successor labels (commutative multiset hashes,
       so no per-node sort), until the number of label classes stops
       growing (at most ``|V|`` rounds);
    3. the fingerprint is the SHA-256 over ``cg3|n|m``, the sorted
       stable node labels and the sorted per-edge ``(label(u),
       label(v))`` pairs.

    Refinement to stability makes the digest a *topological canon*: the
    sorted node/edge label lists are invariant under any relabeling.
    Like every 1-WL scheme it can in principle assign one fingerprint to
    non-isomorphic graphs (and 64-bit labels add a small hash-collision
    chance on top); the service never relies on it alone — a hit for a
    different document is served only through a verified
    :func:`find_isomorphism` witness.

    Both the refinement and the digest run on the NumPy kernels when
    ``numpy`` imports (:mod:`repro.core.backend`): the kernels over
    the shared :func:`repro.core.kernels.graph_arrays` mirror, the
    pure-Python twins over the CSR lists.  Both produce the same hex on
    every graph (volumes only enter through the seed labels, so no
    overflow guard is needed).
    """
    ig = freeze(graph)
    labels = _wl_stable_labels(ig)
    if backend.HAVE_NUMPY:
        from .kernels import wl_digest_numpy

        return wl_digest_numpy(ig, labels, _wl_header(ig))
    return _wl_digest_python(ig, labels)


def find_isomorphism(
    src: "CanonicalGraph | IndexedGraph", dst: "CanonicalGraph | IndexedGraph"
) -> dict[Hashable, Hashable] | None:
    """An explicit node bijection ``src → dst`` witnessing isomorphism.

    Two graphs can share a :func:`graph_fingerprint` without being
    relabelings of each other (1-WL is complete only up to color
    refinement), and even for genuinely isomorphic graphs the
    fingerprint does not say *which* node corresponds to which.  This
    function answers both questions: it returns a mapping from every
    node of ``src`` to a node of ``dst`` that preserves node cost data
    and the exact edge set, or ``None`` when no such witness is found.

    The search is individualization-refinement without backtracking:
    refine both graphs with 1-WL, and while some label class holds more
    than one node, individualize one deterministic pick per graph inside
    the smallest ambiguous class and re-refine.  The candidate mapping
    is then *verified* edge-by-edge and spec-by-spec before being
    returned — so a non-``None`` result is always a correct witness,
    and a 1-WL collision between non-isomorphic graphs yields ``None``
    rather than a wrong mapping.  (Forgoing backtracking means highly
    symmetric non-orbit classes could miss a witness that exists; the
    failure mode is a recompute, never a wrong answer.)
    """
    igs, igd = freeze(src), freeze(dst)
    if igs.n != igd.n:
        return None
    if len(igs.succ_adj) != len(igd.succ_adj):
        return None
    ls = list(_wl_stable_labels(igs))  # copies: individualization mutates
    ld = list(_wl_stable_labels(igd))
    idx_map: dict[int, int] | None = None
    for round_no in range(igs.n + 1):
        classes_s: dict[int, list[int]] = {}
        classes_d: dict[int, list[int]] = {}
        for v, lab in enumerate(ls):
            classes_s.setdefault(lab, []).append(v)
        for v, lab in enumerate(ld):
            classes_d.setdefault(lab, []).append(v)
        if set(classes_s) != set(classes_d) or any(
            len(classes_s[lab]) != len(classes_d[lab]) for lab in classes_s
        ):
            return None
        ambiguous = [lab for lab, vs in classes_s.items() if len(vs) > 1]
        if not ambiguous:
            idx_map = {classes_s[lab][0]: classes_d[lab][0] for lab in classes_s}
            break
        lab = min(ambiguous, key=lambda x: (len(classes_s[x]), x))
        tag = _label64(b"individualized|%d|%d" % (lab, round_no))
        ls[min(classes_s[lab], key=lambda i: repr(igs.names[i]))] = tag
        ld[min(classes_d[lab], key=lambda i: repr(igd.names[i]))] = tag
        ls = _wl_refine(igs, ls)
        ld = _wl_refine(igd, ld)
    if idx_map is None:
        return None
    for v in range(igs.n):
        w = idx_map[v]
        if (igs.kinds[v], igs.in_vol[v], igs.out_vol[v]) != (
            igd.kinds[w],
            igd.in_vol[w],
            igd.out_vol[w],
        ):
            return None
    dsp, dsa = igd.succ_ptr, igd.succ_adj
    dst_edges = {
        (u, dsa[j]) for u in range(igd.n) for j in range(dsp[u], dsp[u + 1])
    }
    names_s, names_d = igs.names, igd.names
    sp, sa = igs.succ_ptr, igs.succ_adj
    for u in range(igs.n):
        for j in range(sp[u], sp[u + 1]):
            if (idx_map[u], idx_map[sa[j]]) not in dst_edges:
                return None
    return {names_s[v]: names_d[w] for v, w in idx_map.items()}


class CanonicalGraph:
    """A directed acyclic canonical task graph (Section 3).

    Nodes are added with explicit :class:`NodeSpec` volumes; edges must
    connect a producer and consumer with matching per-edge volumes.
    """

    def __init__(self) -> None:
        self._g = nx.DiGraph()
        #: derived-data memo (topological order, entry/exit sets, the
        #: frozen :class:`~repro.core.indexed.IndexedGraph`); cleared on
        #: every mutation through this class's construction API
        self._cache: dict[str, object] = {}

    def invalidate_caches(self) -> None:
        """Drop memoized derived data (topological order, entry/exit
        sets, the frozen indexed view).  Mutations through
        :meth:`add_node` / :meth:`add_edge` invalidate automatically;
        code mutating the raw ``graph.nx`` escape hatch must call this
        afterwards."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, spec: NodeSpec) -> Hashable:
        """Add a node; returns its name for chaining convenience."""
        if spec.name in self._g:
            raise CanonicalityError(f"duplicate node {spec.name!r}")
        self._g.add_node(spec.name, spec=spec)
        if self._cache:
            self._cache.clear()
        return spec.name

    def add_task(
        self,
        name: Hashable,
        input_volume: int,
        output_volume: int,
        label: str = "",
        **metadata,
    ) -> Hashable:
        """Add a computational node, inferring its kind from the volumes."""
        kind = classify_rate(input_volume, output_volume)
        return self.add_node(
            NodeSpec(name, kind, input_volume, output_volume, label, metadata)
        )

    def add_source(self, name: Hashable, output_volume: int, label: str = "") -> Hashable:
        return self.add_node(NodeSpec(name, NodeKind.SOURCE, 0, output_volume, label))

    def add_sink(self, name: Hashable, input_volume: int, label: str = "") -> Hashable:
        return self.add_node(NodeSpec(name, NodeKind.SINK, input_volume, 0, label))

    def add_buffer(
        self, name: Hashable, input_volume: int, output_volume: int, label: str = ""
    ) -> Hashable:
        return self.add_node(
            NodeSpec(name, NodeKind.BUFFER, input_volume, output_volume, label)
        )

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Connect producer ``u`` to consumer ``v``.

        The edge volume is ``O(u)`` which must equal ``I(v)``.
        """
        su, sv = self.spec(u), self.spec(v)
        if su.kind is NodeKind.SINK:
            raise CanonicalityError(f"sink {u!r} cannot have outgoing edges")
        if sv.kind is NodeKind.SOURCE:
            raise CanonicalityError(f"source {v!r} cannot have incoming edges")
        if su.output_volume != sv.input_volume:
            raise CanonicalityError(
                f"edge ({u!r}, {v!r}): producer volume O(u)={su.output_volume} "
                f"!= consumer volume I(v)={sv.input_volume}"
            )
        self._g.add_edge(u, v)
        if self._cache:
            self._cache.clear()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def spec(self, name: Hashable) -> NodeSpec:
        try:
            return self._g.nodes[name]["spec"]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def kind(self, name: Hashable) -> NodeKind:
        return self.spec(name).kind

    def volume(self, u: Hashable, v: Hashable) -> int:
        """Data volume carried by edge ``(u, v)``."""
        if not self._g.has_edge(u, v):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        return self.spec(u).output_volume

    @property
    def nx(self) -> nx.DiGraph:
        """The underlying networkx graph (read-mostly escape hatch)."""
        return self._g

    def __contains__(self, name: Hashable) -> bool:
        return name in self._g

    def __len__(self) -> int:
        return self._g.number_of_nodes()

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._g)

    @property
    def nodes(self) -> Iterable[Hashable]:
        return self._g.nodes

    @property
    def edges(self) -> Iterable[tuple[Hashable, Hashable]]:
        return self._g.edges

    def number_of_edges(self) -> int:
        return self._g.number_of_edges()

    def predecessors(self, v: Hashable) -> Iterator[Hashable]:
        return self._g.predecessors(v)

    def successors(self, v: Hashable) -> Iterator[Hashable]:
        return self._g.successors(v)

    def in_degree(self, v: Hashable) -> int:
        return self._g.in_degree(v)

    def out_degree(self, v: Hashable) -> int:
        return self._g.out_degree(v)

    def topological_order(self) -> list[Hashable]:
        """A topological order of the nodes (memoized; fresh copy)."""
        topo = self._cache.get("topo")
        if topo is None:
            topo = list(nx.topological_sort(self._g))
            self._cache["topo"] = topo
        return list(topo)

    def entry_nodes(self) -> list[Hashable]:
        """Nodes with no predecessors (graph sources in the broad sense)."""
        entries = self._cache.get("entries")
        if entries is None:
            entries = [v for v in self._g if self._g.in_degree(v) == 0]
            self._cache["entries"] = entries
        return list(entries)

    def exit_nodes(self) -> list[Hashable]:
        """Nodes with no successors."""
        exits = self._cache.get("exits")
        if exits is None:
            exits = [v for v in self._g if self._g.out_degree(v) == 0]
            self._cache["exits"] = exits
        return list(exits)

    def computational_nodes(self) -> list[Hashable]:
        comp = self._cache.get("comp")
        if comp is None:
            comp = [v for v in self._g if self.spec(v).kind.is_computational]
            self._cache["comp"] = comp
        return list(comp)

    def buffer_nodes(self) -> list[Hashable]:
        return [v for v in self._g if self.spec(v).kind is NodeKind.BUFFER]

    def num_tasks(self) -> int:
        """Number of schedulable (computational) tasks (memoized)."""
        n = self._cache.get("num_tasks")
        if n is None:
            n = sum(1 for v in self._g if self.spec(v).kind.is_computational)
            self._cache["num_tasks"] = n
        return n

    def subgraph(self, nodes: Iterable[Hashable]) -> "CanonicalGraph":
        """Induced subgraph as a new CanonicalGraph (specs shared)."""
        sub = CanonicalGraph()
        nodes = set(nodes)
        for v in nodes:
            sub._g.add_node(v, spec=self.spec(v))
        for u, v in self._g.edges:
            if u in nodes and v in nodes:
                sub._g.add_edge(u, v)
        return sub

    def copy(self) -> "CanonicalGraph":
        clone = CanonicalGraph()
        clone._g = self._g.copy()
        return clone

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Isomorphism-stable content hash (see :func:`graph_fingerprint`)."""
        return graph_fingerprint(self)

    def total_work(self) -> int:
        """``T_1`` — the sequential execution time (sum of node works)."""
        return sum(self.spec(v).work for v in self._g)

    def validate(self) -> None:
        """Check the canonical task graph rules; raise on violation.

        Verified invariants:

        * the graph is a DAG;
        * every edge's producer/consumer volumes match (enforced at
          ``add_edge`` time, re-checked here for graphs built through the
          ``nx`` escape hatch);
        * sources have no incoming and sinks no outgoing edges (both
          re-checked for the ``nx`` escape hatch; the per-node kind and
          volume rules are :class:`NodeSpec`'s own);
        * no directed cycle through a buffer node after undirecting the
          edges between non-buffer nodes (Section 4.2.3 requirement) —
          checked lazily by :func:`repro.core.transform.check_buffer_placement`.
        """
        if not nx.is_directed_acyclic_graph(self._g):
            raise CanonicalityError("task graph must be acyclic")
        for v in self._g:
            spec = self.spec(v)
            if spec.kind is NodeKind.SOURCE and self._g.in_degree(v) != 0:
                raise CanonicalityError(f"source {v!r} has incoming edges")
            if spec.kind is NodeKind.SINK and self._g.out_degree(v) != 0:
                raise CanonicalityError(f"sink {v!r} has outgoing edges")
        for u, v in self._g.edges:
            if self.spec(u).output_volume != self.spec(v).input_volume:
                raise CanonicalityError(
                    f"edge ({u!r}, {v!r}) volume mismatch: "
                    f"{self.spec(u).output_volume} != {self.spec(v).input_volume}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CanonicalGraph(nodes={self._g.number_of_nodes()}, "
            f"edges={self._g.number_of_edges()}, tasks={self.num_tasks()})"
        )
