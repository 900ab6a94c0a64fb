"""Wire ingest: the one way a graph document becomes a graph.

:func:`ingest_graph_doc` parses a ``canonical-task-graph`` document
straight into the columns of an :class:`~repro.core.indexed.IndexedGraph`
(ids in node-document order, successors grouped per producer in
edge-document order) and hands them to the same assembly a frozen
``CanonicalGraph`` goes through (generation-order Kahn sort, acyclicity
check, CSR arrays).  :func:`~repro.core.serialize.graph_from_dict` and
``load_graph`` wrap it; ``tests/test_ingest.py`` diffs it against the
networkx parse kept in ``tests/oracles/graph_parse.py``.

``validate=True`` (the default, required for untrusted input) checks,
in this order: document format and version (``ValueError``); per node,
the kind (``ValueError``), the rules of
:func:`~repro.core.node_types.check_node` (``ValueError``) and duplicate
names (``CanonicalityError``); per edge, unknown endpoints
(``KeyError``), sink/source direction and producer/consumer volume
matching (``CanonicalityError``); then acyclicity.  Repeated edges
collapse into one, as in networkx.  No
:class:`~repro.core.node_types.NodeSpec` is built; ``spec()`` makes
them on demand.

``validate=False`` is the *trusted* contract (README, wire format):
only for documents that provably came from
:func:`~repro.core.serialize.graph_to_dict` of an already-validated
graph, e.g. portfolio workers re-hydrating the parent's wire document.
It checks only acyclicity and keeps repeated edges.

The ingested view has no networkx graph behind it until something asks:
``IndexedGraph.graph`` materializes a ``CanonicalGraph`` twin on first
access (:func:`materialize_graph`), and the twin caches the ingested
view as its frozen form so ``freeze(ig.graph) is ig``.
"""

from __future__ import annotations

from typing import Hashable

from .graph import CanonicalGraph
from .indexed import IndexedGraph
from .node_types import CanonicalityError, NodeKind, check_node
from .serialize import FORMAT_VERSION, _name_from_json

__all__ = ["ingest_graph_doc", "materialize_graph"]

#: value -> member, avoiding the Enum ``__call__`` dispatch per node
_KINDS: dict[str, NodeKind] = {k.value: k for k in NodeKind}

_SOURCE = NodeKind.SOURCE
_SINK = NodeKind.SINK


def ingest_graph_doc(doc: dict, validate: bool = True) -> IndexedGraph:
    """Parse a graph document into an :class:`IndexedGraph` in one pass.

    See the module docstring for the checks ``validate=True`` runs and
    the ``validate=False`` trusted-input contract.
    """
    if doc.get("format") != "canonical-task-graph":
        raise ValueError("not a canonical task graph document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")

    names: list[Hashable] = []
    kinds: list[NodeKind] = []
    in_vol: list[int] = []
    out_vol: list[int] = []
    labels: list[str] = []
    index: dict[Hashable, int] = {}
    for n in doc["nodes"]:
        name = _name_from_json(n["name"])
        kind_value = n["kind"]
        kind = _KINDS.get(kind_value)
        if kind is None:
            kind = NodeKind(kind_value)  # authentic enum ValueError
        iv = n["input_volume"]
        ov = n["output_volume"]
        if validate:
            check_node(name, kind, iv, ov)
            if name in index:
                raise CanonicalityError(f"duplicate node {name!r}")
        index[name] = len(names)
        names.append(name)
        kinds.append(kind)
        in_vol.append(iv)
        out_vol.append(ov)
        labels.append(n.get("label", ""))

    succs: list[list[int]] = [[] for _ in names]
    if validate:
        seen_edges: set[tuple[int, int]] = set()
        for u_doc, v_doc in doc["edges"]:
            u = _name_from_json(u_doc)
            v = _name_from_json(v_doc)
            ui = index.get(u)
            if ui is None:
                raise KeyError(f"unknown node {u!r}")
            vi = index.get(v)
            if vi is None:
                raise KeyError(f"unknown node {v!r}")
            if kinds[ui] is _SINK:
                raise CanonicalityError(f"sink {u!r} cannot have outgoing edges")
            if kinds[vi] is _SOURCE:
                raise CanonicalityError(f"source {v!r} cannot have incoming edges")
            if out_vol[ui] != in_vol[vi]:
                raise CanonicalityError(
                    f"edge ({u!r}, {v!r}): producer volume O(u)={out_vol[ui]} "
                    f"!= consumer volume I(v)={in_vol[vi]}"
                )
            if (ui, vi) in seen_edges:
                continue
            seen_edges.add((ui, vi))
            succs[ui].append(vi)
    else:
        for u_doc, v_doc in doc["edges"]:
            succs[index[_name_from_json(u_doc)]].append(
                index[_name_from_json(v_doc)]
            )
    return IndexedGraph.from_columns(
        names, index, kinds, in_vol, out_vol, labels, succs
    )


def materialize_graph(ig: IndexedGraph) -> CanonicalGraph:
    """Networkx-backed twin of an ingested :class:`IndexedGraph`.

    Built only when something genuinely needs the ``CanonicalGraph``
    object (the ``nx`` escape hatch, the DES validator, a graph loaded
    through :func:`~repro.core.serialize.graph_from_dict`); the
    scheduling and fingerprint paths run on the arrays alone.  Edges
    are added grouped by producer, so ``predecessors(v)`` lists
    producers in node order.  The twin adopts ``ig`` as its frozen
    view, so freezing it costs nothing.
    """
    g = CanonicalGraph()
    gx = g.nx
    names = ig.names
    for i in range(ig.n):
        gx.add_node(names[i], spec=ig.spec(names[i]))
    sp, sa = ig.succ_ptr, ig.succ_adj
    for u in range(ig.n):
        name_u = names[u]
        for j in range(sp[u], sp[u + 1]):
            gx.add_edge(name_u, names[sa[j]])
    g._cache["indexed"] = ig
    g._cache["topo"] = [names[i] for i in ig.topo]
    return g
