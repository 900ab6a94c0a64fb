"""Wire ingest: the one way a graph document becomes a graph.

:func:`ingest_graph_doc` parses a ``canonical-task-graph`` document
straight into the columns of an :class:`~repro.core.indexed.IndexedGraph`
(ids in node-document order, successors grouped per producer in
edge-document order) and hands them to the same assembly a frozen
``CanonicalGraph`` goes through (generation-order Kahn sort, acyclicity
check, CSR arrays).  :func:`~repro.core.serialize.graph_from_dict` and
``load_graph`` wrap it; ``tests/test_ingest.py`` diffs it against the
networkx parse kept in ``tests/oracles/graph_parse.py``.

The document is read column-wise: one comprehension per node field, one
rate/kind predicate per node, the name index from ``dict(zip(...))``
(duplicates show as a short index), endpoints resolved by comprehension
and one loop over the resolved id pairs.  When any of that fails, the
per-element checks replay the document in order only to raise the
first error, so the exception and its message do not depend on the
column order.

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

``validate=False`` is the *trusted* contract (README, trusted
ingest): only for documents that provably came from
:func:`~repro.core.serialize.graph_to_dict` of an already-validated
graph, e.g. the service re-ingesting the graph of a cached entry to
remap it (``ScheduleService._adapt``); wire documents are always
validated.  It checks only acyclicity and keeps repeated edges.

``out``, when given, is a ``bytearray`` the ingest appends
:func:`canonical_bytes` of the document to (the bytes the service's
document digest hashes), written from the columns it just built: the
four top-level keys and five node keys in sorted order, strings through
``encode_basestring_ascii``, every edge (repeats included) in document
order from its resolved endpoint ids.  Documents the writer does not
model take ``canonical_bytes(doc)`` itself: a key outside those nine, a
node without ``label``, a name or endpoint that is not an ``int`` (bool
excluded) or ``str`` (tuple names, say), an edge that is not a list, a
non-``int`` version or volume, a non-``str`` label.

The ingested view has no networkx graph behind it until something asks:
``IndexedGraph.graph`` materializes a ``CanonicalGraph`` twin on first
access (:func:`materialize_graph`), and the twin caches the ingested
view as its frozen form so ``freeze(ig.graph) is ig``.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import contains
from typing import Hashable, Mapping

from .graph import CanonicalGraph
from .indexed import IndexedGraph
from .node_types import CanonicalityError, NodeKind, check_node
from .serialize import FORMAT_VERSION, _name_from_json

__all__ = ["canonical_bytes", "ingest_graph_doc", "materialize_graph"]

#: value -> member, avoiding the Enum ``__call__`` dispatch per node
_KINDS: dict[str, NodeKind] = {k.value: k for k in NodeKind}

_SOURCE = NodeKind.SOURCE
_SINK = NodeKind.SINK
_BUFFER = NodeKind.BUFFER
#: the computational kind a rate implies, indexed by sign(O - I) + 1
_RATE_KINDS = (NodeKind.DOWNSAMPLER, NodeKind.ELEMENTWISE, NodeKind.UPSAMPLER)

#: name and endpoint types the canonical writer encodes itself
_PLAIN = frozenset({int, str})

_KIND_JSON = {k: encode_basestring_ascii(k.value) for k in NodeKind}


def canonical_bytes(doc: Mapping) -> bytes:
    """The canonical dump of a JSON document: sorted keys, compact
    separators.  ``ingest_graph_doc(doc, out=...)`` writes the same bytes
    for a graph document without this second walk."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _node_ok(kind: NodeKind | None, iv, ov) -> bool:
    """:func:`~repro.core.node_types.check_node`'s verdict (and a known
    kind), without its message."""
    if type(iv) is not int or type(ov) is not int:
        return False
    if kind is _SOURCE:
        return iv == 0 and ov > 0
    if kind is _SINK:
        return ov == 0 and iv > 0
    if iv <= 0 or ov <= 0:
        return False
    return kind is _BUFFER or kind is _RATE_KINDS[(ov > iv) - (ov < iv) + 1]


class _Invalid(Exception):
    """A column-wise check failed; the per-element replay names it."""


def ingest_graph_doc(
    doc: dict, validate: bool = True, out: bytearray | None = None
) -> IndexedGraph:
    """Parse a graph document into an :class:`IndexedGraph` in one pass.

    See the module docstring for the checks ``validate=True`` runs, the
    ``validate=False`` trusted-input contract and the ``out`` bytes.
    """
    if doc.get("format") != "canonical-task-graph":
        raise ValueError("not a canonical task graph document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")

    try:
        nodes = doc["nodes"]
        names = [nd["name"] for nd in nodes]
        kinds = list(map(_KINDS.get, [nd["kind"] for nd in nodes]))
        in_vol = [nd["input_volume"] for nd in nodes]
        out_vol = [nd["output_volume"] for nd in nodes]
        labels = [nd.get("label", "") for nd in nodes]
        plain = set(map(type, names)) <= _PLAIN
        if not plain:
            names = [_name_from_json(x) for x in names]
        n = len(names)
        index = dict(zip(names, range(n)))
        if validate:
            if len(index) != n or not all(
                    map(_node_ok, kinds, in_vol, out_vol)):
                raise _Invalid
        elif None in kinds:
            raise _Invalid

        edges = doc["edges"]
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        if not plain:
            us = [_name_from_json(x) for x in us]
            vs = [_name_from_json(x) for x in vs]
        ui = list(map(index.__getitem__, us))
        vi = list(map(index.__getitem__, vs))
        succs: list[list[int]] = [[] for _ in range(n)]
        if validate:
            seen: set[int] = set()
            for u, v in zip(ui, vi):
                if (kinds[u] is _SINK or kinds[v] is _SOURCE
                        or out_vol[u] != in_vol[v]):
                    raise _Invalid
                key = u * n + v
                if key not in seen:
                    seen.add(key)
                    succs[u].append(v)
        else:
            for u, v in zip(ui, vi):
                succs[u].append(v)
    except Exception as exc:
        failure = exc
    else:
        failure = None
    if failure is not None:
        _raise_first_error(doc, validate)
        raise failure

    ig = IndexedGraph.from_columns(
        names, index, kinds, in_vol, out_vol, labels, succs
    )
    if out is not None:
        writable = (
            plain
            and len(doc) == 4
            and type(doc["version"]) is int
            and sum(map(len, nodes)) == 5 * n
            and all(map(contains, nodes, repeat("label")))
            and set(map(type, edges)) <= {list}
            and set(map(type, us)) | set(map(type, vs)) <= _PLAIN
            # the validated node predicate already required int volumes
            and (validate
                 or set(map(type, in_vol)) | set(map(type, out_vol)) <= {int})
            and set(map(type, labels)) <= {str}
        )
        out += _write_doc(ig, ui, vi) if writable else canonical_bytes(doc)
    return ig


def _write_doc(ig: IndexedGraph, ui: list[int], vi: list[int]) -> bytes:
    """:func:`canonical_bytes` of a document the writer models, from
    its columns and resolved edge ids."""
    enc = [encode_basestring_ascii(x) if type(x) is str else "%d" % x
           for x in ig.names]
    node_json = ",".join([
        f'{{"input_volume":{iv},"kind":{kind},"label":{label},'
        f'"name":{name},"output_volume":{ov}}}'
        for iv, kind, label, name, ov in zip(
            ig.in_vol, map(_KIND_JSON.__getitem__, ig.kinds),
            map(encode_basestring_ascii, ig.labels), enc, ig.out_vol)
    ])
    edge_json = ",".join([f"[{enc[u]},{enc[v]}]" for u, v in zip(ui, vi)])
    return (
        f'{{"edges":[{edge_json}],"format":"canonical-task-graph",'
        f'"nodes":[{node_json}],"version":{FORMAT_VERSION}}}'
    ).encode()


def _raise_first_error(doc: dict, validate: bool) -> None:
    """Replay the per-element checks in document order and raise the
    first failure: the error :func:`ingest_graph_doc` reports when its
    column-wise checks fail.  Returns when it finds none."""
    index: dict[Hashable, int] = {}
    kinds: list[NodeKind] = []
    in_vol: list[int] = []
    out_vol: list[int] = []
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
        index[name] = len(kinds)
        kinds.append(kind)
        in_vol.append(iv)
        out_vol.append(ov)

    for u_doc, v_doc in doc["edges"]:
        u = _name_from_json(u_doc)
        v = _name_from_json(v_doc)
        if not validate:
            ui, vi = index[u], index[v]  # the trusted ingest's KeyError
            continue
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
