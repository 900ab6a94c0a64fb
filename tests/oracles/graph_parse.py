"""Networkx parse of a graph document, kept to diff the ingest against.

This is the body ``repro.core.serialize.graph_from_dict`` had before it
became a wrapper over :func:`repro.core.ingest.ingest_graph_doc`: one
:class:`~repro.core.node_types.NodeSpec` per node through
``CanonicalGraph.add_node``, one ``add_edge`` per edge (repeats collapse
in networkx), then ``CanonicalGraph.validate()``.  ``tests/test_ingest.py``
and ``tests/test_properties.py`` require the ingest to give the same
arrays as ``IndexedGraph(parse_graph_doc(doc))`` and to raise the same
exception type and message.  Test-only: nothing under ``repro`` imports it.
"""

from __future__ import annotations

from repro.core.graph import CanonicalGraph
from repro.core.node_types import NodeKind, NodeSpec
from repro.core.serialize import FORMAT_VERSION, _name_from_json

__all__ = ["parse_graph_doc"]


def parse_graph_doc(doc: dict, validate: bool = True) -> CanonicalGraph:
    """A ``CanonicalGraph`` built node by node and edge by edge."""
    if doc.get("format") != "canonical-task-graph":
        raise ValueError("not a canonical task graph document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    g = CanonicalGraph()
    for n in doc["nodes"]:
        g.add_node(
            NodeSpec(
                _name_from_json(n["name"]),
                NodeKind(n["kind"]),
                n["input_volume"],
                n["output_volume"],
                n.get("label", ""),
            )
        )
    for u, v in doc["edges"]:
        g.add_edge(_name_from_json(u), _name_from_json(v))
    if validate:
        g.validate()
    return g
