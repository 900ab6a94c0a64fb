"""Serialization of canonical graphs and schedules.

A reproducible toolchain needs durable artifacts: graphs round-trip
through a versioned JSON document, and schedules export both to a plain
JSON summary and to the Chrome trace-event format (``chrome://tracing``
/ Perfetto), with one row per processing element and one slice per task
occupancy — convenient for eyeballing pipelining and block boundaries.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Hashable

from .graph import CanonicalGraph
from .scheduler import StreamingSchedule

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "schedule_to_dict",
    "schedule_doc_bytes",
    "schedule_to_chrome_trace",
]

FORMAT_VERSION = 1


def _name_to_json(name: Hashable) -> Any:
    """Node names are hashables; tuples become tagged lists for JSON."""
    if isinstance(name, tuple):
        return {"__tuple__": [_name_to_json(x) for x in name]}
    return name


def _name_from_json(obj: Any) -> Hashable:
    if isinstance(obj, dict) and "__tuple__" in obj:
        return tuple(_name_from_json(x) for x in obj["__tuple__"])
    return obj


def graph_to_dict(graph: CanonicalGraph) -> dict:
    """A versioned, JSON-serializable description of the graph."""
    return {
        "format": "canonical-task-graph",
        "version": FORMAT_VERSION,
        "nodes": [
            {
                "name": _name_to_json(v),
                "kind": graph.spec(v).kind.value,
                "input_volume": graph.spec(v).input_volume,
                "output_volume": graph.spec(v).output_volume,
                "label": graph.spec(v).label,
            }
            for v in graph.nodes
        ],
        "edges": [
            [_name_to_json(u), _name_to_json(v)] for u, v in graph.edges
        ],
    }


def graph_from_dict(doc: dict, validate: bool = True) -> CanonicalGraph:
    """Inverse of :func:`graph_to_dict`: the networkx-backed twin of
    :func:`~repro.core.ingest.ingest_graph_doc`, whose checks it runs.

    ``validate=False`` is fully trusted — only for documents that
    provably came from :func:`graph_to_dict` of an already-validated
    graph; untrusted input must keep the default.
    """
    from .ingest import ingest_graph_doc

    return ingest_graph_doc(doc, validate).graph


def save_graph(graph: CanonicalGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(graph), fh, indent=1)


def load_graph(path: str) -> CanonicalGraph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def schedule_to_dict(schedule) -> dict:
    """Plain JSON summary of a streaming or non-streaming schedule.

    Accepts a :class:`StreamingSchedule` or a
    :class:`repro.baselines.ListSchedule` (detected structurally to keep
    this module free of a baselines dependency).
    """
    if not isinstance(schedule, StreamingSchedule):
        return {
            "format": "list-schedule",
            "version": FORMAT_VERSION,
            "num_pes": schedule.num_pes,
            "makespan": schedule.makespan,
            "tasks": [
                {
                    "name": _name_to_json(name),
                    "pe": pe,
                    "start": start,
                    "finish": finish,
                }
                for name, pe, start, finish in _list_rows(schedule)
            ],
        }
    from .indexed import freeze

    ig = freeze(schedule.graph)
    names = [_name_to_json(v) for v in ig.names]  # once per node, not per use
    comp = ig.comp
    blk, pe = schedule.block_idx, schedule.pe_idx
    st, fo, lo = schedule.st_idx, schedule.fo_idx, schedule.lo_idx
    return {
        "format": "streaming-schedule",
        "version": FORMAT_VERSION,
        "num_pes": schedule.num_pes,
        "variant": schedule.partition.variant,
        "makespan": schedule.makespan,
        "num_blocks": schedule.num_blocks,
        "tasks": [
            {
                "name": names[i],
                "block": blk[i],
                "pe": pe[i],
                "st": st[i],
                "fo": fo[i],
                "lo": lo[i],
            }
            for i in range(ig.n)
            if comp[i]
        ],
        "fifo_sizes": [
            {"src": names[u], "dst": names[v], "capacity": c}
            for u, v, c in schedule.fifo_rows()
        ],
    }


def _list_rows(schedule):
    """``(name, pe, start, finish)`` per task of a non-streaming
    schedule, in placement order.  A list schedule is read from its int
    columns (no per-task objects); anything else from ``placements``."""
    order = getattr(schedule, "order_idx", None)
    if order is None:
        return (
            (p.name, p.pe, p.start, p.finish)
            for p in schedule.placements.values()
        )
    from .indexed import freeze

    ig = freeze(schedule.graph)
    names, work = ig.names, ig.work
    start, pe = schedule.start_idx, schedule.pe_idx
    return (
        (names[v], pe[v], start[v], start[v] + work[v]) for v in order
    )


def _name_json(name: Hashable) -> str:
    """``json.dumps(_name_to_json(name))``.  Integer and string names,
    what ingested documents carry, skip the general encoder.  Not
    memoized on the frozen view: the service encodes one winner per
    graph, and a memo would live as long as the view."""
    if type(name) is int:
        return str(name)
    if type(name) is str:
        return encode_basestring_ascii(name)
    return json.dumps(_name_to_json(name))


def schedule_doc_bytes(schedule, out: bytearray | None = None) -> bytes:
    """Serialize a schedule document straight to JSON bytes.

    Byte-identical to ``json.dumps(schedule_to_dict(schedule)).encode()``
    (asserted by the golden tests), but assembled directly from the
    frozen :class:`~repro.core.indexed.IndexedGraph` arrays and the
    schedule's id columns — no intermediate per-task dicts, and no
    name-keyed view of a streaming schedule is built.

    ``out`` is an optional preallocated ``bytearray`` to append to (the
    serving path reuses one buffer per response assembly); the returned
    value is always the document's own bytes.
    """
    from .indexed import freeze
    from .scheduler import StreamingSchedule

    if not isinstance(schedule, StreamingSchedule):
        parts = [
            '{"format": "list-schedule", "version": %d, "num_pes": %d, '
            '"makespan": %d, "tasks": [' % (
                FORMAT_VERSION, schedule.num_pes, schedule.makespan,
            )
        ]
        parts.append(", ".join(
            '{"name": %s, "pe": %d, "start": %d, "finish": %d}' % (
                _name_json(name), pe, start, finish,
            )
            for name, pe, start, finish in _list_rows(schedule)
        ))
        parts.append("]}")
        blob = "".join(parts).encode()
        if out is not None:
            out += blob
        return blob

    ig = freeze(schedule.graph)
    names_json = [_name_json(name) for name in ig.names]
    comp = ig.comp
    blk, pe = schedule.block_idx, schedule.pe_idx
    st, fo, lo = schedule.st_idx, schedule.fo_idx, schedule.lo_idx
    parts = [
        '{"format": "streaming-schedule", "version": %d, "num_pes": %d, '
        '"variant": %s, "makespan": %d, "num_blocks": %d, "tasks": [' % (
            FORMAT_VERSION, schedule.num_pes,
            json.dumps(schedule.partition.variant),
            schedule.makespan, schedule.num_blocks,
        )
    ]
    parts.append(", ".join([
        '{"name": %s, "block": %d, "pe": %d, "st": %d, "fo": %d, "lo": %d}'
        % (names_json[i], blk[i], pe[i], st[i], fo[i], lo[i])
        for i in range(ig.n)
        if comp[i]
    ]))
    parts.append('], "fifo_sizes": [')
    parts.append(", ".join([
        '{"src": %s, "dst": %s, "capacity": %d}' % (
            names_json[u], names_json[v], c,
        )
        for u, v, c in schedule.fifo_rows()
    ]))
    parts.append("]}")
    blob = "".join(parts).encode()
    if out is not None:
        out += blob
    return blob


def schedule_to_chrome_trace(schedule) -> list[dict]:
    """Chrome trace-event JSON (load in chrome://tracing or Perfetto).

    One complete ("X") event per task, on the row of its PE; block
    boundaries appear as instant events on a separate row.  Also accepts
    a non-streaming :class:`repro.baselines.ListSchedule` (no blocks).
    """
    if not isinstance(schedule, StreamingSchedule):
        return [
            {
                "name": str(p.name),
                "cat": "task",
                "ph": "X",
                "ts": p.start,
                "dur": max(1, p.finish - p.start),
                "pid": 0,
                "tid": p.pe,
                "args": {"finish": p.finish},
            }
            for p in schedule.placements.values()
        ]
    events: list[dict] = []
    for v in schedule.graph.computational_nodes():
        t = schedule.times[v]
        events.append(
            {
                "name": str(v),
                "cat": f"block{schedule.block_of(v)}",
                "ph": "X",
                "ts": t.st,
                "dur": max(1, t.lo - t.st),
                "pid": 0,
                "tid": schedule.pe_of[v],
                "args": {"fo": t.fo, "lo": t.lo, "block": schedule.block_of(v)},
            }
        )
    release = 0
    for b, block in enumerate(schedule.partition.blocks):
        end = max(schedule.times[v].lo for v in block)
        events.append(
            {
                "name": f"block {b}",
                "ph": "X",
                "ts": release,
                "dur": max(1, end - release),
                "pid": 0,
                "tid": -1,
                "args": {"tasks": len(block)},
            }
        )
        release = end
    return events
