"""Request fingerprinting for the scheduling service.

The graph-level hash lives in :func:`repro.core.graph.graph_fingerprint`
(isomorphism-stable 1-WL refinement over kinds and volumes); this module
layers the *request* identity on top: a schedule request is the graph
plus the PE count, the objective and the scheduler portfolio raced for
it, and two requests are interchangeable — may share one cache entry,
one in-flight computation — exactly when all four coincide.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Sequence

from ..core.graph import graph_fingerprint
from ..core.indexed import IndexedGraph
from ..core.ingest import canonical_bytes, ingest_graph_doc

__all__ = [
    "SCHEDULE_KEY_VERSION",
    "canonical_bytes",
    "graph_fingerprint",
    "is_current_key",
    "request_key",
    "simulate_request_key",
    "fingerprint_graph_doc",
    "doc_digest",
]

#: bump when the schedule document schema, the cached-entry layout, a
#: scheduler's behaviour or the graph fingerprint construction changes:
#: the tag prefixes every request key, so a restarted server never
#: serves entries persisted by older code, and :func:`is_current_key`
#: lets store compaction reclaim them.  (The graph fingerprint folds its
#: own :data:`~repro.core.graph.FINGERPRINT_VERSION` into the hash, so a
#: fingerprint bump alone already makes old keys unreachable — but they
#: would keep this prefix and stay indexed forever.)  ``sv3``: the cg3
#: fingerprint.
SCHEDULE_KEY_VERSION = "sv3"


def is_current_key(key: str) -> bool:
    """True when ``key`` carries the current :data:`SCHEDULE_KEY_VERSION`
    tag — the ``retain`` predicate of every serving store, so records
    persisted by older code are never indexed and compaction drops
    them."""
    return key.startswith(f"{SCHEDULE_KEY_VERSION}:")


def doc_digest(doc: Mapping | bytes | bytearray) -> str:
    """Cheap content hash of a JSON document: SHA-256 of its
    :func:`~repro.core.ingest.canonical_bytes` (sorted keys, compact
    separators).

    Not isomorphism-stable — two dumps of the *same* document collide,
    renamed nodes do not.  It is the identity of one wire-level graph
    document: it keys the service's memos (the graph memo that skips
    the expensive WL fingerprint, the line memo ``_lines`` and the
    response-prefix memo ``_prefix_memo``), routes a request to its
    home shard, and is every answer's ``graph_digest``.

    ``doc`` may be those canonical bytes already, hashed as given: the
    serving path passes the bytes ``ingest_graph_doc(doc, out=...)``
    wrote, which it keeps for the rest of the request so the store
    record splices the hashed bytes instead of re-encoding the graph
    (``sha256(bytes) == digest``).
    """
    if not isinstance(doc, (bytes, bytearray)):
        doc = canonical_bytes(doc)
    return hashlib.sha256(doc).hexdigest()


def fingerprint_graph_doc(
    doc: Mapping | IndexedGraph, *, validate: bool = True
) -> tuple[IndexedGraph, str]:
    """Ingest a graph document and fingerprint the result.

    The document goes straight to the flat
    :class:`~repro.core.indexed.IndexedGraph` arrays and the cg3 1-WL
    fingerprint runs over them — no networkx graph is ever built, so a
    cache hit never pays freeze cost.  The golden tests assert the
    fingerprint equals that of the networkx oracle parse of ``doc``.
    ``validate=False`` is the trusted-input contract of
    :func:`~repro.core.ingest.ingest_graph_doc`.  An already-ingested
    view (the serving path ingests before it digests) is fingerprinted
    as it is.
    """
    if isinstance(doc, IndexedGraph):
        ig = doc
    else:
        ig = ingest_graph_doc(doc if isinstance(doc, dict) else dict(doc),
                              validate=validate)
    return ig, graph_fingerprint(ig)


def request_key(
    fingerprint: str,
    num_pes: int,
    objective: str,
    schedulers: Sequence[str],
) -> str:
    """Cache / coalescing key of one schedule request.

    Human-readable composite (documented in the package docstring):
    ``sv3:<graph fingerprint>:p<PEs>:<objective>:<sched+sched+...>``.
    The scheduler list is order-sensitive on purpose — order is the
    racing priority and breaks objective ties, so it shapes the answer.
    The leading :data:`SCHEDULE_KEY_VERSION` tag keeps entries persisted
    by older code unreachable after a schema or scheduler change.
    """
    return (
        f"{SCHEDULE_KEY_VERSION}:{fingerprint}"
        f":p{num_pes}:{objective}:{'+'.join(schedulers)}"
    )


def simulate_request_key(
    fingerprint: str,
    num_pes: int,
    scheduler: str,
    policy: str,
    pacing: str,
    capacity: int | None,
) -> str:
    """Cache / coalescing key of one ``simulate`` request.

    Same shape and version tag as :func:`request_key` with a ``sim``
    marker, so schedule and simulation entries share the sv-versioned
    cache without ever colliding.  There is no engine component: the
    simulator has one engine, and the wire's optional ``engine`` field
    may only name it.  ``capacity`` is the FIFO override (``c0`` = the schedule's own
    Section 6 sizes).
    """
    return (
        f"{SCHEDULE_KEY_VERSION}:{fingerprint}:p{num_pes}"
        f":sim:{scheduler}:{policy}:{pacing}:c{capacity or 0}"
    )
