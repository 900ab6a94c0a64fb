"""repro.service — high-throughput scheduling as a service.

The paper's pipeline (partition → spatial block schedule → buffer
sizing) runs here as an *online* subsystem: a JSON-lines socket server
accepts task graphs plus objectives and answers with the best schedule
a racing portfolio of schedulers finds, behind a two-tier schedule
cache keyed by an isomorphism-stable graph fingerprint.

Pieces
------
* :mod:`~repro.service.fingerprint` — request identity on top of
  :func:`repro.core.graph.graph_fingerprint`;
* :mod:`~repro.service.cache` — in-memory LRU over a persistent JSONL
  schedule store (hit/miss/eviction counters);
* :mod:`~repro.service.portfolio` — scheduler registry (``lts``,
  ``rlx``, ``work``, ``nstr``, ``heft``) raced per request with an
  early-cutoff budget, winner picked by makespan/throughput/buffer
  objective;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` —
  stdlib-only newline-delimited-JSON TCP server on a ``selectors``
  event loop (idle connections cost no threads; memo/cache-servable
  requests answered inline on the loop, computes on bounded worker
  threads; single-flight batching of identical fingerprints; graceful
  shutdown) and its client;
* :mod:`~repro.service.loadgen` — Zipf-skewed load generator over the
  campaign scenario registry, reporting p50/p95/p99 latency and req/s;
* :mod:`~repro.service.faults` — deterministic fault injection
  (``repro serve --fault-plan``) and the circuit breaker behind the
  disk cache tier; the reliability layer (per-request deadlines,
  supervised shards, crash-safe cache, graceful degradation and
  drain) is exercised through these primitives;
* :mod:`~repro.service.shard` — the sharded tier
  (``repro serve --shards N``): a supervising router forwarding by
  rendezvous hash over the graph document's digest to N shard processes
  that share the JSONL store, with crash respawn, transparent
  failover and a zero-downtime rolling restart (``repro reload``).

Fingerprint format
------------------
A graph fingerprint is 64 lowercase hex characters: the SHA-256 of

``"cg3|<num_nodes>|<num_edges>"`` ++ sorted node labels ++ sorted
``label(u) ++ label(v)`` edge pairs,

where node labels are 64-bit integers (packed big-endian, 8 bytes each)
obtained by hashed 1-WL color refinement over the flat
:class:`~repro.core.indexed.IndexedGraph` arrays (parsed straight from
the wire by :mod:`repro.core.ingest` — no networkx on the request
path).  Seeds are the first 8 bytes of the SHA-256 of ``(kind, I(v),
O(v))``; each round maps a label to the splitmix64 mix of itself plus
direction-salted, weighted sums of its mixed predecessor and successor
labels (commutative, so no sort per node), and refinement stops when
the number of label classes stops growing (at most ``|V|`` rounds).
SHA-256 runs once, over the final digest.  The rounds run as a NumPy
kernel on the CSR mirror the streaming candidates reuse, or as a
pure-Python twin producing the same hex.  Renaming or reordering nodes
never changes the fingerprint; changing topology or any node's volumes
does.  The ``cg3`` version tag is folded into the hash, so algorithm
revisions can never collide with old fingerprints.

Cache entries are keyed by the *request* identity
``"sv3:<fingerprint>:p<num_pes>:<objective>:<sched+sched+...>"``
(:func:`~repro.service.fingerprint.request_key`); the scheduler list is
order-sensitive because racing order breaks objective ties, and the
leading :data:`~repro.service.fingerprint.SCHEDULE_KEY_VERSION` tag
makes entries persisted by older code unreachable after a schedule
schema, scheduler or fingerprint change instead of being served stale
forever (:func:`~repro.service.fingerprint.is_current_key` keeps them
out of the store index, so compaction reclaims their bytes).

Because the key is isomorphism stable, a hit may have been computed for
a *differently named* copy of the requester's graph.  Each cached entry
therefore carries the exact graph document it was computed from: on a
cross-document hit the service finds an explicit isomorphism witness
(:func:`repro.core.graph.find_isomorphism`) between the two documents
and remaps the stored schedule's node names onto the requester's before
answering; when no witness exists — 1-WL (and, rarely, a 64-bit label
collision) can in principle give non-isomorphic graphs one fingerprint
— the request is recomputed rather than answered with names from
someone else's graph.

Quickstart::

    from repro.service import ScheduleCache, ScheduleServer, ScheduleService
    from repro.service import ServiceClient

    service = ScheduleService(cache=ScheduleCache("schedules.jsonl"))
    with ScheduleServer(service, port=0) as server:
        with ServiceClient(port=server.port) as client:
            response = client.schedule(graph, num_pes=64, objective="makespan")
            print(response["winner"], response["makespan"])

or, from the command line::

    repro serve --workers 4 &
    repro request graph.json -p 64 --objective makespan
    repro loadgen --requests 500 --workers 4
"""

from .cache import ScheduleCache, StoreKeyLock
from .client import ServiceClient, ServiceError
from .console import OpsConsole, run_top
from .faults import (
    FAULT_SITES,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from .fingerprint import (
    SCHEDULE_KEY_VERSION,
    doc_digest,
    fingerprint_graph_doc,
    graph_fingerprint,
    is_current_key,
    request_key,
    simulate_request_key,
)
from .loadgen import (
    MIN_RELIABLE_SAMPLES,
    LoadgenReport,
    build_request_pool,
    percentile,
    quantile,
    run_loadgen,
)
from .portfolio import (
    DEFAULT_SCHEDULERS,
    OBJECTIVES,
    CandidateResult,
    PortfolioResult,
    register_scheduler,
    run_portfolio,
    scheduler_names,
)
from .server import (
    DEFAULT_PORT,
    SIM_SCHEDULERS,
    ScheduleServer,
    ScheduleService,
)
from .shard import DEFAULT_SHARDS, ServeConfig, ShardRouter

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_SCHEDULERS",
    "DEFAULT_SHARDS",
    "FAULT_SITES",
    "SCHEDULE_KEY_VERSION",
    "CandidateResult",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "LoadgenReport",
    "MIN_RELIABLE_SAMPLES",
    "OBJECTIVES",
    "OpsConsole",
    "PortfolioResult",
    "ScheduleCache",
    "ScheduleServer",
    "ScheduleService",
    "ServeConfig",
    "ServiceClient",
    "ServiceError",
    "ShardRouter",
    "StoreKeyLock",
    "build_request_pool",
    "doc_digest",
    "fingerprint_graph_doc",
    "graph_fingerprint",
    "is_current_key",
    "percentile",
    "quantile",
    "register_scheduler",
    "request_key",
    "run_loadgen",
    "run_portfolio",
    "run_top",
    "scheduler_names",
    "SIM_SCHEDULERS",
    "simulate_request_key",
]
