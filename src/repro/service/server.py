"""The scheduling service and its event-loop socket server.

Two layers, separately testable:

* :class:`ScheduleService` — the protocol-agnostic request handler:
  dict in, dict out (:meth:`~ScheduleService.handle`), plus a
  wire-level byte path (:meth:`~ScheduleService.serve_line_fast` /
  :meth:`~ScheduleService.serve_line_slow`) the server uses.

  A cached entry holds the bytes it serves: the winner's schedule
  document, encoded once when the race ends, and the graph's canonical
  dump the ingest wrote (kept for remaps, and spliced into the store
  record).  Wire answers and store records splice those bytes; only
  :meth:`~ScheduleService.handle`, at its boundary for in-process
  callers, and a remap, which renames the nodes, decode a schedule
  into dicts.

  Every op is one row of :data:`OPS`: its declared fields
  (:class:`Field`: JSON type, range, allowed names read from the
  registries at call time) and how it is answered.
  :func:`parse_request` checks every field of a request before any
  digest, ingest or fingerprint and refuses the first bad one by name
  (an expired ``deadline_ms`` is refused as ``deadline_exceeded``);
  the shard router runs the same check, so it never forwards a request
  a shard would refuse.  Control ops answer from their row's ``run``,
  on the service and on the shard router alike (the router passes
  itself, so its ``health`` and ``stats`` are its aggregates).
  The keyed compute ops — ``schedule`` (the Section 5 streaming
  schedule, raced as a portfolio) and ``simulate`` (the Appendix B DES
  validation of one streaming variant's schedule) — share one pipeline
  (:meth:`~ScheduleService._serve_op`): fingerprint the graph (parsed
  by the zero-copy ingest, :mod:`repro.core.ingest`, with the cg3 1-WL
  fingerprint over its flat arrays), derive the op's request key, then
  serve it through the schedule cache and the in-flight table that
  batches identical keys (single-flight: one leader computes, every
  follower receives its answer).  A cold compute runs the op's body
  under a work slot; only its adapt step differs per op.  The key is
  isomorphism stable, so a hit may come from a *differently named* copy
  of the graph: ``schedule`` remaps the cached node names onto the
  requester's through a verified isomorphism witness (``remapped`` in
  the stats), and recomputes when none exists (a 1-WL collision);
  ``simulate``, whose diagnostics name nodes, recomputes on any
  cross-document hit.

  The service keeps three memos, one record per key:

  - ``_lines``: a served request line (exact bytes) → ``(request key or
    None, document digest)``, written for every ok, untruncated
    ``schedule`` answer.  A line with a key replays through
    :meth:`~ScheduleService.serve_line_fast` without a JSON parse or a
    digest; a ``no_cache`` line keeps only its digest;
  - ``_prefix_memo``: ``(key, digest)`` → the served entry serialized
    as (meta bytes, schedule bytes), minus the per-request
    ``cached``/``elapsed_ms`` tail, so an answer splices three byte
    strings instead of re-dumping a multi-hundred-kilobyte response;
  - ``_graphs``: a document digest → ``(fingerprint, IndexedGraph)``,
    so a repeated document skips the 1-WL refinement.  The digest
    hashes the canonical bytes the validated ingest writes, so a
    first-seen line pays the ingest before this probe; only a line
    whose digest ``_lines`` holds probes first and, on a hit, skips the
    ingest too.

  The first two share one byte budget,
  :attr:`~ScheduleService._WIRE_MEMO_BUDGET`, charged the bytes each
  record holds (a line's length, a prefix's two parts) and cleared
  wholesale before storing records that would exceed it; the graph
  memo is bounded by total node count,
  :attr:`~ScheduleService._GRAPH_MEMO_NODES`, and cleared on its own.
  All three are pure memoization — byte-for-byte the same responses
  the dict path produces (asserted in the tests).

* :class:`ScheduleServer` — a stdlib-only TCP front-end built on a
  ``selectors`` event loop (see the class docstring).

The wire protocol is specified in the README: the per-op field table
("Request fields") and the framing ("Wire format").
"""

from __future__ import annotations

import ipaddress
import json
import math
import selectors
import socket
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, NamedTuple, Sequence

from .. import __version__
from ..core.graph import find_isomorphism
from ..core.ingest import ingest_graph_doc
from ..core.serialize import _name_from_json, _name_to_json
from ..obs import NULL_SPAN, Telemetry
from .cache import ScheduleCache
from .faults import FaultInjector
from .fingerprint import (
    canonical_bytes,
    doc_digest,
    fingerprint_graph_doc,
    request_key,
    simulate_request_key,
)
from .gcpolicy import gc_stats
from .portfolio import (
    DEFAULT_SCHEDULERS,
    OBJECTIVES,
    run_portfolio,
    scheduler_names,
)

__all__ = [
    "ScheduleService", "ScheduleServer", "DeadlineExceeded",
    "DEFAULT_PORT", "MAX_PES", "SIM_SCHEDULERS",
    "COMPUTE_OPS", "OPS", "Field", "Op", "parse_request", "refusal",
    "loopback_peer", "remote_refusal",
]

DEFAULT_PORT = 7421

#: largest ``num_pes`` a request may ask for: covers the largest
#: dataflow devices, and bounds the per-PE state the schedulers allocate
MAX_PES = 1 << 20

#: schedulers whose output the DES substrate can execute (streaming
#: variants only: list schedules carry no blocks/FIFOs to simulate)
SIM_SCHEDULERS = ("lts", "rlx", "work")

_SIM_POLICIES = ("barrier", "pe", "dataflow")
_SIM_PACINGS = ("steady", "greedy")
#: the simulator's one engine; wire requests may name it, nothing else
_SIM_ENGINE = "indexed"


def loopback_peer(sock: socket.socket) -> bool:
    """Whether ``sock``'s peer is a loopback address (any of
    ``127.0.0.0/8`` or ``::1``): the server and the shard router honour
    ``shutdown``/``reload`` only from these unless remote control is
    allowed."""
    try:
        return ipaddress.ip_address(sock.getpeername()[0]).is_loopback
    except (OSError, ValueError):
        return False


def remote_refusal(op: str) -> dict:
    """The answer to a ``shutdown``/``reload`` from a non-loopback peer."""
    return {
        "ok": False,
        "error": f"{op} refused: not a loopback peer "
                 "(serve with --allow-remote-shutdown to enable)",
    }


class DeadlineExceeded(Exception):
    """The request's ``deadline_ms`` expired before it could be served.

    Raised at the cheap checkpoints — admission, queueing for a work
    slot, waiting on a coalescing leader — and converted by ``handle``
    into a refusal carrying ``deadline_exceeded`` and ``retryable``
    markers (requests are idempotent by fingerprint key, so clients may
    simply resend with a fresh deadline).
    """


#: the default of a field every request of its op must carry
_REQUIRED = object()


class Field(NamedTuple):
    """One declared request field: its JSON type, range and names.

    ``kind`` is ``dict`` (a JSON object), ``bool``, ``int`` (not a
    bool, in ``[lo, hi]``), ``float`` (any finite number, not a bool,
    above ``lo`` when set), ``str`` (one of ``names()``) or ``list`` (of
    ``names()``; empty means the default).  An absent or ``null`` field
    takes ``default``, except that a ``null`` name names nothing; a
    ``_REQUIRED`` field must be present.  ``names`` is called at check
    time, so a registry extended at run time is honoured.
    """

    kind: type
    default: object = _REQUIRED
    lo: int | None = None
    hi: int | None = None
    names: Callable[[], Sequence[str]] | None = None

    def read(self, name: str, doc: dict):
        """Field ``name``'s checked value in ``doc``; raises a
        ``ValueError`` naming the field."""
        value, kind, lo, hi = doc.get(name), self.kind, self.lo, self.hi
        if value is None and self.default is not _REQUIRED and (
                kind is not str or name not in doc):
            return self.default
        if kind is str or kind is list:
            known = self.names()
            if kind is list and (type(value) is not list
                                 or any(type(x) is not str for x in value)):
                raise ValueError(f"{name} must be a list of names")
            bad = [x for x in (value if kind is list else [value])
                   if type(x) is not str or x not in known]
            if not bad:
                return value if kind is str else tuple(value) or self.default
            raise ValueError(f"unknown {name} {', '.join(map(repr, bad))} "
                             f"(known: {', '.join(map(repr, known))})")
        if kind is float:
            try:
                ok = type(value) in (int, float) and math.isfinite(value) and (
                    lo is None or value > lo)
            except OverflowError:  # an int past the float range
                ok = False
            expect = "a finite number" + (f" > {lo}" if lo is not None else "")
        elif kind is int:
            ok = type(value) is int and lo <= value and (hi is None or value <= hi)
            expect = (f"an integer in [{lo}, {hi}]" if hi is not None
                      else f"an integer of at least {lo}")
        else:
            ok = type(value) is kind
            expect = "a JSON object" if kind is dict else "a JSON boolean"
        if not ok:
            raise ValueError(f"{name} must be {expect}")
        return value


def refusal(exc: Exception) -> dict:
    """The answer to a request refused with ``exc``; the shard router
    answers the refusals :func:`parse_request` raises with these same
    bytes, without forwarding the line."""
    if isinstance(exc, DeadlineExceeded):
        return {
            "ok": False, "error": "deadline exceeded before completion",
            "deadline_exceeded": True, "retryable": True,
        }
    return {"ok": False, "error": str(exc) or type(exc).__name__}


class _InFlight:
    """One leader computing a key; followers wait on the event."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None


def _remap_name(obj, mapping):
    return _name_to_json(mapping[_name_from_json(obj)])


def _remap_entry(entry: dict, mapping: dict, digest: str) -> dict:
    """``entry`` answering the requester's graph document: its schedule
    bytes decoded once, every node renamed the way that document names
    it (``mapping``: cached → requester) and encoded again.  The cached
    graph is left out: an answer never carries it."""
    remapped = {k: v for k, v in entry.items() if k != "graph"}
    remapped["graph_digest"] = digest
    schedule = json.loads(entry["schedule"])
    for task in schedule.get("tasks", ()):
        task["name"] = _remap_name(task["name"], mapping)
    for fifo in schedule.get("fifo_sizes", ()):
        fifo["src"] = _remap_name(fifo["src"], mapping)
        fifo["dst"] = _remap_name(fifo["dst"], mapping)
    remapped["schedule"] = json.dumps(schedule).encode()
    return remapped


class ScheduleService:
    """Request handler shared by the socket server and in-process callers."""

    def __init__(
        self,
        cache: ScheduleCache | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
        keylock=None,
    ) -> None:
        self.cache = cache
        #: cross-process single-flight on the shared disk store (a
        #: :class:`~repro.service.cache.StoreKeyLock`); shard processes
        #: get one so two shards never race the same cold miss
        self.keylock = keylock
        #: telemetry facade: registry + span ring (+ optional span log).
        #: The default is a private, *enabled* Telemetry — instruments
        #: are cheap enough to leave on; ``repro serve --no-telemetry``
        #: passes a disabled one (spans/histograms off, counters live).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: active fault plan, if any (``repro serve --fault-plan``);
        #: the cache and the socket server both consult this one
        #: injector so a plan replays deterministically
        self.faults = faults
        #: set by the owning server during SIGTERM drain: new compute
        #: requests are refused while in-flight ones finish
        self.draining = False
        self._register_instruments()
        if faults is not None:
            faults.bind(
                registry=self.telemetry.registry,
                flight=self.telemetry.flight,
            )
        if cache is not None:
            cache.bind_registry(self.telemetry.registry)
            cache.bind_flight(self.telemetry.flight)
            if faults is not None:
                cache.bind_faults(faults)
        self.started = time.time()
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        # the three memos (see the module docstring)
        self._lines: dict[bytes, tuple[str | None, str]] = {}
        self._prefix_memo: dict[tuple[str, str], tuple[bytes, bytes]] = {}
        self._wire_memo_bytes = 0
        # ingested views are immutable (their lazy memo fills are
        # idempotent), so request threads share them
        self._graphs: dict[str, tuple[str, object]] = {}
        self._graph_nodes = 0

    #: bytes the line and prefix memos may hold before both are cleared
    _WIRE_MEMO_BUDGET = 10 << 20
    #: total node count the graph memo may hold before it is cleared: an
    #: ingested view costs a few hundred bytes per node across its
    #: arrays and lazy memos, so an entry count would let 10k-node views
    #: pin hundreds of MB
    _GRAPH_MEMO_NODES = 200_000

    # ------------------------------------------------------------------
    # instruments (the legacy counter attributes are views over these)
    # ------------------------------------------------------------------
    def _register_instruments(self) -> None:
        reg = self.telemetry.registry
        c = reg.counter
        self._c_served = c("service.served", "requests answered")
        self._c_computed = c("service.computed", "cold portfolio computes")
        self._c_simulated = c("service.simulated", "cold DES simulations")
        #: the cold-compute counter of each keyed op
        self._c_cold = {
            "schedule": self._c_computed, "simulate": self._c_simulated,
        }
        self._c_coalesced = c(
            "service.coalesced", "followers served by a single-flight leader"
        )
        self._c_crossflight = c(
            "service.crossflight",
            "cold misses answered by a sibling shard's concurrent compute",
        )
        self._c_remapped = c(
            "service.remapped", "cross-document hits isomorphism-remapped"
        )
        self._c_fastpath = c(
            "service.fastpath", "lines answered from the wire memo tiers"
        )
        self._c_errors = c("service.errors", "requests answered ok=false")
        self._c_retries = c(
            "service.retries", "requests arriving with a retry marker"
        )
        self._c_deadline = c(
            "service.deadline_refused",
            "requests refused because their deadline expired",
        )
        self._c_requests = c(
            "service.requests", "requests per op and outcome",
            labels=("op", "outcome"),
        )
        # resolved once: the fast path charges this child per line
        self._c_req_sched_ok = self._c_requests.labels(
            op="schedule", outcome="ok"
        )
        self._c_wire_clears = c(
            "service.wire_memo.clears", "wire-memo wholesale clears"
        )
        self._c_ig_clears = c(
            "service.ig_memo.clears", "graph-memo wholesale clears"
        )
        reg.gauge(
            "service.wire_memo.bytes", "bytes charged to the wire memos",
            fn=lambda: self._wire_memo_bytes,
        )
        reg.gauge(
            "service.uptime_s", "seconds since service construction",
            fn=lambda: time.time() - self.started,
        )
        self._c_races = c("portfolio.races", "portfolio races run")
        self._c_truncated = c(
            "portfolio.truncated", "races cut off by the budget"
        )
        self._c_wins = c(
            "portfolio.wins", "races won, per scheduler", labels=("scheduler",)
        )

    #: request keys are long (version tag + 64 hex chars + parameters);
    #: flight events carry this prefix, plenty to correlate and grep by
    _FLIGHT_KEY_CHARS = 48

    # ------------------------------------------------------------------
    def handle(self, doc: dict, work_slots=None, *, digest_hint=None,
               span=None) -> dict:
        """Dispatch one request document; never raises.

        The answer is all dicts: a schedule answer's ``schedule``, which
        the service holds as the bytes the wire splices, is decoded here
        for in-process callers (the wire path calls the undecoded core).
        See :meth:`_handle` for the arguments.
        """
        response = self._handle(doc, work_slots, digest_hint=digest_hint,
                                span=span)
        schedule = response.get("schedule")
        if isinstance(schedule, bytes):
            response["schedule"] = json.loads(schedule)
        return response

    def _handle(self, doc: dict, work_slots=None, *, digest_hint=None,
                span=None) -> dict:
        """:meth:`handle`, with a schedule answer's ``schedule`` left as
        its encoded bytes.

        ``work_slots`` (an acquirable context manager, typically a
        semaphore) is held only around actual scheduling computation:
        cheap ops, cache hits and coalesced waiters never occupy a
        slot, so a pool of blocked followers cannot starve unrelated
        requests.

        ``span`` is the request's trace context (wire callers create it
        around the whole line so the serialize phase is captured too);
        direct ``handle`` callers get one created here for the compute
        ops.
        """
        slots = work_slots if work_slots is not None else nullcontext()
        op = doc.get("op")
        # the request counter's op label: anything a client invents is
        # folded into "unknown" (bounded cardinality)
        label = op if type(op) is str and op in OPS else "unknown"
        keyed = op in COMPUTE_OPS
        owns_span = span is None and keyed
        if owns_span:
            span = self.telemetry.span(op)
        elif span is None:
            span = NULL_SPAN
        flight = self.telemetry.flight
        if keyed:
            # the admitting request, first event of its flight sequence
            # (cheap control ops would only drown the ring — the live
            # console polls metrics/trace every second)
            flight.record(
                "request", op=op, trace_id=span.trace_id or None,
                no_cache=doc.get("no_cache") is True,
            )
        try:
            req = parse_request(doc)
            if req.get("retry"):
                # a client resending after a failure/refusal; idempotent
                # by fingerprint key, but worth counting and correlating
                self._c_retries.inc()
            response = self._dispatch(op, req, slots, digest_hint, span)
        except Exception as exc:  # a bad request must never kill a worker
            if isinstance(exc, DeadlineExceeded):
                self._c_deadline.inc()
                flight.record("deadline", op=op, trace_id=span.trace_id or None)
            self._c_errors.inc()
            response = refusal(exc)
        outcome = "ok" if response.get("ok") else "error"
        if outcome == "error":
            flight.record(
                "refused", op=label,
                error=str(response.get("error", ""))[:200],
            )
        self._c_requests.labels(op=label, outcome=outcome).inc()
        if owns_span:
            span.finish(outcome)
        return response

    def _dispatch(self, op: str, req: dict, slots, digest_hint, span) -> dict:
        spec = OPS[op]
        if spec.run is not None:
            return spec.run(self, req)
        if self.draining:
            return self._error(
                "server is draining", draining=True, retryable=True
            )
        return self._serve_op(op, req, slots, digest_hint, span)

    # ------------------------------------------------------------------
    # wire-level byte path (used by the event-loop server)
    # ------------------------------------------------------------------
    def serve_line_fast(self, line: bytes) -> bytes | None:
        """Answer a previously seen request line from the memo tiers.

        Returns the full response bytes (newline-terminated), or
        ``None`` when the line needs the slow path — never blocks on
        scheduling computation, so the server may call this on its
        event loop.  Semantically pure memoization of
        :meth:`serve_line_slow`: a non-``None`` result is byte-for-byte
        what the slow path would have produced for the same cache tier.
        """
        key, digest = self._lines.get(line, (None, None))
        if key is None:
            return None
        t0 = time.perf_counter()
        # the slow path re-probes and counts the miss on a None return
        hit = self.cache.get(key, count_miss=False)
        if hit is None:
            return None
        entry, tier = hit
        if entry.get("graph_digest") != digest:
            # cross-document hit: the stored entry names another
            # submitter's nodes.  A previously served remap for this
            # exact (key, digest) is memoized as a prefix — otherwise
            # the slow path must find the isomorphism witness.
            parts = self._prefix_memo.get((key, digest))
            if parts is None:
                return None
        else:
            parts = self._entry_prefix(key, digest, entry)
        self._c_served.inc()
        self._c_fastpath.inc()
        self._c_req_sched_ok.inc()
        data = self._splice(
            parts, tier, round(1000.0 * (time.perf_counter() - t0), 3)
        )
        self.telemetry.observe_request(
            "schedule", "fastpath", 1000.0 * (time.perf_counter() - t0)
        )
        return data

    def serve_line_slow(
        self, line: bytes, work_slots=None, shutdown_permitted: bool = True,
        conn_id: int | None = None,
    ) -> tuple[bytes, bool]:
        """Full wire handling of one request line.

        Returns ``(response bytes, shutdown accepted)``.  Populates the
        line and prefix memos for eligible schedule responses so replays
        of the same bytes take :meth:`serve_line_fast`.  For compute ops a
        request span is opened here — around decode, dispatch *and*
        serialize — so the whole wire round trip is phase-accounted.
        """
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            response = {"ok": False, "error": f"bad request: {exc}"}
            return json.dumps(response).encode() + b"\n", False
        op = doc.get("op")
        if op == "shutdown" and not shutdown_permitted:
            return json.dumps(remote_refusal(op)).encode() + b"\n", False
        span = NULL_SPAN
        if op in COMPUTE_OPS:
            span = self.telemetry.span(op, wire=True)
            if conn_id is not None:
                span.annotate(conn=conn_id)
        # a line served before skips re-hashing its graph document
        _, digest_hint = self._lines.get(line, (None, None))
        outcome = "error"
        try:
            response = self._handle(
                doc, work_slots, digest_hint=digest_hint, span=span,
            )
            with span.phase("serialize"):
                data = self._encode_response(line, doc, response)
            outcome = "ok" if response.get("ok") else "error"
        finally:
            span.finish(outcome)
        shutdown = op == "shutdown" and bool(response.get("ok"))
        return data, shutdown

    @staticmethod
    def _splice(parts: tuple[bytes, bytes], tier, elapsed_ms: float) -> bytes:
        """Assemble ``(meta, schedule bytes)`` + the per-request tail;
        byte-identical to ``json.dumps`` of the equivalent response."""
        meta, sched = parts
        return b'%s, "schedule": %s, "cached": %s, "elapsed_ms": %s}\n' % (
            meta,
            sched,
            json.dumps(tier).encode(),
            json.dumps(elapsed_ms).encode(),
        )

    def _remember_wire(self, key: str, digest: str,
                       parts: tuple[bytes, bytes], line: bytes | None = None,
                       record: tuple | None = None) -> None:
        """Memoize ``parts`` under ``(key, digest)`` and, given a
        ``line``, map it to ``record``; each is charged its bytes.

        The new records are charged before they are stored: when they
        would cross the budget, the line and prefix memos are cleared
        first (unless already empty), so the records just stored
        survive to serve their first replay.  Last write wins,
        mirroring cache.put: a forced recompute overwrites the LRU
        entry, so the memoized bytes must track the same (newest)
        response or fast and slow replies to one line would diverge in
        the per-candidate timing fields."""
        added = len(parts[0]) + len(parts[1])
        with self._lock:
            old = self._prefix_memo.pop((key, digest), None)
            if old is not None:
                self._wire_memo_bytes -= len(old[0]) + len(old[1])
            if line is not None:
                if self._lines.pop(line, None) is not None:
                    self._wire_memo_bytes -= len(line)
                added += len(line)
            if (self._wire_memo_bytes
                    and self._wire_memo_bytes + added > self._WIRE_MEMO_BUDGET):
                self._lines.clear()
                self._prefix_memo.clear()
                self._wire_memo_bytes = 0
                self._c_wire_clears.inc()
            self._prefix_memo[key, digest] = parts
            if line is not None:
                self._lines[line] = record
            self._wire_memo_bytes += added

    @staticmethod
    def _split_response(response: dict) -> tuple[bytes, bytes]:
        """(meta minus closing brace, schedule document bytes); the
        schedule rides last in the entry layout, so splicing the two
        back together reproduces ``json.dumps`` of the whole answer
        with its schedule decoded."""
        meta_doc = {
            k: v for k, v in response.items()
            if k not in ("graph", "schedule", "cached", "elapsed_ms")
        }
        return json.dumps(meta_doc).encode()[:-1], response["schedule"]

    def _entry_prefix(self, key: str, digest: str,
                      entry: dict) -> tuple[bytes, bytes]:
        """``entry`` serialized as (meta, schedule) byte parts, memoized
        per (key, digest)."""
        parts = self._prefix_memo.get((key, digest))
        if parts is None:
            parts = self._split_response(entry)
            self._remember_wire(key, digest, parts)
        return parts

    def _encode_response(self, line: bytes, doc: dict, response: dict) -> bytes:
        """Serialize ``response``, splicing a schedule answer's bytes;
        memoize an untruncated one (a truncated race is never cached,
        so its bytes are not reproducible).  Its line maps to ``(key,
        digest)`` when the cache can replay it, and to ``(None,
        digest)`` for a forced ``no_cache`` recompute, whose replays
        recompute but skip re-hashing the graph document."""
        if not isinstance(response.get("schedule"), bytes):
            return json.dumps(response).encode() + b"\n"
        key, digest = response["key"], response["graph_digest"]
        if response.get("truncated"):
            parts = self._split_response(response)
        else:
            cacheable = self.cache is not None and not doc.get("no_cache")
            parts = (self._prefix_memo.get((key, digest))
                     or self._split_response(response))
            # line and prefix in one charge: a clear for either keeps both
            self._remember_wire(key, digest, parts, line,
                                (key if cacheable else None, digest))
        return self._splice(parts, response["cached"], response["elapsed_ms"])

    def health(self) -> dict:
        """The ``health`` op: ok / degraded / draining, with evidence.

        ``degraded`` means at least one circuit breaker is *open* (the
        disk cache tier running LRU+compute-only).  ``half_open`` counts
        as ok: the cooldown has elapsed and the next disk touch decides
        — without traffic the breaker could sit half-open forever, and
        a server that would serve fine is not degraded.  ``draining``
        wins over everything (the server is finishing in-flight work
        after SIGTERM).  The response carries each breaker's state and the
        fault plan's progress, so
        one probe explains *why* as well as *what*.
        """
        breakers = []
        if self.cache is not None and self.cache.breaker is not None:
            breakers.append(self.cache.breaker.to_dict())
        tripped = [b["name"] for b in breakers if b["state"] == "open"]
        if self.draining:
            status = "draining"
        elif tripped:
            status = "degraded"
        else:
            status = "ok"
        return {
            "ok": True,
            "op": "health",
            "status": status,
            "draining": self.draining,
            "breakers": breakers,
            "tripped": tripped,
            "faults": (
                self.faults.snapshot() if self.faults is not None else None
            ),
        }

    # ------------------------------------------------------------------
    def _error(self, message: str, **extra) -> dict:
        self._c_errors.inc()
        return {"ok": False, "error": message, **extra}

    def stats(self) -> dict:
        """The ``stats`` op: counters, memo occupancy, cache and GC."""
        from ..core.backend import backend_info

        stats = {
            "ok": True,
            "op": "stats",
            "version": __version__,
            "backend": backend_info(),
            "uptime_s": round(time.time() - self.started, 3),
            "served": self._c_served.value,
            "computed": self._c_computed.value,
            "simulated": self._c_simulated.value,
            "coalesced": self._c_coalesced.value,
            "crossflight": self._c_crossflight.value,
            "remapped": self._c_remapped.value,
            "fastpath": self._c_fastpath.value,
            "errors": self._c_errors.value,
            "schedulers": scheduler_names(),
            "sim_schedulers": list(SIM_SCHEDULERS),
            "objectives": list(OBJECTIVES),
            "telemetry": self.telemetry.enabled,
        }
        with self._lock:
            wire_bytes = self._wire_memo_bytes
            stats["wire_memo"] = {
                "bytes": wire_bytes,
                "budget": self._WIRE_MEMO_BUDGET,
                "occupancy": round(wire_bytes / self._WIRE_MEMO_BUDGET, 4),
                "lines": len(self._lines),
                "prefixes": len(self._prefix_memo),
                "clears": self._c_wire_clears.value,
            }
        stats["cache"] = self.cache.counters() if self.cache else None
        stats["gc"] = gc_stats(self.telemetry.registry)
        stats["draining"] = self.draining
        stats["health"] = self.health()["status"]
        if self.faults is not None:
            stats["faults"] = self.faults.snapshot()
        # every way a cached/memoized byte can leave this process, in
        # one place: LRU evictions are per-entry, the memos clear
        # wholesale (each clear drops the whole tier)
        stats["evictions"] = {
            "lru": self.cache.evictions if self.cache else 0,
            "wire_memo_clears": self._c_wire_clears.value,
            "ig_memo_clears": self._c_ig_clears.value,
        }
        return stats

    # ------------------------------------------------------------------
    def _remember_graph(self, digest: str, fp: str, graph) -> tuple:
        """Memoize ``(fp, graph)`` under ``digest`` and return it; the
        memo is cleared first when ``graph`` would overflow its node
        budget."""
        memo = fp, graph
        with self._lock:
            if digest not in self._graphs:
                if self._graph_nodes + graph.n > self._GRAPH_MEMO_NODES:
                    self._graphs.clear()
                    self._graph_nodes = 0
                    self._c_ig_clears.inc()
                self._graphs[digest] = memo
                self._graph_nodes += graph.n
        return memo

    def _fingerprint(self, graph_doc: dict, digest_hint: str | None = None):
        """``(graph, fingerprint, digest, graph bytes)``.

        A digest from the line memo probes the graph memo first: a hit
        skips the ingest and returns no graph bytes.  Otherwise the
        ingest is the one walk of the document: it writes the canonical
        bytes the digest hashes (kept for this request only: a cold miss
        splices them into its store record), and only a digest the
        graph memo lacks pays the fingerprint."""
        if digest_hint is not None:
            memo = self._graphs.get(digest_hint)
            if memo is not None:
                fp, graph = memo
                return graph, fp, digest_hint, None
        graph_bytes = bytearray()
        graph = ingest_graph_doc(graph_doc, out=graph_bytes)
        digest = doc_digest(graph_bytes)
        memo = self._graphs.get(digest)
        if memo is None:
            graph, fp = fingerprint_graph_doc(graph)
            memo = self._remember_graph(digest, fp, graph)
        fp, graph = memo
        return graph, fp, digest, graph_bytes

    def _serve_op(self, op: str, req: dict, slots, digest_hint, span) -> dict:
        """The keyed pipeline every compute op shares: fingerprint the
        graph, derive the op's request key, then serve it through the
        cache and single-flight tiers (:meth:`_serve_keyed`)."""
        spec = OPS[op]
        t0 = time.perf_counter()
        deadline_ms = req["deadline_ms"]
        job = _Job(req, span, None if deadline_ms is None
                   else t0 + deadline_ms / 1000.0)
        with span.phase("fingerprint"):
            job.graph, job.fp, job.digest, job.graph_bytes = self._fingerprint(
                req["graph"], digest_hint
            )
            job.key = spec.key(self, job)
        return self._serve_keyed(
            job.key, req["no_cache"],
            lambda: self._compute(op, job, slots),
            lambda entry: spec.adapt(self, entry, job),
            t0, span, job.deadline,
        )

    def _adapt(self, entry: dict, job: "_Job") -> dict | None:
        """``schedule``'s adapt: make a cached or coalesced ``entry``
        answer *this* request.

        Same wire document (digest match): serve as-is.  Different
        document under the same isomorphism-stable key: the stored
        schedule names the original submitter's nodes, so remap them
        through an explicit isomorphism witness between the two graphs.
        Returns ``None`` — recompute, never answer wrongly — when no
        witness is found (a 1-WL collision between non-isomorphic
        graphs, or an entry persisted without its graph document).
        """
        digest = job.digest
        if entry.get("graph_digest") == digest:
            return entry
        cached_graph = entry.get("graph")
        if cached_graph is None:
            return None
        cached_digest = entry.get("graph_digest")
        memo = self._graphs.get(cached_digest)
        if memo is None:
            # the cached document was validated when its entry was computed
            memo = self._remember_graph(
                cached_digest, entry["fingerprint"],
                ingest_graph_doc(json.loads(cached_graph), validate=False),
            )
        mapping = find_isomorphism(memo[1], job.graph)
        if mapping is None:
            return None
        self._c_remapped.inc()
        return _remap_entry(entry, mapping, digest)

    def _same_document(self, entry: dict, job: "_Job") -> dict | None:
        """``simulate``'s adapt: simulation diagnostics (blocked sets,
        channel names) name the original submitter's nodes and, unlike
        schedules, have no witness remap — a cross-document hit from a
        renamed isomorphic copy recomputes instead of answering
        wrongly."""
        return entry if entry.get("graph_digest") == job.digest else None

    @staticmethod
    def _check_deadline(deadline: float | None) -> None:
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineExceeded

    def _maybe_slow(self, span=NULL_SPAN) -> None:
        """``compute.slow`` fault site: stall before real work starts."""
        if self.faults is None:
            return
        rule = self.faults.fire("compute.slow", trace_id=span.trace_id)
        if rule is not None:
            time.sleep(rule.seconds)

    def _serve_keyed(self, key: str, no_cache: bool, compute, adapt,
                     t0: float, span=NULL_SPAN,
                     deadline: float | None = None) -> dict:
        """Cache + single-flight serving discipline shared by the
        ``schedule`` and ``simulate`` ops.

        ``compute()`` produces (and caches) a fresh entry; ``adapt``
        makes a cached or coalesced entry answer *this* request, or
        returns ``None`` to force a recompute.

        Phase accounting: the leader's span records the compute phases
        (portfolio/encode/…); a coalesced follower records only its
        ``coalesce`` wait and ``adapt`` — so phase histograms count one
        compute per cold key no matter how many requests it answered.
        """
        recorder = self.telemetry.flight
        short_key = key[: self._FLIGHT_KEY_CHARS]
        if not no_cache and self.cache is not None:
            with span.phase("cache"):
                hit = self.cache.get(key)
            if hit is not None:
                recorder.record("cache_hit", key=short_key, tier=hit[1])
                return self._answer(*hit, compute, adapt, t0, span)
            recorder.record("cache_miss", key=short_key)

        if no_cache:
            # forced recompute: bypass coalescing as well
            return self._respond(compute(), False, t0)

        with self._lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _InFlight()
                self._inflight[key] = flight
        recorder.record(
            "coalesce_leader" if leader else "coalesce_follower",
            key=short_key,
        )
        if not leader:
            # waiting on the leader must not pin a work slot: followers
            # hold nothing while blocked, then adapt the leader's entry
            with span.phase("coalesce"):
                if deadline is None:
                    flight.event.wait()
                elif not flight.event.wait(
                    max(0.0, deadline - time.perf_counter())
                ):
                    raise DeadlineExceeded
            self._c_coalesced.inc()
            response = flight.response
            if response is None or not response.get("ok", False):
                return self._error(
                    "coalesced computation failed", retryable=True
                )
            return self._answer(response, "inflight", compute, adapt, t0, span)

        # double-check the cache under leadership: a previous leader may
        # have completed between our miss and taking the in-flight slot
        # (the miss was already counted once — don't count it again)
        if self.cache is not None:
            with span.phase("cache"):
                hit = self.cache.get(key, count_miss=False)
            if hit is not None:
                flight.response = hit[0]
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                return self._answer(*hit, compute, adapt, t0, span)

        try:
            entry, tier = self._leader_compute(
                key, compute, adapt, recorder, short_key, span, deadline
            )
        except Exception:
            flight.response = {"ok": False}
            raise
        else:
            flight.response = entry
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
        return self._respond(entry, tier, t0)

    def _answer(self, entry: dict, tier, compute, adapt, t0: float,
                span) -> dict:
        """Answer with ``entry`` from ``tier`` when ``adapt`` makes it
        fit this request, else with a fresh ``compute()``."""
        with span.phase("adapt"):
            served = adapt(entry)
        if served is None:
            return self._respond(compute(), False, t0)
        span.annotate(tier=tier)
        return self._respond(served, tier, t0)

    def _leader_compute(self, key, compute, adapt, recorder, short_key,
                        span=NULL_SPAN, deadline: float | None = None):
        """Run the leader's compute, bracketed by the cross-shard lock.

        Without a ``keylock`` (single-process serving) this is just
        ``compute()``.  With one, the disk store is shared between
        shard processes: take the key's advisory lock, re-probe the
        store (a sibling shard may have computed and persisted this key
        while we waited — :meth:`ScheduleCache.refresh` makes its
        append visible), and only compute on a still-cold key.  Returns
        ``(entry, tier)`` where ``tier`` is ``False`` for a fresh
        compute — mirroring the ``cached`` response field.
        """
        if self.keylock is None or self.cache is None:
            return compute(), False
        lock = self.keylock.acquire(key, deadline=deadline)
        try:
            lock.__enter__()
        except TimeoutError:
            raise DeadlineExceeded from None
        try:
            with span.phase("crossflight"):
                self.cache.refresh()
                hit = self.cache.get(key, count_miss=False)
            if hit is not None:
                served = adapt(hit[0])
                if served is not None:
                    self._c_crossflight.inc()
                    recorder.record("crossflight", key=short_key)
                    return served, "store"
            return compute(), False
        finally:
            lock.__exit__(None, None, None)

    def _compute(self, op: str, job: "_Job", slots) -> dict:
        """A cold compute of any keyed op: the op's body runs under a
        work slot, after the deadline check and the ``compute.slow``
        fault site; its entry is counted and, when the body says it may
        be, cached."""
        span = job.span
        with slots:  # the CPU-bound part runs under a work slot
            # queueing for the slot may have consumed the deadline:
            # refuse before spending compute on an answer nobody awaits
            self._check_deadline(job.deadline)
            self._maybe_slow(span)
            entry, cacheable = OPS[op].body(self, job)
        self._c_cold[op].inc()
        if cacheable and self.cache is not None:
            with span.phase("store"):
                self.cache.put(job.key, entry)
        return entry

    def _schedule_key(self, job: "_Job") -> str:
        req = job.req
        return request_key(
            job.fp, req["num_pes"], req["objective"], req["schedulers"]
        )

    def _race(self, job: "_Job") -> tuple[dict, bool]:
        """``schedule``'s body: race the portfolio and encode the winner
        once; a budget-truncated race is not reproducible, so it is
        never cached (nor are its answer bytes memoized)."""
        req, span = job.req, job.span
        budget_ms = req["budget_ms"]
        budget_s = budget_ms / 1000.0 if budget_ms is not None else None
        if job.deadline is not None:
            # the race is cancelled at the deadline: remaining time
            # caps the portfolio budget, so late candidates are cut
            # off (truncated results are never cached)
            remaining = job.deadline - time.perf_counter()
            budget_s = (
                remaining if budget_s is None else min(budget_s, remaining)
            )
        with span.phase("portfolio"):
            result = run_portfolio(
                job.graph, req["num_pes"], objective=req["objective"],
                schedulers=req["schedulers"], budget_s=budget_s,
                trace_id=span.trace_id or None,
                flight=self.telemetry.flight,
            )
        self._c_races.inc()
        self._c_wins.labels(scheduler=result.winner.name).inc()
        if result.truncated:
            self._c_truncated.inc()
        for c in result.candidates:
            span.add_phase(
                f"cand:{c.name}",
                wall_ms=1000.0 * c.elapsed,
                cpu_ms=1000.0 * c.cpu,
            )
        # the winner is encoded once: the entry holds these bytes, and
        # the store record and every wire answer splice them
        with span.phase("encode"):
            schedule = result.schedule_bytes()
        graph = job.graph_bytes
        entry = {
            "ok": True,
            "op": "schedule",
            "fingerprint": job.fp,
            "key": job.key,
            # the exact wire document and its digest ride along so a
            # later hit from a renamed isomorphic copy can be remapped
            "graph_digest": job.digest,
            "graph": (canonical_bytes(req["graph"]) if graph is None
                      else bytes(graph)),
            "num_pes": req["num_pes"],
            "objective": req["objective"],
            "schedulers": list(req["schedulers"]),
            "winner": result.winner.name,
            "value": result.winner.value,
            "makespan": result.winner.makespan,
            "fifo_total": result.winner.fifo_total,
            "truncated": result.truncated,
            "candidates": [c.to_dict() for c in result.candidates],
            "schedule": schedule,
        }
        if result.truncated:
            return entry, False
        self._remember_wire(job.key, job.digest, self._split_response(entry))
        return entry, True

    def _simulate_key(self, job: "_Job") -> str:
        req = job.req
        return simulate_request_key(
            job.fp, req["num_pes"], req["scheduler"], req["policy"],
            req["pacing"], req["capacity"],
        )

    def _replay(self, job: "_Job") -> tuple[dict, bool]:
        """``simulate``'s body: schedule with one streaming variant, run
        it under the DES and report the deadlock diagnostics."""
        # resolved per call from the package namespaces, so wrappers
        # installed there (tracing) see these calls
        from ..core import schedule_streaming
        from ..sim import DeadlockError, simulate_schedule

        req, span = job.req, job.span
        num_pes, scheduler = req["num_pes"], req["scheduler"]
        capacity = req["capacity"]
        with span.phase("schedule"):
            schedule = schedule_streaming(job.graph, num_pes, scheduler)
        with span.phase("simulate"):
            try:
                sim = simulate_schedule(
                    schedule, policy=req["policy"], pacing=req["pacing"],
                    capacity_override=capacity, raise_on_deadlock=True,
                )
                deadlocked = False
                sim_makespan = sim.makespan
                blocked: list[str] = []
                channels = sim.num_channels
                full: dict[str, tuple[int, int]] = {}
            except DeadlockError as exc:
                deadlocked = True
                sim_makespan = exc.time
                blocked = exc.blocked
                channels = len(exc.channels)
                full = exc.full_channels()
        if deadlocked:
            # one of the flight recorder's raisons d'être: the ring now
            # holds request → cache_miss → … → this, dumped as a unit
            recorder = self.telemetry.flight
            recorder.record(
                "deadlock", key=job.key[: self._FLIGHT_KEY_CHARS],
                scheduler=scheduler, num_pes=num_pes,
                capacity=capacity, sim_time=sim_makespan,
                blocked=len(blocked), full_channels=len(full),
                trace_id=span.trace_id or None,
            )
            recorder.maybe_dump("deadlock")
        error_pct = None
        if not deadlocked and sim_makespan > 0:
            error_pct = round(
                100.0 * (schedule.makespan - sim_makespan) / sim_makespan, 4
            )
        entry = {
            "ok": True,
            "op": "simulate",
            "fingerprint": job.fp,
            "key": job.key,
            # digest only — unlike schedule entries there is no witness
            # remap to feed (cross-document hits recompute), so storing
            # the whole graph document would bloat both cache tiers for
            # zero reads
            "graph_digest": job.digest,
            "num_pes": num_pes,
            "scheduler": scheduler,
            "policy": req["policy"],
            "pacing": req["pacing"],
            "capacity": capacity,
            "engine": _SIM_ENGINE,
            "makespan": schedule.makespan,
            "sim_makespan": sim_makespan,
            "error_pct": error_pct,
            "deadlocked": deadlocked,
            "blocked": list(blocked),
            "fifo_total": schedule.fifo_total,
            "channels": channels,
            # Figure 9 diagnosability over the wire: the channels at
            # capacity at deadlock time (empty on a clean run)
            "full_channels": [
                {"channel": name, "occupancy": occ, "capacity": cap}
                for name, (occ, cap) in full.items()
            ],
        }
        return entry, True

    def _respond(self, entry: dict, tier, t0: float) -> dict:
        response = dict(entry)
        response.pop("graph", None)  # the requester already has it
        response["cached"] = tier
        response["elapsed_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
        self._c_served.inc()
        return response


class _Job:
    """One keyed request being served: its checked fields, deadline and
    what the fingerprint step found (the ingested view, fingerprint,
    digest and canonical graph bytes)."""

    __slots__ = ("req", "span", "deadline", "graph", "fp", "digest",
                 "graph_bytes", "key")

    def __init__(self, req: dict, span, deadline: float | None) -> None:
        self.req = req
        self.span = span
        self.deadline = deadline



# the control ops that read only the host's telemetry facade (the
# service's or the shard router's); a refusal raises ValueError
def _metrics(host, req: dict) -> dict:
    """The ``metrics`` op: the registry in both transports —
    Prometheus text exposition and a structured snapshot."""
    registry = host.telemetry.registry
    return {
        "ok": True,
        "op": "metrics",
        "telemetry_enabled": host.telemetry.enabled,
        "text": registry.render(),
        "snapshot": registry.snapshot(),
    }


def _trace(host, req: dict) -> dict:
    """The ``trace`` op: the last-N request spans from the ring,
    as span dicts and as chrome trace events."""
    telemetry = host.telemetry
    if not telemetry.enabled:
        raise ValueError(
            "telemetry is disabled on this server (serve without "
            "--no-telemetry to record request spans)"
        )
    n = req["n"]
    spans = telemetry.recorder.last(n)
    return {
        "ok": True,
        "op": "trace",
        "count": len(spans),
        "recorded": telemetry.recorder.recorded,
        "capacity": telemetry.recorder.capacity,
        "spans": spans,
        "chrome": telemetry.chrome_trace(n),
    }


def _profile(host, req: dict) -> dict:
    """The ``profile`` op: the sampling profiler's aggregated view.

    Ships the summary, the heaviest whole stacks, the hottest leaf
    functions and the collapsed-stack text; ``{"speedscope": true}``
    adds the full speedscope document (large — opt in).
    """
    profiler = host.telemetry.profiler
    if profiler is None:
        raise ValueError(
            "no sampling profiler on this server "
            "(serve with --profile-hz to enable one)"
        )
    n = req["n"]
    response = {
        "ok": True,
        "op": "profile",
        **profiler.snapshot(),
        "top_stacks": profiler.top_stacks(n),
        "top_functions": profiler.top_functions(n),
        "collapsed": profiler.collapsed(),
    }
    if req["speedscope"]:
        response["speedscope"] = profiler.speedscope()
    return response


def _flight(host, req: dict) -> dict:
    """The ``flight`` op: the recorder's last-N events and dump
    ledger; ``{"dump": true}`` forces a dump right now (needs a
    dump directory on the server)."""
    flight = host.telemetry.flight
    dumped = None
    if req["dump"]:
        path = flight.dump("manual")
        if path is None:
            raise ValueError(
                "cannot dump: no flight dump directory on this "
                "server (serve with --flight-dir)"
            )
        dumped = str(path)
    return {
        "ok": True,
        "op": "flight",
        **flight.snapshot(),
        "events": flight.last(req["n"]),
        **({"dumped": dumped} if dumped else {}),
    }


class Op(NamedTuple):
    """One request op: its declared fields and how it is answered.

    A control op answers with ``run(host, req)``, where ``host`` is the
    :class:`ScheduleService` or the shard router: both hold a
    ``telemetry`` facade and answer ``health()`` and ``stats()``.  A keyed compute op
    instead names the parts :meth:`ScheduleService._serve_op` runs:
    ``key(service, job)`` (the cache / coalescing key), ``body(service,
    job)`` (the cold compute under a work slot, returning the entry and
    whether it may be cached) and
    ``adapt(service, entry, job)`` (a cached entry for this request, or
    ``None`` to recompute).
    """

    fields: dict[str, Field]
    run: Callable | None = None
    key: Callable | None = None
    body: Callable | None = None
    adapt: Callable | None = None


_FLAG = Field(bool, False)


def _keyed_fields(**fields: Field) -> dict[str, Field]:
    """The fields every keyed op carries around its own."""
    return {
        "num_pes": Field(int, lo=1, hi=MAX_PES),
        "graph": Field(dict),
        **fields,
        "no_cache": _FLAG,
        "deadline_ms": Field(float, None),
        "retry": _FLAG,
    }


#: every op the service answers, by name
OPS: dict[str, Op] = {
    "ping": Op({}, run=lambda host, req: {
        "ok": True, "op": "ping", "version": __version__,
    }),
    "stats": Op({}, run=lambda host, req: host.stats()),
    "metrics": Op({}, run=_metrics),
    "trace": Op({"n": Field(int, 50, lo=1)}, run=_trace),
    "profile": Op({"n": Field(int, 10, lo=1), "speedscope": _FLAG},
                  run=_profile),
    "flight": Op({"n": Field(int, 100, lo=1), "dump": _FLAG}, run=_flight),
    "health": Op({}, run=lambda host, req: host.health()),
    "shutdown": Op({}, run=lambda host, req: {"ok": True, "op": "shutdown"}),
    "schedule": Op(
        _keyed_fields(
            objective=Field(str, "makespan", names=lambda: OBJECTIVES),
            schedulers=Field(list, DEFAULT_SCHEDULERS, names=scheduler_names),
            budget_ms=Field(float, None, lo=0),
        ),
        key=ScheduleService._schedule_key,
        body=ScheduleService._race,
        adapt=ScheduleService._adapt,
    ),
    "simulate": Op(
        _keyed_fields(
            scheduler=Field(str, "lts", names=lambda: SIM_SCHEDULERS),
            policy=Field(str, "barrier", names=lambda: _SIM_POLICIES),
            pacing=Field(str, "steady", names=lambda: _SIM_PACINGS),
            capacity=Field(int, None, lo=1),
            engine=Field(str, _SIM_ENGINE, names=lambda: (_SIM_ENGINE,)),
        ),
        key=ScheduleService._simulate_key,
        body=ScheduleService._replay,
        adapt=ScheduleService._same_document,
    ),
}

#: the keyed compute ops (a tuple: ``in`` must not hash a client's value)
COMPUTE_OPS = tuple(name for name, op in OPS.items() if op.key is not None)


def parse_request(doc: dict) -> dict:
    """Check every declared field of ``doc``'s op, before any digest,
    ingest or fingerprint; returns ``{field: checked value}`` with the
    defaults filled in.

    Raises ``ValueError`` naming the op or the first bad field, and
    :class:`DeadlineExceeded` for an already expired ``deadline_ms``
    (≤ 0: refused as a deadline, retryable, not as a field error).
    """
    op = doc.get("op")
    spec = OPS.get(op) if type(op) is str else None
    if spec is None:
        raise ValueError(f"unknown op {op!r}")
    req = {name: field.read(name, doc) for name, field in spec.fields.items()}
    deadline_ms = req.get("deadline_ms")
    if deadline_ms is not None and deadline_ms <= 0:
        raise DeadlineExceeded
    return req


class _Conn:
    """Per-connection state owned by the event loop."""

    __slots__ = ("sock", "cid", "inbuf", "scan", "pending", "outbuf",
                 "events", "closed", "shutdown_pending", "abort_pending")

    def __init__(self, sock: socket.socket, cid: int = 0) -> None:
        self.sock = sock
        self.cid = cid  #: accept-order id; tags this connection's spans
        self.inbuf = bytearray()
        self.scan = 0  #: offset up to which inbuf holds no newline
        self.pending: deque[_Slot] = deque()
        self.outbuf = bytearray()  #: preallocated, reused across responses
        self.events = selectors.EVENT_READ
        self.closed = False
        self.shutdown_pending = False
        self.abort_pending = False  #: close once outbuf drains (conn fault)


class _Slot:
    """One response slot; keeps per-connection responses in request order."""

    __slots__ = ("data", "shutdown", "partial")

    def __init__(self, data: bytes | None = None, shutdown: bool = False) -> None:
        self.data = data
        self.shutdown = shutdown
        self.partial = False  #: injected fault: send half, then drop conn


#: per-connection out-buffer depth beyond which the loop stops reading
#: from that connection until the client drains it (write backpressure)
_MAX_OUTBUF = 8 << 20


class ScheduleServer:
    """Event-loop newline-delimited-JSON TCP server around a service.

    One ``selectors`` loop thread owns every socket: accepts are
    non-blocking, reads are buffered per connection, and writes drain
    through per-connection byte queues — an idle keepalive connection
    costs one registered file descriptor and nothing else, so
    thousands of them are free.  Requests answerable from the service's
    memo/cache tiers (:meth:`ScheduleService.serve_line_fast`) are
    served inline on the loop; cold computes, coalescing followers and
    control ops run on short-lived worker threads, with a semaphore
    sized ``workers`` bounding the number of *concurrently computing*
    requests (the service acquires a slot around computation only, so
    cheap traffic keeps flowing while computations queue).

    Responses always leave a connection in request order (slot queue),
    keeping pipelined clients correct on the JSONL framing.

    A ``shutdown`` request is honoured only from loopback peers unless
    ``allow_remote_shutdown`` is set — otherwise a non-local bind
    (``repro serve --host 0.0.0.0``) would hand every client a remote
    kill switch.  :meth:`stop` from the owning process is always
    available.
    """

    def __init__(
        self,
        service: ScheduleService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 4,
        backlog: int = 128,
        allow_remote_shutdown: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker slot")
        self.service = service
        self.host = host
        self.port = port
        self.workers = workers
        self.backlog = backlog
        self.allow_remote_shutdown = allow_remote_shutdown
        self._sock: socket.socket | None = None
        self._work_slots = threading.BoundedSemaphore(workers)
        # hard cap on concurrently live slow-request threads: beyond it
        # the loop handles the request inline (blocking intake — honest
        # backpressure under overload) instead of letting one pipelined
        # burst spawn an unbounded number of threads and crash start()
        self._slow_slots = threading.BoundedSemaphore(8 * workers + 32)
        self._selector: selectors.BaseSelector | None = None
        self._loop_thread: threading.Thread | None = None
        self._conns: set[_Conn] = set()
        self._dirty: deque[_Conn] = deque()
        self._dirty_lock = threading.Lock()
        self._waker_r: socket.socket | None = None
        self._waker_w: socket.socket | None = None
        self._stop = threading.Event()
        self._conn_seq = 0
        self._draining = False
        self._drain_deadline = 0.0
        self._listener_closed = False
        # server-side instruments live in the service's registry so one
        # metrics exposition covers the loop and the request path alike
        reg = service.telemetry.registry
        self._g_loop_lag = reg.gauge(
            "server.loop.lag_ms",
            "busy time of the latest event-loop iteration (ms)",
        )
        reg.gauge(
            "server.connections", "connections currently registered",
            fn=lambda: len(self._conns),
        )
        self._c_accepted = reg.counter(
            "server.connections.accepted", "connections accepted"
        )
        self._c_shed = reg.counter(
            "server.shed", "requests refused under overload (admission control)"
        )

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port); ``port=0`` resolves after :meth:`start`."""
        return self.host, self.port

    def start(self) -> "ScheduleServer":
        """Bind, listen and launch the event-loop thread."""
        if self._sock is not None:
            return self
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(self.backlog)
        sock.setblocking(False)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ, "listener")
        self._selector.register(self._waker_r, selectors.EVENT_READ, "waker")
        loop = threading.Thread(target=self._run_loop, daemon=True,
                                name="repro-serve-loop")
        loop.start()
        self._loop_thread = loop
        return self

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        """shutdown() + close(): the shutdown wakes a peer blocked on the
        socket; the close frees the descriptor."""
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Graceful shutdown: the loop stops accepting, flushes what it
        can and closes every connection before exiting."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._wake()

    def drain(self, grace_s: float = 5.0) -> None:
        """Graceful drain (SIGTERM semantics): stop accepting, refuse new
        work with retryable errors, finish and flush in-flight responses,
        then stop — or give up once ``grace_s`` elapses.

        Safe to call from any thread (including a signal handler); the
        loop thread performs the actual listener close and idle check.
        """
        if self._draining or self._stop.is_set():
            return
        self._draining = True
        self._drain_deadline = time.perf_counter() + grace_s
        self.service.draining = True
        flight = self.service.telemetry.flight
        flight.record("drain", grace_s=grace_s)
        self._wake()
        if self._loop_thread is None:
            self.stop()

    @property
    def draining(self) -> bool:
        return self._draining

    def join(self, timeout: float = 5.0) -> None:
        loop = self._loop_thread
        if loop is not None and loop is not threading.current_thread():
            loop.join(timeout)

    def serve_forever(self) -> None:
        """Start (if needed), then block until :meth:`stop` is called."""
        self.start()
        self._stop.wait()
        self.join()

    def __enter__(self) -> "ScheduleServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
        self.join()

    # ------------------------------------------------------------------
    def _wake(self) -> None:
        waker = self._waker_w
        if waker is None:
            return
        try:
            waker.send(b"\x00")
        except OSError:
            pass  # buffer full (a wake is already pending) or closing

    def _shutdown_permitted(self, conn: socket.socket) -> bool:
        return self.allow_remote_shutdown or loopback_peer(conn)

    # ------------------------------------------------------------------
    # event loop (single thread owns the selector and every socket)
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        sel = self._selector
        assert sel is not None
        try:
            while not self._stop.is_set():
                events = sel.select(0.05 if self._draining else 0.5)
                busy0 = time.perf_counter()
                for key, mask in events:
                    data = key.data
                    if data == "listener":
                        self._accept_ready()
                    elif data == "waker":
                        try:
                            while self._waker_r.recv(4096):
                                pass
                        except (BlockingIOError, OSError):
                            pass
                    else:
                        conn = data
                        if conn.closed:
                            continue
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if mask & selectors.EVENT_READ and not conn.closed:
                            self._read_ready(conn)
                    if self._stop.is_set():
                        break
                while True:
                    with self._dirty_lock:
                        if not self._dirty:
                            break
                        conn = self._dirty.popleft()
                    if not conn.closed:
                        self._flush(conn)
                if self._draining:
                    self._drain_tick()
                # loop health: how long this iteration kept the loop
                # thread busy (and thus every other socket waiting) —
                # inline fast-path serves and overload-inline slow
                # requests show up here
                self._g_loop_lag.set(
                    1000.0 * (time.perf_counter() - busy0)
                )
        finally:
            self._teardown()

    def _drain_tick(self) -> None:
        """Loop-thread part of :meth:`drain`: close the listener once,
        then stop as soon as every connection is flushed-and-idle (or
        the grace deadline passes with work still in flight)."""
        if not self._listener_closed and self._sock is not None:
            self._listener_closed = True
            try:
                self._selector.unregister(self._sock)
            except (KeyError, ValueError):
                pass
            self._close_socket(self._sock)
            self._sock = None
        idle = all(
            not conn.pending and not conn.outbuf for conn in self._conns
        )
        if idle or time.perf_counter() >= self._drain_deadline:
            self.service.telemetry.flight.record(
                "drain_done", idle=idle, connections=len(self._conns),
            )
            self._stop.set()

    def _teardown(self) -> None:
        sel = self._selector
        if self._draining:
            # a drain is exactly the moment a post-mortem is wanted:
            # persist the flight ring if a dump dir is configured
            self.service.telemetry.flight.dump("drain")
        for conn in list(self._conns):
            self._close_conn(conn)
        if self._sock is not None:
            try:
                sel.unregister(self._sock)
            except (KeyError, ValueError):
                pass
            self._close_socket(self._sock)
        for waker in (self._waker_r, self._waker_w):
            if waker is not None:
                try:
                    waker.close()
                except OSError:
                    pass
        try:
            sel.close()
        except OSError:
            pass

    def _accept_ready(self) -> None:
        assert self._sock is not None
        while True:
            try:
                sock, _ = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            # everything between accept() and a successful register()
            # must not leak the descriptor: a peer that resets during
            # setup (or a selector refusing the fd) used to leave the
            # socket open forever
            conn = None
            try:
                sock.setblocking(False)
                try:
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                except OSError:
                    pass
                self._conn_seq += 1
                conn = _Conn(sock, self._conn_seq)
                self._c_accepted.inc()
                self._conns.add(conn)
                self._selector.register(sock, conn.events, conn)
            except (OSError, ValueError):
                if conn is not None:
                    self._conns.discard(conn)
                self._close_socket(sock)

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._close_socket(conn.sock)

    def _transport_error(self, conn: _Conn, where: str, exc: OSError) -> None:
        """Record a failed socket op in the flight ring (and maybe dump
        — a dying client mid-burst is exactly post-hoc-debug material)."""
        flight = self.service.telemetry.flight
        flight.record(
            "transport_error", conn=conn.cid, where=where,
            error=str(exc) or type(exc).__name__,
        )
        flight.maybe_dump("transport_error")

    def _read_ready(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(262144)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._transport_error(conn, "recv", exc)
            self._close_conn(conn)
            return
        if not chunk:
            self._close_conn(conn)
            return
        buf = conn.inbuf
        buf += chunk
        while True:
            nl = buf.find(b"\n", conn.scan)
            if nl < 0:
                conn.scan = len(buf)
                return
            line = bytes(buf[:nl])
            del buf[: nl + 1]
            conn.scan = 0
            line = line.strip()
            if line:
                self._process_line(conn, line)
            if conn.closed:
                return

    #: suggested client backoff when a request is shed under overload
    _SHED_RETRY_AFTER_MS = 200

    def _process_line(self, conn: _Conn, line: bytes) -> None:
        faults = self.service.faults
        partial = False
        if faults is not None and faults.active():
            # transport fault sites: drop the connection outright, or
            # deliver this response truncated (client reconnect drill)
            if faults.fire("conn.drop", conn=conn.cid) is not None:
                self._close_conn(conn)
                return
            partial = faults.fire("conn.partial", conn=conn.cid) is not None
        fast = self.service.serve_line_fast(line)
        if fast is not None:
            slot = _Slot(fast)
            slot.partial = partial
            conn.pending.append(slot)
            self._flush(conn)
            return
        slot = _Slot()
        slot.partial = partial
        conn.pending.append(slot)
        if self._slow_slots.acquire(blocking=False):
            try:
                worker = threading.Thread(
                    target=self._run_slow, args=(conn, slot, line),
                    daemon=True, name="repro-serve-worker",
                )
                worker.start()
                return
            except RuntimeError:  # can't start a thread: degrade inline
                self._slow_slots.release()
        # overload: every slow-request thread is occupied.  Compute
        # requests are shed with a retryable refusal (admission control:
        # a cheap "come back later" beats stalling intake for every
        # other connection); control ops — cheap by construction — are
        # still answered inline on the loop thread.
        if b'"graph"' in line:
            self._c_shed.inc()
            flight = self.service.telemetry.flight
            flight.record("shed", conn=conn.cid)
            slot.data = json.dumps({
                "ok": False,
                "error": "server overloaded, request shed",
                "shed": True,
                "retryable": True,
                "retry_after_ms": self._SHED_RETRY_AFTER_MS,
            }).encode() + b"\n"
            self._flush(conn)
            return
        self._fill_slow(conn, slot, line)
        self._flush(conn)

    def _run_slow(self, conn: _Conn, slot: _Slot, line: bytes) -> None:
        try:
            self._fill_slow(conn, slot, line)
        finally:
            self._slow_slots.release()
        with self._dirty_lock:
            self._dirty.append(conn)
        self._wake()

    def _fill_slow(self, conn: _Conn, slot: _Slot, line: bytes) -> None:
        try:
            data, shutdown = self.service.serve_line_slow(
                line, self._work_slots, self._shutdown_permitted(conn.sock),
                conn_id=conn.cid,
            )
        except Exception as exc:  # defensive: the service never raises
            data = json.dumps(
                {"ok": False, "error": str(exc) or type(exc).__name__}
            ).encode() + b"\n"
            shutdown = False
        slot.data = data
        slot.shutdown = shutdown

    def _flush(self, conn: _Conn) -> None:
        """Move completed slots (in request order) into the out buffer
        and push bytes to the socket; runs only on the loop thread."""
        pending = conn.pending
        out = conn.outbuf
        while pending and pending[0].data is not None:
            slot = pending.popleft()
            if slot.partial:
                # injected transport fault: ship half the response, then
                # drop the connection once those bytes hit the socket —
                # the client must detect the truncated line and retry
                # over a fresh connection
                out += slot.data[: max(1, len(slot.data) // 2)]
                conn.abort_pending = True
                break
            out += slot.data
            if slot.shutdown:
                conn.shutdown_pending = True
        if out:
            try:
                sent = conn.sock.send(out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._transport_error(conn, "send", exc)
                self._close_conn(conn)
                return
            if sent:
                del out[:sent]
        if conn.abort_pending and not out:
            self._close_conn(conn)
            return
        # write backpressure: a client that pipelines requests without
        # reading responses must not grow outbuf unboundedly — stop
        # reading from it until the buffer drains
        want = 0 if len(out) > _MAX_OUTBUF else selectors.EVENT_READ
        if out:
            want |= selectors.EVENT_WRITE
        if want != conn.events:
            conn.events = want
            try:
                self._selector.modify(conn.sock, want, conn)
            except (KeyError, ValueError, OSError):
                self._close_conn(conn)
                return
        if conn.shutdown_pending and not out and not pending:
            # the shutdown response is fully flushed: stop the server
            self._stop.set()
