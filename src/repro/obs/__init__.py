"""repro.obs — end-to-end telemetry and diagnosis for the serving stack.

Five layers, all stdlib-only:

* :mod:`~repro.obs.metrics` — a process-wide registry of named
  instruments (monotonic counters, gauges, fixed-bucket histograms;
  lock-cheap, allocation-free once a labeled child is resolved),
  snapshot-able as a dict and as Prometheus text exposition.  The
  service's hand-rolled attribute counters (``served``, ``cache.hits``,
  …) are these instruments now — the old attribute names remain as
  read-only views.
* :mod:`~repro.obs.tracing` — request spans: a trace context created
  when a request enters the wire layer and carried through
  parse → fingerprint → cache → coalesce → portfolio race → serialize,
  each phase timed in wall *and* CPU ms; completed spans land in a
  bounded ring and optionally in a rotating JSONL log, exportable as
  chrome-trace JSON in the simulator's schema.
* :mod:`~repro.obs.profiler` — a continuous sampling profiler: a
  background thread folding every live thread's stack into aggregated
  collapsed stacks at a fixed rate, exported as flamegraph collapsed
  text or speedscope JSON (``repro serve --profile-hz``, the
  ``profile`` op, campaign/bench attachment points).
* :mod:`~repro.obs.flight` — a flight recorder: a bounded, lock-cheap
  ring of structured service events (admitted/refused requests, cache
  tier transitions, coalescing, dispatch, evictions, deadlocks, slow
  requests, transport errors) with rate-limited dump-to-JSONL on
  failure triggers (``repro serve --flight-dir``, the ``flight`` op).
* :class:`Telemetry` — the facade the service stack holds: one
  registry, one span ring, an optional span log, one flight ring, an
  optional profiler, and the phase/request histograms spans feed.
  ``enabled=False`` (``repro serve --no-telemetry``) turns spans and
  histograms into no-ops while the registry counters (which the
  ``stats`` op is built from) and the flight ring stay live.

(:mod:`~repro.obs.benchhist` — bench-history records and regression
verdicts for ``repro bench-report`` — lives here too, sharing the
stdlib-only discipline.)

Instrument naming scheme (canonical dotted names; Prometheus exposition
rewrites dots to underscores):

======================  ======================================================
``service.requests``    per-op, per-outcome request counter (``op``,
                        ``outcome`` ∈ ok/error/fastpath)
``service.request_ms``  end-to-end latency histogram (``op``, ``outcome``)
``service.phase_ms``    per-phase wall-clock histogram (``op``, ``phase``)
``service.phase_cpu_ms``  per-phase thread-CPU histogram (``op``, ``phase``)
``service.*``           served/computed/coalesced/… (the ``stats`` counters)
``cache.hits``          cache lookups served, per ``tier`` (lru/store)
``cache.*``             misses/evictions/puts/compactions + size gauges
``portfolio.races``     portfolio races run; ``portfolio.wins`` per
                        ``scheduler``; ``portfolio.truncated``
``server.loop.lag_ms``  latest event-loop iteration busy time (gauge)
``server.connections``  live connections gauge; ``.accepted`` counter
``campaign.cells``      executor cells per ``outcome`` (computed/cached);
                        ``campaign.cell_s`` per-cell histogram
``runtime.gc_ms``       garbage-collector pause histogram per
                        ``generation``; ``runtime.gc_collections``
                        counts them (serving processes only)
======================  ======================================================
"""

from __future__ import annotations

from .flight import FlightRecorder
from .metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiler import DEFAULT_HZ, SamplingProfiler
from .tracing import (
    NULL_SPAN,
    Span,
    SpanLog,
    TraceRecorder,
    new_trace_id,
    spans_to_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_HZ",
    "FlightRecorder",
    "SamplingProfiler",
    "get_registry",
    "set_registry",
    "Span",
    "NULL_SPAN",
    "SpanLog",
    "TraceRecorder",
    "Telemetry",
    "new_trace_id",
    "spans_to_chrome_trace",
]


class Telemetry:
    """One service's telemetry: registry + span ring + optional log.

    ``registry=None`` creates a private registry (embedded services and
    tests stay isolated); ``repro serve`` passes the process-wide
    :func:`get_registry` so every subsystem of the process shares one
    exposition.  ``enabled=False`` disables spans and the phase/request
    histograms — :meth:`span` returns the shared no-op span — while
    counters and gauges registered through :attr:`registry` keep
    working (the ``stats`` op depends on them).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        enabled: bool = True,
        trace_capacity: int = 512,
        trace_dir=None,
        flight: FlightRecorder | None = None,
        profiler: SamplingProfiler | None = None,
        slow_request_ms: float | None = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = TraceRecorder(trace_capacity)
        self.span_log = SpanLog(trace_dir) if trace_dir else None
        #: the flight-recorder ring is always live (recording is a dict
        #: build + an atomic deque append); automatic dumps engage only
        #: when the recorder has a dump directory (`serve --flight-dir`)
        self.flight = flight if flight is not None else FlightRecorder()
        #: optional continuous sampling profiler (`serve --profile-hz`);
        #: the holder starts it — construction must stay side-effect-free
        self.profiler = profiler
        #: requests slower than this record a flight event and trigger a
        #: rate-limited dump (None disables the slow-request trigger)
        self.slow_request_ms = slow_request_ms
        if enabled:
            self._phase_ms = self.registry.histogram(
                "service.phase_ms", "per-phase wall time (ms)",
                labels=("op", "phase"),
            )
            self._phase_cpu_ms = self.registry.histogram(
                "service.phase_cpu_ms", "per-phase thread-CPU time (ms)",
                labels=("op", "phase"),
            )
            self._request_ms = self.registry.histogram(
                "service.request_ms", "end-to-end request latency (ms)",
                labels=("op", "outcome"),
            )
        else:
            self._phase_ms = self._phase_cpu_ms = self._request_ms = None
        # resolved-child memos: label resolution (kwargs, validation,
        # tuple build) is too expensive to repeat per request phase.
        # Cardinality is bounded — known ops × phase names × outcomes.
        self._phase_children: dict = {}
        self._request_children: dict = {}

    # ------------------------------------------------------------------
    def span(self, op: str, **meta) -> Span:
        """A new request span (or the no-op span when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(op, sink=self, **meta)

    def observe_phase(self, op: str, phase: str, wall_ms: float,
                      cpu_ms: float | None) -> None:
        """Span-phase callback: feed the phase histograms."""
        if self._phase_ms is None:
            return
        pair = self._phase_children.get((op, phase))
        if pair is None:
            pair = (
                self._phase_ms.labels(op=op, phase=phase),
                self._phase_cpu_ms.labels(op=op, phase=phase),
            )
            self._phase_children[(op, phase)] = pair
        pair[0].observe(wall_ms)
        if cpu_ms is not None:
            pair[1].observe(cpu_ms)

    def _request_child(self, op: str, outcome: str):
        child = self._request_children.get((op, outcome))
        if child is None:
            child = self._request_ms.labels(op=op, outcome=outcome)
            self._request_children[(op, outcome)] = child
        return child

    def observe_request(self, op: str, outcome: str, wall_ms: float) -> None:
        """Latency sample outside any span (the memo fast path)."""
        if self._request_ms is not None:
            self._request_child(op, outcome).observe(wall_ms)

    def record(self, span: Span) -> None:
        """Span-finish callback: ring, rotating log, latency histogram,
        and the slow-request flight trigger."""
        self.recorder.record(span)
        if self.span_log is not None:
            self.span_log.write(span.to_dict())
        if self._request_ms is not None and span.wall_ms is not None:
            outcome = span.meta.get("outcome", "ok")
            self._request_child(span.op, outcome).observe(span.wall_ms)
        if (
            self.slow_request_ms is not None
            and span.wall_ms is not None
            and span.wall_ms > self.slow_request_ms
        ):
            self.flight.record(
                "slow_request", op=span.op, trace_id=span.trace_id,
                wall_ms=round(span.wall_ms, 3),
                threshold_ms=self.slow_request_ms,
            )
            self.flight.maybe_dump("slow_request")

    def chrome_trace(self, n: int | None = None) -> list[dict]:
        """The last ``n`` spans as chrome trace events."""
        return spans_to_chrome_trace(self.recorder.last(n))

    def close(self) -> None:
        if self.span_log is not None:
            self.span_log.close()
        if self.profiler is not None:
            self.profiler.stop()
