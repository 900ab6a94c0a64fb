"""Request spans: per-phase timing of one request through the service.

A :class:`Span` is created when a request enters the wire layer and
follows it through parse → fingerprint → cache lookup → single-flight
coalesce → portfolio race → serialize, recording wall *and* CPU time
per phase (``time.thread_time`` — so a phase that waited on a lock or a
coalescing leader shows near-zero CPU next to its wall time, which is
exactly the "where did this 73 ms go?" answer).  Phases timed
elsewhere — each portfolio candidate, timed by the race itself — are
attached with :meth:`Span.add_phase`.

Completed spans land in a bounded in-memory ring
(:class:`TraceRecorder`, the ``trace`` op's backing store) and
optionally in a size-rotated JSONL log (:class:`SpanLog`,
``repro serve --trace-dir``).  :func:`spans_to_chrome_trace` exports
them in exactly the chrome trace-event schema the simulator's
:mod:`repro.sim.trace` uses — one complete ("X") slice per span and per
phase — so server traces and simulated-execution traces open side by
side in chrome://tracing / Perfetto.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterable

__all__ = [
    "Span",
    "NULL_SPAN",
    "TraceRecorder",
    "SpanLog",
    "spans_to_chrome_trace",
    "new_trace_id",
]

_seq = itertools.count(1)


def new_trace_id() -> str:
    """Process-unique trace id: pid + sequence (stable, collision-free
    across shard processes)."""
    return f"{os.getpid():x}-{next(_seq):x}"


class _PhaseTimer:
    """Context manager timing one span phase.

    A plain ``__slots__`` class instead of ``@contextmanager`` — the
    generator protocol costs microseconds per entry, and a cache-hit
    request opens four of these.
    """

    __slots__ = ("_span", "_name", "_t0", "_cpu0")

    def __init__(self, span: "Span", name: str) -> None:
        self._span = span
        self._name = name

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        span = self._span
        wall_ms = 1000.0 * (end - self._t0)
        cpu_ms = 1000.0 * (time.thread_time() - self._cpu0)
        # inlined add_phase: one less call on a path taken four times
        # per cache-hit request
        span.phases.append(
            (self._name, 1000.0 * (self._t0 - span._t0), wall_ms, cpu_ms)
        )
        sink = span._sink
        if sink is not None:
            sink.observe_phase(span.op, self._name, wall_ms, cpu_ms)
        return False


class Span:
    """One request's timing record; phases via context manager."""

    __slots__ = (
        "trace_id", "op", "meta", "start_s", "_t0", "_cpu0",
        "phases", "wall_ms", "cpu_ms", "_sink", "_finished",
    )

    def __init__(self, op: str, trace_id: str | None = None,
                 sink=None, **meta) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.op = op
        self.meta = meta  # **kwargs is already a fresh dict
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        #: (phase name, start offset ms, wall ms, cpu ms | None)
        self.phases: list[tuple[str, float, float, float | None]] = []
        self.wall_ms: float | None = None
        self.cpu_ms: float | None = None
        self._sink = sink
        self._finished = False

    def phase(self, name: str) -> _PhaseTimer:
        """Time one phase (wall + thread CPU) of this span."""
        return _PhaseTimer(self, name)

    def add_phase(self, name: str, wall_ms: float,
                  cpu_ms: float | None = None,
                  start_ms: float | None = None) -> None:
        """Attach one phase; used directly for work timed elsewhere
        (the portfolio race's candidates)."""
        if start_ms is None:
            start_ms = max(
                0.0, 1000.0 * (time.perf_counter() - self._t0) - wall_ms
            )
        self.phases.append((name, start_ms, wall_ms, cpu_ms))
        if self._sink is not None:
            self._sink.observe_phase(self.op, name, wall_ms, cpu_ms)

    def annotate(self, **meta) -> None:
        self.meta.update(meta)

    def finish(self, outcome: str | None = None) -> None:
        """Close the span and hand it to the sink (ring + log); safe to
        call more than once (only the first records)."""
        if self._finished:
            return
        self._finished = True
        self.wall_ms = 1000.0 * (time.perf_counter() - self._t0)
        self.cpu_ms = 1000.0 * (time.thread_time() - self._cpu0)
        if outcome is not None:
            self.meta["outcome"] = outcome
        if self._sink is not None:
            self._sink.record(self)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "start_s": round(self.start_s, 6),
            "wall_ms": None if self.wall_ms is None else round(self.wall_ms, 4),
            "cpu_ms": None if self.cpu_ms is None else round(self.cpu_ms, 4),
            "phases": [
                {
                    "phase": name,
                    "start_ms": round(start, 4),
                    "wall_ms": round(wall, 4),
                    "cpu_ms": None if cpu is None else round(cpu, 4),
                }
                for name, start, wall, cpu in self.phases
            ],
            **({"meta": self.meta} if self.meta else {}),
        }


class _NullPhase:
    """Shared no-op phase context (telemetry off)."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullSpan:
    """Telemetry-off stand-in: every operation is a no-op."""

    __slots__ = ()
    trace_id = ""
    op = ""

    def phase(self, name: str) -> "_NullPhase":
        return _NULL_PHASE

    def add_phase(self, name, wall_ms, cpu_ms=None, start_ms=None) -> None:
        pass

    def annotate(self, **meta) -> None:
        pass

    def finish(self, outcome: str | None = None) -> None:
        pass


NULL_SPAN = _NullSpan()
_NULL_PHASE = _NullPhase()


class TraceRecorder:
    """Bounded ring of the most recent completed spans.

    Stores :class:`Span` objects (or plain dicts) as recorded and
    converts to dicts on read — ``to_dict`` rounding and dict building
    stay off the request path.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0  #: total spans ever recorded (ring overwrites)

    def record(self, span) -> None:
        """Append one completed span (a :class:`Span` or its dict)."""
        with self._lock:
            self._ring.append(span)
            self.recorded += 1

    def last(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` spans, oldest first, as dicts."""
        with self._lock:
            spans = list(self._ring)
        if n is not None:
            # slice explicitly: spans[-0:] would be the *whole* ring
            spans = spans[-n:] if n > 0 else []
        return [s.to_dict() if isinstance(s, Span) else s for s in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


class SpanLog:
    """Size-rotated JSONL span log (``repro serve --trace-dir``).

    Spans append to ``spans-<NNNNN>.jsonl`` in ``directory``; when the
    current file exceeds ``max_bytes`` a new one is started and the
    oldest files beyond ``max_files`` are deleted.  Writes serialize on
    one lock — span logging rides the slow path, not the memo fast
    path.
    """

    def __init__(self, directory: str | Path, max_bytes: int = 8 << 20,
                 max_files: int = 8) -> None:
        if max_bytes < 1 or max_files < 1:
            raise ValueError("need positive rotation limits")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._lock = threading.Lock()
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = sorted(self.directory.glob("spans-*.jsonl"))
        self._index = self._file_index(existing[-1]) if existing else 1
        self._fh = None
        self._bytes = 0

    @staticmethod
    def _file_index(path: Path) -> int:
        try:
            return int(path.stem.split("-")[-1])
        except ValueError:
            return 1

    def _path(self, index: int) -> Path:
        return self.directory / f"spans-{index:05d}.jsonl"

    def _open(self) -> None:
        path = self._path(self._index)
        self._fh = open(path, "ab")
        self._bytes = self._fh.tell()

    def write(self, span_doc: dict) -> None:
        line = json.dumps(span_doc, separators=(",", ":")).encode() + b"\n"
        with self._lock:
            if self._fh is None:
                self._open()
            if self._bytes and self._bytes + len(line) > self.max_bytes:
                self._fh.close()
                self._index += 1
                self._open()
                self._prune()
            self._fh.write(line)
            self._bytes += len(line)

    def _prune(self) -> None:
        files = sorted(self.directory.glob("spans-*.jsonl"))
        for stale in files[: max(0, len(files) - self.max_files)]:
            try:
                stale.unlink()
            except OSError:
                pass

    def files(self) -> list[Path]:
        return sorted(self.directory.glob("spans-*.jsonl"))

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                finally:
                    self._fh = None


def spans_to_chrome_trace(spans: Iterable[dict]) -> list[dict]:
    """Chrome trace-event JSON of span dicts.

    Same shape as :func:`repro.sim.trace.simulation_to_chrome_trace`:
    complete ("X") slices with ``ts``/``dur`` in microseconds.  Each
    span gets its own ``tid`` row (pid 1, so server traces land in a
    different process group than pid-0 simulator traces when loaded
    together): one enclosing slice named after the op, one nested slice
    per phase, CPU time and trace id in ``args``.
    """
    events: list[dict] = []
    for tid, span in enumerate(spans):
        base_us = int(span.get("start_s", 0.0) * 1e6)
        wall = span.get("wall_ms") or 0.0
        args = {"trace_id": span.get("trace_id", "")}
        if span.get("cpu_ms") is not None:
            args["cpu_ms"] = span["cpu_ms"]
        args.update(span.get("meta", {}))
        events.append({
            "name": span.get("op", "request"),
            "cat": "request",
            "ph": "X",
            "ts": base_us,
            "dur": max(1, int(wall * 1000)),
            "pid": 1,
            "tid": tid,
            "args": args,
        })
        for ph in span.get("phases", ()):
            ph_args = {}
            if ph.get("cpu_ms") is not None:
                ph_args["cpu_ms"] = ph["cpu_ms"]
            events.append({
                "name": ph.get("phase", "phase"),
                "cat": "phase",
                "ph": "X",
                "ts": base_us + int((ph.get("start_ms") or 0.0) * 1000),
                "dur": max(1, int((ph.get("wall_ms") or 0.0) * 1000)),
                "pid": 1,
                "tid": tid,
                "args": ph_args,
            })
    return events
