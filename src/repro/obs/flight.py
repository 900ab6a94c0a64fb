"""Flight recorder: a bounded ring of structured service events.

Metrics say *how much*, spans say *where the time went*; the flight
recorder answers *what happened just before it went wrong* — the event
sequence leading up to a deadlock response, a refused burst or a
transport error, reconstructable after the fact.

Design constraints, in priority order:

1. **Lock-cheap recording.**  ``record()`` rides the request path, so
   it builds one small dict and appends it to a ``deque(maxlen=N)`` —
   both the append and the eviction it implies are atomic in CPython,
   so the hot path takes no lock at all.  The sequence counter is an
   ``itertools.count`` (also atomic), so readers can order and detect
   gaps even across the ring's overwrites.
2. **Bounded everything.**  The ring holds the last ``capacity``
   events; dumps are rate-limited (``min_dump_interval_s``) and capped
   (``max_dumps``) so a deadlock storm cannot fill the disk with
   near-identical dumps — suppressed triggers are counted instead.
3. **Dumb, greppable output.**  A dump is one JSONL file: a header
   record (trigger, time, counters) followed by the ring's events,
   oldest first.

Events are small flat dicts: ``{"seq": 17, "t": <unix s>, "kind":
"deadlock", ...kind-specific fields}``.  The service feeds the ring
from its existing instrumented call sites (request admitted/refused,
cache tier transitions, coalesce leader/follower, portfolio dispatch,
eviction, deadlock, slow request, transport error); see
:class:`repro.service.server.ScheduleService`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from pathlib import Path

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded event ring with rate-limited dump-to-JSONL."""

    def __init__(
        self,
        capacity: int = 4096,
        dump_dir: str | Path | None = None,
        min_dump_interval_s: float = 5.0,
        max_dumps: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight ring capacity must be positive")
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.min_dump_interval_s = min_dump_interval_s
        self.max_dumps = max_dumps
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        # dumps are rare and serialized; the ring itself is lock-free
        self._dump_lock = threading.Lock()
        self._last_dump = 0.0
        self.dumps: list[dict] = []  #: {path, trigger, t, events} per dump
        self.suppressed = 0  #: dump triggers rate-limited away

    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """Append one event; safe from any thread, never blocks."""
        event = {"seq": next(self._seq), "t": time.time(), "kind": kind}
        event.update(fields)
        self._ring.append(event)

    @property
    def recorded(self) -> int:
        """Events ever recorded (the ring holds only the newest)."""
        # count() holds the *next* value; peeking would consume it, so
        # derive from the newest event instead
        ring = self._ring
        try:
            return ring[-1]["seq"]
        except IndexError:
            return 0

    def __len__(self) -> int:
        return len(self._ring)

    def last(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` events, oldest first, as copies."""
        events = list(self._ring)
        if n is not None:
            # slice explicitly: events[-0:] would be the *whole* ring
            events = events[-n:] if n > 0 else []
        return [dict(e) for e in events]

    def clear(self) -> None:
        self._ring.clear()

    # ------------------------------------------------------------------
    def dump(self, trigger: str, path: str | Path | None = None) -> Path | None:
        """Write the ring to a JSONL file now (no rate limit).

        ``path=None`` derives ``flight-<utc>-<seq>-<trigger>.jsonl``
        under ``dump_dir`` — and returns ``None`` when there is no dump
        directory to derive it in.
        """
        events = self.last()
        if path is None:
            if self.dump_dir is None:
                return None
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            seq = events[-1]["seq"] if events else 0
            path = self.dump_dir / f"flight-{stamp}-{seq:08d}-{trigger}.jsonl"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "flight-dump",
            "trigger": trigger,
            "t": time.time(),
            "events": len(events),
            "recorded": self.recorded,
            "capacity": self.capacity,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for event in events:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.dumps.append({
            "path": str(path),
            "trigger": trigger,
            "t": header["t"],
            "events": len(events),
        })
        return path

    def maybe_dump(self, trigger: str) -> Path | None:
        """Dump unless rate-limited or over the dump-count cap.

        This is the automatic-trigger entry point (deadlock responses,
        transport errors, slow requests); suppressed triggers increment
        :attr:`suppressed` so the ``flight`` op can report the storm.
        """
        if self.dump_dir is None:
            return None
        with self._dump_lock:
            now = time.monotonic()
            if (
                len(self.dumps) >= self.max_dumps
                or now - self._last_dump < self.min_dump_interval_s
            ):
                self.suppressed += 1
                return None
            self._last_dump = now
            return self.dump(trigger)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Summary document for the ``flight`` service op."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "resident": len(self._ring),
            "dump_dir": str(self.dump_dir) if self.dump_dir else None,
            "dumps": list(self.dumps),
            "suppressed": self.suppressed,
        }
