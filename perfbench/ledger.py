"""Per-layer ledger from the traced server's spans.

``shim.py`` records one span per call into a layer; this module joins
the spans of each request to the load generator's record of it, takes
each layer's self time (span minus the child spans it contains) per
request, and reduces them to the per-layer metrics.

Layer names are the span names the shim uses.  ``server.decode`` spans
opened below anything but the request root (the JSON copy inside the
remap path) are folded into their parent, so decode means request
decode only.
"""

from __future__ import annotations

import statistics
from collections import defaultdict, deque

ROOTS = ("server.request", "server.fastpath")


class Ledger:
    """The traced server's spans, each ``[sid, name, thread, t0, t1,
    parent sid or -1, note]``, indexed by parent.  Request roots are
    ``server.request`` spans and ``server.fastpath`` spans that answered
    (their note is the request line's CRC-32)."""

    def __init__(self, spans: list) -> None:
        self.spans = {s[0]: s for s in spans}
        children: dict[int, list] = defaultdict(list)
        for sid, name, tid, t0, t1, parent, extra in spans:
            if parent >= 0:
                children[parent].append(sid)
        self.children = children
        self.roots = [
            s for s in spans
            if s[5] == -1 and s[1] in ROOTS and s[6] is not None
        ]

    def _kept_children(self, sid: int) -> list:
        if self.spans[sid][1] == "server.request":
            return self.children.get(sid, [])
        return [
            c for c in self.children.get(sid, ())
            if self.spans[c][1] != "server.decode"
        ]

    def breakdown(self, root) -> tuple[dict, dict, dict, list]:
        """Self and inclusive seconds and call counts per layer under
        ``root`` (the root itself included under its own name)."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        notes: list = []
        todo = [root[0]]
        while todo:
            sid = todo.pop()
            _, name, _, t0, t1, _, extra = self.spans[sid]
            kids = self._kept_children(sid)
            dur = t1 - t0
            self_s[name] += dur - sum(
                self.spans[c][4] - self.spans[c][3] for c in kids
            )
            incl_s[name] += dur
            calls[name] += 1
            if name == "remap":
                notes.append(extra)
            todo.extend(kids)
        return self_s, incl_s, calls, notes

    def join(self, records: list) -> list:
        """Pair each client record (with a ``crc`` and a start time
        ``t0``) with its root span, both taken in time order, so repeats
        of one line pair with their own spans;
        returns ``[(record, root or None)]``."""
        by_crc: dict[int, deque] = defaultdict(deque)
        for root in sorted(self.roots, key=lambda s: s[3]):
            by_crc[root[6]].append(root)
        out = []
        for rec in sorted(records, key=lambda r: r.t0):
            queue = by_crc.get(rec.crc)
            out.append((rec, queue.popleft() if queue else None))
        return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def chrome_trace(spans: list) -> dict:
    """The spans as chrome://tracing / Perfetto complete events."""
    if not spans:
        return {"traceEvents": []}
    origin = min(s[3] for s in spans)
    return {
        "traceEvents": [
            {
                "name": name, "cat": "layer", "ph": "X", "pid": 1,
                "tid": tid, "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
            }
            for _, name, tid, t0, t1, _, _ in spans
        ]
    }


def self_time_table(rows: list[dict], label: str) -> str:
    """Text table: per layer, requests it ran in, median and total self
    milliseconds, and share of the summed request spans."""
    totals: dict[str, float] = defaultdict(float)
    per_req: dict[str, list] = defaultdict(list)
    root_total = 0.0
    for self_s, root_dur in rows:
        root_total += root_dur
        for layer, s in self_s.items():
            totals[layer] += s
            per_req[layer].append(s)
    lines = [
        f"self time by layer, {label} ({len(rows)} requests)",
        f"{'layer':<22}{'requests':>9}{'median ms':>11}{'total ms':>11}{'share':>8}",
    ]
    for layer in sorted(totals, key=totals.get, reverse=True):
        share = totals[layer] / root_total if root_total else 0.0
        lines.append(
            f"{layer:<22}{len(per_req[layer]):>9}"
            f"{1000 * median(per_req[layer]):>11.3f}"
            f"{1000 * totals[layer]:>11.1f}{share:>8.1%}"
        )
    return "\n".join(lines)
