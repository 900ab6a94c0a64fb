"""Two-tier schedule cache: in-memory LRU over a persistent JSONL store.

The memory tier is a capacity-bounded LRU of response entries; the disk
tier (optional) is an append-only JSON-lines file — one
``{"entry_crc": ..., "key": ..., "entry": ...}`` object per line, torn
lines skipped on load — so a restarted server warms up from everything
any previous instance computed.  In memory the
disk tier is only a ``key → (byte offset, length)`` index: entries
(which embed full graph documents and schedules) are re-read from the
file on a store hit and promoted into the LRU, so ``capacity``
genuinely bounds resident entries no matter how many the store
accumulates.

Because the file is append-only, *dead* bytes accumulate across
restarts and schema revisions: torn lines, older duplicates of a key
(the last occurrence wins the index), and entries whose key the
``retain`` predicate rejects — typically whole generations persisted
under a superseded :data:`~repro.service.fingerprint.SCHEDULE_KEY_VERSION`
tag, unreachable forever yet re-scanned on every start.  When dead
bytes exceed half the file (:data:`ScheduleCache.COMPACT_DEAD_RATIO`)
the store is compacted in place: live lines stream into a sibling
temp file, the ``key → offset`` index is rebuilt, and an atomic
``os.replace`` swaps it in (``compactions`` counter).  Compaction runs
automatically on load and can be forced with :meth:`compact`.

All operations are thread-safe (the server handles requests from worker
threads) and counted: ``hits`` (memory), ``store_hits`` (disk),
``misses``, ``evictions``, ``puts``, ``compactions`` feed the ``stats``
op and the load generator's report; the ``cache.lru_bytes`` gauge
(``lru_bytes`` in :meth:`ScheduleCache.counters`) sums the graph and
schedule bytes the LRU's entries hold, kept on insert and evict.  The
counters are named instruments in a :class:`repro.obs.MetricsRegistry`
(``cache.hits{tier}``, ``cache.misses``, …) — the attribute names
remain as read-only views, and :meth:`ScheduleCache.bind_registry`
re-homes them into a service's registry (carrying accumulated counts
along) so one ``metrics`` exposition covers the whole request path.

The cache itself is a dumb map: staleness across code changes is the
*key's* problem, and the service's request keys carry a schema version
tag (:data:`~repro.service.fingerprint.SCHEDULE_KEY_VERSION`) precisely
so that entries persisted by older code become unreachable here instead
of being served forever — pass that tag's prefix check as ``retain`` to
let compaction reclaim their bytes too.

Crash safety.  Records written by this version carry an ``entry_crc``
field: the CRC-32 of the entry bytes exactly as written, which are the
tail of the line.  :func:`encode_record`, :func:`decode_record` and the
store-hit reader beside them are the only code that knows the layout.
A served entry holds its graph (the canonical dump) and its schedule
document as encoded bytes, in the LRU as in the record: writing splices
them as they are, and a store hit slices them back out of the
CRC-checked line, so neither an append, a load nor a store hit
re-encodes an entry; load does not even parse one.  The entry keeps its
insertion order, so a store-tier answer repeats the cold answer's
bytes.  Records written before this layout still load: those with a
``crc`` field (CRC-32 of the canonical ``[key, entry]`` re-dump,
:func:`record_crc`) are checked as before, and those without one are
accepted; a store hit on one re-encodes its graph and schedule into the
LRU's shape.  Both checks run at load and on every store read.  Load
distinguishes two failure shapes: a *torn tail* — the final line
lacking its newline, the signature of a writer killed mid-append — is
truncated away so subsequent appends cannot merge into it, while
corrupt interior lines (unparseable, or failing their checksum) are
copied to a ``<store>.quarantine`` sibling and counted as
``cache.corrupt_records`` instead of raising.  A stale ``.compact``
temp file from an interrupted compaction is deleted on open: the
``os.replace`` swap is atomic, so the original store is intact whenever
the temp still exists.  All disk-tier I/O is bracketed by a
:class:`~repro.service.faults.CircuitBreaker`: repeated errors (real or
injected via a :class:`~repro.service.faults.FaultInjector`) trip the
tier into LRU+compute-only degradation, with half-open probes deciding
when to rejoin.

Sharing one store across processes.  ``shared=True`` puts the disk tier
in multi-writer mode for the sharded serving tier
(:mod:`repro.service.shard`): every append happens under an advisory
``fcntl`` lock on the store file (so concurrently appending shards
never interleave bytes and every recorded offset is exact), automatic
compaction is disabled (a rewrite would invalidate the offset indexes
of every *other* shard), and :meth:`refresh` incrementally indexes
records other shards appended since our last scan — the cross-shard
single-flight re-probe calls it after taking a :class:`StoreKeyLock`,
so one cold miss is computed once per cluster, not once per shard.
The quarantine file is shared the same way and rotates at
:data:`ScheduleCache.QUARANTINE_MAX_BYTES` (one ``.1`` generation kept)
so a persistently corrupt disk cannot fill the volume;
``cache.quarantine_bytes`` gauges the active file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable

try:  # POSIX advisory locks; the sharded tier is POSIX-only anyway
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..obs import MetricsRegistry
from .faults import CircuitBreaker
from .fingerprint import canonical_bytes

__all__ = [
    "ScheduleCache", "StoreKeyLock", "decode_record", "encode_record",
    "record_crc",
]


def record_crc(key: str, entry: dict) -> int:
    """CRC-32 over the canonical ``[key, entry]`` serialization.

    The checksum of the legacy ``crc`` layout, computed over a re-dump
    of the parsed values (not the raw line); only :func:`decode_record`
    calls it, for records written before the ``entry_crc`` layout.
    """
    return zlib.crc32(json.dumps([key, entry], sort_keys=True).encode())


#: everything of an ``entry_crc`` record in front of its entry bytes
_HEADER = re.compile(
    rb'\{"entry_crc": (\d+), "key": ("(?:[^"\\]|\\.)*"), "entry": '
)
#: the fields a legacy record may carry
_LEGACY_FIELDS = frozenset(("crc", "entry", "key"))


def encode_record(key: str, entry: dict) -> bytes:
    """The store line for ``(key, entry)``, newline included.

    The line is ``{"entry_crc": C, "key": K, "entry": BODY}`` where BODY
    is ``entry`` in insertion order and ``C`` is the CRC-32 of exactly
    the BODY bytes.  A bytes-valued field is spliced as it is: a served
    entry holds its ``graph`` as the canonical dump :func:`~repro.
    service.fingerprint.doc_digest` hashed (so the record's graph bytes
    hash to the entry's ``graph_digest``) and its ``schedule`` as the
    document the wire answer carries.  A ``graph`` given as a document
    is written as that same canonical dump, so the line does not depend
    on who encoded it.  Every other field is ``json.dumps``'d with
    default separators, which makes BODY the exact bytes a cold answer
    carries.
    """
    # BODY stays in pieces, joined once into the line: the spliced
    # fields are the bulk of a record, and copying them into a field
    # and then a body would hold three copies at once
    body = []
    for name, value in entry.items():
        body.append(b", " if body else b"{")
        if name == "graph" and not isinstance(value, (bytes, bytearray)):
            value = canonical_bytes(value)
        if isinstance(value, (bytes, bytearray)):
            body += (json.dumps(name).encode() + b": ", value)
        else:
            body.append(json.dumps({name: value})[1:-1].encode())
    body.append(b"}" if body else b"{}")
    crc = 0
    for piece in body:
        crc = zlib.crc32(piece, crc)
    head = b'{"entry_crc": %d, "key": %s, "entry": ' % (
        crc, json.dumps(key).encode(),
    )
    return b"".join((head, *body, b"}\n"))


def _crc_body(line: bytes) -> tuple[str, bytes] | None:
    """``(key, entry bytes)`` of a stripped ``entry_crc`` line, ``None``
    for another layout; raises :class:`ValueError` when the CRC-32 over
    the entry bytes fails."""
    header = _HEADER.match(line)
    if header is None:
        return None
    body = line[header.end():-1]
    if not line.endswith(b"}") or zlib.crc32(body) != int(header[1]):
        raise ValueError("entry_crc mismatch")
    return json.loads(header[2]), body


def _own_entry(key: str, entry) -> dict:
    """``entry``, checked to be an object naming ``key`` if any key.

    The CRC does not cover the key, so a parsed entry that names a key
    of its own (every served entry does) must name the record's."""
    if not isinstance(entry, dict) or entry.get("key", key) != key:
        raise ValueError("entry names another key")
    return entry


def decode_record(
    line: bytes, parse: bool = True
) -> tuple[str, dict | None] | None:
    """``(key, entry)`` of one store line, ``None`` for a foreign shape.

    Raises :class:`ValueError` for a corrupt record: unparseable, or
    failing its checksum.  An ``entry_crc`` record is checked by a
    CRC-32 over its raw entry bytes before anything is parsed, and
    ``parse=False`` stops there (``entry`` is then ``None``): indexing
    a store never parses or re-encodes its entries.  ``entry`` is the
    parsed document, every field decoded (a store hit keeps the graph
    and schedule as bytes instead, see :meth:`ScheduleCache.get`).
    Lines in the legacy layout are parsed whole; their ``crc``, when
    present, is checked by :func:`record_crc`, and lines without one
    are accepted.
    """
    line = line.strip()
    record = _crc_body(line)
    if record is not None:
        key, body = record
        return key, _own_entry(key, json.loads(body)) if parse else None
    doc = json.loads(line)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("key"), str)
        and isinstance(doc.get("entry"), dict)
    ):
        return None  # foreign shape: dead bytes, not corruption
    # extra fields mean a damaged entry_crc header, not a legacy record
    crc = doc.get("crc")
    if not doc.keys() <= _LEGACY_FIELDS or (
        crc is not None and crc != record_crc(doc["key"], doc["entry"])
    ):
        raise ValueError("crc mismatch")
    return doc["key"], doc["entry"]


#: the fields a served entry holds as encoded bytes: the record splices
#: them and a store hit slices them back out
_SPLICED = ("graph", "schedule")
_scan = json.JSONDecoder().raw_decode


def _sliced_entry(body: bytes) -> dict:
    """The entry :func:`encode_record` wrote as ``body``, with an
    object-valued ``graph`` or ``schedule`` kept as its bytes.

    Walks the fields with the layout's own separators, so each sliced
    value is exactly the bytes that were spliced (and that the record's
    CRC covers); any other shape is refused as corrupt."""
    text = body.decode()
    entry: dict = {}
    if text == "{}":
        return entry
    at = 1
    while True:
        name, at = _scan(text, at)
        if type(name) is not str or not text.startswith(": ", at):
            raise ValueError("not an encode_record entry")
        value, end = _scan(text, at + 2)
        if name in _SPLICED and text.startswith("{", at + 2):
            value = text[at + 2:end].encode()
        entry[name] = value
        if text.startswith(", ", end):
            at = end + 2
        elif end == len(text) - 1 and text.startswith("}", end):
            return entry
        else:
            raise ValueError("not an encode_record entry")


def _served_record(line: bytes) -> tuple[str, dict] | None:
    """``(key, entry)`` of one store line in the shape the LRU holds:
    :func:`decode_record`'s, except that ``graph`` and ``schedule``
    documents are bytes.  An ``entry_crc`` record's are sliced out of
    the line; a legacy record's are re-encoded as
    :func:`encode_record` would write them."""
    line = line.strip()
    record = _crc_body(line)
    if record is not None:
        key, body = record
        return key, _own_entry(key, _sliced_entry(body))
    record = decode_record(line)
    if record is not None:
        entry = record[1]
        for name in _SPLICED:
            value = entry.get(name)
            if isinstance(value, dict):
                entry[name] = (canonical_bytes(value) if name == "graph"
                               else json.dumps(value).encode())
    return record


def _held_bytes(entry: dict) -> int:
    """The encoded bytes an LRU entry holds (its graph and schedule)."""
    held = 0
    for name in _SPLICED:
        value = entry.get(name)
        if isinstance(value, (bytes, bytearray)):
            held += len(value)
    return held


class ScheduleCache:
    """LRU + JSONL-backed map from request key to response entry."""

    #: compact when dead bytes exceed this fraction of the file
    COMPACT_DEAD_RATIO = 0.5
    #: but never bother below this file size
    COMPACT_MIN_BYTES = 4096
    #: rotate the quarantine file once it would exceed this size
    QUARANTINE_MAX_BYTES = 4 << 20

    def __init__(
        self,
        path: str | Path | None = None,
        capacity: int = 1024,
        retain: Callable[[str], bool] | None = None,
        registry: MetricsRegistry | None = None,
        breaker: CircuitBreaker | None = None,
        shared: bool = False,
        quarantine_max_bytes: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        self.retain = retain
        #: multi-writer mode: several shard processes append to one
        #: store file (flock'd appends, no compaction, refresh())
        self.shared = bool(shared)
        self.quarantine_max_bytes = (
            quarantine_max_bytes
            if quarantine_max_bytes is not None
            else self.QUARANTINE_MAX_BYTES
        )
        self._quarantine_bytes = 0
        if self.path is not None:
            with contextlib.suppress(OSError):
                self._quarantine_bytes = os.path.getsize(self._qpath())
        self._lru: OrderedDict[str, dict] = OrderedDict()
        #: summed graph + schedule bytes the LRU entries hold
        self._lru_bytes = 0
        #: key -> (byte offset, line length) in the file
        self._disk: dict[str, tuple[int, int]] = {}
        self._file_bytes = 0
        self.recovered_tail_bytes = 0  #: torn-tail bytes truncated at load
        self._lock = threading.Lock()
        # disk appends serialize on their own lock so a put's file write
        # never stalls concurrent get() fast paths
        self._io_lock = threading.Lock()
        self._flight = None  #: optional FlightRecorder (eviction events)
        self._faults = None  #: optional FaultInjector (disk.read/write)
        #: trips the disk tier into LRU+compute-only mode on repeated
        #: I/O errors; None only when there is no disk tier at all
        self.breaker = (
            breaker
            if breaker is not None
            else (CircuitBreaker(name="disk") if self.path is not None else None)
        )
        self._bind(registry if registry is not None else MetricsRegistry())
        if self.path is not None:
            # a leftover temp means compaction died before its atomic
            # os.replace — the original store is whole, drop the temp
            with contextlib.suppress(OSError):
                self.path.with_name(self.path.name + ".compact").unlink()
        if self.path is not None and self.path.exists():
            self._load_index()
            # shared stores are never compacted (a rewrite would strand
            # every other shard's offset index against the old file)
            if not self.shared and self._dead_ratio() > self.COMPACT_DEAD_RATIO:
                self.compact()

    # ------------------------------------------------------------------
    # instruments (the legacy counter attributes are views over these)
    # ------------------------------------------------------------------
    def _bind(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        hits = registry.counter(
            "cache.hits", "cache lookups served, per tier", labels=("tier",)
        )
        self._c_hits = hits.labels(tier="lru")
        self._c_store_hits = hits.labels(tier="store")
        self._c_misses = registry.counter(
            "cache.misses", "lookups no tier could answer"
        )
        self._c_evictions = registry.counter(
            "cache.evictions", "entries evicted, per tier", labels=("tier",)
        ).labels(tier="lru")
        self._c_puts = registry.counter("cache.puts", "entries inserted")
        self._c_compactions = registry.counter(
            "cache.compactions", "store-file compactions"
        )
        self._c_corrupt = registry.counter(
            "cache.corrupt_records",
            "store records failing checksum or parse (quarantined)",
        )
        registry.gauge(
            "cache.lru_entries", "entries resident in the memory tier",
            fn=lambda: len(self._lru),
        )
        registry.gauge(
            "cache.lru_bytes",
            "graph and schedule bytes held by the memory tier's entries",
            fn=lambda: self._lru_bytes,
        )
        registry.gauge(
            "cache.store_entries", "live keys in the disk-tier index",
            fn=lambda: len(self._disk),
        )
        registry.gauge(
            "cache.store_bytes", "disk-tier file size in bytes",
            fn=lambda: self._file_bytes,
        )
        registry.gauge(
            "cache.dead_bytes", "disk-tier bytes no index entry reaches",
            fn=self.dead_bytes,
        )
        registry.gauge(
            "cache.quarantine_bytes",
            "active quarantine-file size in bytes (rotates at its bound)",
            fn=lambda: self._quarantine_bytes,
        )
        if self.breaker is not None:
            self.breaker.bind(registry=registry)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Re-home the cache's instruments into ``registry``.

        The service adopting a cache calls this once at construction so
        the ``metrics`` op exposes cache counters next to its own.
        Accumulated counts carry over (counters are monotonic, so a
        one-time transfer preserves every delta observed afterwards).
        """
        if registry is self.registry:
            return
        carried = (
            self.hits, self.store_hits, self.misses,
            self.evictions, self.puts, self.compactions,
            self.corrupt_records,
        )
        self._bind(registry)
        children = (
            self._c_hits, self._c_store_hits, self._c_misses,
            self._c_evictions, self._c_puts, self._c_compactions,
            self._c_corrupt,
        )
        for child, value in zip(children, carried):
            if value:
                child.inc(value)

    def bind_flight(self, flight) -> None:
        """Feed LRU evictions into a service's flight-recorder ring
        (same adoption pattern as :meth:`bind_registry`; recording is
        an atomic deque append, so it is safe under the map lock)."""
        self._flight = flight
        if self.breaker is not None:
            self.breaker.bind(flight=flight)

    def bind_faults(self, faults) -> None:
        """Adopt a service's :class:`~repro.service.faults.FaultInjector`
        so plans naming ``disk.read`` / ``disk.write`` hit this tier."""
        self._faults = faults

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def store_hits(self) -> int:
        return self._c_store_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @property
    def evictions(self) -> int:
        return self._c_evictions.value

    @property
    def puts(self) -> int:
        return self._c_puts.value

    @property
    def compactions(self) -> int:
        return self._c_compactions.value

    @property
    def corrupt_records(self) -> int:
        return self._c_corrupt.value

    def _flock(self, fh, exclusive: bool = True) -> None:
        """Advisory-lock ``fh`` in shared mode (no-op otherwise).

        Released implicitly when ``fh`` closes — and by the kernel when
        the holding process dies, SIGKILL included, so a crashed shard
        can never wedge the store."""
        if self.shared and fcntl is not None:
            fcntl.flock(
                fh.fileno(),
                fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH,
            )

    def _load_index(self) -> None:
        corrupt: list[bytes] = []
        truncate_at: int | None = None
        with open(self.path, "rb") as fh:
            # in shared mode the scan (and any torn-tail truncation)
            # runs under the store's exclusive advisory lock so a
            # concurrently appending shard is never scanned mid-write —
            # or worse, truncated away as a "torn tail"
            self._flock(fh, exclusive=True)
            offset = 0
            for line in fh:
                start, offset = offset, offset + len(line)
                if not line.endswith(b"\n"):
                    # torn tail: a writer died mid-append.  Even if the
                    # fragment parses, appending after it would merge
                    # two records into one unreadable line — cut it off.
                    truncate_at = start
                    break
                if not line.strip():
                    continue
                try:
                    record = decode_record(line, parse=False)
                except ValueError:
                    corrupt.append(line)
                    continue
                if record is None:
                    continue  # foreign shape: dead bytes, not corruption
                key = record[0]
                if self.retain is None or self.retain(key):
                    self._disk[key] = (start, len(line))
            if truncate_at is not None:
                self.recovered_tail_bytes = offset - truncate_at
                os.truncate(self.path, truncate_at)
                offset = truncate_at
        self._file_bytes = offset
        if corrupt:
            self._quarantine(corrupt)

    def _qpath(self) -> Path:
        return self.path.with_name(self.path.name + ".quarantine")

    def _quarantine(self, lines: list[bytes]) -> None:
        """Copy corrupt store lines aside for postmortem, count them.

        The originals stay in the store as dead bytes (compaction
        reclaims them); the copies preserve the evidence.  Growth is
        bounded: once the active file would exceed
        ``quarantine_max_bytes`` it rotates to a single ``.1``
        generation, so a disk persistently producing corrupt records
        can never fill the volume with evidence of itself."""
        qpath = self._qpath()
        payload = b"".join(
            line if line.endswith(b"\n") else line + b"\n" for line in lines
        )
        try:
            with open(qpath, "ab") as fh:
                self._flock(fh, exclusive=True)
                size = fh.tell()
                if size and size + len(payload) > self.quarantine_max_bytes:
                    # rotate under the same lock: replace the previous
                    # generation, then restart the active file
                    os.replace(qpath, qpath.with_name(qpath.name + ".1"))
                    with open(qpath, "ab") as fresh:
                        fresh.write(payload)
                    self._quarantine_bytes = len(payload)
                else:
                    fh.write(payload)
                    self._quarantine_bytes = size + len(payload)
        except OSError:
            pass  # quarantine is best-effort; the count still records it
        self._c_corrupt.inc(len(lines))
        if self._flight is not None:
            self._flight.record("cache_corrupt", records=len(lines))

    def _live_bytes(self) -> int:
        return sum(length for _, length in self._disk.values())

    def _dead_ratio(self) -> float:
        """Fraction of the store file not reachable through the index."""
        if self._file_bytes < self.COMPACT_MIN_BYTES:
            return 0.0
        return 1.0 - self._live_bytes() / self._file_bytes

    def dead_bytes(self) -> int:
        """Bytes in the store file no live index entry points at."""
        with self._lock:
            return max(0, self._file_bytes - self._live_bytes())

    def compact(self) -> int:
        """Rewrite the store keeping only live entries; returns bytes
        reclaimed.  Safe to call at any time — store reads resolve
        their offsets under the same IO lock the rewrite holds — and a
        no-op without a disk tier.  Also a no-op in shared mode: the
        rewrite would strand every other shard's offset index against
        the replaced file, so a shared store is only compacted offline
        (all shards down, reopened unshared)."""
        if self.path is None or self.shared:
            return 0
        if self.breaker is not None and not self.breaker.allow():
            return 0  # tier is tripped; don't hammer a failing disk
        with self._io_lock:
            with self._lock:
                if not self.path.exists():
                    return 0
                old_index = dict(self._disk)
                old_bytes = self._file_bytes
            tmp = self.path.with_name(self.path.name + ".compact")
            new_index: dict[str, tuple[int, int]] = {}
            written = 0
            try:
                with open(self.path, "rb") as src, open(tmp, "wb") as dst:
                    # preserve file order for debuggability (offsets sort)
                    for key, (offset, length) in sorted(
                        old_index.items(), key=lambda kv: kv[1][0]
                    ):
                        src.seek(offset)
                        line = src.read(length)
                        new_index[key] = (written, len(line))
                        dst.write(line)
                        written += len(line)
                    dst.flush()
                    os.fsync(dst.fileno())
                # the commit point: everything before this is invisible,
                # everything after is complete — kill-safe at any instant
                os.replace(tmp, self.path)
            except OSError:
                with contextlib.suppress(OSError):
                    tmp.unlink()
                self._io_failure("compact")
                return 0
            self._io_success()
            with self._lock:
                self._disk = new_index
                self._file_bytes = written
                self._c_compactions.inc()
            return max(0, old_bytes - written)

    # ------------------------------------------------------------------
    # breaker bookkeeping around every disk-tier I/O
    # ------------------------------------------------------------------
    def _io_failure(self, op: str) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
        if self._flight is not None:
            self._flight.record("disk_error", op=op)

    def _io_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    def degraded(self) -> bool:
        """True while the disk tier is tripped (LRU+compute-only)."""
        return self.breaker is not None and self.breaker.state != "closed"

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru.keys() | self._disk.keys())

    def get(self, key: str, count_miss: bool = True) -> tuple[dict, str] | None:
        """Look up ``key``; returns ``(entry, tier)`` or ``None``.

        ``tier`` is ``"lru"`` for a memory hit, ``"store"`` for a disk
        hit (re-read from the file, its graph and schedule sliced out of
        the record as bytes, and promoted into the LRU).  Pass
        ``count_miss=False`` for a re-probe of a key whose miss was
        already counted (the service's single-flight double-check), so
        one cold request never inflates ``misses`` twice.
        """
        with self._lock:
            entry = self._lru.get(key)
            if entry is not None:
                self._lru.move_to_end(key)
                self._c_hits.inc()
                return entry, "lru"
            slot = self._disk.get(key)
            if slot is None:
                if count_miss:
                    self._c_misses.inc()
                return None
        if self.breaker is not None and not self.breaker.allow():
            # disk tier tripped: degrade to LRU+compute, don't error
            if count_miss:
                with self._lock:
                    self._c_misses.inc()
            return None
        # file IO happens outside the map lock; a concurrent promotion
        # of the same key is benign (same entry, idempotent insert)
        entry = self._read_store_entry(key)
        with self._lock:
            if entry is None:
                if count_miss:
                    self._c_misses.inc()
                return None
            self._c_store_hits.inc()
            self._insert(key, entry)
        return entry, "store"

    def _read_store_entry(self, key: str) -> dict | None:
        # resolve the offset *inside* the io lock: compact() rewrites
        # the file and rebuilds the index under the same lock, so an
        # offset captured before a concurrent compaction is never used
        # against the compacted file
        with self._io_lock:
            with self._lock:
                slot = self._disk.get(key)
            if slot is None:
                return None
            try:
                rule = (
                    self._faults.fire("disk.read", key=key[:48])
                    if self._faults is not None
                    else None
                )
                if rule is not None:
                    raise OSError(rule.error)
                with open(self.path, "rb") as fh:
                    fh.seek(slot[0])
                    raw = fh.readline()
            except OSError:
                self._io_failure("read")
                return None
        self._io_success()
        try:
            record = _served_record(raw)
        except ValueError:
            record = None
        if record is None or record[0] != key:
            # bit rot since load (or a raced rewrite): treat the record
            # as corrupt, forget the index slot so we recompute instead
            # of re-reading it forever
            with self._lock:
                self._disk.pop(key, None)
            self._c_corrupt.inc()
            if self._flight is not None:
                self._flight.record("cache_corrupt", records=1, key=key[:48])
            return None
        return record[1]

    def put(self, key: str, entry: dict) -> None:
        """Insert into the LRU; appends to the JSONL file if backed.

        The LRU keeps ``entry`` as given.  A served entry holds its
        graph and schedule as encoded bytes, which the store record
        splices as they are (see :func:`encode_record`), so neither
        tier re-encodes them; a store hit yields the same shape."""
        with self._lock:
            self._c_puts.inc()
            self._insert(key, entry)
            append_needed = self.path is not None and key not in self._disk
        if append_needed:
            if self.breaker is not None and not self.breaker.allow():
                return  # tier tripped: entry lives in the LRU only
            with self._io_lock:
                with self._lock:
                    if key in self._disk:  # a concurrent put won the race
                        return
                line = encode_record(key, entry)
                try:
                    rule = (
                        self._faults.fire("disk.write", key=key[:48])
                        if self._faults is not None
                        else None
                    )
                    if rule is not None:
                        raise OSError(rule.error)
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    with open(self.path, "ab") as fh:
                        # shared mode: the advisory lock brackets tell +
                        # write so a concurrently appending shard can
                        # neither interleave bytes nor shift our offset
                        self._flock(fh, exclusive=True)
                        fh.seek(0, os.SEEK_END)
                        offset = fh.tell()
                        fh.write(line)
                except OSError:
                    self._io_failure("write")
                    return
                with self._lock:
                    self._disk[key] = (offset, len(line))
                    self._file_bytes = max(
                        self._file_bytes, offset + len(line)
                    )
            self._io_success()

    def _insert(self, key: str, entry: dict) -> None:
        old = self._lru.pop(key, None)
        if old is not None:
            self._lru_bytes -= _held_bytes(old)
        self._lru[key] = entry
        self._lru_bytes += _held_bytes(entry)
        while len(self._lru) > self.capacity:
            evicted, dropped = self._lru.popitem(last=False)
            self._lru_bytes -= _held_bytes(dropped)
            self._c_evictions.inc()
            if self._flight is not None:
                self._flight.record(
                    "eviction", tier="lru", key=evicted[:48]
                )

    def refresh(self) -> int:
        """Index records appended by *other* writers since our last scan.

        Only meaningful for a ``shared=True`` store: each shard's index
        covers the file as of its own load plus its own appends, so a
        key computed by a sibling shard is invisible until refreshed.
        Scans only the unseen tail (under the store's shared advisory
        lock, so a flock'd append is never read mid-write), updates the
        index, and returns how many keys were added.  Corrupt or
        foreign tail lines are skipped silently — the shard that wrote
        (or first loaded) them owns the quarantine evidence.
        """
        if not self.shared or self.path is None:
            return 0
        if self.breaker is not None and not self.breaker.allow():
            return 0  # tier tripped: stay on LRU+compute
        with self._io_lock:
            with self._lock:
                start = self._file_bytes
            try:
                with open(self.path, "rb") as fh:
                    self._flock(fh, exclusive=False)
                    fh.seek(start)
                    data = fh.read()
            except OSError:
                self._io_failure("refresh")
                return 0
            self._io_success()
            if not data:
                return 0
            fresh: dict[str, tuple[int, int]] = {}
            offset = start
            for line in data.splitlines(keepends=True):
                begin, offset = offset, offset + len(line)
                if not line.endswith(b"\n"):
                    # torn tail from a crashed writer: leave it for the
                    # next load's truncation (we must not truncate a
                    # file other shards are appending to)
                    offset = begin
                    break
                try:
                    record = decode_record(line, parse=False)
                except ValueError:
                    continue
                if record is not None and (
                    self.retain is None or self.retain(record[0])
                ):
                    fresh[record[0]] = (begin, len(line))
            with self._lock:
                added = sum(1 for key in fresh if key not in self._disk)
                self._disk.update(fresh)
                self._file_bytes = max(self._file_bytes, offset)
            return added

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "lru_entries": len(self._lru),
                "lru_bytes": self._lru_bytes,
                "store_entries": len(self._disk),
                "store_bytes": self._file_bytes,
                "dead_bytes": max(0, self._file_bytes - self._live_bytes()),
                "hits": self.hits,
                "store_hits": self.store_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "puts": self.puts,
                "compactions": self.compactions,
                "corrupt_records": self.corrupt_records,
                "recovered_tail_bytes": self.recovered_tail_bytes,
                "quarantine_bytes": self._quarantine_bytes,
                "shared": self.shared,
                "breaker": (
                    self.breaker.to_dict() if self.breaker is not None else None
                ),
            }


class StoreKeyLock:
    """Cross-process single-flight on a shared disk store, per key.

    One advisory ``fcntl`` lock file per request key, hashed into a
    sibling directory of the store (``<store>.locks/``).  A shard about
    to run a cold compute takes the key's exclusive lock first; any
    sibling racing the same key blocks on the same inode, and on
    acquiring it re-probes the store (after
    :meth:`ScheduleCache.refresh`) — so two shards never burn CPU on
    the same cold miss.  The kernel releases the lock when the holder
    dies (SIGKILL included), so a crashed shard can never wedge a key.

    ``acquire`` is deadline-aware: with a ``perf_counter`` deadline it
    polls a non-blocking lock and raises :class:`TimeoutError` when the
    deadline passes (the service maps that onto its usual
    ``DeadlineExceeded`` refusal).  Lock files are tiny and bounded by
    the number of distinct cold keys; they are left in place — deleting
    them while a sibling holds the inode would split the lock.
    """

    def __init__(self, store_path: str | Path, poll_s: float = 0.005) -> None:
        self.dir = Path(str(store_path) + ".locks")
        self.poll_s = poll_s

    def path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.dir / f"{digest}.lock"

    @contextlib.contextmanager
    def acquire(self, key: str, deadline: float | None = None):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.path_for(key), "ab") as fh:
            fd = fh.fileno()
            if deadline is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.perf_counter() >= deadline:
                            raise TimeoutError(
                                "deadline expired waiting for the "
                                "cross-shard key lock"
                            ) from None
                        time.sleep(self.poll_s)
            try:
                yield
            finally:
                with contextlib.suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_UN)
