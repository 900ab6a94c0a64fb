"""Sharded serving tier: a supervising router over N shard processes.

The single-process event loop tops out at roughly one core of cold-miss
compute (the portfolio race is pure Python under the GIL).  This module
multiplies that by running N *shard* processes — each a complete
:class:`~repro.service.server.ScheduleServer` on its own loopback port,
with its own LRU and wire memos — behind one :class:`ShardRouter` that
clients connect to exactly as they would a single server.

Routing.  Compute requests (``schedule`` / ``simulate``) are routed by
rendezvous hash of the graph document's digest, so repeats of one graph
always land on the same shard and its LRU / wire-memo tiers stay hot.
``no_cache`` traffic (forced recomputes, nothing to keep hot) is spread
round-robin instead.  Control ops (``ping`` / ``stats`` / ``metrics`` /
``health`` / ``flight`` / ``reload`` / ``shutdown``) are answered by
the router itself — ``stats`` and ``health`` aggregate the shards and
carry a per-shard row for ``repro top``; anything else is relayed to a
healthy shard.

Supervision.  Shards run under the same
:class:`~repro.service.supervisor.Supervisor` as the portfolio pool's
workers: a crash (SIGKILL included — the ``shard.kill`` fault site does
exactly that) is detected within one tick and the shard respawned after
its one backoff rule, reset once it answers a health probe ``ok``.
In-flight requests to a dead shard fail over: every request is
idempotent, so the router replays the line once against the next shard
in the rendezvous order (``router.failovers``).  Shards whose own
``health`` op reports ``draining`` or ``degraded`` (a tripped breaker)
are demoted in the routing order (``router.rerouted``).

Shared store.  All shards open the same JSONL store in ``shared`` mode
(flock'd appends, no compaction — see :mod:`repro.service.cache`) and
take a per-key :class:`~repro.service.cache.StoreKeyLock` before any
cold compute, re-probing the store after acquiring it — so two shards
never burn CPU racing the same cold miss, and a restarted shard warms
up from everything its siblings computed.

Rolling restart.  ``repro reload`` (or SIGHUP to the router) restarts
one shard at a time: SIGTERM (the PR-8 drain path — in-flight requests
finish, new ones are refused retryably), wait for exit, respawn, gate
on that shard's ``health`` reporting ``ok``, then move to the next.
Under continuous retrying load the tier serves throughout: the router
routes around the draining shard and fails drain-refusals over to its
siblings, so clients observe zero incorrect responses.

Everything is observable: ``router.*`` counters, per-shard rows in
``repro top``, and flight events (``shard_crash`` / ``respawn`` /
``failover`` / ``reload``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import signal
import socket
import threading
import time
from dataclasses import dataclass

from .. import __version__
from ..obs import Telemetry
from .faults import FaultInjector, FaultPlan
from .fingerprint import doc_digest, is_current_key
from .supervisor import Slot, Supervisor, start_child

__all__ = ["ShardConfig", "ShardRouter", "DEFAULT_SHARDS"]

DEFAULT_SHARDS = 2

#: how long a reloaded shard gets to answer health ``ok`` before the
#: rolling restart moves on without it
RESTART_TIMEOUT_S = 30.0
#: socket timeout on the router's connection to a shard
UPSTREAM_TIMEOUT_S = 60.0
_COMPUTE_OPS = ("schedule", "simulate")
_LOOPBACK = "127.0.0.1"


@dataclass
class ShardConfig:
    """Everything a shard process needs to build its server.

    Plain primitives only, so the config crosses the process boundary
    regardless of start method.  ``store`` is the *shared* JSONL path
    (``None`` = memory-only LRU per shard, no cross-shard tier);
    ``fault_plan`` is the full plan document — shards consult their own
    sites (``disk.*``, ``conn.*``, ``worker.*``, ``compute.slow``)
    while the router alone consults ``shard.kill``.
    """

    store: str | None = None
    cache_size: int = 1024
    workers: int = 4
    portfolio_workers: int = 0
    trusted: bool = False
    telemetry: bool = True
    fault_plan: dict | None = None
    drain_grace: float = 5.0
    flight_dir: str | None = None
    slow_ms: float | None = None


def _shard_main(idx: int, config: ShardConfig, conn) -> None:
    """Shard process entry: build a full server, announce the bound
    port over ``conn``, serve until SIGTERM drains us."""
    from ..obs import FlightRecorder, MetricsRegistry
    from .cache import ScheduleCache, StoreKeyLock
    from .gcpolicy import serving_gc
    from .server import ScheduleServer, ScheduleService

    cache = None
    keylock = None
    if config.store is not None:
        cache = ScheduleCache(
            config.store,
            capacity=config.cache_size,
            retain=is_current_key,
            shared=True,
        )
        keylock = StoreKeyLock(config.store)
    faults = None
    if config.fault_plan:
        faults = FaultInjector(FaultPlan.from_dict(config.fault_plan))
    flight_dir = None
    if config.flight_dir:
        flight_dir = os.path.join(config.flight_dir, f"shard-{idx}")
    telemetry = Telemetry(
        registry=MetricsRegistry(),
        enabled=config.telemetry,
        flight=FlightRecorder(dump_dir=flight_dir),
        slow_request_ms=config.slow_ms,
    )
    service = ScheduleService(
        cache=cache,
        portfolio_workers=config.portfolio_workers,
        validate_graphs=not config.trusted,
        telemetry=telemetry,
        faults=faults,
        keylock=keylock,
    )
    server = ScheduleServer(
        service, host=_LOOPBACK, port=0, workers=config.workers
    )
    try:
        signal.signal(
            signal.SIGTERM,
            lambda *_: server.drain(config.drain_grace),
        )
        # the router owns reload/terminal signals; a ^C against the
        # foreground process group must not skip the drain path
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - embedded use
        pass
    # the same serving GC policy as ``repro serve`` (see gcpolicy)
    with serving_gc(telemetry.registry):
        server.start()
        try:
            conn.send({"port": server.port, "pid": os.getpid()})
        finally:
            conn.close()
        try:
            server.serve_forever()
        finally:
            telemetry.close()


class _Shard(Slot):
    """Router-side state of one shard slot."""

    __slots__ = ("port", "pid", "state", "health_status", "started_at",
                 "crashes", "restarts")

    def __init__(self, idx: int) -> None:
        super().__init__(idx)
        self.port: int | None = None
        self.pid: int | None = None
        #: "starting" -> "up" -> ("down" | "restarting") -> "starting"
        self.state = "down"
        self.health_status = "unknown"
        self.started_at = 0.0
        self.crashes = 0
        self.restarts = 0

    @property
    def attemptable(self) -> bool:
        return self.state == "up" and self.port is not None

    def row(self) -> dict:
        """Per-shard row for the ``stats`` op / ``repro top``."""
        return {
            "shard": self.idx,
            "port": self.port,
            "pid": self.pid,
            "state": self.state,
            "health": self.health_status,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "uptime_s": (
                round(time.monotonic() - self.started_at, 3)
                if self.state == "up" else 0.0
            ),
        }


class ShardRouter:
    """Front-end socket server routing to N supervised shard processes.

    Speaks the same JSON-lines protocol as
    :class:`~repro.service.server.ScheduleServer`, so every existing
    client — ``ServiceClient``, the load generator, ``repro top`` —
    works unchanged against ``repro serve --shards N``.
    """

    #: vnodes per shard on the rendezvous order memo bound
    _ROUTE_MEMO_MAX = 8192
    #: how long a request waits for *any* routable shard before a
    #: retryable refusal (covers the respawn window after a crash)
    NO_SHARD_GRACE_S = 2.0

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        host: str = _LOOPBACK,
        port: int = 0,
        config: ShardConfig | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
        allow_remote_shutdown: bool = False,
        health_interval_s: float = 0.25,
        clock=time.monotonic,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = shards
        self.host = host
        self.port = port
        self.config = config if config is not None else ShardConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.allow_remote_shutdown = allow_remote_shutdown
        self.health_interval_s = health_interval_s
        #: router-side fault injector (the ``shard.kill`` site); shards
        #: build their own injector from the same plan for their sites
        self.faults = faults
        if faults is not None:
            faults.bind(
                registry=self.telemetry.registry,
                flight=self.telemetry.flight,
            )
        seed = faults.plan.seed if faults is not None else 0
        # victim choice is its own seeded stream so the fire/no-fire
        # decisions at shard.kill replay identically either way
        self._kill_rng = random.Random(f"{seed}:shard.kill:victim")
        self.shards = [_Shard(i) for i in range(shards)]
        #: ``clock`` is the supervisor's time source (a test seam)
        self._sup = Supervisor(
            self.shards, self._start_shard, on_message=self._on_announce,
            on_exit=self._on_exit, clock=clock,
        )
        self.started = time.time()
        self._sock: socket.socket | None = None
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._reloading = False
        self._rr = itertools.count()
        self._route_memo: dict[bytes, tuple[int, ...]] = {}
        self._register_instruments()

    # ------------------------------------------------------------------
    def _register_instruments(self) -> None:
        reg = self.telemetry.registry
        self._c_requests = reg.counter(
            "router.requests", "requests routed, per op and outcome",
            labels=("op", "outcome"),
        )
        self._c_failovers = reg.counter(
            "router.failovers",
            "requests replayed on a sibling after a shard failed mid-flight",
        )
        self._c_rerouted = reg.counter(
            "router.rerouted",
            "requests routed around a draining/degraded/down home shard",
        )
        self._c_crashes = reg.counter(
            "router.shard_crashes", "unexpected shard process exits"
        )
        self._c_respawns = reg.counter(
            "router.respawns", "shard processes (re)spawned after the boot"
        )
        self._c_reloads = reg.counter(
            "router.reloads", "completed rolling restarts"
        )
        reg.gauge(
            "router.shards", "configured shard count",
            fn=lambda: self.num_shards,
        )
        reg.gauge(
            "router.shards_up", "shards currently accepting requests",
            fn=lambda: sum(1 for s in self.shards if s.state == "up"),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardRouter":
        if self._sock is not None:
            return self
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(128)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._sup.spawn_due()
        for target, name in (
            (self._accept_loop, "repro-router-accept"),
            (self._supervise_loop, "repro-router-supervise"),
            (self._health_loop, "repro-router-health"),
        ):
            thread = threading.Thread(target=target, daemon=True, name=name)
            thread.start()
            self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        self.start()
        self._stopped.wait()

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every shard is up (convenience for tests/bench)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(s.attemptable for s in self.shards):
                return True
            time.sleep(0.02)
        return False

    def stop(self) -> None:
        """Terminate shards (SIGTERM: their drain path) and shut down."""
        if self._stop.is_set():
            self._stopped.wait(5.0)
            return
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        for thread in self._threads:
            if thread.name == "repro-router-supervise":
                # it exits within one tick; joining it first means no
                # respawn races the teardown
                thread.join(2.0)
        self._sup.close(self.config.drain_grace + 5.0)
        self._stopped.set()

    def drain(self, grace_s: float | None = None) -> None:
        """SIGTERM semantics for the whole tier, callable from a signal
        handler: kick the drain off on a helper thread and return."""
        if grace_s is not None:
            self.config.drain_grace = grace_s
        threading.Thread(target=self.stop, daemon=True,
                         name="repro-router-drain").start()

    # ------------------------------------------------------------------
    # supervision: the shared Supervisor, one process per shard
    # ------------------------------------------------------------------
    def _start_shard(self, idx: int):
        shard = self.shards[idx]
        proc, conn = start_child(
            _shard_main, idx, self.config, name=f"repro-shard-{idx}"
        )
        shard.pid = proc.pid
        shard.state = "starting"
        shard.health_status = "unknown"
        shard.started_at = time.monotonic()
        if shard.spawns:
            self._c_respawns.inc()
            self.telemetry.flight.record(
                "respawn", shard=idx, pid=proc.pid,
                backoff_s=round(shard.backoff_s, 3),
            )
        return proc, conn

    def _on_announce(self, shard: _Shard) -> None:
        """A starting shard reports its bound port (or died trying)."""
        conn = shard.conn
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            msg = None  # died before announcing; the supervisor reaps it
        if isinstance(msg, dict) and msg.get("port"):
            shard.port = int(msg["port"])
            shard.state = "up"
        conn.close()
        shard.conn = None

    def _on_exit(self, shard: _Shard, exitcode: int | None) -> None:
        shard.port = None
        shard.state = "down"
        shard.health_status = "down"
        if shard.expected_exit:
            # drain-initiated (rolling restart / shutdown): respawned at
            # once, not a crash
            shard.restarts += 1
            self.telemetry.flight.record(
                "shard_exit", shard=shard.idx, exitcode=exitcode,
            )
        else:
            shard.crashes += 1
            self._c_crashes.inc()
            self.telemetry.flight.record(
                "shard_crash", shard=shard.idx, exitcode=exitcode,
            )

    def _supervise_loop(self) -> None:
        while not self._stop.is_set():
            self._sup.step()

    def _health_loop(self) -> None:
        while not self._stop.wait(self.health_interval_s):
            for shard in self.shards:
                if not shard.attemptable:
                    continue
                doc = self._control(shard, {"op": "health"}, timeout=2.0)
                if doc is None:
                    shard.health_status = "unreachable"
                    continue
                shard.health_status = doc.get("status", "unknown")
                if shard.health_status == "ok":
                    self._sup.healthy(shard)

    def _control(self, shard: _Shard, doc: dict,
                 timeout: float = 2.0) -> dict | None:
        """One control round trip to a shard (own socket, best-effort)."""
        port = shard.port
        if port is None:
            return None
        try:
            with socket.create_connection(
                (_LOOPBACK, port), timeout=timeout
            ) as sock:
                sock.sendall(json.dumps(doc).encode() + b"\n")
                buf = bytearray()
                while b"\n" not in buf:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return None
                    buf += chunk
            return json.loads(bytes(buf[: buf.find(b"\n")]))
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------
    # front-end
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        sock = self._sock
        while not self._stop.is_set():
            try:
                client, _addr = sock.accept()
            except OSError:
                return  # listener closed: shutting down
            thread = threading.Thread(
                target=self._serve_conn, args=(client,), daemon=True,
                name="repro-router-conn",
            )
            thread.start()

    def _serve_conn(self, client: socket.socket) -> None:
        try:
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        upstreams: dict[int, socket.socket] = {}
        buf = bytearray()
        try:
            while not self._stop.is_set():
                nl = buf.find(b"\n")
                while nl < 0:
                    chunk = client.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                    nl = buf.find(b"\n")
                line = bytes(buf[: nl + 1])
                del buf[: nl + 1]
                if not line.strip():
                    continue
                data, close_after = self._handle_line(line, upstreams, client)
                client.sendall(data)
                if close_after:
                    return
        except OSError:
            pass
        finally:
            for sock in upstreams.values():
                try:
                    sock.close()
                except OSError:
                    pass
            try:
                client.close()
            except OSError:
                pass

    @staticmethod
    def _encode(response: dict) -> bytes:
        return json.dumps(response).encode() + b"\n"

    def _peer_permitted(self, client: socket.socket) -> bool:
        if self.allow_remote_shutdown:
            return True
        try:
            return client.getpeername()[0] in ("127.0.0.1", "::1")
        except OSError:
            return False

    def _handle_line(
        self, line: bytes, upstreams: dict, client: socket.socket
    ) -> tuple[bytes, bool]:
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return self._encode(
                {"ok": False, "error": f"bad request: {exc}"}
            ), False
        op = doc.get("op")
        if op == "ping":
            return self._encode({
                "ok": True, "op": "ping", "version": __version__,
                "router": True, "shards": self.num_shards,
            }), False
        if op == "health":
            return self._encode(self.health()), False
        if op == "stats":
            return self._encode(self.stats()), False
        if op == "metrics":
            reg = self.telemetry.registry
            return self._encode({
                "ok": True, "op": "metrics", "router": True,
                "telemetry_enabled": self.telemetry.enabled,
                "text": reg.render(), "snapshot": reg.snapshot(),
            }), False
        if op == "flight":
            flight = self.telemetry.flight
            n = doc.get("n", 100)
            if not isinstance(n, int) or n < 1:
                return self._encode(
                    {"ok": False, "error": "flight op needs a positive n"}
                ), False
            return self._encode({
                "ok": True, "op": "flight", "router": True,
                **flight.snapshot(), "events": flight.last(n),
            }), False
        if op == "reload":
            if not self._peer_permitted(client):
                return self._encode({
                    "ok": False,
                    "error": "reload refused from a non-loopback peer",
                }), False
            return self._encode(self.reload()), False
        if op == "shutdown":
            if not self._peer_permitted(client):
                return self._encode({
                    "ok": False,
                    "error": (
                        "shutdown refused: remote shutdown is disabled "
                        "(serve with --allow-remote-shutdown)"
                    ),
                }), False
            threading.Thread(target=self.stop, daemon=True,
                             name="repro-router-shutdown").start()
            return self._encode({"ok": True, "op": "shutdown"}), True
        if op in _COMPUTE_OPS:
            t0 = time.perf_counter()
            self._maybe_kill_shard()
            order = self._rendezvous(line, doc)
            data = self._forward(line, order, upstreams)
            outcome = "ok"
            if data.startswith(b'{"ok": false') or data.startswith(b'{"ok":false'):
                outcome = "error"
            self._c_requests.labels(op=op, outcome=outcome).inc()
            self.telemetry.observe_request(
                op, outcome, 1000.0 * (time.perf_counter() - t0)
            )
            return data, False
        # anything else (trace, profile, unknown ops): relay round-robin
        # and let the shard answer — including its own error messages
        order = self._rotation(next(self._rr) % self.num_shards)
        return self._forward(line, order, upstreams), False

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _rotation(self, start: int) -> tuple[int, ...]:
        n = self.num_shards
        return tuple((start + i) % n for i in range(n))

    def _rendezvous(self, line: bytes, doc: dict) -> tuple[int, ...]:
        """Preference order of shards for this request line.

        Rendezvous (highest-random-weight) hashing of the graph
        document's digest: every key gets a stable shard order, keys
        spread evenly, and losing a shard only remaps the keys it
        owned.  ``no_cache`` recomputes have no cache affinity to
        preserve and round-robin instead (this is also what lets the
        shards bench profile measure clean fan-out).  The order is
        memoized per request line — load generators replay identical
        bytes, so repeats skip the canonical re-dump of the graph.
        """
        if doc.get("no_cache"):
            return self._rotation(next(self._rr) % self.num_shards)
        cached = self._route_memo.get(line)
        if cached is not None:
            return cached
        graph_doc = doc.get("graph")
        if not isinstance(graph_doc, dict):
            return self._rotation(0)  # shard answers the schema error
        digest = doc_digest(graph_doc)
        order = tuple(sorted(
            range(self.num_shards),
            key=lambda idx: hashlib.sha256(
                f"{digest}:{idx}".encode()
            ).digest(),
            reverse=True,
        ))
        with self._lock:
            if len(self._route_memo) >= self._ROUTE_MEMO_MAX:
                self._route_memo.clear()
            self._route_memo[line] = order
        return order

    def _route_order(self, pref: tuple[int, ...]) -> list[int]:
        """Health-aware candidate list: ok shards first (in preference
        order), then degraded/unknown, then anything still up."""
        ok: list[int] = []
        demoted: list[int] = []
        last: list[int] = []
        for idx in pref:
            shard = self.shards[idx]
            if not shard.attemptable:
                continue
            status = shard.health_status
            if status == "ok":
                ok.append(idx)
            elif status in ("degraded", "unknown"):
                demoted.append(idx)
            else:  # draining, unreachable: only if nothing better
                last.append(idx)
        return ok + demoted + last

    def _forward(
        self, line: bytes, pref: tuple[int, ...], upstreams: dict
    ) -> bytes:
        """Relay ``line`` to the preferred shard, failing over at most
        once per healthy sibling; synthesizes a retryable refusal when
        no shard can answer."""
        deadline = time.monotonic() + self.NO_SHARD_GRACE_S
        attempted_any = False
        while True:
            candidates = self._route_order(pref)
            if candidates:
                home = candidates[0]
                if pref and home != pref[0]:
                    self._c_rerouted.inc()
                for position, idx in enumerate(candidates):
                    data = self._try_shard(idx, line, upstreams)
                    if data is None:
                        attempted_any = True
                        continue
                    if (
                        position + 1 < len(candidates)
                        and self._drain_refusal(data)
                    ):
                        # the shard started draining between health
                        # polls: idempotent request, replay on a sibling
                        attempted_any = True
                        self._count_failover(idx)
                        continue
                    if attempted_any and idx != home:
                        self._count_failover(idx)
                    return data
            if time.monotonic() >= deadline or self._stop.is_set():
                return self._encode({
                    "ok": False,
                    "error": "no shard available (down or draining)",
                    "retryable": True,
                    "shed": True,
                    "retry_after_ms": 200,
                })
            time.sleep(0.05)  # a respawn is likely in flight

    @staticmethod
    def _drain_refusal(data: bytes) -> bool:
        head = data[:160]
        return (
            head.startswith(b'{"ok": false') or head.startswith(b'{"ok":false')
        ) and (b'"draining": true' in head or b'"draining":true' in head)

    def _count_failover(self, idx: int) -> None:
        self._c_failovers.inc()
        self.telemetry.flight.record("failover", shard=idx)

    def _try_shard(
        self, idx: int, line: bytes, upstreams: dict
    ) -> bytes | None:
        """One request over this connection's persistent upstream to
        shard ``idx`` (one transparent reconnect); ``None`` on failure."""
        shard = self.shards[idx]
        for attempt in (0, 1):
            port = shard.port
            if not shard.attemptable or port is None:
                return None
            sock = upstreams.get(idx)
            if sock is None:
                try:
                    sock = socket.create_connection(
                        (_LOOPBACK, port), timeout=UPSTREAM_TIMEOUT_S
                    )
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                    upstreams[idx] = sock
                except OSError:
                    return None
            try:
                sock.sendall(line)
                buf = bytearray()
                while True:
                    nl = buf.find(b"\n")
                    if nl >= 0:
                        return bytes(buf[: nl + 1])
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("shard closed mid-response")
                    buf += chunk
            except OSError:
                try:
                    sock.close()
                except OSError:
                    pass
                upstreams.pop(idx, None)
                if attempt:
                    return None
        return None

    # ------------------------------------------------------------------
    # chaos: the shard.kill fault site
    # ------------------------------------------------------------------
    def _maybe_kill_shard(self) -> None:
        """Consult the plan's ``shard.kill`` site once per routed
        compute request; on fire, SIGKILL a random live shard."""
        if self.faults is None:
            return
        rule = self.faults.fire("shard.kill")
        if rule is None:
            return
        live = self._sup.live()
        if not live:
            return
        victim = self._kill_rng.choice(live)
        self.telemetry.flight.record(
            "shard_kill", shard=victim.idx, pid=victim.pid
        )
        self._sup.kill(victim.idx)

    # ------------------------------------------------------------------
    # aggregate control ops
    # ------------------------------------------------------------------
    def health(self) -> dict:
        up = [s for s in self.shards if s.state == "up"]
        if self._reloading:
            status = "reloading"
        elif len(up) == self.num_shards and all(
            s.health_status == "ok" for s in up
        ):
            status = "ok"
        elif any(
            s.health_status in ("ok", "degraded", "unknown") for s in up
        ):
            status = "degraded"
        else:
            status = "down"
        return {
            "ok": True,
            "op": "health",
            "router": True,
            "status": status,
            "reloading": self._reloading,
            "draining": self._stop.is_set(),
            "breakers": [],
            "tripped": [],
            "shards": [s.row() for s in self.shards],
            "failovers": self._c_failovers.value,
            "shard_crashes": self._c_crashes.value,
            "faults": (
                self.faults.snapshot() if self.faults is not None else None
            ),
        }

    def stats(self) -> dict:
        rows = []
        totals = {"served": 0, "computed": 0, "fastpath": 0,
                  "coalesced": 0, "crossflight": 0, "errors": 0}
        cache_totals: dict | None = None
        for shard in self.shards:
            row = shard.row()
            if shard.attemptable:
                doc = self._control(shard, {"op": "stats"}, timeout=2.0)
                if doc is not None:
                    for field_name in totals:
                        value = doc.get(field_name, 0)
                        row[field_name] = value
                        totals[field_name] += value
                    row["gc"] = doc.get("gc")
                    cache = doc.get("cache")
                    if isinstance(cache, dict):
                        if cache_totals is None:
                            cache_totals = dict.fromkeys(
                                ("hits", "store_hits", "misses",
                                 "evictions", "puts", "lru_entries",
                                 "store_entries", "capacity"), 0,
                            )
                        for key in cache_totals:
                            cache_totals[key] += cache.get(key) or 0
            rows.append(row)
        names = self._c_requests.label_names
        served = errors = 0
        for values, child in self._c_requests.series():
            outcome = dict(zip(names, values)).get("outcome")
            if outcome == "ok":
                served += child.value
            elif outcome == "error":
                errors += child.value
        return {
            "ok": True,
            "op": "stats",
            "router": True,
            "version": __version__,
            "uptime_s": round(time.time() - self.started, 3),
            "shards": rows,
            "served": served,
            "errors": errors,
            "fastpath": totals["fastpath"],
            "coalesced": totals["coalesced"],
            "crossflight": totals["crossflight"],
            "computed": totals["computed"],
            "cache": cache_totals,
            "telemetry": self.telemetry.enabled,
            "health": self.health()["status"],
            "draining": self._stop.is_set(),
            "router_counters": {
                "failovers": self._c_failovers.value,
                "rerouted": self._c_rerouted.value,
                "shard_crashes": self._c_crashes.value,
                "respawns": self._c_respawns.value,
                "reloads": self._c_reloads.value,
                "reloading": self._reloading,
            },
            "faults": (
                self.faults.snapshot() if self.faults is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # zero-downtime rolling restart
    # ------------------------------------------------------------------
    def reload(self) -> dict:
        """Kick off a rolling restart; returns immediately.

        One shard at a time: SIGTERM (drain), wait for exit, let the
        supervisor respawn it, gate on its ``health`` op reporting
        ``ok``, then move on.  ``repro reload`` polls ``stats`` until
        ``reloading`` clears.
        """
        with self._lock:
            if self._reloading:
                return {"ok": False, "op": "reload",
                        "error": "reload already in progress"}
            if self._stop.is_set():
                return {"ok": False, "op": "reload",
                        "error": "router is shutting down"}
            self._reloading = True
        self.telemetry.flight.record("reload", shards=self.num_shards)
        threading.Thread(target=self._reload_loop, daemon=True,
                         name="repro-router-reload").start()
        return {"ok": True, "op": "reload", "started": True,
                "shards": self.num_shards}

    def _reload_loop(self) -> None:
        try:
            for shard in self.shards:
                if self._stop.is_set():
                    return
                self.telemetry.flight.record(
                    "reload_shard", shard=shard.idx
                )
                shard.state = "restarting"  # routing skips us now
                # SIGTERM -> the shard's drain path; the supervisor reaps
                # the expected exit and respawns at once
                self._sup.retire([shard], self.config.drain_grace + 10.0)
                # gate on the replacement answering health ok
                gate = time.monotonic() + RESTART_TIMEOUT_S
                while time.monotonic() < gate and not self._stop.is_set():
                    if shard.attemptable:
                        doc = self._control(
                            shard, {"op": "health"}, timeout=2.0
                        )
                        if doc is not None and doc.get("status") == "ok":
                            shard.health_status = "ok"
                            break
                    time.sleep(0.05)
                else:
                    self.telemetry.flight.record(
                        "reload_stuck", shard=shard.idx
                    )
            self._c_reloads.inc()
            self.telemetry.flight.record("reload_done")
        finally:
            self._reloading = False
