"""Blocking JSON-lines client for the scheduling service.

One socket, one request object per line out, one response object per
line back.  The transport layer is deliberately explicit: writes loop
over ``send`` (partial writes and EINTR are facts of life, not errors),
reads buffer until a full line arrives, and a connection that dies
mid-response is replaced *once* per request — every service op is
idempotent (schedule/simulate are pure computes behind a cache), so
replaying the request line over a fresh socket is always safe.

Application-level retries (shed/deadline/draining responses flagged
``retryable``) live in :meth:`ServiceClient.request_with_retry`, with
jittered exponential backoff; the load generator and CLI drive it via
``--retries``.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Mapping, Sequence

from ..core.graph import CanonicalGraph
from ..core.serialize import graph_to_dict
from .server import DEFAULT_PORT

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The service answered ``ok: false``; carries the response."""

    def __init__(self, response: dict):
        self.response = response
        super().__init__(response.get("error", "service error"))

    @property
    def retryable(self) -> bool:
        return bool(self.response.get("retryable", False))


class ServiceClient:
    """A connected client; use as a context manager to close cleanly."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: wire accounting (the load generator reports bytes/s)
        self.bytes_sent = 0
        self.bytes_received = 0
        #: transparent transport-level reconnects performed so far
        self.reconnects = 0
        #: application-level retries performed by request_with_retry
        self.retries = 0
        self._sock: socket.socket | None = None
        self._rbuf = bytearray()
        self._connect()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._rbuf = bytearray()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._rbuf = bytearray()

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _send_all(self, data: bytes) -> None:
        """``send`` until every byte is on the wire: a full socket buffer
        yields partial sends, a signal yields EINTR — both just resume."""
        assert self._sock is not None
        view = memoryview(data)
        while view:
            try:
                sent = self._sock.send(view)
            except InterruptedError:
                continue  # EINTR: nothing was sent, try again
            if sent == 0:
                raise ConnectionError("socket send returned 0 bytes")
            view = view[sent:]

    def _read_line(self) -> bytes:
        """Receive until a full newline-terminated response is buffered.

        EOF with a *partial* line in the buffer is the mid-response
        disconnect case — distinguished in the error message because the
        caller's reconnect logic treats both identically (replay) while
        a human debugging wants to know which happened.
        """
        assert self._sock is not None
        buf = self._rbuf
        while True:
            nl = buf.find(b"\n")
            if nl >= 0:
                line = bytes(buf[: nl + 1])
                del buf[: nl + 1]
                return line
            try:
                chunk = self._sock.recv(65536)
            except InterruptedError:
                continue  # EINTR: retry the read
            if not chunk:
                if buf:
                    raise ConnectionError(
                        "connection closed mid-response "
                        f"({len(buf)} bytes of a partial line)"
                    )
                raise ConnectionError("service closed the connection")
            buf += chunk

    # ------------------------------------------------------------------
    def request_raw(self, line: bytes) -> dict:
        """Send one pre-encoded request line; return the parsed response.

        The fast path for load generation: the caller encodes each
        distinct request once and replays the bytes.  A connection that
        fails mid-request (send error, EOF, truncated response) is
        replaced once and the request replayed transparently; a second
        failure propagates.
        """
        if not line.endswith(b"\n"):
            line += b"\n"
        for attempt in (0, 1):
            if self._sock is None:
                self._connect()
            try:
                self._send_all(line)
                reply = self._read_line()
                break
            except OSError as exc:
                self._drop()
                if attempt:
                    raise ConnectionError(
                        f"request failed after reconnect: {exc}"
                    ) from exc
                self.reconnects += 1
        self.bytes_sent += len(line)
        self.bytes_received += len(reply)
        return json.loads(reply)

    def request(self, doc: Mapping) -> dict:
        """Send one request document; raise :class:`ServiceError` on failure."""
        response = self.request_raw(json.dumps(dict(doc)).encode())
        if not response.get("ok", False):
            raise ServiceError(response)
        return response

    def request_with_retry(
        self,
        doc: Mapping,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        rng: random.Random | None = None,
    ) -> dict:
        """Like :meth:`request`, but retry *retryable* failures.

        Retryable means a transport error (connection died twice) or a
        response flagged ``retryable`` by the server — shed under
        overload, deadline exceeded, draining.  Backoff is exponential
        with full jitter (0.5x–1.5x), floored at the server's
        ``retry_after_ms`` hint when present.  Non-retryable errors
        (bad request, unknown op) propagate immediately.
        """
        if rng is None:
            rng = random.Random()
        doc = dict(doc)
        attempt = 0
        while True:
            response: dict | None
            try:
                response = self.request_raw(json.dumps(doc).encode())
            except ConnectionError:
                if attempt >= retries:
                    raise
                response = None
            if response is not None:
                if response.get("ok", False):
                    return response
                if attempt >= retries or not response.get("retryable", False):
                    raise ServiceError(response)
            attempt += 1
            self.retries += 1
            # the server counts retried requests (service.retries)
            doc["retry"] = True
            delay = min(backoff_s * (2 ** (attempt - 1)), max_backoff_s)
            if response is not None and response.get("retry_after_ms"):
                delay = max(delay, float(response["retry_after_ms"]) / 1000.0)
            time.sleep(delay * (0.5 + rng.random()))

    # ------------------------------------------------------------------
    def schedule(
        self,
        graph: CanonicalGraph | Mapping,
        num_pes: int,
        objective: str = "makespan",
        schedulers: Sequence[str] | None = None,
        budget_ms: float | None = None,
        no_cache: bool = False,
        deadline_ms: float | None = None,
        retries: int = 0,
    ) -> dict:
        """Request the best schedule for ``graph`` on ``num_pes`` PEs."""
        return self._keyed(
            "schedule", graph, num_pes, retries, {"objective": objective},
            schedulers=list(schedulers) if schedulers else None,
            budget_ms=budget_ms, no_cache=True if no_cache else None,
            deadline_ms=deadline_ms,
        )

    def simulate(
        self,
        graph: CanonicalGraph | Mapping,
        num_pes: int,
        scheduler: str = "lts",
        policy: str = "barrier",
        pacing: str = "steady",
        capacity: int | None = None,
        no_cache: bool = False,
        deadline_ms: float | None = None,
        retries: int = 0,
    ) -> dict:
        """Schedule ``graph`` with one streaming scheduler and execute
        the result under the cycle-accurate DES substrate; the response
        reports simulated vs analytic makespan and, on a deadlock, the
        blocked tasks and full channels."""
        return self._keyed(
            "simulate", graph, num_pes, retries,
            {"scheduler": scheduler, "policy": policy, "pacing": pacing},
            capacity=capacity, no_cache=True if no_cache else None,
            deadline_ms=deadline_ms,
        )

    def _keyed(self, op: str, graph: CanonicalGraph | Mapping, num_pes: int,
               retries: int, fields: dict, **optional) -> dict:
        """Send one keyed request: ``op``, ``graph`` and ``num_pes``,
        then ``fields``, then each ``optional`` field that is not
        ``None``, in that order."""
        doc: dict = {
            "op": op,
            "graph": graph_to_dict(graph)
            if isinstance(graph, CanonicalGraph)
            else dict(graph),
            "num_pes": num_pes,
            **fields,
        }
        doc.update((k, v) for k, v in optional.items() if v is not None)
        if retries:
            return self.request_with_retry(doc, retries=retries)
        return self.request(doc)

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def health(self) -> dict:
        """The server's health summary: ``status`` is ``ok``,
        ``degraded`` (a circuit breaker is open) or ``draining``."""
        return self.request({"op": "health"})

    def metrics(self) -> dict:
        """The server's metrics registry: Prometheus text under
        ``"text"``, the structured snapshot under ``"snapshot"``."""
        return self.request({"op": "metrics"})

    def trace(self, n: int = 50) -> dict:
        """The server's last ``n`` request spans (``"spans"``) plus the
        same data as chrome trace events (``"chrome"``)."""
        return self.request({"op": "trace", "n": n})

    def profile(self, n: int = 10, speedscope: bool = False) -> dict:
        """The server's sampling-profiler aggregate: summary counters,
        top ``n`` stacks/functions and collapsed-stack text; with
        ``speedscope`` the full speedscope JSON document too.  Errors
        unless the server runs with ``--profile-hz``."""
        doc: dict = {"op": "profile", "n": n}
        if speedscope:
            doc["speedscope"] = True
        return self.request(doc)

    def flight(self, n: int = 100, dump: bool = False) -> dict:
        """The server's last ``n`` flight-recorder events plus the dump
        ledger; ``dump=True`` forces a dump (needs ``--flight-dir``)."""
        doc: dict = {"op": "flight", "n": n}
        if dump:
            doc["dump"] = True
        return self.request(doc)

    def shutdown(self) -> dict:
        """Ask the server to stop (gracefully) after replying."""
        return self.request({"op": "shutdown"})
