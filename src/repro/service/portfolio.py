"""Scheduler portfolio: race candidate schedulers, pick by objective.

One request may name any subset of the registry — the spatial-block
streaming variants (``lts``, ``rlx``, ``work``), the non-streaming list
scheduler (``nstr``) and HEFT with unit speeds (``heft``) — and an
objective deciding the winner:

* ``makespan``    — minimize the schedule makespan;
* ``throughput``  — maximize ``T1 / makespan`` (work throughput, i.e.
  speedup over sequential; same winner as ``makespan`` for one graph,
  but the reported value is comparable *across* graphs);
* ``buffer``      — lexicographically minimize (total FIFO capacity,
  makespan); note that non-streaming candidates need no FIFOs at all
  and trivially win this objective, so restrict the portfolio to
  streaming variants when sizing on-chip memory.

Candidates are CPU-bound pure Python, so under the GIL the in-process
"race" is an *anytime* one: candidates run in priority order and an
optional wall-clock budget cuts the tail off once at least one has
finished.  A truncated portfolio still returns the best schedule found —
callers (the service) simply refrain from caching it, since a rerun with
more budget could answer differently.

Passing a :class:`PortfolioPool` races the candidates **concurrently**
on a persistent ``multiprocessing`` pool instead (the same
chunked-dispatch worker discipline as :mod:`repro.campaign.executor`,
with warm-started workers that pre-import the scheduler stack).  The
miss latency then tracks the slowest candidate instead of the sum, and —
because the candidates escape the GIL — several concurrent misses
pipeline through the worker processes.  Winner selection is identical to
the sequential race: every candidate is deterministic, so the same
objective key and the same priority-order tie-break pick the same
schedule either way.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..baselines import schedule_heft, schedule_nonstreaming
from ..core import schedule_streaming, serialize, total_work
from ..core.graph import CanonicalGraph
from ..core.indexed import IndexedGraph
from ..core.ingest import ingest_graph_doc
from ..core.serialize import graph_to_dict, schedule_to_dict
from .supervisor import Slot, Supervisor, start_child

__all__ = [
    "CandidateResult",
    "PortfolioResult",
    "PortfolioPool",
    "WorkerCrashError",
    "WorkerHangError",
    "QuarantinedError",
    "run_portfolio",
    "register_scheduler",
    "scheduler_names",
    "OBJECTIVES",
    "DEFAULT_SCHEDULERS",
]


class WorkerCrashError(RuntimeError):
    """The worker process racing this candidate died mid-compute."""


class WorkerHangError(RuntimeError):
    """The candidate exceeded the hang cutoff; its worker was killed."""


class QuarantinedError(RuntimeError):
    """This (graph, scheduler) task has crashed workers repeatedly and
    is refused pool entry; the caller computes it in-process instead."""


def _streaming(variant: str) -> Callable[[CanonicalGraph, int], object]:
    def build(graph: CanonicalGraph, num_pes: int):
        return schedule_streaming(graph, num_pes, variant)

    return build


def _heft(graph: CanonicalGraph, num_pes: int):
    return schedule_heft(graph, [1.0] * num_pes)


_SCHEDULERS: dict[str, Callable[[CanonicalGraph, int], object]] = {
    "lts": _streaming("lts"),
    "rlx": _streaming("rlx"),
    "work": _streaming("work"),
    "nstr": schedule_nonstreaming,
    "heft": _heft,
}

#: racing order when a request names no schedulers: both paper variants
#: plus the non-streaming baseline (cheap, and the safety net on graphs
#: where pipelining does not pay)
DEFAULT_SCHEDULERS = ("rlx", "lts", "nstr")

OBJECTIVES = ("makespan", "throughput", "buffer")


def register_scheduler(
    name: str, build: Callable[[CanonicalGraph, int], object], overwrite: bool = False
) -> None:
    """Extend the portfolio registry (name must be unique).

    Names become cache-key components — ``request_key`` joins the
    scheduler list with ``+`` and delimits fields with ``:`` — so names
    containing either character (or nothing at all) are rejected:
    ``["rlx+lts"]`` and ``["rlx", "lts"]`` must never share a key.
    """
    if not name or name != name.strip() or any(c in name for c in ":+"):
        raise ValueError(
            f"invalid scheduler name {name!r}: need a non-empty, "
            f"unpadded name without ':' or '+'"
        )
    if not overwrite and name in _SCHEDULERS:
        raise ValueError(f"scheduler {name!r} already registered")
    _SCHEDULERS[name] = build


def scheduler_names() -> list[str]:
    return sorted(_SCHEDULERS)


@dataclass(frozen=True)
class CandidateResult:
    """Metrics of one raced candidate (schedule kept only for the winner)."""

    name: str
    makespan: int
    value: float  #: objective value as reported (see module docstring)
    fifo_total: int  #: summed FIFO capacities (0 for non-streaming)
    elapsed: float  #: scheduling wall-clock seconds
    cpu: float = 0.0  #: scheduling thread-CPU seconds (where it ran)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "makespan": self.makespan,
            "value": self.value,
            "fifo_total": self.fifo_total,
            "elapsed_ms": round(1000.0 * self.elapsed, 3),
            "cpu_ms": round(1000.0 * self.cpu, 3),
        }


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race.

    ``schedule`` is the winning schedule object for an in-process race,
    or the already-serialized schedule document when the race ran on a
    :class:`PortfolioPool` (worker processes ship documents, not
    objects).
    """

    objective: str
    winner: CandidateResult
    schedule: object = field(repr=False)
    candidates: list[CandidateResult] = field(default_factory=list)
    truncated: bool = False  #: the budget cut candidates off

    def schedule_doc(self) -> dict:
        if isinstance(self.schedule, dict):
            return self.schedule
        return schedule_to_dict(self.schedule)

    def schedule_bytes(self) -> bytes:
        """``json.dumps(self.schedule_doc()).encode()``, built straight
        from the schedule object when the race ran in-process."""
        if isinstance(self.schedule, dict):
            return json.dumps(self.schedule).encode()
        return serialize.schedule_doc_bytes(self.schedule)


def _warm_worker() -> None:  # pragma: no cover - runs in worker processes
    """Pool initializer: pre-import the scheduler stack so the first
    race a worker serves does not pay the import latency (the same
    worker-seeding idea as the campaign executor's chunked dispatch:
    amortize per-process setup once, not per task)."""
    from .. import baselines, core  # noqa: F401
    from ..core import indexed, ingest  # noqa: F401


def _race_candidate(payload: tuple) -> dict:
    """Worker-side entry point: schedule one candidate from wire data.

    Receives the graph as its JSON document (cheap to pickle, and the
    rebuilt graph is frozen once per worker call); returns plain data —
    the schedule document, never the schedule object.  The optional
    fourth payload element is the parent request's trace id, echoed
    back so the worker's timings attach to the right span.
    """
    graph_doc, num_pes, name = payload[:3]
    trace_id = payload[3] if len(payload) > 3 else None
    t0 = time.perf_counter()
    cpu0 = time.thread_time()
    # the parent serialized an already-validated graph: trusted ingest
    # straight to the flat arrays, no networkx round trip in the worker
    graph = ingest_graph_doc(graph_doc, validate=False)
    schedule = _SCHEDULERS[name](graph, num_pes)
    return {
        "name": name,
        "makespan": int(schedule.makespan),
        "fifo_total": getattr(schedule, "fifo_total", 0),
        "elapsed": time.perf_counter() - t0,
        "cpu": time.thread_time() - cpu0,
        "trace_id": trace_id,
        "schedule": schedule_to_dict(schedule),
    }


def _pool_worker(conn) -> None:  # pragma: no cover - worker process
    """Supervised-worker main loop: recv task, compute, send result.

    Messages are ``{"payload": tuple, "fault": None | dict}``; a fault
    directive (decided deterministically in the *parent* by the
    :class:`~repro.service.faults.FaultInjector`, so plans replay) makes
    the worker crash (``os._exit``) or hang (sleep past the cutoff) —
    exactly the failures supervision must survive.  ``None`` means
    shut down cleanly.
    """
    _warm_worker()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        fault = msg.get("fault")
        if fault is not None:
            if fault.get("kind") == "crash":
                os._exit(17)
            if fault.get("kind") == "hang":
                time.sleep(fault.get("seconds", 3600.0))
        try:
            out = {"ok": _race_candidate(msg["payload"])}
        except Exception as exc:  # ship the failure, don't die
            out = {"err": repr(exc)}
        try:
            conn.send(out)
        except (EOFError, OSError):
            break


class _PoolTask:
    """Parent-side handle for one submitted candidate."""

    __slots__ = ("payload", "fault", "key", "event", "result", "error")

    def __init__(self, payload: tuple, fault: dict | None, key: str | None):
        self.payload = payload
        self.fault = fault
        self.key = key
        self.event = threading.Event()
        self.result: dict | None = None
        self.error: BaseException | None = None

    def finish(self, result=None, error=None) -> None:
        self.result = result
        self.error = error
        self.event.set()


class _WorkerSlot(Slot):
    __slots__ = ("task", "started_at")

    def __init__(self, idx: int):
        super().__init__(idx)
        self.task: _PoolTask | None = None
        self.started_at = 0.0


#: a candidate running longer than this on the pool's clock is killed
HANG_TIMEOUT_S = 60.0
#: a task key that crashed or hung this many workers is refused entry
QUARANTINE_AFTER = 2


class PortfolioPool:
    """A supervised pool of worker processes for portfolio races.

    Unlike ``multiprocessing.Pool`` — which silently respawns a dead
    worker while the in-flight task's future hangs forever — this pool
    *owns* its workers through a
    :class:`~repro.service.supervisor.Supervisor` stepped from one
    dispatcher thread.  The supervisor detects a death within one tick
    (the task fails with :class:`WorkerCrashError`; its waiter
    recomputes in-process) and respawns the worker after its one
    backoff rule, reset by the next completed task.  The pool adds:

    * **hung-candidate cutoff** — a candidate running longer than
      :data:`HANG_TIMEOUT_S` on the supervisor's clock gets its worker
      killed (:class:`WorkerHangError` to the waiter) rather than
      occupying a slot forever;
    * **poison-task quarantine** — a task key that has crashed or hung
      workers :data:`QUARANTINE_AFTER` times is refused at
      :meth:`submit` (:class:`QuarantinedError`), so one pathological
      graph cannot kill the pool repeatedly while everything else
      degrades.

    Recovery is observable: ``pool.respawns`` / ``pool.crashes`` /
    ``pool.hangs`` counters and a ``pool.quarantined`` gauge after
    :meth:`bind`, plus flight-recorder events per incident.

    Created once (eagerly, from the owning thread — forking lazily from
    a server worker thread risks inheriting held locks) and reused for
    every miss until :meth:`close`.  Safe for concurrent submission
    from multiple server threads.  ``clock`` is the supervisor's time
    source (a test seam).
    """

    def __init__(self, workers: int = 4, clock=time.monotonic):
        if workers < 2:
            raise ValueError("a portfolio pool needs at least two workers")
        self.workers = workers
        self._lock = threading.Lock()
        self._closed = False
        self._queue: deque[_PoolTask] = deque()
        self._poison: dict[str, int] = {}
        self.respawns = 0
        self.crashes = 0
        self.hangs = 0
        self._c_respawns = None
        self._c_crashes = None
        self._c_hangs = None
        self._flight = None
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._slots = [_WorkerSlot(i) for i in range(workers)]
        self._sup = Supervisor(
            self._slots, self._start_worker, on_message=self._on_message,
            on_exit=lambda slot, code: self._fail_worker(slot, (
                WorkerCrashError(f"portfolio worker died (exit {code})")
            ), "crash"),
            clock=clock,
        )
        self._sup.spawn_due()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="portfolio-pool", daemon=True
        )
        self._thread.start()

    #: bounded-wait cap per candidate: even if supervision itself fails,
    #: a waiter must degrade to an in-process recompute, never hang
    task_timeout_s = 300.0

    @property
    def closed(self) -> bool:
        return self._closed

    def bind(self, registry=None, flight=None) -> None:
        """Attach telemetry sinks (called by the adopting service)."""
        if registry is not None:
            self._c_respawns = registry.counter(
                "pool.respawns", "portfolio workers respawned after crash/hang"
            )
            self._c_crashes = registry.counter(
                "pool.crashes", "portfolio worker crashes detected"
            )
            self._c_hangs = registry.counter(
                "pool.hangs", "portfolio candidates killed at the hang cutoff"
            )
            registry.gauge(
                "pool.quarantined", "task keys refused pool entry as poison",
                fn=lambda: len(self.quarantined_keys()),
            )
            for counter, value in (
                (self._c_respawns, self.respawns),
                (self._c_crashes, self.crashes),
                (self._c_hangs, self.hangs),
            ):
                if value:
                    counter.inc(value)
        if flight is not None:
            self._flight = flight

    def quarantined_keys(self) -> list[str]:
        with self._lock:
            return [
                key for key, n in self._poison.items()
                if n >= QUARANTINE_AFTER
            ]

    def snapshot(self) -> dict:
        """Status document for the ``health`` op."""
        return {
            "workers": self.workers,
            "alive": self._sup.alive_count(),
            "closed": self._closed,
            "respawns": self.respawns,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "quarantined": self.quarantined_keys(),
        }

    # ------------------------------------------------------------------
    # submission side (server worker threads)
    # ------------------------------------------------------------------
    def submit(self, graph_doc: dict, num_pes: int, name: str,
               trace_id: str | None = None, task_key: str | None = None,
               fault: dict | None = None) -> _PoolTask:
        """Queue one candidate; returns a waitable task handle."""
        with self._lock:
            if self._closed:
                raise RuntimeError("portfolio pool is closed")
            if (
                task_key is not None
                and self._poison.get(task_key, 0) >= QUARANTINE_AFTER
            ):
                raise QuarantinedError(
                    f"task {task_key!r} is quarantined after repeated "
                    f"worker failures"
                )
            task = _PoolTask(
                (graph_doc, num_pes, name, trace_id), fault, task_key
            )
            self._queue.append(task)
        self._wake()
        return task

    def wait(self, task: _PoolTask, deadline: float | None) -> dict:
        """Collect ``task`` without ever blocking unboundedly.

        Raises ``RuntimeError`` (or a subclass: crash/hang/quarantine)
        when the pool cannot answer — the caller recomputes in-process —
        and ``multiprocessing.TimeoutError`` when ``deadline`` passes
        first (the caller treats the race as truncated).
        """
        timeout = self.task_timeout_s
        if deadline is not None:
            timeout = min(timeout, deadline - time.perf_counter())
        # close() finishes every queued and running task: one wait will do
        if not task.event.wait(max(0.0, timeout)):
            if deadline is not None and time.perf_counter() >= deadline:
                raise multiprocessing.TimeoutError
            raise RuntimeError("portfolio pool task timed out")
        if task.error is not None:
            raise task.error
        return task.result

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake()
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "PortfolioPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatcher thread: steps the supervisor that owns every worker
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):  # closed during shutdown
            pass

    def _start_worker(self, idx: int):
        if self._slots[idx].spawns:
            # counted before the worker becomes visible, so a snapshot
            # never shows it alive with respawns unset
            self.respawns += 1
            if self._c_respawns is not None:
                self._c_respawns.inc()
            if self._flight is not None:
                self._flight.record("pool_respawn")
        return start_child(_pool_worker)

    def _fail_worker(self, slot: _WorkerSlot, error: RuntimeError,
                     kind: str) -> None:
        """A worker crashed or was killed: have the supervisor tear it
        down (unless it already did) and schedule the respawn, note
        poison, count it — and only then fail its task, so a woken
        waiter sees every counter already settled."""
        if slot.proc is not None:
            self._sup.lose(slot)
        task, slot.task = slot.task, None
        if task is not None and task.key is not None:
            with self._lock:
                self._poison[task.key] = self._poison.get(task.key, 0) + 1
        if kind == "hang":
            self.hangs += 1
            if self._c_hangs is not None:
                self._c_hangs.inc()
        else:
            self.crashes += 1
            if self._c_crashes is not None:
                self._c_crashes.inc()
        if self._flight is not None:
            self._flight.record(
                "pool_worker_lost", reason=kind,
                task_key=(task.key if task is not None else None),
            )
        if task is not None:
            task.finish(error=error)

    def _on_message(self, slot: _WorkerSlot) -> None:
        try:
            out = slot.conn.recv()
        except (EOFError, OSError):
            self._fail_worker(
                slot, WorkerCrashError("worker connection lost"), "crash"
            )
            return
        task, slot.task = slot.task, None
        self._sup.healthy(slot)
        if task is None:
            return
        if "ok" in out:
            task.finish(result=out["ok"])
        else:
            task.finish(error=RuntimeError(
                f"portfolio worker error: {out.get('err')}"
            ))

    def _assign(self) -> None:
        for slot in self._slots:
            if slot.proc is None or slot.task is not None:
                continue
            with self._lock:
                if not self._queue:
                    return
                task = self._queue.popleft()
            slot.task = task
            slot.started_at = self._sup.clock()
            try:
                slot.conn.send({"payload": task.payload, "fault": task.fault})
            except (OSError, ValueError):
                self._fail_worker(
                    slot, WorkerCrashError("worker died before dispatch"),
                    "crash",
                )

    def _cut_hangs(self) -> None:
        cutoff = self._sup.clock() - HANG_TIMEOUT_S
        for slot in self._slots:
            if slot.task is not None and slot.started_at < cutoff:
                self._fail_worker(slot, WorkerHangError(
                    f"candidate exceeded hang cutoff ({HANG_TIMEOUT_S}s)"
                ), "hang")

    def _dispatch_loop(self) -> None:
        while not self._closed:
            self._assign()
            self._cut_hangs()
            self._sup.step(extra=(self._wake_r,))
            with contextlib.suppress(EOFError, OSError):
                while self._wake_r.poll(0):
                    self._wake_r.recv_bytes()
        # shutdown: kill workers, fail everything still pending
        self._sup.close()
        with self._lock:
            pending = [s.task for s in self._slots if s.task is not None]
            pending += self._queue
            self._queue.clear()
        for task in pending:
            task.finish(error=RuntimeError("portfolio pool is closed"))
        self._wake_r.close()
        self._wake_w.close()


def _sort_key(objective: str, makespan: int, fifo_total: int):
    """Comparable tuple, lower is better, for every objective."""
    if objective == "buffer":
        return (fifo_total, makespan)
    # makespan and throughput both reduce to minimal makespan on a
    # fixed graph; the reported *value* differs (see module docstring)
    return (makespan,)


def _report_value(objective: str, makespan: int, fifo_total: int, t1: int) -> float:
    if objective == "throughput":
        return t1 / makespan
    if objective == "buffer":
        return float(fifo_total)
    return float(makespan)


def _run_portfolio_pooled(
    graph: CanonicalGraph | IndexedGraph,
    num_pes: int,
    objective: str,
    names: list[str],
    budget_s: float | None,
    t1: int,
    pool: PortfolioPool,
    graph_doc: dict | None = None,
    trace_id: str | None = None,
    task_key: str | None = None,
    faults=None,
) -> PortfolioResult:
    """Race all candidates concurrently on the persistent pool.

    Results are collected in priority order so the tie-break matches the
    sequential race exactly; the budget caps the *collection* wait (the
    first candidate is always collected, mirroring "at least one always
    runs").  A worker that cannot serve a candidate — e.g. a scheduler
    registered after the pool forked, the pool closing mid-race, a lost
    task — falls back to an in-process compute of that one candidate,
    never a wrong or missing answer.

    Known budget caveat: all candidates are submitted up front, so a
    truncated race abandons its uncollected futures and their compute
    still drains through the pool workers behind later races — the
    budget bounds the answer latency, not the work spent.  (The
    sequential race stops *launching* instead; callers already treat
    truncated results as non-cacheable either way.)
    """
    if graph_doc is None:
        graph_doc = graph_to_dict(graph)
    t_race = time.perf_counter()
    futures = []
    for name in names:
        fault = None
        if faults is not None:
            if faults.fire("worker.crash", scheduler=name) is not None:
                fault = {"kind": "crash"}
            else:
                rule = faults.fire("worker.hang", scheduler=name)
                if rule is not None:
                    fault = {"kind": "hang", "seconds": rule.seconds}
        try:
            fut = pool.submit(
                graph_doc, num_pes, name, trace_id,
                task_key=(f"{task_key}:{name}" if task_key else None),
                fault=fault,
            )
        except RuntimeError:
            # quarantined (or the pool just closed): compute in-process
            fut = None
        futures.append((name, fut))
    deadline = None if budget_s is None else t_race + budget_s
    candidates: list[CandidateResult] = []
    best: tuple | None = None
    best_doc: dict | None = None
    truncated = False
    for i, (name, fut) in enumerate(futures):
        try:
            if fut is None:
                raise QuarantinedError(name)
            # the first candidate always completes (no deadline), like
            # the sequential race's "at least one always runs"
            doc = pool.wait(fut, deadline if i > 0 else None)
        except multiprocessing.TimeoutError:
            truncated = True
            break
        except Exception:
            doc = _race_candidate((graph_doc, num_pes, name))
        makespan, fifo_total = doc["makespan"], doc["fifo_total"]
        candidates.append(
            CandidateResult(
                name=name,
                makespan=makespan,
                value=_report_value(objective, makespan, fifo_total, t1),
                fifo_total=fifo_total,
                elapsed=doc["elapsed"],
                cpu=doc.get("cpu", 0.0),
            )
        )
        key = _sort_key(objective, makespan, fifo_total)
        if best is None or key < best:
            best = key
            best_doc = doc["schedule"]
    winner = min(
        candidates,
        key=lambda c: _sort_key(objective, c.makespan, c.fifo_total),
    )
    return PortfolioResult(
        objective=objective,
        winner=winner,
        schedule=best_doc,
        candidates=candidates,
        truncated=truncated,
    )


def run_portfolio(
    graph: CanonicalGraph | IndexedGraph,
    num_pes: int,
    objective: str = "makespan",
    schedulers: Sequence[str] | None = None,
    budget_s: float | None = None,
    pool: PortfolioPool | None = None,
    graph_doc: dict | None = None,
    trace_id: str | None = None,
    flight=None,
    task_key: str | None = None,
    faults=None,
) -> PortfolioResult:
    """Race candidate schedulers over ``graph``; return the best found.

    ``schedulers`` orders the race (and breaks objective ties: earlier
    wins); ``budget_s`` stops launching further candidates once the
    race has spent that much wall-clock (at least one always runs).
    With ``pool`` the candidates race concurrently on worker processes
    (see :class:`PortfolioPool`); the winner is identical either way.
    ``graph`` may be a :class:`CanonicalGraph` or an already-frozen
    :class:`~repro.core.indexed.IndexedGraph` (the service's ingest
    path); ``graph_doc`` optionally supplies the graph's wire document
    so a pooled race does not re-serialize it.  ``trace_id`` rides in
    the pooled task payloads so worker-side candidate timings attach to
    the submitting request's span.  ``flight`` (a
    :class:`repro.obs.FlightRecorder`) records one ``dispatch`` event
    per race — which schedulers, racing where.  ``task_key`` (typically
    the request fingerprint digest) keys the pool's poison-task
    quarantine, and ``faults`` (a
    :class:`~repro.service.faults.FaultInjector`) lets an active plan
    ship ``worker.crash`` / ``worker.hang`` directives with pooled
    candidates.
    """
    if num_pes < 1:
        raise ValueError("need at least one processing element")
    names = list(schedulers) if schedulers else list(DEFAULT_SCHEDULERS)
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r} (known: {', '.join(OBJECTIVES)})"
        )
    unknown = [n for n in names if n not in _SCHEDULERS]
    if unknown:
        raise ValueError(
            f"unknown scheduler(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(scheduler_names())})"
        )
    t1 = total_work(graph)
    pooled = pool is not None and len(names) > 1
    if flight is not None:
        flight.record(
            "dispatch",
            schedulers=list(names),
            mode="pool" if pooled else "serial",
            workers=pool.workers if pooled else 0,
            trace_id=trace_id,
        )
    if pooled:
        return _run_portfolio_pooled(
            graph, num_pes, objective, names, budget_s, t1, pool, graph_doc,
            trace_id, task_key, faults,
        )
    t_race = time.perf_counter()
    candidates: list[CandidateResult] = []
    best: tuple | None = None
    best_schedule = None
    truncated = False
    for i, name in enumerate(names):
        t0 = time.perf_counter()
        cpu0 = time.thread_time()
        schedule = _SCHEDULERS[name](graph, num_pes)
        elapsed = time.perf_counter() - t0
        cpu = time.thread_time() - cpu0
        fifo_total = getattr(schedule, "fifo_total", 0)
        makespan = int(schedule.makespan)
        result = CandidateResult(
            name=name,
            makespan=makespan,
            value=_report_value(objective, makespan, fifo_total, t1),
            fifo_total=fifo_total,
            elapsed=elapsed,
            cpu=cpu,
        )
        candidates.append(result)
        key = _sort_key(objective, makespan, fifo_total)
        if best is None or key < best:
            best = key
            best_schedule = schedule
        if (
            budget_s is not None
            and i + 1 < len(names)
            and time.perf_counter() - t_race > budget_s
        ):
            truncated = True
            break
    winner = min(
        candidates,
        key=lambda c: _sort_key(objective, c.makespan, c.fifo_total),
    )
    return PortfolioResult(
        objective=objective,
        winner=winner,
        schedule=best_schedule,
        candidates=candidates,
        truncated=truncated,
    )
