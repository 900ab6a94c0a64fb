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

Candidates are CPU-bound pure Python, so under the GIL the race is an
*anytime* one: candidates run one after another in priority order, over
the one frozen graph, and an optional wall-clock budget cuts the tail
off once at least one has finished.  A truncated portfolio still
returns the best schedule found — callers (the service) simply refrain
from caching it, since a rerun with more budget could answer
differently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..baselines import schedule_heft, schedule_nonstreaming
from ..core import schedule_streaming, serialize, total_work
from ..core.graph import CanonicalGraph
from ..core.indexed import IndexedGraph
from ..core.serialize import schedule_to_dict

__all__ = [
    "CandidateResult",
    "PortfolioResult",
    "run_portfolio",
    "register_scheduler",
    "scheduler_names",
    "OBJECTIVES",
    "DEFAULT_SCHEDULERS",
]


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
    """Outcome of one portfolio race; ``schedule`` is the winning
    schedule object."""

    objective: str
    winner: CandidateResult
    schedule: object = field(repr=False)
    candidates: list[CandidateResult] = field(default_factory=list)
    truncated: bool = False  #: the budget cut candidates off

    def schedule_doc(self) -> dict:
        return schedule_to_dict(self.schedule)

    def schedule_bytes(self) -> bytes:
        """``json.dumps(self.schedule_doc()).encode()``, built straight
        from the schedule object."""
        return serialize.schedule_doc_bytes(self.schedule)


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


def run_portfolio(
    graph: CanonicalGraph | IndexedGraph,
    num_pes: int,
    objective: str = "makespan",
    schedulers: Sequence[str] | None = None,
    budget_s: float | None = None,
    trace_id: str | None = None,
    flight=None,
) -> PortfolioResult:
    """Race candidate schedulers over ``graph``; return the best found.

    ``schedulers`` orders the race (and breaks objective ties: earlier
    wins); ``budget_s`` stops launching further candidates once the
    race has spent that much wall-clock (at least one always runs).
    ``graph`` may be a :class:`CanonicalGraph` or an already-frozen
    :class:`~repro.core.indexed.IndexedGraph` (the service's ingest
    path).  ``flight`` (a :class:`repro.obs.FlightRecorder`) records one
    ``dispatch`` event per race — which schedulers, under which
    ``trace_id``.
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
    if flight is not None:
        flight.record(
            "dispatch",
            schedulers=list(names),
            mode="serial",
            workers=0,
            trace_id=trace_id,
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
