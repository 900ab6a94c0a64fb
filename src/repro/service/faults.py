"""Deterministic fault injection and circuit breaking for the service.

The reliability layer is only trustworthy if every recovery path is
*exercised*, not hoped for.  This module provides the two primitives the
rest of the stack builds on:

``FaultPlan`` / ``FaultInjector``
    A seedable, JSON-loadable description of *which* failures to inject
    *where* (``repro serve --fault-plan plan.json``).  Each rule names an
    injection site — ``disk.read``, ``disk.write``, ``conn.drop``,
    ``conn.partial``, ``compute.slow``, ``shard.kill`` — and fires
    with a given probability, bounded by an optional count and
    warm-up skip.  Decisions are driven by one ``random.Random`` per
    site seeded from ``plan.seed``, so a plan replays identically across
    runs regardless of thread interleaving at *other* sites.  Every fire
    increments ``service.faults_injected{site=...}`` and records a
    flight-recorder event, so chaos runs are observable after the fact.

``CircuitBreaker``
    The canonical closed → open → half-open state machine, used to trip
    the disk cache tier into LRU+compute-only mode after repeated I/O
    failures.  While open, callers skip the protected resource entirely
    (degradation, not errors); after ``cooldown_s`` a single half-open
    probe is admitted, and its outcome decides between closing the
    breaker and re-opening it for another cooldown.  State is exported
    as the ``breaker.state{name=...}`` gauge (0 closed, 0.5 half-open,
    1 open) plus flight events on every transition.

Nothing here imports the server; both classes are plain objects wired in
by :class:`repro.service.server.ScheduleService` and
:class:`repro.service.cache.ScheduleCache`.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FAULT_SITES",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "CircuitBreaker",
]

#: Injection sites the stack consults.  Plans naming unknown sites are
#: rejected at load time — a typo'd site would otherwise silently never
#: fire and the chaos run would "pass" without testing anything.
FAULT_SITES = frozenset(
    (
        "disk.read",  # ScheduleCache store reads -> OSError
        "disk.write",  # ScheduleCache appends/compaction -> OSError
        "conn.drop",  # server closes the socket instead of replying
        "conn.partial",  # server sends a half reply, then closes
        "compute.slow",  # artificial delay inside compute/simulate
        "shard.kill",  # router SIGKILLs a random live shard process
    )
)


@dataclass
class FaultRule:
    """One line of a fault plan: fire at ``site`` with ``rate``.

    ``count`` bounds total fires (None = unlimited), ``after`` skips the
    first N opportunities (lets traffic warm up before chaos starts),
    ``seconds`` parameterizes ``compute.slow``, and ``error`` is the
    message carried by injected I/O errors.
    """

    site: str
    rate: float = 1.0
    count: int | None = None
    after: int = 0
    seconds: float = 0.05
    error: str = "injected fault"
    # runtime state, not part of the plan
    checks: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.count is not None and self.count < 0:
            raise ValueError("fault count must be >= 0")
        if self.seconds < 0:
            raise ValueError("fault seconds must be >= 0")

    @property
    def exhausted(self) -> bool:
        """True once the rule can never fire again."""
        return self.count is not None and self.fired >= self.count

    def to_dict(self) -> dict:
        doc = {"site": self.site, "rate": self.rate}
        if self.count is not None:
            doc["count"] = self.count
        if self.after:
            doc["after"] = self.after
        if self.site == "compute.slow":
            doc["seconds"] = self.seconds
        if self.error != FaultRule.error:
            doc["error"] = self.error
        return doc


class FaultPlan:
    """A seed plus an ordered list of :class:`FaultRule`.

    JSON shape::

        {"seed": 42, "rules": [
            {"site": "disk.read", "rate": 0.5, "count": 4, "after": 10},
            {"site": "conn.drop", "rate": 0.2, "count": 3}
        ]}
    """

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = int(seed)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        raw_rules = doc.get("rules")
        if not isinstance(raw_rules, list):
            raise ValueError('fault plan needs a "rules" list')
        known = {"site", "rate", "count", "after", "seconds", "error"}
        rules = []
        for raw in raw_rules:
            if not isinstance(raw, dict) or "site" not in raw:
                raise ValueError(f'each rule needs a "site": {raw!r}')
            unknown = set(raw) - known
            if unknown:
                raise ValueError(f"unknown rule fields {sorted(unknown)} in {raw!r}")
            rules.append(FaultRule(**raw))
        return cls(rules, seed=doc.get("seed", 0))

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}


class FaultInjector:
    """Consults a :class:`FaultPlan` at named sites, deterministically.

    ``fire(site)`` returns the matching :class:`FaultRule` when a fault
    should be injected at that call site, else ``None``.  The caller
    owns *what* the fault means (raise OSError, drop the socket, ship a
    crash directive to a worker); the injector only decides *whether*
    and keeps the books: per-site fire counters, the
    ``service.faults_injected`` metric and a ``fault`` flight event.

    One ``random.Random(f"{seed}:{site}")`` per site keeps decisions at
    one site independent of traffic at the others, so a plan replays
    identically as long as the per-site opportunity sequence does.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_site: dict[str, list[FaultRule]] = {}
        for rule in plan.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._rng = {
            site: random.Random(f"{plan.seed}:{site}") for site in self._by_site
        }
        self._lock = threading.Lock()
        self._counter = None  # service.faults_injected family
        self._flight = None
        self.fired: dict[str, int] = {site: 0 for site in self._by_site}

    @classmethod
    def load(cls, path: str | Path) -> "FaultInjector":
        return cls(FaultPlan.load(path))

    def bind(self, registry=None, flight=None) -> None:
        """Attach telemetry sinks (idempotent; called by the service)."""
        if registry is not None:
            self._counter = registry.counter(
                "service.faults_injected",
                "Faults injected by the active fault plan",
                labels=("site",),
            )
        if flight is not None:
            self._flight = flight

    # ------------------------------------------------------------------
    def fire(self, site: str, **ctx) -> FaultRule | None:
        """Decide whether a fault fires at ``site`` right now."""
        rules = self._by_site.get(site)
        if not rules:
            return None
        with self._lock:
            rng = self._rng[site]
            for rule in rules:
                rule.checks += 1
                if rule.checks <= rule.after or rule.exhausted:
                    continue
                # burn one random per opportunity so exhausting one rule
                # does not shift the stream seen by the next
                roll = rng.random()
                if roll >= rule.rate:
                    continue
                rule.fired += 1
                self.fired[site] = self.fired.get(site, 0) + 1
                hit = rule
                break
            else:
                return None
        if self._counter is not None:
            self._counter.labels(site=site).inc()
        if self._flight is not None:
            self._flight.record("fault", site=site, **ctx)
        return hit

    def active(self) -> bool:
        """True while any rule could still fire."""
        return any(not rule.exhausted for rule in self.plan.rules)

    def snapshot(self) -> dict:
        """Status document for the ``health`` op."""
        return {
            "seed": self.plan.seed,
            "active": self.active(),
            "fired": dict(self.fired),
            "rules": [
                {**rule.to_dict(), "fired": rule.fired, "checks": rule.checks}
                for rule in self.plan.rules
            ],
        }


# ----------------------------------------------------------------------
# circuit breaker

_STATE_VALUE = {"closed": 0.0, "half_open": 0.5, "open": 1.0}


class CircuitBreaker:
    """Closed → open → half-open breaker over an unreliable resource.

    Callers bracket each protected operation with::

        if breaker.allow():
            try:
                ...  # touch the resource
            except OSError:
                breaker.record_failure()
            else:
                breaker.record_success()
        else:
            ...  # degraded path

    ``failure_threshold`` consecutive failures open the breaker; while
    open, ``allow()`` is False (callers degrade) until ``cooldown_s``
    has elapsed, at which point exactly one caller is admitted as a
    half-open probe.  A probe success closes the breaker and resets the
    failure count; a probe failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        name: str = "disk",
        failure_threshold: int = 5,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0  # consecutive, since last success/close
        self._opened_at = 0.0
        self._probing = False
        self.opens = 0  #: lifetime open transitions
        self._gauge = None
        self._flight = None

    def bind(self, registry=None, flight=None) -> None:
        if registry is not None:
            family = registry.gauge(
                "breaker.state",
                "Circuit breaker state (0 closed, 0.5 half-open, 1 open)",
                labels=("name",),
            )
            self._gauge = family.labels(name=self.name)
            self._gauge.set(_STATE_VALUE[self._state])
        if flight is not None:
            self._flight = flight

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """May the caller touch the protected resource right now?"""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            if self._state != "closed":
                self._transition("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._probing = False
            if self._state == "half_open":
                # probe failed: straight back to open, restart cooldown
                self._transition("open")
                return
            self._failures += 1
            if self._state == "closed" and self._failures >= self.failure_threshold:
                self._transition("open")

    def force_open(self) -> None:
        """Trip the breaker unconditionally (bench degraded profile)."""
        with self._lock:
            if self._state != "open":
                self._transition("open")

    def reset(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            if self._state != "closed":
                self._transition("closed")

    # ------------------------------------------------------------------
    def _maybe_half_open(self) -> None:
        # lock held
        if self._state == "open" and self._clock() - self._opened_at >= self.cooldown_s:
            self._transition("half_open")

    def _transition(self, state: str) -> None:
        # lock held
        prev, self._state = self._state, state
        if state == "open":
            self._opened_at = self._clock()
            self.opens += 1
            self._probing = False
        if self._gauge is not None:
            self._gauge.set(_STATE_VALUE[state])
        if self._flight is not None:
            self._flight.record(
                "breaker", name=self.name, state=state, prev=prev,
                failures=self._failures,
            )

    def to_dict(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "failures": self._failures,
                "threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "opens": self.opens,
            }
