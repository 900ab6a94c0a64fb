"""Load generator for the scheduling service.

Builds a pool of distinct schedule requests from a registered campaign
scenario (one graph per unique (topology, size, seed, PEs) combination,
round-robined across topology/PE groups so the pool mixes small and
large graphs), then replays a Zipf-skewed sequence of them over worker
threads — popular requests repeat, exactly the traffic shape a schedule
cache is for.  The report carries wall-clock throughput, latency
percentiles (p50/p95/p99) and the cache-tier breakdown observed in the
responses.

Everything is deterministic in ``seed``: the pool, the Zipf sequence
and its assignment to workers.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..campaign.registry import get_scenario
from ..campaign.spec import ALL_PES
from ..core.serialize import graph_to_dict
from ..core.tabulate import format_table, write_csv
from ..graphs import random_canonical_graph
from .client import ServiceClient, ServiceError
from .server import COMPUTE_OPS, DEFAULT_PORT

__all__ = [
    "LoadgenReport",
    "build_request_pool",
    "run_loadgen",
    "percentile",
    "quantile",
    "MIN_RELIABLE_SAMPLES",
]

#: below this sample count tail percentiles are mostly noise (a p99 of
#: 10 requests is just the maximum); reports carry a warning flag
MIN_RELIABLE_SAMPLES = 100


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample:
    ``rank = ceil(q/100 * N)``, clamped to [1, N]."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def quantile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile (q in [0, 100]) of a non-empty
    sample — the numpy/R-7 definition: ``pos = (n-1) * q/100``, the
    fractional part interpolating between the two bracketing order
    statistics.  Unlike nearest rank it is continuous in ``q`` and far
    less jumpy at small ``n`` (nearest-rank p99 of 10 samples is just
    the maximum)."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"quantile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


@dataclass
class LoadgenReport:
    """Outcome of one load-generation run.

    ``requests`` counts requests answered ``ok`` — exactly the ones
    with a latency sample — and ``errors`` everything else that was
    scheduled for sending, broken down by kind in ``error_kinds``:
    ``refused`` (the service answered ``ok: false``), ``parse`` (an
    unparseable reply line), ``deadlock`` (a simulate answer reporting
    a deadlocked execution) and ``transport`` (the unserved tail after
    the connection died).  ``requests + sum(error_kinds.values())`` is
    the total workload, so the columns are mutually consistent.

    ``server_phases`` (when the driven server exposes the ``metrics``
    op with telemetry enabled) aggregates the *server-side* per-phase
    latency histograms — where each request's time actually went
    (fingerprint, cache, portfolio, serialize, …), as opposed to the
    client-observed round-trip latencies above.
    """

    requests: int
    workers: int
    pool: int
    zipf: float
    objective: str
    no_cache: bool
    elapsed: float
    latencies_ms: list[float] = field(repr=False, default_factory=list)
    tiers: dict[str, int] = field(default_factory=dict)  #: cached-tier counts
    errors: int = 0
    error_kinds: dict[str, int] = field(default_factory=dict)
    bytes_sent: int = 0
    bytes_received: int = 0
    #: "op.phase" -> {count, total_ms, mean_ms} from the server registry
    server_phases: dict[str, dict] = field(default_factory=dict)
    #: application-level retries the clients performed (retryable errors)
    retries: int = 0
    #: transparent transport reconnects the clients performed
    reconnects: int = 0
    #: ok answers whose result contradicted an earlier answer for the
    #: same request — the one number that must always be zero
    incorrect: int = 0
    deadline_ms: float | None = None

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def error_rate(self) -> float:
        """Errors as a fraction of the total workload (after retries)."""
        total = self.requests + self.errors
        return self.errors / total if total else 0.0

    @property
    def wire_bytes_per_s(self) -> float:
        """Bytes on the wire (both directions) per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return (self.bytes_sent + self.bytes_received) / self.elapsed

    @property
    def small_sample(self) -> bool:
        """True when there are too few samples for stable tail
        percentiles (see :data:`MIN_RELIABLE_SAMPLES`)."""
        return len(self.latencies_ms) < MIN_RELIABLE_SAMPLES

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without a fresh computation."""
        served = sum(self.tiers.values())
        cold = self.tiers.get("cold", 0)
        return (served - cold) / served if served else 0.0

    def summary(self) -> dict[str, float]:
        """Latency summary with interpolated quantiles (see
        :func:`quantile`); nearest-rank :func:`percentile` remains
        available for callers that want the classic definition."""
        xs = self.latencies_ms
        return {
            "p50_ms": quantile(xs, 50),
            "p95_ms": quantile(xs, 95),
            "p99_ms": quantile(xs, 99),
            "mean_ms": sum(xs) / len(xs),
            "max_ms": max(xs),
        }

    def table(self) -> str:
        s = self.summary()
        headers = [
            "requests", "workers", "pool", "zipf", "req/s", "MB/s",
            "p50 ms", "p95 ms", "p99 ms", "mean ms", "hit rate", "errors",
        ]
        row = [
            self.requests,
            self.workers,
            self.pool,
            f"{self.zipf:.2f}",
            f"{self.throughput_rps:8.1f}",
            f"{self.wire_bytes_per_s / 1e6:6.2f}",
            f"{s['p50_ms']:8.2f}",
            f"{s['p95_ms']:8.2f}",
            f"{s['p99_ms']:8.2f}",
            f"{s['mean_ms']:8.2f}",
            f"{100.0 * self.hit_rate:5.1f}%",
            self.errors,
        ]
        out = format_table(headers, [row])
        if self.errors and self.error_kinds:
            out += "\nerrors by kind: " + ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.error_kinds.items())
            )
        if self.retries or self.reconnects or self.incorrect:
            out += (
                f"\nreliability: retries={self.retries} "
                f"reconnects={self.reconnects} incorrect={self.incorrect} "
                f"error_rate={100.0 * self.error_rate:.2f}%"
            )
        if self.server_phases:
            worst = sorted(
                self.server_phases.items(),
                key=lambda kv: kv[1]["total_ms"], reverse=True,
            )[:6]
            out += "\nserver phases (total ms): " + ", ".join(
                f"{name}={entry['total_ms']:.1f}" for name, entry in worst
            )
        if self.small_sample:
            out += (
                f"\nwarning: only {len(self.latencies_ms)} latency samples "
                f"(< {MIN_RELIABLE_SAMPLES}) — tail percentiles are noisy"
            )
        return out

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "workers": self.workers,
            "pool": self.pool,
            "zipf": self.zipf,
            "objective": self.objective,
            "no_cache": self.no_cache,
            "elapsed_s": round(self.elapsed, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "wire_bytes_per_s": round(self.wire_bytes_per_s, 1),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "hit_rate": round(self.hit_rate, 4),
            "tiers": dict(self.tiers),
            "errors": self.errors,
            "error_kinds": dict(self.error_kinds),
            "error_rate": round(self.error_rate, 4),
            "retries": self.retries,
            "reconnects": self.reconnects,
            "incorrect": self.incorrect,
            "deadline_ms": self.deadline_ms,
            "server_phases": dict(self.server_phases),
            "small_sample": self.small_sample,
            **{k: round(v, 3) for k, v in self.summary().items()},
        }

    def write_csv(self, path) -> None:
        """One row per ok-answered request: sequence index, latency."""
        rows = [
            {"index": i, "latency_ms": f"{ms:.3f}"}
            for i, ms in enumerate(self.latencies_ms)
        ]
        write_csv(path, ["index", "latency_ms"], rows)


def build_request_pool(
    scenario: str = "fig10",
    pool: int = 16,
    num_pes: int | None = None,
    objective: str = "makespan",
    schedulers: Sequence[str] | None = None,
    no_cache: bool = False,
    op: str = "schedule",
    deadline_ms: float | None = None,
) -> list[bytes]:
    """Distinct schedule requests, pre-encoded as JSON lines.

    Unique (topology, size, graph seed, PEs) combinations are drawn from
    the scenario's cell expansion and taken round-robin across
    (topology, PEs) groups, so a 16-deep pool over ``fig10`` mixes all
    four topologies at all four PE counts instead of 16 seeds of the
    first combination.  Only random-graph scenarios are supported (the
    ML builder topologies of ``table2`` have no seed dimension).

    ``op="simulate"`` builds DES-validation requests instead: the
    first entry of ``schedulers`` (default ``lts``) is the simulated
    streaming scheduler and ``objective`` is ignored.
    """
    if op not in COMPUTE_OPS:
        raise ValueError(f"unknown request op {op!r}")
    cells = get_scenario(scenario).cells(num_graphs=max(1, pool))
    groups: dict[tuple[str, int], list[tuple[str, int, int, int]]] = {}
    seen: set[tuple[str, int, int, int]] = set()
    for cell in cells:
        pes = cell.num_pes
        if pes == ALL_PES:
            pes = num_pes or 0  # resolved after the graph is built
        combo = (cell.topology, cell.size, cell.graph_seed, pes)
        if combo in seen:
            continue
        seen.add(combo)
        groups.setdefault((cell.topology, pes), []).append(combo)
    combos: list[tuple[str, int, int, int]] = []
    queues = list(groups.values())
    while len(combos) < pool and queues:
        queues = [q for q in queues if q]
        for q in queues:
            if len(combos) >= pool:
                break
            combos.append(q.pop(0))
    lines: list[bytes] = []
    for topology, size, graph_seed, pes in combos:
        graph = random_canonical_graph(topology, size, seed=graph_seed)
        doc: dict = {
            "op": op,
            "graph": graph_to_dict(graph),
            "num_pes": num_pes or pes or len(graph),
        }
        if op == "simulate":
            doc["scheduler"] = schedulers[0] if schedulers else "lts"
        else:
            doc["objective"] = objective
            if schedulers:
                doc["schedulers"] = list(schedulers)
        if no_cache:
            doc["no_cache"] = True
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        lines.append(json.dumps(doc).encode() + b"\n")
    if not lines:
        raise ValueError(f"scenario {scenario!r} produced an empty request pool")
    return lines


def zipf_sequence(pool: int, requests: int, s: float, seed: int) -> list[int]:
    """Zipf-skewed index sequence: P(rank i) proportional to 1/i**s."""
    weights = [1.0 / (i + 1) ** s for i in range(pool)]
    return random.Random(seed).choices(range(pool), weights=weights, k=requests)


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    requests: int = 500,
    workers: int = 4,
    pool: int = 16,
    zipf: float = 1.1,
    scenario: str = "fig10",
    objective: str = "makespan",
    schedulers: Sequence[str] | None = None,
    num_pes: int | None = None,
    no_cache: bool = False,
    seed: int = 0,
    op: str = "schedule",
    deadline_ms: float | None = None,
    retries: int = 0,
) -> LoadgenReport:
    """Drive a live service and measure latency + throughput.

    ``op="simulate"`` drives the DES-validation endpoint instead of the
    scheduling one (same pool construction, Zipf replay and report).

    With ``deadline_ms`` every request carries a per-request deadline;
    with ``retries`` retryable failures (shed, deadline exceeded,
    draining, transport errors) are retried with jittered exponential
    backoff before counting as errors.  Every ``ok`` answer is checked
    against the first answer observed for the same pool entry (winner,
    makespan, fingerprint — or simulated makespan for DES requests);
    disagreements count in ``incorrect``, which chaos gates require to
    be zero: a fault-injected server may refuse, but it must never lie.
    """
    if requests < 1:
        raise ValueError("need at least one request")
    workers = max(1, min(workers, requests))
    lines = build_request_pool(
        scenario=scenario, pool=pool, num_pes=num_pes, objective=objective,
        schedulers=schedulers, no_cache=no_cache, op=op,
        deadline_ms=deadline_ms,
    )
    docs = [json.loads(line) for line in lines] if retries else []
    sequence = zipf_sequence(len(lines), requests, zipf, seed)
    shards = [sequence[w::workers] for w in range(workers)]

    # preflight: fail fast (in the caller's thread) when nothing listens
    with ServiceClient(host, port) as probe:
        probe.request({"op": "ping"})

    lock = threading.Lock()
    latencies: list[float] = []
    tiers: dict[str, int] = {}
    error_kinds: dict[str, int] = {}
    wire = [0, 0]  #: bytes sent, bytes received
    totals = [0, 0, 0]  #: retries, reconnects, incorrect
    #: pool index -> first observed answer signature (cross-worker: a
    #: fault-injected server must stay *consistent*, not just alive)
    expected: dict[int, tuple] = {}

    def signature(idx: int, response: dict) -> tuple | None:
        if response.get("truncated"):
            return None  # budget-cut race: the winner is legitimately racy
        if op == "simulate":
            return (response.get("makespan"), response.get("sim_makespan"),
                    response.get("fingerprint"))
        return (response.get("winner"), response.get("makespan"),
                response.get("fingerprint"))

    def classify(response: dict) -> str:
        if response.get("shed"):
            return "shed"
        if response.get("deadline_exceeded"):
            return "deadline"
        if response.get("draining"):
            return "draining"
        return "refused"

    def drive(w: int, shard: list[int]) -> None:
        local_lat: list[float] = []
        local_tiers: dict[str, int] = {}
        local_kinds: dict[str, int] = {}
        local_incorrect = 0
        rng = random.Random(seed * 1000003 + w)  # per-worker backoff jitter

        def count(kind: str) -> None:
            local_kinds[kind] = local_kinds.get(kind, 0) + 1

        client = None
        try:
            with ServiceClient(host, port) as client:
                for idx in shard:
                    t0 = time.perf_counter()
                    try:
                        if retries:
                            try:
                                response = client.request_with_retry(
                                    docs[idx], retries=retries, rng=rng,
                                )
                            except ServiceError as exc:
                                response = exc.response
                        else:
                            response = client.request_raw(lines[idx])
                    except ValueError:
                        # the reply line framed correctly but did not
                        # parse — the connection itself is still usable
                        count("parse")
                        continue
                    except OSError:
                        # this request's transport died (even after the
                        # client's transparent reconnect); the next
                        # request opens a fresh connection
                        count("transport")
                        continue
                    if not response.get("ok"):
                        count(classify(response))
                    elif response.get("deadlocked"):
                        # a deadlocked simulation answered, but did not
                        # do what was asked — an error kind of its own,
                        # never a latency sample
                        count("deadlock")
                    else:
                        # only successful answers feed the latency (and
                        # therefore requests/throughput) columns, so
                        # requests + sum(error kinds) == the shard
                        # total and nothing is ever counted twice
                        local_lat.append(1000.0 * (time.perf_counter() - t0))
                        tier = response.get("cached") or "cold"
                        local_tiers[tier] = local_tiers.get(tier, 0) + 1
                        sig = signature(idx, response)
                        if sig is not None:
                            with lock:
                                prev = expected.setdefault(idx, sig)
                            if prev != sig:
                                local_incorrect += 1
        except OSError:
            pass  # transport died: the unserved remainder counts below
        finally:
            answered = len(local_lat) + sum(local_kinds.values())
            if answered < len(shard):
                local_kinds["transport"] = (
                    local_kinds.get("transport", 0) + len(shard) - answered
                )
            with lock:
                latencies.extend(local_lat)
                for tier, n in local_tiers.items():
                    tiers[tier] = tiers.get(tier, 0) + n
                for kind, n in local_kinds.items():
                    error_kinds[kind] = error_kinds.get(kind, 0) + n
                totals[2] += local_incorrect
                if client is not None:
                    wire[0] += client.bytes_sent
                    wire[1] += client.bytes_received
                    totals[0] += client.retries
                    totals[1] += client.reconnects

    threads = [
        threading.Thread(target=drive, args=(w, shard), name=f"loadgen-{w}")
        for w, shard in enumerate(shards)
        if shard
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    errors = sum(error_kinds.values())
    if not latencies:
        raise ConnectionError(
            f"no request completed against {host}:{port} "
            f"({errors} errors) — is the service healthy?"
        )
    return LoadgenReport(
        requests=len(latencies),
        workers=len(threads),
        pool=len(lines),
        zipf=zipf,
        objective=objective,
        no_cache=no_cache,
        elapsed=elapsed,
        latencies_ms=latencies,
        tiers=tiers,
        errors=errors,
        error_kinds=error_kinds,
        bytes_sent=wire[0],
        bytes_received=wire[1],
        server_phases=_fetch_server_phases(host, port),
        retries=totals[0],
        reconnects=totals[1],
        incorrect=totals[2],
        deadline_ms=deadline_ms,
    )


def _fetch_server_phases(host: str, port: int) -> dict[str, dict]:
    """Server-side phase breakdown from the ``metrics`` op.

    Aggregates the ``service.phase_ms`` histogram into one
    ``"op.phase" -> {count, total_ms, mean_ms}`` entry per series.
    Empty — never an error — against a server without the op (older
    builds) or with telemetry disabled (no phase histograms)."""
    try:
        with ServiceClient(host, port) as client:
            snapshot = client.metrics().get("snapshot", {})
    except (OSError, ValueError, RuntimeError):
        return {}
    phases: dict[str, dict] = {}
    family = snapshot.get("service.phase_ms")
    if not isinstance(family, dict):
        return {}
    for series in family.get("series", ()):
        labels = series.get("labels", {})
        count = series.get("count", 0)
        if not count:
            continue
        total = series.get("sum", 0.0)
        name = f"{labels.get('op', '?')}.{labels.get('phase', '?')}"
        phases[name] = {
            "count": count,
            "total_ms": round(total, 3),
            "mean_ms": round(total / count, 4),
        }
    return phases
