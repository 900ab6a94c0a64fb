"""Live ops console for a running scheduling service (``repro top``).

A terminal dashboard polling the service's own diagnostic ops —
``stats``, ``metrics``, ``profile``, ``flight`` — over the ordinary
wire protocol, so it needs nothing the service does not already
expose and works against any reachable server.  Each tick renders:

* throughput (req/s from the ``served`` counter delta) and its recent
  history as a sparkline;
* cache hit ratio (lru + store hits over lookups) and tier counters;
* mean request latency per interval (from the ``service.request_ms``
  histogram's sum/count deltas) with a sparkline;
* the hottest sampled stacks when the server runs a profiler
  (``--profile-hz``), silently omitted otherwise;
* the newest flight-recorder events.

ANSI-only (cursor-home + clear-to-end per frame) rather than curses:
it degrades to plain appended frames on a non-tty, which is also what
the tests drive (``iterations=N, out=StringIO``).
"""

from __future__ import annotations

import sys
import time

from .client import ServiceClient
from .server import DEFAULT_PORT

__all__ = ["OpsConsole", "run_top", "sparkline"]

_SPARKS = "▁▂▃▄▅▆▇█"
_HISTORY = 60  #: sparkline window (ticks)


def sparkline(values: list[float], width: int = _HISTORY) -> str:
    """Unicode block sparkline of the last ``width`` values."""
    tail = [max(0.0, v) for v in values[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARKS[0] * len(tail)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int(v / top * (len(_SPARKS) - 1) + 0.5))]
        for v in tail
    )


def _fmt_si(value: float) -> str:
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= bound:
            return f"{value / bound:.1f}{suffix}"
    return f"{value:.1f}"


class OpsConsole:
    """Poll-and-render loop state for one observed server."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 top_n: int = 5, events_n: int = 6) -> None:
        self.host = host
        self.port = port
        self.top_n = top_n
        self.events_n = events_n
        self._client: ServiceClient | None = None
        self._prev: dict | None = None
        self._prev_t: float | None = None
        self.rps_history: list[float] = []
        self.lat_history: list[float] = []

    # ------------------------------------------------------------------
    def _ensure_client(self) -> ServiceClient:
        if self._client is None:
            self._client = ServiceClient(self.host, self.port, timeout=10.0)
        return self._client

    def close(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            finally:
                self._client = None

    @staticmethod
    def _request_totals(snapshot: dict) -> tuple[float, int]:
        """(sum ms, count) over every ``service.request_ms`` series."""
        family = snapshot.get("service.request_ms") or {}
        total_ms = 0.0
        count = 0
        for series in family.get("series", ()):
            total_ms += series.get("sum", 0.0)
            count += series.get("count", 0)
        return total_ms, count

    def sample(self) -> dict:
        """One poll: raw responses plus the derived per-tick rates."""
        client = self._ensure_client()
        stats = client.stats()
        metrics = client.metrics()
        try:
            profile = client.profile(n=self.top_n)
        except Exception:
            profile = None  # no --profile-hz on the server (or refused)
        try:
            flight = client.flight(n=self.events_n)
        except Exception:
            flight = None  # pre-flight-recorder server
        now = time.perf_counter()
        snapshot = metrics.get("snapshot") or {}
        total_ms, count = self._request_totals(snapshot)
        cur = {
            "served": stats.get("served", 0),
            "errors": stats.get("errors", 0),
            "lat_ms_sum": total_ms,
            "lat_count": count,
        }
        rps = mean_ms = 0.0
        if self._prev is not None and self._prev_t is not None:
            dt = max(1e-9, now - self._prev_t)
            rps = max(0.0, cur["served"] - self._prev["served"]) / dt
            dn = cur["lat_count"] - self._prev["lat_count"]
            if dn > 0:
                mean_ms = (cur["lat_ms_sum"] - self._prev["lat_ms_sum"]) / dn
            self.rps_history.append(rps)
            self.lat_history.append(mean_ms)
        self._prev, self._prev_t = cur, now
        return {
            "stats": stats,
            "metrics": metrics,
            "profile": profile,
            "flight": flight,
            "rps": rps,
            "mean_ms": mean_ms,
        }

    # ------------------------------------------------------------------
    def render(self, sample: dict) -> str:
        stats = sample["stats"]
        cache = stats.get("cache") or {}
        lookups = (
            cache.get("hits", 0) + cache.get("store_hits", 0)
            + cache.get("misses", 0)
        )
        hits = cache.get("hits", 0) + cache.get("store_hits", 0)
        hit_ratio = hits / lookups if lookups else 0.0
        lines = [
            f"repro top — {self.host}:{self.port}  "
            f"v{stats.get('version', '?')}  "
            f"uptime {stats.get('uptime_s', 0.0):.0f}s  "
            f"telemetry={'on' if stats.get('telemetry') else 'off'}",
            "",
            f"  req/s   {sample['rps']:10.1f}  {sparkline(self.rps_history)}",
            f"  mean ms {sample['mean_ms']:10.2f}  "
            f"{sparkline(self.lat_history)}",
            f"  served {_fmt_si(stats.get('served', 0)):>8}   "
            f"fastpath {_fmt_si(stats.get('fastpath', 0)):>8}   "
            f"coalesced {_fmt_si(stats.get('coalesced', 0)):>8}   "
            f"errors {stats.get('errors', 0)}",
            f"  cache hit ratio {100.0 * hit_ratio:5.1f}%   "
            f"lru {cache.get('lru_entries', 0)}/{cache.get('capacity', 0)}   "
            f"store {cache.get('store_entries', 0)}   "
            f"evictions {cache.get('evictions', 0)}",
        ]
        backend = stats.get("backend")
        if backend:  # pre-backend servers don't report the kernel tier
            falls = backend.get("kernel_fallbacks") or {}
            fallback = (
                " ".join(f"{k}:{v}" for k, v in sorted(falls.items()))
                or "none"
            )
            lines.append(
                f"  backend {backend.get('backend', '?'):<7} "
                f"numpy {backend.get('numpy') or '-':<9} "
                f"fallbacks {fallback}"
            )
        gc_block = stats.get("gc")
        if gc_block:  # pre-GC-policy servers and the router report none
            gens = gc_block.get("generations") or []
            lines.append(
                f"  gc      threshold "
                f"{'/'.join(map(str, gc_block.get('threshold', ())))}   "
                f"frozen {_fmt_si(gc_block.get('frozen', 0))}   "
                + "   ".join(
                    f"gen{g} {gen['collections']} "
                    f"({gen['pause_ms']:.0f} ms)"
                    for g, gen in enumerate(gens)
                )
            )
        shards = stats.get("shards")
        if shards:  # sharded tier: one row per supervised shard
            counters = stats.get("router_counters") or {}
            lines.append(
                f"  router  failovers {counters.get('failovers', 0)}   "
                f"rerouted {counters.get('rerouted', 0)}   "
                f"crashes {counters.get('shard_crashes', 0)}   "
                f"respawns {counters.get('respawns', 0)}   "
                f"reloads {counters.get('reloads', 0)}"
                + ("  [reloading]" if counters.get("reloading") else "")
            )
            lines.append(
                "  shard  port   pid      state       health       "
                "served   crashes  uptime"
            )
            for row in shards:
                lines.append(
                    f"  {row.get('shard', '?'):>5}  "
                    f"{row.get('port') or '-':<5}  "
                    f"{row.get('pid') or '-':<7}  "
                    f"{row.get('state', '?'):<10}  "
                    f"{row.get('health', '?'):<11}  "
                    f"{_fmt_si(row.get('served', 0)):>7}  "
                    f"{row.get('crashes', 0):>7}  "
                    f"{row.get('uptime_s', 0.0):6.0f}s"
                )
        health = stats.get("health")
        if health:  # pre-reliability servers have no health summary
            parts = [f"  health {health:<9}"]
            breaker = cache.get("breaker") or {}
            if breaker:
                parts.append(
                    f"breaker {breaker.get('state', '?')} "
                    f"(opens {breaker.get('opens', 0)})"
                )
            faults = stats.get("faults") or {}
            if faults:
                parts.append(
                    f"faults {sum(faults.get('fired', {}).values())} fired"
                    + (" (active)" if faults.get("active") else " (done)")
                )
            lines.append("   ".join(parts))
        profile = sample.get("profile")
        if profile:
            lines.append("")
            lines.append(
                f"  profiler {profile.get('hz', 0):.0f} Hz — "
                f"{profile.get('samples', 0)} samples, "
                f"{profile.get('distinct_stacks', 0)} stacks"
            )
            for entry in profile.get("top_functions", [])[: self.top_n]:
                lines.append(
                    f"    {100.0 * entry['share']:5.1f}%  {entry['function']}"
                )
        flight = sample.get("flight")
        if flight and flight.get("events"):
            lines.append("")
            lines.append(
                f"  flight events (last {len(flight['events'])} of "
                f"{flight.get('recorded', 0)}):"
            )
            for event in flight["events"][-self.events_n:]:
                extras = ", ".join(
                    f"{k}={v}" for k, v in event.items()
                    if k not in ("seq", "t", "kind")
                )
                lines.append(
                    f"    #{event['seq']:<8} {event['kind']:<18} {extras}"
                )
        return "\n".join(lines) + "\n"


def run_top(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    interval: float = 1.0,
    iterations: int | None = None,
    out=None,
    use_ansi: bool | None = None,
) -> int:
    """Poll-and-render until interrupted (or for ``iterations`` ticks).

    ``use_ansi=None`` redraws in place only when ``out`` is a tty;
    otherwise frames append (pipes, tests).
    """
    out = out if out is not None else sys.stdout
    if use_ansi is None:
        use_ansi = bool(getattr(out, "isatty", lambda: False)())
    console = OpsConsole(host, port)
    ticks = 0
    try:
        while iterations is None or ticks < iterations:
            sample = console.sample()
            frame = console.render(sample)
            if use_ansi:
                out.write("\x1b[H\x1b[J" + frame)
            else:
                out.write(frame)
            out.flush()
            ticks += 1
            if iterations is not None and ticks >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(
            f"cannot reach service at {host}:{port}: {exc}",
            file=sys.stderr,
        )
        return 1
    finally:
        console.close()
    return 0
