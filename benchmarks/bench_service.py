"""Serving hot-path benchmark: cached vs forced-recompute throughput.

Unlike the pytest-benchmark tables in the sibling modules, this is a
standalone script (CI runs it directly and uploads the JSON artifact):

    PYTHONPATH=src python benchmarks/bench_service.py --smoke

It boots an in-process scheduling service and measures two loadgen
profiles against it:

* ``fig10`` — the paper-topology mix (small graphs, high request rate);
* ``layered-1k`` — 1000-node random layered DAGs at 64 PEs, the
  serving-scale acceptance anchor where parse/fingerprint/serialize
  overheads actually show;
* ``degraded`` — the ``fig10`` workload against a server whose disk
  cache tier is tripped by its circuit breaker (LRU+compute-only
  mode), measuring what graceful degradation costs relative to the
  healthy ``fig10`` profile.

Each profile replays the same Zipf-skewed workload twice — once with
the schedule cache in front, once with ``no_cache`` forced recomputes —
verifies that cached fingerprints return byte-identical schedules to
cold runs, and writes ``BENCH_service.json`` with both reports, the
resulting speedup, the service's fast-path count and wire-memo
``bytes``/``clears`` (report only) and (with ``--baseline``) the req/s
and latency improvements against the committed pre-ingest baseline
(``benchmarks/baselines/service_smoke.json``).

``--telemetry-gate R`` additionally replays the ``fig10`` cache-hit
workload with telemetry enabled and disabled and fails when the
off/on throughput ratio exceeds ``R`` (the instrumentation overhead
budget); ``--profiler-gate R`` does the same for the continuous
sampling profiler (profiler-off vs profiler-on at its default rate);
``--artifacts DIR`` dumps each profile's Prometheus metrics
exposition and chrome-trace span file for CI upload, and with
``--profile-hz`` also the sampling profiler's collapsed-stack and
speedscope documents plus a forced flight-recorder dump.

Every run appends its anchor numbers to ``BENCH_history.jsonl``
(``--history``, '-' disables) for ``repro bench-report`` trend and
regression analysis.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from history import append_bench_history
from repro import __version__
from repro.core.tabulate import format_table
from repro.obs import DEFAULT_HZ, FlightRecorder, SamplingProfiler, Telemetry
from repro.service import (
    ScheduleCache,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
    build_request_pool,
    run_loadgen,
)

#: per-profile loadgen parameters; request counts by (smoke, full)
PROFILES = {
    "fig10": dict(scenario="fig10", pool=8, workers=2, num_pes=None,
                  zipf=1.1, requests=(150, 500), no_cache_requests=(150, 500),
                  warmup=0),
    "layered-1k": dict(scenario="layered-1k", pool=6, workers=2, num_pes=64,
                       zipf=1.1, requests=(240, 600),
                       no_cache_requests=(24, 48),
                       # absorb the cold computes before measuring the
                       # cached profile, so req/s reflects the hit path
                       warmup=12),
    # the fig10 workload with the disk cache tier tripped open: the LRU
    # and memo tiers still serve, everything else recomputes — the price
    # of running degraded instead of falling over
    "degraded": dict(scenario="fig10", pool=8, workers=2, num_pes=None,
                     zipf=1.1, requests=(150, 500),
                     no_cache_requests=(75, 250), warmup=0, degraded=True),
}


def check_byte_identity(port: int, scenario: str, pool: int,
                        num_pes: int | None) -> bool:
    """Cached responses must carry byte-identical schedules to recomputes."""
    lines = build_request_pool(scenario=scenario, pool=min(pool, 4),
                               num_pes=num_pes)
    with ServiceClient(port=port) as client:
        for line in lines:
            doc = json.loads(line)
            cached = client.request(doc)
            doc["no_cache"] = True
            recomputed = client.request(doc)
            a = json.dumps(cached["schedule"], sort_keys=True)
            b = json.dumps(recomputed["schedule"], sort_keys=True)
            if a != b:
                return False
    return True


def run_profile(name: str, smoke: bool, seed: int = 0,
                telemetry: bool = True,
                artifacts_dir: str | None = None,
                profile_hz: float = 0.0) -> dict:
    p = PROFILES[name]
    idx = 0 if smoke else 1
    degraded = p.get("degraded", False)
    tmpdir = None
    if degraded:
        # the degraded profile needs a real disk tier to trip: give the
        # cache a store path, then force the breaker open so every disk
        # probe is skipped (LRU+compute-only mode)
        tmpdir = tempfile.TemporaryDirectory(prefix="bench-degraded-")
        cache = ScheduleCache(
            str(Path(tmpdir.name) / "schedules.jsonl"), capacity=4096
        )
        cache.breaker.cooldown_s = 1e9  # no half-open probes mid-bench
        cache.breaker.force_open()
    else:
        cache = ScheduleCache(None, capacity=4096)  # memory-only: no disk noise
    profiler = None
    if profile_hz > 0:
        profiler = SamplingProfiler(hz=profile_hz)
        profiler.start()
    service = ScheduleService(cache=cache, telemetry=Telemetry(
        enabled=telemetry, profiler=profiler,
        flight=FlightRecorder(dump_dir=artifacts_dir),
    ))
    with ScheduleServer(service, port=0, workers=p["workers"]) as server:
        common = dict(
            port=server.port, workers=p["workers"], pool=p["pool"],
            zipf=p["zipf"], scenario=p["scenario"], num_pes=p["num_pes"],
            seed=seed,
        )
        if p["warmup"]:
            run_loadgen(**common, requests=p["warmup"])
        cached = run_loadgen(**common, requests=p["requests"][idx])
        no_cache = run_loadgen(
            **common, requests=p["no_cache_requests"][idx], no_cache=True
        )
        identical = check_byte_identity(
            server.port, p["scenario"], p["pool"], p["num_pes"]
        )
        if artifacts_dir:
            out = Path(artifacts_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"metrics_{name}.prom").write_text(
                service.telemetry.registry.render()
            )
            (out / f"spans_{name}.trace.json").write_text(
                json.dumps(service.telemetry.chrome_trace(), indent=1) + "\n"
            )
            if profiler is not None:
                profiler.stop()
                (out / f"profile_{name}.collapsed").write_text(
                    profiler.collapsed()
                )
                (out / f"profile_{name}.speedscope.json").write_text(
                    json.dumps(profiler.speedscope(name=f"bench_service "
                                                        f"{name}")) + "\n"
                )
            service.telemetry.flight.dump("bench")
    if profiler is not None:
        profiler.stop()
    if tmpdir is not None:
        tmpdir.cleanup()
    speedup = (
        cached.throughput_rps / no_cache.throughput_rps
        if no_cache.throughput_rps
        else float("inf")
    )
    stats = service.handle({"op": "stats"})
    result = {
        "profile": name,
        "telemetry": telemetry,
        "cached": cached.to_dict(),
        "no_cache": no_cache.to_dict(),
        "cache_speedup": round(speedup, 2),
        "byte_identical": identical,
        "fastpath_served": stats["fastpath"],
        # report only: shows a memo-budget change in the CI artifacts
        "wire_memo": {k: stats["wire_memo"][k] for k in ("bytes", "clears")},
        # report only: the encoded graph + schedule bytes the LRU holds
        "lru_bytes": stats["cache"]["lru_bytes"],
    }
    if degraded:
        result["degraded"] = True
        result["breaker"] = cache.breaker.to_dict()
    return result


#: stall injected into every compute of the ``shards`` profile via a
#: ``compute.slow`` fault rule.  Fan-out has to be measured against a
#: stall-dominated miss (the I/O-bound analogue of a scheduler whose
#: cold path waits on disk or a sub-service): a CPU-bound miss would
#: make the 1-vs-4 ratio measure the host's core count instead of the
#: tier's ability to overlap misses, and CI runners promise no cores.
SHARDS_STALL_S = 0.025


def run_shards_profile(smoke: bool, seed: int = 0) -> dict:
    """Aggregate cache-miss throughput through the router at 1 vs 4
    shards (per-shard ``workers=1``, all requests forced recomputes)."""
    from repro.service import ServeConfig, ShardRouter

    requests = 120 if smoke else 400
    plan = {
        "seed": seed,
        "rules": [
            {"site": "compute.slow", "rate": 1.0, "seconds": SHARDS_STALL_S}
        ],
    }
    reports = {}
    for shards in (1, 4):
        config = ServeConfig(workers=1, store=None, fault_plan=plan)
        router = ShardRouter(shards=shards, config=config)
        router.start()
        try:
            if not router.wait_ready(30.0):
                raise RuntimeError(f"{shards}-shard tier failed to boot")
            common = dict(
                port=router.port, workers=8, pool=8, zipf=1.1,
                scenario="fig10", num_pes=None, seed=seed, no_cache=True,
            )
            run_loadgen(**common, requests=16)  # warm ingest memos
            reports[shards] = run_loadgen(**common, requests=requests)
        finally:
            router.stop()
    rps = {str(n): round(r.throughput_rps, 2) for n, r in reports.items()}
    scaling = (
        reports[4].throughput_rps / reports[1].throughput_rps
        if reports[1].throughput_rps else float("inf")
    )
    return {
        "profile": "shards",
        "stall_s": SHARDS_STALL_S,
        "requests": requests,
        "rps": rps,
        "scaling_x": round(scaling, 2),
        "errors": {str(n): r.errors for n, r in reports.items()},
        "incorrect": {str(n): r.incorrect for n, r in reports.items()},
        "reports": {str(n): r.to_dict() for n, r in reports.items()},
    }


def _cached_rps(telemetry: bool, requests: int, seed: int,
                profile_hz: float = 0.0) -> float:
    """Cache-hit throughput of one fresh ``fig10`` server: warm the
    memo tiers first, then measure only hit-path serving."""
    p = PROFILES["fig10"]
    cache = ScheduleCache(None, capacity=4096)
    profiler = None
    if profile_hz > 0:
        profiler = SamplingProfiler(hz=profile_hz)
        profiler.start()
    service = ScheduleService(cache=cache, telemetry=Telemetry(
        enabled=telemetry, profiler=profiler,
    ))
    with ScheduleServer(service, port=0, workers=p["workers"]) as server:
        common = dict(
            port=server.port, workers=p["workers"], pool=p["pool"],
            zipf=p["zipf"], scenario=p["scenario"], num_pes=p["num_pes"],
            seed=seed,
        )
        run_loadgen(**common, requests=max(50, requests // 4))
        report = run_loadgen(**common, requests=requests)
    if profiler is not None:
        profiler.stop()
    return report.throughput_rps


def measure_telemetry_overhead(smoke: bool, seed: int, reps: int = 3) -> dict:
    """Cache-hit throughput with telemetry enabled vs disabled.

    The profile runs above are too short to compare (same-config
    repeats spread >10%), so this uses a dedicated longer cached-only
    workload, runs the two modes interleaved ``reps`` times and keeps
    each mode's best throughput — best-of-N is robust against the
    one-sided noise (scheduler preemption, page faults) that only ever
    slows a run down.  Reports ``rps_off / rps_on``; >1 means telemetry
    cost throughput.
    """
    requests = 600 if smoke else 1500
    best = {True: 0.0, False: 0.0}
    for _ in range(max(1, reps)):
        for enabled in (True, False):
            rps = _cached_rps(enabled, requests, seed)
            best[enabled] = max(best[enabled], rps)
    rps_on, rps_off = best[True], best[False]
    return {
        "cached_rps_on": rps_on,
        "cached_rps_off": rps_off,
        "reps": max(1, reps),
        "requests": requests,
        "overhead_ratio": round(rps_off / rps_on, 4) if rps_on else None,
    }


def measure_profiler_overhead(smoke: bool, seed: int, reps: int = 3,
                              hz: float = DEFAULT_HZ) -> dict:
    """Cache-hit throughput with the sampling profiler off vs on.

    Same interleaved best-of-N protocol as the telemetry overhead
    measurement (telemetry stays on in both modes — the profiler rides
    on top of it in production).  Reports ``rps_off / rps_on``; >1
    means sampling cost throughput.
    """
    requests = 600 if smoke else 1500
    best = {True: 0.0, False: 0.0}
    for _ in range(max(1, reps)):
        for profiled in (True, False):
            rps = _cached_rps(
                True, requests, seed, profile_hz=hz if profiled else 0.0
            )
            best[profiled] = max(best[profiled], rps)
    rps_on, rps_off = best[True], best[False]
    return {
        "cached_rps_on": rps_on,
        "cached_rps_off": rps_off,
        "hz": hz,
        "reps": max(1, reps),
        "requests": requests,
        "overhead_ratio": round(rps_off / rps_on, 4) if rps_on else None,
    }


def compare_to_baseline(results: dict[str, dict], baseline_path: str) -> list[str]:
    """Improvement of this run over the committed pre-ingest numbers."""
    baseline = json.loads(Path(baseline_path).read_text())
    lines = []
    for name, result in results.items():
        base = baseline.get("profiles", {}).get(name)
        if base is None:
            continue
        hit_x = result["cached"]["throughput_rps"] / base["cached_rps"]
        miss_x = base["no_cache_p50_ms"] / result["no_cache"]["p50_ms"]
        result["vs_baseline"] = {
            "cached_rps_speedup": round(hit_x, 2),
            "no_cache_p50_speedup": round(miss_x, 2),
            "baseline": dict(base),
        }
        lines.append(
            f"{name}: cache-hit {result['cached']['throughput_rps']:.1f} req/s "
            f"vs {base['cached_rps']:.1f} baseline ({hit_x:.2f}x); "
            f"cache-miss p50 {result['no_cache']['p50_ms']:.1f} ms "
            f"vs {base['no_cache_p50_ms']:.1f} ms ({miss_x:.2f}x)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI request counts)")
    parser.add_argument("--profile", choices=[*PROFILES, "shards", "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_service.json")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to report speedups "
                             "against (benchmarks/baselines/service_smoke.json)")
    parser.add_argument("--telemetry-gate", type=float, default=None,
                        help="also measure telemetry-on vs telemetry-off "
                             "cached throughput and fail if the off/on "
                             "ratio exceeds this (e.g. 1.10)")
    parser.add_argument("--profiler-gate", type=float, default=None,
                        help="also measure profiler-off vs profiler-on "
                             "cached throughput (profiler at its default "
                             "rate) and fail if the off/on ratio exceeds "
                             "this (e.g. 1.10)")
    parser.add_argument("--shards-gate", type=float, default=None,
                        help="fail when the shards profile's 4-vs-1 "
                             "aggregate miss-throughput scaling falls "
                             "below this factor (e.g. 2.5)")
    parser.add_argument("--profile-hz", type=float, default=0.0,
                        help="attach a sampling profiler to each profile "
                             "run; with --artifacts its collapsed-stack "
                             "and speedscope documents are written there")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append this run's anchors to the bench "
                             "history JSONL ('-' disables)")
    parser.add_argument("--artifacts", default=None,
                        help="write per-profile metrics expositions "
                             "(*.prom), span dumps (*.trace.json), "
                             "profiler documents and a flight dump into "
                             "this directory")
    args = parser.parse_args(argv)

    if args.profile == "all":
        names = list(PROFILES)
    elif args.profile == "shards":
        names = []
    else:
        names = [args.profile]
    results = {
        name: run_profile(name, args.smoke, args.seed,
                          artifacts_dir=args.artifacts,
                          profile_hz=args.profile_hz)
        for name in names
    }
    shards_result = None
    if args.profile in ("all", "shards"):
        shards_result = run_shards_profile(args.smoke, args.seed)

    rows = []
    for name, result in results.items():
        for label, report in (("cached", result["cached"]),
                              ("no-cache", result["no_cache"])):
            rows.append([
                name, label, report["requests"],
                f"{report['throughput_rps']:9.1f}",
                f"{report['wire_bytes_per_s'] / 1e6:7.2f}",
                f"{report['p50_ms']:8.2f}", f"{report['p95_ms']:8.2f}",
                f"{report['p99_ms']:8.2f}",
                f"{100.0 * report['hit_rate']:5.1f}%",
            ])
    print(format_table(
        ["profile", "mode", "requests", "req/s", "MB/s",
         "p50 ms", "p95 ms", "p99 ms", "hit rate"],
        rows,
    ))
    for name, result in results.items():
        print(f"{name}: cache speedup {result['cache_speedup']:.1f}x  "
              f"byte-identical schedules: {result['byte_identical']}")
    if shards_result is not None:
        print(
            f"shards: 1-shard {shards_result['rps']['1']:.1f} req/s, "
            f"4-shard {shards_result['rps']['4']:.1f} req/s "
            f"({shards_result['scaling_x']:.2f}x aggregate miss "
            f"throughput, {SHARDS_STALL_S * 1000:.0f} ms stalled computes)"
        )

    if args.baseline:
        for line in compare_to_baseline(results, args.baseline):
            print(line)

    overhead = None
    if args.telemetry_gate is not None:
        overhead = measure_telemetry_overhead(args.smoke, args.seed)
        overhead["gate"] = args.telemetry_gate
        print(
            f"telemetry overhead: {overhead['cached_rps_on']:.1f} req/s on "
            f"vs {overhead['cached_rps_off']:.1f} req/s off "
            f"(off/on ratio {overhead['overhead_ratio']:.3f}, "
            f"gate {args.telemetry_gate:.2f})"
        )

    profiler_overhead = None
    if args.profiler_gate is not None:
        profiler_overhead = measure_profiler_overhead(args.smoke, args.seed)
        profiler_overhead["gate"] = args.profiler_gate
        print(
            f"profiler overhead ({profiler_overhead['hz']:g} Hz): "
            f"{profiler_overhead['cached_rps_on']:.1f} req/s on vs "
            f"{profiler_overhead['cached_rps_off']:.1f} req/s off "
            f"(off/on ratio {profiler_overhead['overhead_ratio']:.3f}, "
            f"gate {args.profiler_gate:.2f})"
        )

    doc = {
        "benchmark": "service",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": {"smoke": args.smoke, "seed": args.seed,
                   "profiles": names},
        "profiles": results,
        "shards": shards_result,
        "telemetry_overhead": overhead,
        "profiler_overhead": profiler_overhead,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[saved to {args.output}]")
    record = append_bench_history(args.history, doc)
    if record is not None:
        print(f"[history appended to {args.history}]")

    bad = [n for n, r in results.items() if not r["byte_identical"]]
    if bad:
        print(f"FAIL: cached schedule differs from recompute in "
              f"{', '.join(bad)}", file=sys.stderr)
        return 1
    errors = [
        n for n, r in results.items()
        if r["cached"]["errors"] or r["no_cache"]["errors"]
    ]
    if errors:
        print(f"FAIL: request errors during load generation in "
              f"{', '.join(errors)}", file=sys.stderr)
        return 1
    if (
        overhead is not None
        and overhead["overhead_ratio"] is not None
        and overhead["overhead_ratio"] > args.telemetry_gate
    ):
        print(
            f"FAIL: telemetry overhead ratio "
            f"{overhead['overhead_ratio']:.3f} exceeds the gate "
            f"{args.telemetry_gate:.2f}", file=sys.stderr,
        )
        return 1
    if (
        profiler_overhead is not None
        and profiler_overhead["overhead_ratio"] is not None
        and profiler_overhead["overhead_ratio"] > args.profiler_gate
    ):
        print(
            f"FAIL: profiler overhead ratio "
            f"{profiler_overhead['overhead_ratio']:.3f} exceeds the gate "
            f"{args.profiler_gate:.2f}", file=sys.stderr,
        )
        return 1
    if shards_result is not None:
        if any(shards_result["errors"].values()) or any(
            shards_result["incorrect"].values()
        ):
            print(
                f"FAIL: shards profile saw errors "
                f"{shards_result['errors']} / incorrect "
                f"{shards_result['incorrect']}", file=sys.stderr,
            )
            return 1
        if (
            args.shards_gate is not None
            and shards_result["scaling_x"] < args.shards_gate
        ):
            print(
                f"FAIL: shards scaling {shards_result['scaling_x']:.2f}x "
                f"below the gate {args.shards_gate:.2f}x", file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
