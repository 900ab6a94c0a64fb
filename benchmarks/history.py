"""Bench-history glue: summarize one BENCH_*.json doc into a record.

The benchmark scripts each overwrite their ``BENCH_*.json`` artifact;
this module distills the handful of trend-worthy numbers out of those
documents and appends them to the shared ``BENCH_history.jsonl`` via
:mod:`repro.obs.benchhist`.  ``repro bench-report`` then renders the
trajectory and a median-of-last-K regression verdict over the file.

Each summarizer returns the ``{metric: {value, direction, unit}}`` map
``append_record`` expects; metric choice is deliberately small — a
couple of throughput/latency anchors per bench — so the trend table
stays readable and the regression gate stays meaningful.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.obs.benchhist import (  # noqa: E402  (path bootstrap above)
    HISTORY_SCHEMA,
    append_record,
    load_history,
    regression_verdict,
    render_history,
)

__all__ = [
    "HISTORY_SCHEMA",
    "append_bench_history",
    "append_record",
    "load_history",
    "regression_verdict",
    "render_history",
    "summarize_hotpaths",
    "summarize_service",
    "summarize_sim",
]


def summarize_service(doc: dict) -> dict[str, dict]:
    """Serving anchors: hit-path req/s and miss p50 per profile."""
    metrics: dict[str, dict] = {}
    for name, result in (doc.get("profiles") or {}).items():
        metrics[f"{name}_cached_rps"] = {
            "value": result["cached"]["throughput_rps"],
            "direction": "higher", "unit": "req/s",
        }
        metrics[f"{name}_no_cache_p50_ms"] = {
            "value": result["no_cache"]["p50_ms"],
            "direction": "lower", "unit": "ms",
        }
    shards = doc.get("shards")
    if shards:
        metrics["shards_4x_rps"] = {
            "value": shards["rps"]["4"],
            "direction": "higher", "unit": "req/s",
        }
        metrics["shards_scaling_x"] = {
            "value": shards["scaling_x"],
            "direction": "higher", "unit": "x",
        }
    overhead = doc.get("telemetry_overhead")
    if overhead and overhead.get("overhead_ratio") is not None:
        metrics["telemetry_overhead_ratio"] = {
            "value": overhead["overhead_ratio"],
            "direction": "lower", "unit": "x",
        }
    profiler = doc.get("profiler_overhead")
    if profiler and profiler.get("overhead_ratio") is not None:
        metrics["profiler_overhead_ratio"] = {
            "value": profiler["overhead_ratio"],
            "direction": "lower", "unit": "x",
        }
    return metrics


def summarize_hotpaths(doc: dict) -> dict[str, dict]:
    """Scheduling hot-path anchors: median speedups, cold nstr and
    rlx+lts partition times per 10k scenario, miss rate."""
    metrics: dict[str, dict] = {}
    schedule = doc.get("schedule") or []
    if schedule:
        metrics["schedule_speedup_median"] = {
            "value": statistics.median(r["speedup"] for r in schedule),
            "direction": "higher", "unit": "x",
        }
        metrics["schedule_nodes_per_s_median"] = {
            "value": statistics.median(r["nodes_per_sec"] for r in schedule),
            "direction": "higher", "unit": "nodes/s",
        }
    ingest = doc.get("ingest") or []
    if ingest:
        metrics["ingest_speedup_median"] = {
            "value": statistics.median(r["ingest_speedup"] for r in ingest),
            "direction": "higher", "unit": "x",
        }
    for row in doc.get("nstr") or []:
        metrics[f"nstr_{row['scenario']}_ms"] = {
            "value": row["nstr_ms"], "direction": "lower", "unit": "ms",
        }
    for row in doc.get("partition") or []:
        metrics[f"partition_{row['scenario']}_ms"] = {
            "value": row["partition_ms"], "direction": "lower", "unit": "ms",
        }
    portfolio = doc.get("portfolio") or {}
    if portfolio.get("miss_per_sec") is not None:
        metrics["portfolio_miss_per_sec"] = {
            "value": portfolio["miss_per_sec"],
            "direction": "higher", "unit": "miss/s",
        }
    return metrics


def summarize_sim(doc: dict) -> dict[str, dict]:
    """DES anchors: per-scenario indexed-vs-reference speedups."""
    metrics: dict[str, dict] = {}
    for row in doc.get("validation") or []:
        metrics[f"sim_{row['scenario']}_speedup"] = {
            "value": row["speedup"], "direction": "higher", "unit": "x",
        }
    deadlock = doc.get("deadlock") or []
    if deadlock:
        metrics["deadlock_speedup_median"] = {
            "value": statistics.median(r["speedup"] for r in deadlock),
            "direction": "higher", "unit": "x",
        }
    return metrics


_SUMMARIZERS = {
    "service": summarize_service,
    "hotpaths": summarize_hotpaths,
    "sim": summarize_sim,
}


def append_bench_history(path: str | Path, doc: dict) -> dict | None:
    """Append one bench doc's summary to the history file.

    Dispatches on ``doc["benchmark"]``; returns the record written, or
    None when ``path`` is falsy/"-" (history disabled) or the doc's
    bench has no summarizer / yields no metrics.
    """
    if not path or str(path) == "-":
        return None
    bench = doc.get("benchmark")
    summarize = _SUMMARIZERS.get(bench)
    if summarize is None:
        return None
    metrics = summarize(doc)
    if not metrics:
        return None
    meta = {"version": doc.get("version"), "params": doc.get("params")}
    return append_record(path, bench, metrics, meta=meta)
