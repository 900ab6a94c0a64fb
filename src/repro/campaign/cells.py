"""Cell evaluators — the measurement performed inside one campaign cell.

Every scenario *kind* maps to one evaluator ``f(spec) -> {metric: float}``.
Evaluators are top-level functions over pure-data specs so the executor
can ship them to worker processes; they must stay deterministic in the
spec (wall-clock metrics such as the Figure 12 analysis times are the
deliberate exception — they measure the machine, not the schedule).

Missing values (a timed-out CSDF analysis, a deadlocked simulation) are
reported as ``NaN`` alongside an indicator metric, so every cell always
yields the same metric vector and aggregation can filter.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import Callable

from ..baselines import schedule_nonstreaming
from ..core import (
    pe_utilization,
    schedule_streaming,
    speedup,
    streaming_depth,
    total_work,
)
from ..graphs import random_canonical_graph
from .spec import ALL_PES, CellSpec

__all__ = ["evaluate_cell", "finite", "CELL_KINDS"]

NAN = float("nan")


def _graph(spec: CellSpec):
    return random_canonical_graph(spec.topology, spec.size, seed=spec.graph_seed)


def _resolve_pes(spec: CellSpec, graph) -> int:
    return len(graph) if spec.num_pes == ALL_PES else spec.num_pes


def eval_speedup(spec: CellSpec) -> dict[str, float]:
    """Figure 10 family: speedup over sequential + PE utilization."""
    g = _graph(spec)
    pes = _resolve_pes(spec, g)
    if spec.variant == "nstr":
        s = schedule_nonstreaming(g, pes)
    else:
        s = schedule_streaming(g, pes, spec.variant, size_buffers=False)
    return {
        "speedup": total_work(g) / s.makespan,
        "utilization": pe_utilization(s.busy_time(), pes, s.makespan),
    }


def eval_sslr(spec: CellSpec) -> dict[str, float]:
    """Figure 11 family: makespan over streaming depth."""
    g = _graph(spec)
    s = schedule_streaming(g, _resolve_pes(spec, g), spec.variant, size_buffers=False)
    return {"sslr": s.makespan / streaming_depth(g)}


def eval_csdf(spec: CellSpec) -> dict[str, float]:
    """Figure 12 family: canonical scheduling vs CSDF self-timed analysis."""
    from ..sdf import AnalysisTimeout, canonical_to_csdf, self_timed_makespan

    g = _graph(spec)
    max_firings = int(spec.param("max_firings", 2_000_000))
    t0 = time.perf_counter()
    s = schedule_streaming(g, _resolve_pes(spec, g), spec.variant, size_buffers=False)
    sched_time = time.perf_counter() - t0
    csdf = canonical_to_csdf(g)
    t0 = time.perf_counter()
    try:
        res = self_timed_makespan(csdf, max_firings=max_firings)
    except AnalysisTimeout:
        return {
            "sched_time": sched_time,
            "csdf_time": NAN,
            "makespan_ratio": NAN,
            "timeout": 1.0,
        }
    return {
        "sched_time": sched_time,
        "csdf_time": time.perf_counter() - t0,
        "makespan_ratio": s.makespan / res.makespan,
        "timeout": 0.0,
    }


def eval_validation(spec: CellSpec) -> dict[str, float]:
    """Figure 13 family: relative error of analysis vs DES, + deadlocks."""
    from ..sim import simulate_schedule

    g = _graph(spec)
    s = schedule_streaming(g, _resolve_pes(spec, g), spec.variant)
    sim = simulate_schedule(s)
    if sim.deadlocked:
        return {"error_pct": NAN, "deadlock": 1.0}
    return {"error_pct": 100.0 * sim.relative_error(s.makespan), "deadlock": 0.0}


@lru_cache(maxsize=4)
def _ml_graph(model: str, full: bool):
    from ..ml import build_resnet50, build_transformer_encoder

    if model == "resnet50":
        if full:
            return build_resnet50(image_size=224, max_parallel=128)
        return build_resnet50(image_size=112, max_parallel=64)
    if model == "encoder":
        if full:
            return build_transformer_encoder(seq_len=128, d_model=512, max_parallel=128)
        return build_transformer_encoder(seq_len=64, d_model=512, max_parallel=128)
    raise ValueError(f"unknown ML model {model!r}")


def eval_table2(spec: CellSpec) -> dict[str, float]:
    """Table 2 family: streaming vs non-streaming on the ML graphs."""
    g = _ml_graph(spec.topology, bool(spec.param("full", False)))
    pes = _resolve_pes(spec, g)
    s = schedule_streaming(g, pes, spec.variant, size_buffers=False)
    ns = schedule_nonstreaming(g, pes)
    return {
        "str_speedup": speedup(g, s.makespan),
        "nstr_speedup": speedup(g, ns.makespan),
        "gain": ns.makespan / s.makespan,
        "blocks": float(s.num_blocks),
    }


def eval_ablation_buffer(spec: CellSpec) -> dict[str, float]:
    """Ablation 1: deadlock counts with sized vs minimal FIFOs."""
    from ..sim import simulate_schedule

    g = _graph(spec)
    s = schedule_streaming(g, _resolve_pes(spec, g), spec.variant)
    return {
        "deadlock_sized": float(simulate_schedule(s).deadlocked),
        "deadlock_cap1": float(
            simulate_schedule(s, capacity_override=1).deadlocked
        ),
    }


def eval_ablation_partition(spec: CellSpec) -> dict[str, float]:
    """Ablation 2: block counts, fill factors and makespans per variant."""
    g = _graph(spec)
    pes = _resolve_pes(spec, g)
    s = schedule_streaming(g, pes, spec.variant, size_buffers=False)
    return {
        "blocks": float(s.num_blocks),
        "fill": g.num_tasks() / (s.num_blocks * pes),
        "makespan": float(s.makespan),
    }


def eval_ablation_pacing(spec: CellSpec) -> dict[str, float]:
    """Ablation 3: greedy vs steady-state DES execution."""
    from ..sim import simulate_schedule

    g = _graph(spec)
    s = schedule_streaming(g, _resolve_pes(spec, g), spec.variant)
    steady = simulate_schedule(s, pacing="steady")
    greedy = simulate_schedule(s, pacing="greedy")
    if steady.deadlocked or greedy.deadlocked:
        return {"gain_pct": NAN, "deadlock": 1.0}
    gain = 100.0 * (steady.makespan - greedy.makespan) / steady.makespan
    return {"gain_pct": gain, "deadlock": 0.0}


CELL_KINDS: dict[str, Callable[[CellSpec], dict[str, float]]] = {
    "speedup": eval_speedup,
    "sslr": eval_sslr,
    "csdf": eval_csdf,
    "validation": eval_validation,
    "table2": eval_table2,
    "ablation_buffer": eval_ablation_buffer,
    "ablation_partition": eval_ablation_partition,
    "ablation_pacing": eval_ablation_pacing,
}


def evaluate_cell(spec: CellSpec) -> dict[str, float]:
    """Dispatch a cell to its kind's evaluator."""
    try:
        fn = CELL_KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {spec.kind!r}") from None
    metrics = fn(spec)
    assert all(isinstance(v, float) or isinstance(v, int) for v in metrics.values())
    return {k: float(v) for k, v in metrics.items()}


def finite(values) -> list[float]:
    """Drop NaN/inf entries (missing measurements) from a metric column."""
    return [v for v in values if math.isfinite(v)]
