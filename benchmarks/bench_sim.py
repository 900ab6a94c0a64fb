"""Simulation benchmark: array-state engine vs the process reference.

Standalone script (CI runs it directly and uploads the JSON artifact):

    PYTHONPATH=src python benchmarks/bench_sim.py --smoke

Measures the discrete-event validation substrate (Appendix B / Figure
13) across the campaign scenario families:

* **steady-state validation sweep** — schedule each scenario's graphs,
  execute them under both engines and report elements/sec plus the
  indexed-over-reference speedup, verifying on every scenario that the
  two engines agree on makespan, per-task finish times and deadlock
  verdicts (the golden differential contract);
* **served shape** — validation rows for what a served ``simulate``
  runs (1k-node ``layered``/``serpar`` at 64 PEs under ``lts``), next
  to the ``rlx`` anchor; their speed is reported, not gated, while
  the two engines must still agree on them;
* **deadlock detection** — the same sweep under a capacity-1 FIFO
  override (the Figure 9 failure mode): both engines must report the
  identical blocked sets, and the indexed engine must detect the
  deadlock faster.

The 1k-node layered scenario is the acceptance anchor: the indexed
engine must hold at least ``--min-anchor-speedup`` (default 5x) over
the reference there.

Writes ``BENCH_sim.json``.  With ``--baseline <file>`` the smoke
numbers are gated: the run fails when any measured speedup regresses
more than ``--tolerance`` (default 1.5x) against the committed
baseline — speedup ratios, not wall clock, so any runner speed works.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from history import append_bench_history
from oracles.sim_reference import simulate_schedule_reference
from repro import __version__
from repro.core import schedule_streaming, total_work
from repro.core.tabulate import format_table
from repro.graphs import random_canonical_graph
from repro.sim import simulate_schedule

#: (label, topology, size, PEs, variant); the 1k-node layered scenario
#: is the acceptance anchor and stays in the smoke sweep
SWEEP = [
    ("layered-1k", "layered", 1000, 64, "rlx"),
    ("layered", "layered", 128, 64, "rlx"),
    ("serpar", "serpar", 120, 32, "lts"),
    ("fft", "fft", 32, 16, "lts"),
    ("gaussian", "gaussian", 16, 32, "rlx"),
    ("cholesky", "cholesky", 8, 16, "lts"),
]

ANCHOR = "layered-1k"

#: the shape a served ``simulate`` runs (1k-node graphs at 64 PEs
#: under ``lts``, the request default), where almost every FIFO has
#: capacity 1; absent from the committed baseline, so their speedups
#: are reported, not gated
SERVED = [
    ("layered-1k-lts", "layered", 1000, 64, "lts"),
    ("serpar-1k-lts", "serpar", 1000, 64, "lts"),
]


def _results_agree(a, b) -> bool:
    return (
        a.makespan == b.makespan
        and a.finish_times == b.finish_times
        and a.start_times == b.start_times
        and a.deadlocked == b.deadlocked
        and a.blocked == b.blocked
    )


def bench_validation(repeats: int) -> list[dict]:
    rows = []
    for label, topo, size, pes, variant in SWEEP + SERVED:
        graphs = [random_canonical_graph(topo, size, seed=r)
                  for r in range(repeats)]
        schedules = [schedule_streaming(g, pes, variant) for g in graphs]
        identical = all(
            _results_agree(simulate_schedule(s),
                           simulate_schedule_reference(s))
            for s in schedules
        )

        t0 = time.perf_counter()
        for s in schedules:
            simulate_schedule(s)
        indexed_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for s in schedules:
            simulate_schedule_reference(s)
        reference_s = time.perf_counter() - t0

        elements = sum(total_work(g) for g in graphs)
        rows.append({
            "scenario": label,
            "variant": variant,
            "num_pes": pes,
            "graphs": len(graphs),
            "nodes": sum(len(g) for g in graphs),
            "elements": elements,
            "indexed_s": round(indexed_s, 4),
            "reference_s": round(reference_s, 4),
            "elements_per_sec": round(elements / indexed_s, 1),
            "speedup": round(reference_s / indexed_s, 2),
            "identical": identical,
        })
    return rows


def bench_deadlock(repeats: int) -> list[dict]:
    """Capacity-1 override: deadlock detection speed + blocked-set parity."""
    rows = []
    for label, topo, size, pes, variant in SWEEP:
        if label == ANCHOR:
            continue  # the anchor stays a clean steady-state measurement
        graphs = [random_canonical_graph(topo, size, seed=r)
                  for r in range(repeats)]
        schedules = [schedule_streaming(g, pes, variant) for g in graphs]
        indexed = [simulate_schedule(s, capacity_override=1)
                   for s in schedules]
        reference = [simulate_schedule_reference(s, capacity_override=1)
                     for s in schedules]
        identical = all(
            a.deadlocked == b.deadlocked and a.blocked == b.blocked
            and a.makespan == b.makespan
            for a, b in zip(indexed, reference)
        )

        t0 = time.perf_counter()
        for s in schedules:
            simulate_schedule(s, capacity_override=1)
        indexed_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for s in schedules:
            simulate_schedule_reference(s, capacity_override=1)
        reference_s = time.perf_counter() - t0

        rows.append({
            "scenario": label,
            "graphs": len(graphs),
            "deadlocks": sum(r.deadlocked for r in indexed),
            "indexed_s": round(indexed_s, 4),
            "reference_s": round(reference_s, 4),
            "speedup": round(reference_s / max(indexed_s, 1e-9), 2),
            "identical": identical,
        })
    return rows


def check_baseline(doc: dict, baseline_path: str, tolerance: float) -> list[str]:
    """Gate on indexed-vs-reference *speedup ratios*, not wall clock
    (both engines run in the same process, so the ratio reproduces on a
    runner of any speed — see bench_hotpaths.check_baseline)."""
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    base_rows = {r["scenario"]: r for r in baseline.get("validation", [])}
    for row in doc["validation"]:
        base = base_rows.get(row["scenario"])
        if base is None:
            continue
        if row["speedup"] * tolerance < base["speedup"]:
            failures.append(
                f"validation on {row['scenario']}: speedup {row['speedup']}x "
                f"vs baseline {base['speedup']}x (> {tolerance}x regression)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI): 2 graphs per scenario")
    parser.add_argument("--repeats", type=int, default=None,
                        help="graphs per scenario (default 2 smoke / 3 full)")
    parser.add_argument("--output", default="BENCH_sim.json")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to gate against")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="max allowed slow-down vs the baseline")
    parser.add_argument("--min-anchor-speedup", type=float, default=5.0,
                        help="hard floor on the layered-1k speedup "
                             "(the PR acceptance anchor)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append this run's anchors to the bench "
                             "history JSONL ('-' disables)")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.smoke else 3)
    validation = bench_validation(repeats)
    deadlock = bench_deadlock(repeats)

    print(format_table(
        ["scenario", "variant", "PEs", "nodes", "elements", "indexed s",
         "reference s", "elem/s", "speedup", "identical"],
        [
            [r["scenario"], r["variant"], r["num_pes"], r["nodes"],
             f"{r['elements']:,}", f"{r['indexed_s']:.3f}",
             f"{r['reference_s']:.3f}", f"{r['elements_per_sec']:,.0f}",
             f"{r['speedup']:.1f}x", r["identical"]]
            for r in validation
        ],
    ))
    print(format_table(
        ["deadlock scenario", "graphs", "deadlocks", "indexed s",
         "reference s", "speedup", "identical"],
        [
            [r["scenario"], r["graphs"], r["deadlocks"],
             f"{r['indexed_s']:.3f}", f"{r['reference_s']:.3f}",
             f"{r['speedup']:.1f}x", r["identical"]]
            for r in deadlock
        ],
    ))

    doc = {
        "benchmark": "sim",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": {"smoke": args.smoke, "repeats": repeats},
        "validation": validation,
        "deadlock": deadlock,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[saved to {args.output}]")
    if append_bench_history(args.history, doc) is not None:
        print(f"[history appended to {args.history}]")

    bad = [r for r in validation + deadlock if not r["identical"]]
    if bad:
        print(f"FAIL: indexed simulation differs from reference on "
              f"{', '.join(r['scenario'] for r in bad)}", file=sys.stderr)
        return 1
    anchor = next(r for r in validation if r["scenario"] == ANCHOR)
    if anchor["speedup"] < args.min_anchor_speedup:
        print(
            f"FAIL: {ANCHOR} speedup {anchor['speedup']}x below the "
            f"{args.min_anchor_speedup}x acceptance floor",
            file=sys.stderr,
        )
        return 1
    if args.baseline:
        failures = check_baseline(doc, args.baseline, args.tolerance)
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print(f"baseline check passed (tolerance {args.tolerance}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
