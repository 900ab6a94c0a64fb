"""Smoke tests of the benchmark itself: every workload end to end on
tiny graphs, and the validator catching broken schedules.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from graphs import make_graph, renamed  # noqa: E402
from run import WORKLOADS  # noqa: E402
from validate import check_schedule  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--scale", "0.03"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


# every workload, including the one only run by hand
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_correct(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = _run("mixed-1k", 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "graphs.py", "validate.py", "ledger.py"):
        (bench / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _streaming_answer():
    graph = make_graph("layered", 40, random.Random(3))
    tasks, st = [], 0
    for name in graph.names:  # one task per block: trivially valid
        tasks.append({"name": name, "block": name, "pe": 0,
                      "st": st, "fo": st + 1, "lo": st + 5})
        st += 5
    return graph, {
        "format": "streaming-schedule", "num_pes": 4, "num_blocks": len(tasks),
        "makespan": st, "tasks": tasks, "fifo_sizes": [],
    }


def test_validator_accepts_a_valid_schedule():
    graph, sched = _streaming_answer()
    assert check_schedule(sched, graph, 4) is None


@pytest.mark.parametrize("breakage", [
    lambda s: s["tasks"].pop(),
    lambda s: s["tasks"].append(dict(s["tasks"][0])),
    lambda s: s["tasks"][3].update(pe=4),
    lambda s: s["tasks"][3].update(st=0),
    lambda s: s.update(makespan=s["makespan"] + 1),
    lambda s: s["fifo_sizes"].append({"src": 0, "dst": 1, "capacity": 2}),
])
def test_validator_rejects_broken_schedules(breakage):
    graph, sched = _streaming_answer()
    broken = copy.deepcopy(sched)
    breakage(broken)
    assert check_schedule(broken, graph, 4) is not None


def test_renamed_copy_keeps_structure():
    graph = make_graph("serpar", 60, random.Random(5))
    copy_ = renamed(graph, random.Random(6))
    assert copy_.n == graph.n and len(copy_.edges) == len(graph.edges)
    assert set(copy_.names).isdisjoint(graph.names)
