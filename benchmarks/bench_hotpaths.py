"""Hot-path benchmark: indexed scheduling core vs the pre-indexed path.

Standalone script (CI runs it directly and uploads the JSON artifact):

    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke

Two measurements, both against the original implementation preserved in
``tests/oracles/scheduler_reference.py``:

* **end-to-end ``schedule_streaming``** across the scenario sweep
  (layered / serpar families plus the paper topologies, ML graphs in
  full mode), reporting nodes/sec and the speedup of the
  integer-indexed path over the Fraction/networkx reference — verifying
  on every scenario that the two produce byte-identical schedule
  documents;
* **portfolio-miss throughput**: distinct graphs raced through the
  scheduler portfolio from 4 concurrent threads, the way service misses
  arrive — the in-process race on the indexed core vs the pre-indexed
  in-process race;
* a **backend** section splitting the indexed scheduling core by array
  implementation — :func:`repro.core.scheduler.schedule_sweep_python`
  vs the numpy structure-of-arrays
  :func:`repro.core.kernels.schedule_sweep_numpy`, each called directly
  and cold, the way a service miss runs it (a fresh ingest and a fresh
  partition per sweep, median of 3 graphs per scenario), verifying
  byte-identical schedule documents between the two.
  ``--backend-gate R`` fails the run when the numpy kernels' speedup
  over python drops below ``R`` on any 10k-node scenario;
* an **ingest** section reporting the wire→graph split — the networkx
  parse kept in ``tests/oracles/graph_parse.py`` (+ freeze) vs
  :func:`repro.core.ingest.ingest_graph_doc` (validated and trusted),
  the one parse path ``graph_from_dict`` wraps, the digest's canonical
  bytes written by the validated ingest (``digest_writer_s``, ingest
  included) against ``json.dumps(sort_keys=True)`` of the document
  (``digest_dump_s``; both report-only), the cg3 fingerprint on
  each available implementation, called directly on a fresh untimed
  ingest (median of at least three calls, report-only; the run fails
  when their hexes differ), and
  schedule serialization
  (dict+dumps vs :func:`repro.core.serialize.schedule_doc_bytes`) — at
  1k and 10k nodes;
* an **nstr** section timing the non-streaming baseline cold, the way
  a portfolio miss runs it (fresh ingest, ``rlx`` and ``lts`` first):
  :func:`repro.baselines.schedule_nonstreaming` vs the name-keyed scan
  oracle kept in ``tests/oracles/list_scheduler_scan.py``, median of 3
  graphs, on ``layered-10k`` and ``serpar-10k`` at 128 PEs — the run
  fails when their schedule documents differ;
* a **partition** section timing the ``rlx`` + ``lts`` spatial-block
  partitions of a fresh ingest (level keys included), the way a
  portfolio miss runs them: :func:`repro.core.partition
  .compute_spatial_blocks` vs the name-keyed oracle in
  ``tests/oracles/scheduler_reference.py``, median of 3 graphs, on the
  ``nstr`` section's scenarios — report-only (no speed gate); the run
  fails when the partitions differ.

The sweep includes serving-scale ``layered-10k`` / ``serpar-10k``
scenarios (one graph each — the reference path is ~10x slower there).

Writes ``BENCH_hotpaths.json``.  With ``--baseline <file>`` the smoke
numbers are gated: the run fails when any measured throughput regresses
more than ``--tolerance`` (default 1.5x) against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import queue
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from history import append_bench_history
from oracles.graph_parse import parse_graph_doc
from oracles.list_scheduler_scan import scan_nonstreaming
from oracles.scheduler_reference import (
    compute_spatial_blocks_reference,
    schedule_streaming_reference,
)
from repro import __version__
from repro.core import schedule_streaming
from repro.core.serialize import schedule_to_dict
from repro.core.tabulate import format_table
from repro.graphs import random_canonical_graph
from repro.service import run_portfolio

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

#: serving-scale scenarios measured with a single graph (the reference
#: path is an order of magnitude slower at this size)
SWEEP_10K = [
    ("layered-10k", "layered", 10000, 128, "rlx"),
    ("serpar-10k", "serpar", 10000, 128, "lts"),
]

PORTFOLIO_SCHEDULERS = ("rlx", "lts", "nstr")


def _ml_graphs() -> list[tuple[str, object, int, str]]:
    from repro.ml import build_resnet50, build_transformer_encoder

    return [
        ("resnet50", build_resnet50(image_size=112, max_parallel=64), 64, "lts"),
        (
            "encoder",
            build_transformer_encoder(seq_len=64, d_model=512, max_parallel=128),
            64,
            "lts",
        ),
    ]


def bench_schedule(repeats: int, smoke: bool) -> list[dict]:
    rows = []
    cases: list[tuple[str, object, int, str]] = []
    for label, topo, size, pes, variant in SWEEP:
        graphs = [random_canonical_graph(topo, size, seed=r) for r in range(repeats)]
        cases.append((label, graphs, pes, variant))
    for label, topo, size, pes, variant in SWEEP_10K:
        cases.append((label, [random_canonical_graph(topo, size, seed=0)],
                      pes, variant))
    if not smoke:
        for label, graph, pes, variant in _ml_graphs():
            cases.append((label, [graph], pes, variant))

    for label, graphs, pes, variant in cases:
        # byte-identity guard on the first graph of every scenario
        a = json.dumps(schedule_to_dict(schedule_streaming(graphs[0], pes, variant)))
        b = json.dumps(
            schedule_to_dict(schedule_streaming_reference(graphs[0], pes, variant))
        )
        identical = a == b

        t0 = time.perf_counter()
        for g in graphs:
            g.invalidate_caches()  # cold freeze: end-to-end includes it
            schedule_streaming(g, pes, variant)
        indexed_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for g in graphs:
            schedule_streaming_reference(g, pes, variant)
        reference_s = time.perf_counter() - t0

        nodes = sum(len(g) for g in graphs)
        rows.append({
            "scenario": label,
            "variant": variant,
            "num_pes": pes,
            "graphs": len(graphs),
            "nodes": nodes,
            "indexed_s": round(indexed_s, 4),
            "reference_s": round(reference_s, 4),
            "nodes_per_sec": round(nodes / indexed_s, 1),
            "speedup": round(reference_s / indexed_s, 2),
            "byte_identical": identical,
        })
    return rows


def _drain(graphs, threads: int, fn) -> float:
    """Run ``fn(graph)`` over all graphs from ``threads`` workers; wall s."""
    q: queue.Queue = queue.Queue()
    for g in graphs:
        q.put(g)
    errors: list[BaseException] = []

    def worker() -> None:
        while True:
            try:
                g = q.get_nowait()
            except queue.Empty:
                return
            try:
                fn(g)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

    ts = [threading.Thread(target=worker) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return elapsed


def bench_portfolio(misses: int, workers: int) -> dict:
    """Miss throughput: the in-process race on the indexed core vs the
    pre-indexed serial race, both from ``workers`` client threads."""
    size, pes = 400, 64  # service-scale misses: compute dominates IPC
    graphs = [random_canonical_graph("layered", size, seed=s) for s in range(misses)]

    def reference_miss(g) -> None:
        # the pre-indexed miss path: candidates raced sequentially
        # in-process on the reference streaming core and the scan oracle
        for name in PORTFOLIO_SCHEDULERS:
            if name == "nstr":
                scan_nonstreaming(g, pes)
            else:
                schedule_streaming_reference(g, pes, name)

    ref_s = _drain(list(graphs), workers, reference_miss)

    for g in graphs:
        g.invalidate_caches()
    inproc_s = _drain(
        list(graphs),
        workers,
        lambda g: run_portfolio(g, pes, schedulers=PORTFOLIO_SCHEDULERS),
    )
    return {
        "misses": misses,
        "workers": workers,
        "graph": f"layered/{size}",
        "num_pes": pes,
        "schedulers": list(PORTFOLIO_SCHEDULERS),
        "inproc_s": round(inproc_s, 4),
        "reference_s": round(ref_s, 4),
        "inproc_miss_per_sec": round(misses / inproc_s, 2),
        "miss_per_sec": round(misses / inproc_s, 2),
        "ref_miss_per_sec": round(misses / ref_s, 2),
        "speedup": round(ref_s / inproc_s, 2),
    }


def bench_backend(smoke: bool, graphs: int = 3) -> list[dict]:
    """Scheduling-core backend split: pure-Python vs numpy kernels, cold.

    Each sweep runs the way a service miss runs it: on a fresh ingest
    of the graph's wire document, fingerprinted (which builds the
    array mirror the numpy sweep reads, as on a served miss) and
    partitioned, all untimed, so nothing either sweep derived for an
    earlier call is reused.  Medians over ``graphs`` graphs per
    scenario; byte-identity of the two schedule documents is asserted
    on every graph.
    """
    from statistics import median

    from repro.core.backend import HAVE_NUMPY
    from repro.core.ingest import ingest_graph_doc
    from repro.core.partition import compute_spatial_blocks
    from repro.core.scheduler import schedule_sweep_python
    from repro.core.serialize import graph_to_dict, schedule_doc_bytes

    sweeps = {"python": lambda ig, part, pes: schedule_sweep_python(
        ig, part, pes)}
    if HAVE_NUMPY:
        from repro.core import kernels

        sweeps["numpy"] = lambda ig, part, pes: kernels.schedule_sweep_numpy(
            ig, ig, part, pes)

    cases = [("layered-1k", "layered", 1000, 64, "rlx")] + SWEEP_10K
    rows = []
    for label, topo, size, pes, variant in cases:
        times: dict[str, list[float]] = {name: [] for name in sweeps}
        identical = True
        for seed in range(graphs):
            doc = graph_to_dict(random_canonical_graph(topo, size, seed=seed))
            docs = set()
            for name, sweep in sweeps.items():
                ig = ingest_graph_doc(doc)
                ig.fingerprint()
                part = compute_spatial_blocks(ig, pes, variant)
                t0 = time.perf_counter()
                schedule = sweep(ig, part, pes)
                times[name].append(time.perf_counter() - t0)
                docs.add(schedule_doc_bytes(schedule))
            identical &= len(docs) == 1
        py_s = median(times["python"])
        row = {
            "scenario": label,
            "variant": variant,
            "num_pes": pes,
            "nodes": size,
            "repeats": graphs,
            "python_s": round(py_s, 4),
            "numpy_s": None,
            "speedup": None,
            "byte_identical": None,
        }
        if HAVE_NUMPY:
            np_s = median(times["numpy"])
            row.update({
                "numpy_s": round(np_s, 4),
                "speedup": round(py_s / np_s, 2),
                "byte_identical": identical,
            })
        rows.append(row)
    return rows


def check_backend_gate(rows: list[dict], gate: float) -> list[str]:
    """The 10k scenarios must hold ``gate``x numpy-over-python speedup.

    Unlike the baseline check this is an absolute ratio floor — both
    backends run in the same process on the same data, so the ratio is
    machine-independent and the acceptance floor can gate directly.
    """
    failures = []
    for row in rows:
        if not row["scenario"].endswith("-10k"):
            continue
        if row["numpy_s"] is None:
            failures.append(
                f"backend gate on {row['scenario']}: numpy backend "
                f"unavailable (install numpy or drop --backend-gate)"
            )
        elif not row["byte_identical"]:
            failures.append(
                f"backend gate on {row['scenario']}: numpy schedule "
                f"differs from python"
            )
        elif row["speedup"] < gate:
            failures.append(
                f"backend gate on {row['scenario']}: numpy speedup "
                f"{row['speedup']}x below the {gate}x floor"
            )
    return failures


def bench_ingest(smoke: bool) -> list[dict]:
    """Wire→IndexedGraph split: parse, freeze, fingerprint, serialize."""
    from repro.core.backend import HAVE_NUMPY
    from repro.core.graph import (
        _wl_digest_python,
        _wl_header,
        _wl_refine_python,
        _wl_seed_labels,
    )
    from repro.core.indexed import freeze
    from repro.core.ingest import canonical_bytes, ingest_graph_doc
    from repro.core.serialize import graph_to_dict, schedule_doc_bytes

    # the cg3 fingerprint on each implementation, by direct call
    fingerprints = {"python": lambda ig: _wl_digest_python(
        ig, _wl_refine_python(ig, _wl_seed_labels(ig)))}
    if HAVE_NUMPY:
        from repro.core.kernels import wl_digest_numpy, wl_refine_numpy

        fingerprints["numpy"] = lambda ig: wl_digest_numpy(
            ig, wl_refine_numpy(ig, _wl_seed_labels(ig)).tolist(),
            _wl_header(ig))

    cases = [("layered-1k", "layered", 1000, 64, "rlx", 5 if smoke else 10)]
    for label, topo, size, pes, variant in SWEEP_10K:
        cases.append((label, topo, size, pes, variant, 1 if smoke else 3))

    rows = []
    for label, topo, size, pes, variant, reps in cases:
        doc = graph_to_dict(random_canonical_graph(topo, size, seed=0))

        def timed(fn) -> float:
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            return (time.perf_counter() - t0) / reps

        parse_s = timed(lambda: parse_graph_doc(doc))
        parse_freeze_s = timed(lambda: freeze(parse_graph_doc(doc)))
        ingest_s = timed(lambda: ingest_graph_doc(doc))
        trusted_s = timed(lambda: ingest_graph_doc(doc, validate=False))
        # the digest's canonical bytes two ways (report-only): written by
        # the validated ingest from its columns (ingest included), and
        # re-dumped from the document by json.dumps(sort_keys=True)
        writer_s = timed(lambda: ingest_graph_doc(doc, out=bytearray()))
        dump_s = timed(lambda: canonical_bytes(doc))
        # fingerprint over a fresh, untimed ingest each round: the full
        # cost a service pays the first time it sees a document (on
        # numpy that includes the CSR mirror the streaming candidates
        # then reuse); the median of at least three timed calls
        fingerprint_s: dict[str, float] = {}
        hexes = set()
        for backend, fingerprint in fingerprints.items():
            times = []
            for _ in range(max(3, reps)):
                fresh = ingest_graph_doc(doc, validate=False)
                t0 = time.perf_counter()
                hexes.add(fingerprint(fresh))
                times.append(time.perf_counter() - t0)
            fingerprint_s[backend] = statistics.median(times)

        ig = ingest_graph_doc(doc)
        schedule = schedule_streaming(ig, pes, variant)
        to_dict_s = timed(
            lambda: json.dumps(schedule_to_dict(schedule)).encode()
        )
        doc_bytes_s = timed(lambda: schedule_doc_bytes(schedule))

        rows.append({
            "scenario": label,
            "nodes": len(doc["nodes"]),
            "edges": len(doc["edges"]),
            "repeats": reps,
            "oracle_parse_s": round(parse_s, 4),
            "oracle_parse_freeze_s": round(parse_freeze_s, 4),
            "ingest_s": round(ingest_s, 4),
            "ingest_trusted_s": round(trusted_s, 4),
            "digest_writer_s": round(writer_s, 4),
            "digest_dump_s": round(dump_s, 4),
            "fingerprint_python_s": round(fingerprint_s["python"], 4),
            "fingerprint_numpy_s": (
                round(fingerprint_s["numpy"], 4) if HAVE_NUMPY else None
            ),
            "fingerprint_identical": len(hexes) == 1,
            "schedule_dict_dumps_s": round(to_dict_s, 4),
            "schedule_doc_bytes_s": round(doc_bytes_s, 4),
            "ingest_speedup": round(parse_freeze_s / ingest_s, 2),
            "trusted_speedup": round(parse_freeze_s / trusted_s, 2),
        })
    return rows


def bench_nstr(repeats: int = 3) -> list[dict]:
    """Cold ``schedule_nonstreaming`` vs the scan oracle at 128 PEs.

    Each round ingests a fresh graph and races ``rlx`` and ``lts`` over
    it first (untimed), as a portfolio miss does, then times both list
    schedulers on it; medians over ``repeats`` graphs.
    """
    from statistics import median

    from repro.baselines import schedule_nonstreaming
    from repro.core.ingest import ingest_graph_doc
    from repro.core.serialize import graph_to_dict, schedule_doc_bytes

    rows = []
    for label, topo, size, pes, _variant in SWEEP_10K:
        new_s, oracle_s, identical = [], [], True
        for seed in range(repeats):
            ig = ingest_graph_doc(
                graph_to_dict(random_canonical_graph(topo, size, seed=seed))
            )
            schedule_streaming(ig, pes, "rlx")
            schedule_streaming(ig, pes, "lts")
            t0 = time.perf_counter()
            new = schedule_nonstreaming(ig, pes)
            new_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            old = scan_nonstreaming(ig, pes)
            oracle_s.append(time.perf_counter() - t0)
            identical &= schedule_doc_bytes(new) == schedule_doc_bytes(old)
        rows.append({
            "scenario": label,
            "num_pes": pes,
            "nodes": size,
            "repeats": repeats,
            "nstr_ms": round(1e3 * median(new_s), 1),
            "oracle_ms": round(1e3 * median(oracle_s), 1),
            "speedup": round(median(oracle_s) / median(new_s), 2),
            "byte_identical": identical,
        })
    return rows


def bench_partition(repeats: int = 3) -> list[dict]:
    """Cold ``rlx`` + ``lts`` partitions vs the oracle at 128 PEs.

    Each round ingests a fresh graph, so the first partition pays the
    level keys, as on a served miss; medians over ``repeats`` graphs.
    """
    from statistics import median

    from repro.core.ingest import ingest_graph_doc
    from repro.core.partition import compute_spatial_blocks
    from repro.core.serialize import graph_to_dict

    def same(a, b) -> bool:
        return (a.blocks == b.blocks
                and list(a.block_of.items()) == list(b.block_of.items())
                and a.sources_per_block == b.sources_per_block)

    rows = []
    for label, topo, size, pes, _variant in SWEEP_10K:
        levels_s, new_s, oracle_s, identical = [], [], [], True
        for seed in range(repeats):
            g = random_canonical_graph(topo, size, seed=seed)
            ig = ingest_graph_doc(graph_to_dict(g))
            t0 = time.perf_counter()
            ig.level_keys()
            t1 = time.perf_counter()
            new = [compute_spatial_blocks(ig, pes, v) for v in ("rlx", "lts")]
            t2 = time.perf_counter()
            old = [compute_spatial_blocks_reference(g, pes, v)
                   for v in ("rlx", "lts")]
            oracle_s.append(time.perf_counter() - t2)
            levels_s.append(t1 - t0)
            new_s.append(t2 - t0)
            identical &= all(map(same, new, old))
        rows.append({
            "scenario": label,
            "num_pes": pes,
            "nodes": size,
            "repeats": repeats,
            "partition_ms": round(1e3 * median(new_s), 1),
            "levels_ms": round(1e3 * median(levels_s), 1),
            "oracle_ms": round(1e3 * median(oracle_s), 1),
            "speedup": round(median(oracle_s) / median(new_s), 2),
            "identical": identical,
        })
    return rows


def check_baseline(doc: dict, baseline_path: str, tolerance: float) -> list[str]:
    """Gate on the indexed-vs-reference *speedup ratios*, not wall clock.

    Both paths run in the same process on the same machine, so the
    ratio is what a CI runner of any speed can reproduce — gating on
    absolute nodes/sec would fail every runner >= ``tolerance`` slower
    than the machine that committed the baseline.  (The absolute
    throughputs stay in the JSON for human trend-watching.)
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    base_rows = {r["scenario"]: r for r in baseline.get("schedule", [])}
    for row in doc["schedule"]:
        base = base_rows.get(row["scenario"])
        if base is None:
            continue
        if row["speedup"] * tolerance < base["speedup"]:
            failures.append(
                f"schedule_streaming on {row['scenario']}: speedup "
                f"{row['speedup']}x vs baseline {base['speedup']}x "
                f"(> {tolerance}x regression)"
            )
    base_pf = baseline.get("portfolio")
    pf = doc["portfolio"]
    if base_pf and pf["speedup"] * tolerance < base_pf["speedup"]:
        failures.append(
            f"portfolio misses: speedup {pf['speedup']}x vs baseline "
            f"{base_pf['speedup']}x (> {tolerance}x regression)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI): 2 graphs/scenario, 6 misses")
    parser.add_argument("--repeats", type=int, default=None,
                        help="graphs per scenario (default 2 smoke / 5 full)")
    parser.add_argument("--misses", type=int, default=None,
                        help="portfolio misses (default 6 smoke / 16 full)")
    parser.add_argument("--workers", type=int, default=4,
                        help="portfolio client threads")
    parser.add_argument("--output", default="BENCH_hotpaths.json")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to gate against")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="max allowed slow-down vs the baseline")
    parser.add_argument("--backend-gate", type=float, default=None,
                        help="fail when the numpy backend's cold speedup "
                             "over python drops below this on any "
                             "10k-node scenario")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append this run's anchors to the bench "
                             "history JSONL ('-' disables)")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.smoke else 5)
    misses = args.misses or (6 if args.smoke else 16)

    schedule_rows = bench_schedule(repeats, args.smoke)
    backend_rows = bench_backend(args.smoke)
    ingest_rows = bench_ingest(args.smoke)
    nstr_rows = bench_nstr()
    partition_rows = bench_partition()
    portfolio = bench_portfolio(misses, args.workers)

    print(format_table(
        ["scenario", "variant", "PEs", "nodes", "indexed s", "reference s",
         "nodes/s", "speedup", "identical"],
        [
            [r["scenario"], r["variant"], r["num_pes"], r["nodes"],
             f"{r['indexed_s']:.3f}", f"{r['reference_s']:.3f}",
             f"{r['nodes_per_sec']:,.0f}", f"{r['speedup']:.1f}x",
             r["byte_identical"]]
            for r in schedule_rows
        ],
    ))
    print(format_table(
        ["backend scenario", "variant", "nodes", "python s", "numpy s",
         "speedup", "identical"],
        [
            [r["scenario"], r["variant"], r["nodes"],
             f"{r['python_s']:.3f}",
             "-" if r["numpy_s"] is None else f"{r['numpy_s']:.3f}",
             "-" if r["speedup"] is None else f"{r['speedup']:.1f}x",
             "-" if r["byte_identical"] is None else r["byte_identical"]]
            for r in backend_rows
        ],
    ))
    print(format_table(
        ["scenario", "nodes", "oracle parse+freeze", "ingest", "trusted",
         "ingest+bytes", "dump bytes", "fp python", "fp numpy", "sched dict+dumps", "sched bytes",
         "ingest speedup"],
        [
            [r["scenario"], r["nodes"], f"{r['oracle_parse_freeze_s']*1e3:.1f} ms",
             f"{r['ingest_s']*1e3:.1f} ms", f"{r['ingest_trusted_s']*1e3:.1f} ms",
             f"{r['digest_writer_s']*1e3:.1f} ms",
             f"{r['digest_dump_s']*1e3:.1f} ms",
             f"{r['fingerprint_python_s']*1e3:.1f} ms",
             "-" if r["fingerprint_numpy_s"] is None
             else f"{r['fingerprint_numpy_s']*1e3:.1f} ms",
             f"{r['schedule_dict_dumps_s']*1e3:.1f} ms",
             f"{r['schedule_doc_bytes_s']*1e3:.1f} ms",
             f"{r['ingest_speedup']:.1f}x"]
            for r in ingest_rows
        ],
    ))
    print(format_table(
        ["nstr scenario", "PEs", "nodes", "nstr", "scan oracle", "speedup",
         "identical"],
        [
            [r["scenario"], r["num_pes"], r["nodes"], f"{r['nstr_ms']:.1f} ms",
             f"{r['oracle_ms']:.1f} ms", f"{r['speedup']:.1f}x",
             r["byte_identical"]]
            for r in nstr_rows
        ],
    ))
    print(format_table(
        ["partition scenario", "PEs", "nodes", "rlx+lts", "of which levels",
         "oracle", "speedup", "identical"],
        [
            [r["scenario"], r["num_pes"], r["nodes"],
             f"{r['partition_ms']:.1f} ms", f"{r['levels_ms']:.1f} ms",
             f"{r['oracle_ms']:.1f} ms", f"{r['speedup']:.1f}x",
             r["identical"]]
            for r in partition_rows
        ],
    ))
    print(
        f"portfolio misses on {portfolio['graph']} "
        f"({portfolio['workers']} workers, "
        f"{'+'.join(portfolio['schedulers'])}): "
        f"{portfolio['miss_per_sec']:.2f}/s in-process vs "
        f"{portfolio['ref_miss_per_sec']:.2f}/s pre-indexed serial "
        f"-> {portfolio['speedup']:.1f}x"
    )

    doc = {
        "benchmark": "hotpaths",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": {
            "smoke": args.smoke, "repeats": repeats,
            "misses": misses, "workers": args.workers,
        },
        "schedule": schedule_rows,
        "backend": backend_rows,
        "ingest": ingest_rows,
        "nstr": nstr_rows,
        "partition": partition_rows,
        "portfolio": portfolio,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[saved to {args.output}]")
    if append_bench_history(args.history, doc) is not None:
        print(f"[history appended to {args.history}]")

    bad = [r for r in schedule_rows if not r["byte_identical"]]
    bad += [r for r in backend_rows if r["byte_identical"] is False]
    bad += [r for r in nstr_rows if not r["byte_identical"]]
    if bad:
        print(f"FAIL: schedules differ on "
              f"{', '.join(r['scenario'] for r in bad)}", file=sys.stderr)
        return 1
    bad = [r for r in partition_rows if not r["identical"]]
    if bad:
        print(f"FAIL: partitions differ from the oracle on "
              f"{', '.join(r['scenario'] for r in bad)}", file=sys.stderr)
        return 1
    bad = [r for r in ingest_rows if not r["fingerprint_identical"]]
    if bad:
        print(f"FAIL: python and numpy fingerprints differ on "
              f"{', '.join(r['scenario'] for r in bad)}", file=sys.stderr)
        return 1
    if args.backend_gate is not None:
        failures = check_backend_gate(backend_rows, args.backend_gate)
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print(f"backend gate passed (floor {args.backend_gate}x)")
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
