"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``generate``    build a synthetic canonical graph and save it as JSON
``info``        print statistics of a saved graph
``schedule``    schedule a saved graph (streaming or non-streaming)
``simulate``    schedule + cycle-accurate validation
``profile``     cProfile the end-to-end pipeline of a scenario
``experiment``  run one of the paper's figure/table harnesses (serial)
``campaign``    declarative experiment campaigns: parallel + cached
``serve``       run the scheduling service (JSON-lines TCP)
``request``     submit one graph to a running service
``loadgen``     drive a running service with Zipf-skewed traffic
``health``      fetch a running service's health summary
``metrics``     fetch a running service's Prometheus metrics
``trace``       fetch a running service's recent request spans
``top``         live terminal dashboard over a running service
``bench-report``  bench-history trends and regression verdicts
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .baselines import schedule_nonstreaming
from .core import (
    critical_path_length,
    schedule_streaming,
    speedup,
    streaming_depth,
    total_work,
)
from .core.gantt import render_gantt
from .core.serialize import (
    load_graph,
    save_graph,
    schedule_to_chrome_trace,
    schedule_to_dict,
)
from .graphs import DEFAULT_SIZES, random_canonical_graph

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Streaming task graph scheduling (HPDC'23 reproduction)",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic canonical graph")
    gen.add_argument("topology", choices=sorted(DEFAULT_SIZES))
    gen.add_argument("size", type=int, help="topology size parameter")
    gen.add_argument("-o", "--output", required=True, help="output JSON path")
    gen.add_argument("--seed", type=int, default=0)

    info = sub.add_parser("info", help="print statistics of a saved graph")
    info.add_argument("graph", help="graph JSON path")

    sch = sub.add_parser("schedule", help="schedule a saved graph")
    sch.add_argument("graph", help="graph JSON path")
    sch.add_argument("-p", "--pes", type=int, required=True)
    sch.add_argument(
        "--scheduler", choices=["lts", "rlx", "work", "nstr"], default="lts"
    )
    sch.add_argument("-o", "--output", help="write the schedule JSON here")
    sch.add_argument("--trace", help="write a chrome://tracing JSON here")
    sch.add_argument("--gantt", action="store_true", help="print an ASCII Gantt")

    sim = sub.add_parser("simulate", help="schedule + DES validation")
    sim.add_argument("graph", help="graph JSON path")
    sim.add_argument("-p", "--pes", type=int, required=True)
    sim.add_argument("--scheduler", choices=["lts", "rlx", "work"], default="lts")
    sim.add_argument("--capacity", type=int, help="override every FIFO capacity")
    sim.add_argument(
        "--pacing", choices=["steady", "greedy"], default="steady"
    )
    sim.add_argument(
        "--policy", choices=["barrier", "pe", "dataflow"], default="barrier",
        help="temporal multiplexing of the spatial blocks",
    )
    sim.add_argument(
        "-o", "--output", help="write the simulated timeline JSON here"
    )
    sim.add_argument(
        "--trace",
        help="write a chrome://tracing JSON of the simulated execution here",
    )

    prof = sub.add_parser(
        "profile", help="cProfile the end-to-end pipeline of a scenario"
    )
    prof.add_argument("scenario", help="scenario name (see `campaign list`)")
    prof.add_argument(
        "--pes", type=int, default=None,
        help="override the scenario's PE sweep with one PE count",
    )
    prof.add_argument(
        "--sort", choices=["cumtime", "tottime", "ncalls"], default="cumtime",
        help="profile table ordering",
    )
    prof.add_argument(
        "--cells", type=int, default=8,
        help="number of scenario cells to run under the profiler",
    )
    prof.add_argument(
        "--limit", type=int, default=25, help="rows in the printed table"
    )
    prof.add_argument(
        "--json", dest="json_out", default=None,
        help="also write the profile rows (and run metadata) as JSON here",
    )

    exp = sub.add_parser("experiment", help="run a paper harness (serial)")
    exp.add_argument(
        "name",
        choices=["fig10", "fig11", "fig12", "fig13", "table2", "ablations"],
    )
    exp.add_argument("--num-graphs", type=int, default=None)
    exp.add_argument("--full", action="store_true", help="paper-sized ML graphs")

    camp = sub.add_parser(
        "campaign", help="parallel, cached experiment campaigns"
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    crun = csub.add_parser("run", help="run a registered scenario")
    crun.add_argument("scenario", help="scenario name (see `campaign list`)")
    crun.add_argument(
        "-w", "--workers", type=int, default=0,
        help="worker processes (0/1 = serial in-process)",
    )
    crun.add_argument("--num-graphs", type=int, default=None)
    crun.add_argument(
        "--limit", type=int, default=None, help="cap the number of cells (smoke runs)"
    )
    crun.add_argument("--store", default=None, help="result store directory")
    crun.add_argument(
        "--no-store", action="store_true", help="do not read or write the store"
    )
    crun.add_argument(
        "--force", action="store_true", help="recompute cells even if stored"
    )
    crun.add_argument("--csv", help="export per-cell metrics as CSV here")
    crun.add_argument("--json", dest="json_out", help="export results as JSON here")
    crun.add_argument(
        "--profile-hz", type=float, default=0.0,
        help="attach a continuous sampling profiler at this rate and "
             "print the hottest functions after the run (0 = off)",
    )

    csub.add_parser("list", help="list registered scenarios")

    crep = csub.add_parser("report", help="report on stored results")
    crep.add_argument("scenario", help="scenario name (see `campaign list`)")
    crep.add_argument("--store", default=None, help="result store directory")
    crep.add_argument(
        "--format", choices=["table", "csv"], default="table",
        help="stdout format (csv prints per-cell rows instead of the table)",
    )
    crep.add_argument("--csv", help="export per-cell metrics as CSV here")
    crep.add_argument("--json", dest="json_out", help="export results as JSON here")

    from .service.server import DEFAULT_PORT

    srv = sub.add_parser("serve", help="run the scheduling service")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=DEFAULT_PORT)
    srv.add_argument("-w", "--workers", type=int, default=4, help="worker threads")
    srv.add_argument(
        "--shards", type=int, default=1,
        help="run this many supervised shard processes behind a routing "
             "front-end (1 = the classic single-process server); see the "
             "README Reliability section for the tier's topology",
    )
    srv.add_argument(
        "--store", default=None,
        help="persistent schedule store (JSONL); default "
             ".repro-service/schedules.jsonl, '-' disables persistence",
    )
    srv.add_argument("--cache-size", type=int, default=1024, help="LRU capacity")
    srv.add_argument(
        "--no-cache", action="store_true", help="disable caching entirely"
    )
    srv.add_argument(
        "--allow-remote-shutdown", action="store_true",
        help="honour the shutdown op from non-loopback peers too",
    )
    srv.add_argument(
        "--trace-dir", default=None,
        help="write completed request spans to rotating JSONL files in "
             "this directory (see the README Observability section)",
    )
    srv.add_argument(
        "--no-telemetry", action="store_true",
        help="disable request spans and latency histograms (the stats "
             "counters stay live); metrics/trace ops degrade accordingly",
    )
    srv.add_argument(
        "--profile-hz", type=float, default=0.0,
        help="run a continuous sampling profiler at this rate and serve "
             "its aggregate through the profile op (0 = off)",
    )
    srv.add_argument(
        "--flight-dir", default=None,
        help="dump the flight-recorder ring as JSONL into this directory "
             "on deadlock/transport-error/slow-request triggers",
    )
    srv.add_argument(
        "--slow-ms", type=float, default=None,
        help="record a slow_request flight event (and trigger a flight "
             "dump) for requests slower than this wall time",
    )
    srv.add_argument(
        "--fault-plan", default=None,
        help="inject deterministic faults from this JSON plan (see the "
             "README Reliability section); for chaos drills and tests",
    )
    srv.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="on SIGTERM, stop accepting and flush in-flight responses "
             "for up to this many seconds before exiting",
    )

    req = sub.add_parser("request", help="submit one graph to a service")
    req.add_argument("graph", help="graph JSON path")
    req.add_argument("-p", "--pes", type=int, required=True)
    req.add_argument("--objective", choices=["makespan", "throughput", "buffer"],
                     default="makespan")
    req.add_argument(
        "--schedulers", default=None,
        help="comma-separated portfolio, e.g. rlx,lts,nstr (default: server's)",
    )
    req.add_argument("--budget-ms", type=float, default=None)
    req.add_argument("--no-cache", action="store_true")
    req.add_argument("--host", default="127.0.0.1")
    req.add_argument("--port", type=int, default=DEFAULT_PORT)
    req.add_argument("-o", "--output", help="write the schedule JSON here")
    req.add_argument(
        "--simulate", action="store_true",
        help="request a DES validation of the schedule instead of the "
             "schedule itself (uses the first --schedulers entry)",
    )
    req.add_argument(
        "--policy", choices=["barrier", "pe", "dataflow"], default="barrier",
        help="block multiplexing policy (with --simulate)",
    )
    req.add_argument(
        "--pacing", choices=["steady", "greedy"], default="steady",
        help="task pacing (with --simulate)",
    )
    req.add_argument(
        "--capacity", type=int, default=None,
        help="override every FIFO capacity (with --simulate)",
    )

    lg = sub.add_parser("loadgen", help="drive a running service with traffic")
    lg.add_argument("--requests", type=int, default=500)
    lg.add_argument("-w", "--workers", type=int, default=4, help="client threads")
    lg.add_argument("--pool", type=int, default=16, help="distinct requests")
    lg.add_argument("--zipf", type=float, default=1.1, help="skew exponent")
    lg.add_argument("--scenario", default="fig10", help="request pool source")
    lg.add_argument("--objective", choices=["makespan", "throughput", "buffer"],
                    default="makespan")
    lg.add_argument("--schedulers", default=None, help="comma-separated portfolio")
    lg.add_argument(
        "--simulate", action="store_true",
        help="send simulate requests (DES validation) instead of schedule "
             "requests; the first --schedulers entry is the simulated one",
    )
    lg.add_argument("--num-pes", type=int, default=None, help="override PE counts")
    lg.add_argument("--no-cache", action="store_true",
                    help="send no_cache requests (forced recomputes)")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=DEFAULT_PORT)
    lg.add_argument("--csv", help="write per-request latencies as CSV here")
    lg.add_argument("--json", dest="json_out", help="write the report JSON here")
    lg.add_argument(
        "--max-error-rate", type=float, default=0.0,
        help="tolerated error ratio (errors / attempted requests) before "
             "the exit code turns non-zero (default 0: any error fails); "
             "inconsistent answers (incorrect > 0) always fail",
    )
    lg.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline: the server refuses work it cannot "
             "finish in time with a retryable error",
    )
    lg.add_argument(
        "--retries", type=int, default=0,
        help="retry retryable failures (shed/deadline/draining/transport) "
             "this many times with jittered exponential backoff",
    )

    def _observer(name: str, help_text: str) -> argparse.ArgumentParser:
        ob = sub.add_parser(name, help=help_text)
        ob.add_argument(
            "target", nargs="?", default=f"127.0.0.1:{DEFAULT_PORT}",
            help="service address as host:port (or just a port)",
        )
        return ob

    rld = _observer(
        "reload", "rolling-restart a sharded service's shard processes"
    )
    rld.add_argument(
        "--timeout", type=float, default=120.0,
        help="give up waiting for the rolling restart to complete after "
             "this many seconds",
    )
    rld.add_argument(
        "--no-wait", action="store_true",
        help="kick the reload off and return without waiting",
    )

    hlt = _observer("health", "fetch a service's health summary")
    hlt.add_argument(
        "--wait-ok", action="store_true",
        help="poll until the service reports status ok (exit 1 on timeout)",
    )
    hlt.add_argument(
        "--timeout", type=float, default=30.0,
        help="give up on --wait-ok after this many seconds",
    )
    hlt.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the raw health response JSON",
    )

    met = _observer("metrics", "fetch a service's Prometheus metrics")
    met.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the structured snapshot instead of the text exposition",
    )

    trc = _observer("trace", "fetch a service's recent request spans")
    trc.add_argument("-n", type=int, default=20, help="spans to fetch")
    trc.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print raw span JSON lines instead of the table",
    )

    top = _observer("top", "live terminal dashboard over a service")
    top.add_argument(
        "--interval", type=float, default=1.0, help="refresh period (s)"
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after this many frames (default: run until ^C)",
    )

    brep = sub.add_parser(
        "bench-report", help="bench-history trends and regression verdicts"
    )
    brep.add_argument(
        "--history", default="BENCH_history.jsonl",
        help="bench-history JSONL path",
    )
    brep.add_argument(
        "--bench", default=None, help="restrict to one bench name"
    )
    brep.add_argument(
        "--last", type=int, default=10, help="rows in the trend table"
    )
    brep.add_argument(
        "--window", type=int, default=5,
        help="prior records forming the regression median",
    )
    brep.add_argument(
        "--gate", type=float, default=1.10,
        help="worst acceptable newest-vs-median ratio (>1 means worse)",
    )
    brep.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any metric regresses past the gate",
    )
    brep.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the verdicts as JSON instead of tables",
    )
    return p


def _parse_target(target: str) -> tuple[str, int]:
    """``host:port``, bare ``host``, or bare ``port`` → (host, port)."""
    from .service.server import DEFAULT_PORT

    host, _, port = target.rpartition(":")
    if not host:  # no colon: a bare port number or a bare host
        if port.isdigit():
            return "127.0.0.1", int(port)
        return port, DEFAULT_PORT
    return host, int(port)


def _cmd_generate(args) -> int:
    g = random_canonical_graph(args.topology, args.size, seed=args.seed)
    save_graph(g, args.output)
    print(f"wrote {args.output}: {len(g)} nodes, {g.num_tasks()} tasks")
    return 0


def _cmd_info(args) -> int:
    g = load_graph(args.graph)
    kinds = {}
    for v in g.nodes:
        kinds[g.kind(v).value] = kinds.get(g.kind(v).value, 0) + 1
    print(f"nodes: {len(g)}  edges: {g.number_of_edges()}  tasks: {g.num_tasks()}")
    print(f"kinds: {kinds}")
    print(f"T1 (sequential): {total_work(g):,} cycles")
    print(f"critical path (buffered): {critical_path_length(g):,} cycles")
    print(f"streaming depth: {streaming_depth(g):,} cycles")
    return 0


def _cmd_schedule(args) -> int:
    g = load_graph(args.graph)
    if args.scheduler == "nstr":
        s = schedule_nonstreaming(g, args.pes)
        print(f"NSTR-SCH on {args.pes} PEs: makespan {s.makespan:,}, "
              f"speedup {speedup(g, s.makespan):.2f}x")
    else:
        s = schedule_streaming(g, args.pes, args.scheduler)
        print(
            f"STR-SCH ({args.scheduler}) on {args.pes} PEs: makespan "
            f"{s.makespan:,}, speedup {speedup(g, s.makespan):.2f}x, "
            f"{s.num_blocks} blocks, {len(s.buffer_sizes)} streaming FIFOs"
        )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(schedule_to_dict(s), fh, indent=1)
        print(f"schedule written to {args.output}")
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(schedule_to_chrome_trace(s), fh)
        print(f"trace written to {args.trace} (open in chrome://tracing)")
    if args.gantt:
        print(render_gantt(s))
    return 0


def _cmd_simulate(args) -> int:
    from .sim import simulate_schedule, simulation_to_chrome_trace
    from .sim import simulation_to_dict

    g = load_graph(args.graph)
    s = schedule_streaming(g, args.pes, args.scheduler)
    sim = simulate_schedule(
        s, capacity_override=args.capacity, pacing=args.pacing,
        policy=args.policy,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(simulation_to_dict(s, sim), fh, indent=1)
        print(f"simulated timeline written to {args.output}")
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(simulation_to_chrome_trace(s, sim), fh)
        print(f"trace written to {args.trace} (open in chrome://tracing)")
    if sim.deadlocked:
        print(f"DEADLOCK at t={sim.makespan}; blocked: {', '.join(sim.blocked[:5])}")
        full = [
            f"{name} ({occ}/{cap})"
            for name, (occ, cap) in sorted(sim.full_channels().items())
        ]
        if full:
            print(f"FIFOs at capacity: {', '.join(full[:8])}")
        return 1
    err = 100 * sim.relative_error(s.makespan)
    print(
        f"simulated makespan {sim.makespan:,} vs analytic {s.makespan:,} "
        f"(error {err:+.2f}%)"
    )
    return 0


def _cmd_profile(args) -> int:
    """cProfile the end-to-end pipeline so perf work starts from data.

    Runs the first ``--cells`` cells of a registered scenario (graph
    generation + scheduling + scenario-specific analysis) under
    :mod:`cProfile` and prints the hottest functions as a table.
    """
    import cProfile
    import pstats

    from .campaign import evaluate_cell, get_scenario
    from .campaign.spec import CellSpec
    from .core.tabulate import format_table

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    cells = scenario.cells(limit=args.cells)
    if args.pes is not None:
        cells = [
            CellSpec.from_dict({**c.to_dict(), "num_pes": args.pes})
            for c in cells
        ]

    profiler = cProfile.Profile()
    profiler.enable()
    for cell in cells:
        evaluate_cell(cell)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    total_calls = stats.total_calls  # populated by Stats.__init__
    rows = []
    records = []
    for func in stats.fcn_list[: args.limit]:
        cc, nc, tt, ct, _ = stats.stats[func]
        path, line, name = func
        where = f"{path.rsplit('/', 1)[-1]}:{line}" if line else path
        rows.append([
            nc if nc == cc else f"{nc}/{cc}",
            f"{tt:.4f}",
            f"{ct:.4f}",
            f"{name} ({where})",
        ])
        records.append({
            "function": name,
            "where": where,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    from .core.backend import backend_info

    info = backend_info()
    fallbacks = info["kernel_fallbacks"]
    print(
        f"profile of {len(cells)} {scenario.name!r} cells "
        f"({total_calls} calls, sorted by {args.sort}, "
        f"backend {info['backend']}):"
    )
    print(format_table(["ncalls", "tottime", "cumtime", "function"], rows))
    print(
        f"backend: {info['backend']} (numpy {info['numpy'] or 'absent'}); "
        f"kernel fallbacks: "
        + (", ".join(f"{k}={v}" for k, v in sorted(fallbacks.items()))
           or "none")
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({
                "scenario": scenario.name,
                "cells": len(cells),
                "pes": args.pes,
                "sort": args.sort,
                "total_calls": total_calls,
                "backend": info,
                "functions": records,
            }, fh, indent=1)
        print(f"profile JSON written to {args.json_out}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import ablations, fig10_speedup, fig11_sslr
    from .experiments import fig12_csdf, fig13_validation, table2_ml

    mains = {
        "fig10": lambda: fig10_speedup.main(args.num_graphs),
        "fig11": lambda: fig11_sslr.main(args.num_graphs),
        "fig12": lambda: fig12_csdf.main(args.num_graphs),
        "fig13": lambda: fig13_validation.main(args.num_graphs),
        "table2": lambda: table2_ml.main(args.full),
        "ablations": lambda: ablations.main(args.num_graphs),
    }
    mains[args.name]()
    return 0


def _cmd_campaign(args) -> int:
    from .campaign import (
        ResultStore,
        default_store_dir,
        export_csv,
        export_json,
        get_scenario,
        list_scenarios,
        render_report,
        run_campaign,
    )

    def _export(scenario, results) -> None:
        if args.csv:
            export_csv(results, args.csv)
            print(f"per-cell CSV written to {args.csv}")
        if args.json_out:
            export_json(scenario, results, args.json_out)
            print(f"JSON report written to {args.json_out}")

    if args.campaign_command == "list":
        print("registered scenarios:")
        for scn in list_scenarios():
            cells = len(scn.cells())
            print(f"  {scn.name:<20} {cells:>6} cells  {scn.description}")
        return 0

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    if args.campaign_command == "run":
        run = run_campaign(
            scenario,
            workers=args.workers,
            num_graphs=args.num_graphs,
            limit=args.limit,
            store_dir=args.store,
            use_store=not args.no_store,
            force=args.force,
            profile_hz=args.profile_hz,
        )
        print(f"campaign {scenario.name}: {run.report.summary()}")
        if run.store_path is not None:
            print(f"store: {run.store_path}")
        print(render_report(scenario, run.results))
        profile = run.report.profile
        if profile:
            print(
                f"profiler ({profile['hz']:g} Hz): {profile['samples']} "
                f"samples over {profile['elapsed_s']:.2f}s"
            )
            for entry in profile.get("top_functions", []):
                print(f"  {100.0 * entry['share']:5.1f}%  {entry['function']}")
        _export(scenario, run.results)
        return 0

    # report: aggregate whatever the store holds, without recomputing
    store = ResultStore(args.store or default_store_dir(), scenario.name)
    results = store.results()
    if not results:
        print(
            f"no stored results for {scenario.name!r} in {store.directory}/ — "
            f"run `repro campaign run {scenario.name}` first",
            file=sys.stderr,
        )
        return 1
    if getattr(args, "format", "table") == "csv":
        from .campaign import export_csv

        export_csv(results, sys.stdout)
    else:
        print(
            f"campaign {scenario.name}: {len(results)} stored cells in {store.path}"
        )
        print(render_report(scenario, results))
    _export(scenario, results)
    return 0


def _resolve_store(args) -> str | None:
    """The persistent-store path for ``serve`` (None = memory-only)."""
    if args.no_cache or args.store == "-":
        return None
    if args.store:
        return args.store
    import os

    return (
        os.environ.get("REPRO_SERVICE_DIR", ".repro-service")
        + "/schedules.jsonl"
    )


def _print_serve_flags(args, plan) -> None:
    """The serve start-up lines for the observability and fault flags
    (each shard of ``--shards`` writes in its own ``shard-<i>/``)."""
    shard_dirs = "shard-<i>/" if args.shards > 1 else ""
    if args.no_telemetry:
        print("telemetry disabled: no request spans or latency histograms")
    elif args.trace_dir:
        print(f"request spans: rotating JSONL under {args.trace_dir}/"
              f"{shard_dirs}")
    if args.profile_hz > 0:
        print(f"sampling profiler: {args.profile_hz:g} Hz (profile op live)")
    if args.flight_dir:
        print(f"flight dumps: JSONL under {args.flight_dir}/{shard_dirs}")
    if args.slow_ms is not None:
        print(f"slow-request threshold: {args.slow_ms:g} ms")
    if plan is not None:
        print(
            f"fault injection: {len(plan.rules)} rules from "
            f"{args.fault_plan} (seed {plan.seed})"
        )


def _serve_sharded(args, config) -> int:
    """``repro serve --shards N``: router + N supervised shard processes."""
    import signal

    from .service import ShardRouter

    router = ShardRouter(
        shards=args.shards,
        host=args.host,
        port=args.port,
        config=config,
        allow_remote_shutdown=args.allow_remote_shutdown,
    )
    router.start()
    try:
        # SIGTERM drains the whole tier; SIGHUP rolling-restarts it
        signal.signal(signal.SIGTERM, lambda *_: router.drain())
        signal.signal(signal.SIGHUP, lambda *_: router.reload())
    except (ValueError, OSError):
        pass  # not the main thread (embedded use): no handler
    router.wait_ready(30.0)
    print(
        f"routing on {router.host}:{router.port} "
        f"({args.shards} shards x {args.workers} workers; "
        f"send {{\"op\": \"reload\"}} or SIGHUP for a rolling restart)",
        flush=True,
    )
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        router.stop()
    print("router stopped")
    return 0


def _cmd_serve(args) -> int:
    from .obs import get_registry
    from .service import ServeConfig
    from .service.faults import FaultPlan
    from .service.shard import build_service, run_service

    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2
    plan = None
    if args.fault_plan:
        try:
            plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"bad fault plan {args.fault_plan}: {exc}", file=sys.stderr)
            return 2
    config = ServeConfig(
        store=_resolve_store(args),
        no_cache=args.no_cache,
        cache_size=args.cache_size,
        workers=args.workers,
        telemetry=not args.no_telemetry,
        trace_dir=args.trace_dir,
        profile_hz=args.profile_hz,
        flight_dir=args.flight_dir,
        slow_ms=args.slow_ms,
        fault_plan=plan.to_dict() if plan is not None else None,
        drain_grace=args.drain_grace,
    )
    if args.shards > 1:
        if config.store:
            print(f"schedule cache: {config.store}, shared across "
                  f"{args.shards} shards")
        elif not args.no_cache:
            print("schedule cache: memory-only (per shard)")
        _print_serve_flags(args, plan)
        return _serve_sharded(args, config)
    # the served process binds its instruments into the process-wide
    # registry, so anything else living in this process (an embedded
    # campaign run, custom gauges) shares the one metrics exposition
    service = build_service(config, registry=get_registry())
    if service.cache is not None:
        tier = config.store or "memory-only"
        print(f"schedule cache: {tier} ({len(service.cache)} stored entries)")
    _print_serve_flags(args, plan)

    def ready(server) -> None:
        print(
            f"serving on {server.host}:{server.port} "
            f"({args.workers} workers; send {{\"op\": \"shutdown\"}} to stop)",
            flush=True,
        )

    run_service(service, config, ready, host=args.host, port=args.port,
                allow_remote_shutdown=args.allow_remote_shutdown)
    print("server stopped")
    return 0


def _parse_schedulers(raw: str | None) -> list[str] | None:
    if not raw:
        return None
    return [s.strip() for s in raw.split(",") if s.strip()]


def _cmd_request(args) -> int:
    from .service import ServiceClient, ServiceError

    with open(args.graph) as fh:
        graph_doc = json.load(fh)
    schedulers = _parse_schedulers(args.schedulers)
    try:
        with ServiceClient(args.host, args.port) as client:
            if args.simulate:
                response = client.simulate(
                    graph_doc,
                    num_pes=args.pes,
                    scheduler=schedulers[0] if schedulers else "lts",
                    policy=args.policy,
                    pacing=args.pacing,
                    capacity=args.capacity,
                    no_cache=args.no_cache,
                )
            else:
                response = client.schedule(
                    graph_doc,
                    num_pes=args.pes,
                    objective=args.objective,
                    schedulers=schedulers,
                    budget_ms=args.budget_ms,
                    no_cache=args.no_cache,
                )
    except OSError as exc:
        print(f"cannot reach service at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    tier = response["cached"] or "computed"
    if args.simulate:
        return _print_simulate_response(args, response, tier)
    print(
        f"{response['winner']} wins {response['objective']} on {args.pes} PEs: "
        f"makespan {response['makespan']:,}, value {response['value']:.4f} "
        f"({tier}, {response['elapsed_ms']:.1f} ms, "
        f"fingerprint {response['fingerprint'][:16]}…)"
    )
    for cand in response["candidates"]:
        print(
            f"  {cand['name']:<5} makespan {cand['makespan']:>12,}  "
            f"fifo {cand['fifo_total']:>8,}  {cand['elapsed_ms']:8.1f} ms"
        )
    if response.get("truncated"):
        print("  (race truncated by budget; result not cached)")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(response["schedule"], fh, indent=1)
        print(f"schedule written to {args.output}")
    return 0


def _print_simulate_response(args, response: dict, tier: str) -> int:
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(response, fh, indent=1)
        print(f"simulation response written to {args.output}")
    head = (
        f"{response['scheduler']} on {response['num_pes']} PEs "
        f"[{response['policy']}/{response['pacing']}]"
    )
    if response["deadlocked"]:
        print(
            f"{head}: DEADLOCK at t={response['sim_makespan']:,} "
            f"({tier}, {response['elapsed_ms']:.1f} ms, "
            f"fingerprint {response['fingerprint'][:16]}…)"
        )
        for ch in response.get("full_channels", [])[:8]:
            print(
                f"  full FIFO {ch['channel']}: "
                f"{ch['occupancy']}/{ch['capacity']}"
            )
        return 1
    print(
        f"{head}: simulated makespan {response['sim_makespan']:,} vs "
        f"analytic {response['makespan']:,} "
        f"(error {response['error_pct']:+.2f}%, {tier}, "
        f"{response['elapsed_ms']:.1f} ms, "
        f"fingerprint {response['fingerprint'][:16]}…)"
    )
    return 0


def _cmd_loadgen(args) -> int:
    from .service import run_loadgen

    try:
        report = run_loadgen(
            host=args.host,
            port=args.port,
            requests=args.requests,
            workers=args.workers,
            pool=args.pool,
            zipf=args.zipf,
            scenario=args.scenario,
            objective=args.objective,
            schedulers=_parse_schedulers(args.schedulers),
            num_pes=args.num_pes,
            no_cache=args.no_cache,
            seed=args.seed,
            op="simulate" if args.simulate else "schedule",
            deadline_ms=args.deadline_ms,
            retries=args.retries,
        )
    except OSError as exc:
        print(
            f"cannot reach service at {args.host}:{args.port}: {exc} "
            f"(start one with `repro serve`)",
            file=sys.stderr,
        )
        return 1
    print(report.table())
    tiers = ", ".join(f"{k}={v}" for k, v in sorted(report.tiers.items()))
    print(f"cache tiers: {tiers or 'n/a'}")
    if args.csv:
        report.write_csv(args.csv)
        print(f"per-request latencies written to {args.csv}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1)
        print(f"report written to {args.json_out}")
    failed = False
    if report.incorrect:
        print(
            f"{report.incorrect} responses contradicted earlier answers "
            f"for the same request — correctness gate failed",
            file=sys.stderr,
        )
        failed = True
    if report.error_rate > args.max_error_rate:
        print(
            f"error rate {100 * report.error_rate:.2f}% exceeds the "
            f"--max-error-rate {100 * args.max_error_rate:.2f}% gate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_reload(args) -> int:
    import time as _time

    from .service import ServiceClient

    host, port = _parse_target(args.target)
    try:
        with ServiceClient(host, port, timeout=10.0) as client:
            response = client.request_raw(
                json.dumps({"op": "reload"}).encode() + b"\n"
            )
    except OSError as exc:
        print(f"cannot reach service at {host}:{port}: {exc}", file=sys.stderr)
        return 1
    if not response.get("ok"):
        print(f"reload failed: {response.get('error')}", file=sys.stderr)
        return 1
    shards = response.get("shards", "?")
    print(f"rolling restart started ({shards} shards)")
    if args.no_wait:
        return 0
    deadline = _time.monotonic() + args.timeout
    while _time.monotonic() < deadline:
        _time.sleep(0.25)
        try:
            with ServiceClient(host, port, timeout=10.0) as client:
                stats = client.stats()
        except OSError:
            continue  # router busy / transient; keep polling
        counters = stats.get("router_counters") or {}
        if not counters.get("reloading"):
            status = stats.get("health", "?")
            print(
                f"rolling restart complete "
                f"(reloads={counters.get('reloads')}, health={status})"
            )
            return 0 if status == "ok" else 1
    print("timed out waiting for the rolling restart", file=sys.stderr)
    return 1


def _cmd_health(args) -> int:
    import time as _time

    from .service import ServiceClient

    host, port = _parse_target(args.target)
    deadline = _time.monotonic() + args.timeout
    while True:
        response = None
        try:
            with ServiceClient(host, port, timeout=5.0) as client:
                response = client.health()
        except (OSError, RuntimeError) as exc:
            error = str(exc) or type(exc).__name__
        if response is not None:
            status = response.get("status", "?")
            if not args.wait_ok or status == "ok":
                if args.json_out:
                    json.dump(response, sys.stdout, indent=1, sort_keys=True)
                    print()
                else:
                    tripped = response.get("tripped") or []
                    extra = f" (tripped: {', '.join(tripped)})" if tripped else ""
                    print(f"{host}:{port} {status}{extra}")
                return 0 if status == "ok" else 1
            error = f"status {status}"
        if not args.wait_ok or _time.monotonic() >= deadline:
            print(
                f"service at {host}:{port} not healthy: {error}",
                file=sys.stderr,
            )
            return 1
        _time.sleep(0.2)


def _cmd_metrics(args) -> int:
    from .service import ServiceClient

    host, port = _parse_target(args.target)
    try:
        with ServiceClient(host, port) as client:
            response = client.metrics()
    except OSError as exc:
        print(f"cannot reach service at {host}:{port}: {exc}", file=sys.stderr)
        return 1
    if args.json_out:
        json.dump(response.get("snapshot") or {}, sys.stdout, indent=1)
        print()
    else:
        sys.stdout.write(response.get("text") or "")
    return 0


def _cmd_trace(args) -> int:
    from .core.tabulate import format_table
    from .service import ServiceClient

    host, port = _parse_target(args.target)
    try:
        with ServiceClient(host, port) as client:
            response = client.trace(n=args.n)
    except OSError as exc:
        print(f"cannot reach service at {host}:{port}: {exc}", file=sys.stderr)
        return 1
    spans = response.get("spans") or []
    if args.json_out:
        for span in spans:
            print(json.dumps(span, sort_keys=True))
        return 0
    print(
        f"{len(spans)} spans shown of {response.get('recorded', 0)} recorded "
        f"(ring capacity {response.get('capacity', 0)})"
    )
    rows = []
    for span in spans:
        meta = span.get("meta") or {}
        rows.append([
            span.get("trace_id", ""),
            span.get("op", ""),
            meta.get("outcome", "?"),
            meta.get("tier") or "-",
            f"{span.get('wall_ms') or 0.0:10.2f}",
        ])
    if rows:
        print(format_table(["trace_id", "op", "outcome", "tier", "ms"], rows))
    return 0


def _cmd_top(args) -> int:
    from .service import run_top

    host, port = _parse_target(args.target)
    return run_top(
        host, port, interval=args.interval, iterations=args.iterations
    )


def _cmd_bench_report(args) -> int:
    from .obs.benchhist import (
        load_history,
        regression_verdict,
        render_history,
    )

    records = load_history(args.history, bench=args.bench)
    if not records:
        where = f" for bench {args.bench!r}" if args.bench else ""
        print(f"no history records in {args.history}{where}", file=sys.stderr)
        return 1
    benches = sorted({r["bench"] for r in records})
    verdicts = {}
    regressed = False
    for bench in benches:
        bench_records = [r for r in records if r["bench"] == bench]
        verdict = regression_verdict(
            bench_records, last_k=args.window, gate=args.gate
        )
        verdicts[bench] = verdict
        regressed = regressed or verdict["status"] == "regression"
        if args.json_out:
            continue
        print(f"bench {bench}: {len(bench_records)} records")
        print(render_history(bench_records, last=args.last))
        if verdict["status"] == "insufficient-history":
            print("verdict: insufficient history (need 2+ records)")
        else:
            for name, m in sorted(verdict["metrics"].items()):
                if m.get("ratio") is None:
                    print(f"  {name}: {m['value']:g} (no prior runs)")
                    continue
                flag = "REGRESSED" if m["regressed"] else "ok"
                print(
                    f"  {name}: {m['value']:g} vs median {m['median_prior']:g} "
                    f"over {m['n_prior']} prior ({m['direction']} is better, "
                    f"ratio {m['ratio']:.3f}) — {flag}"
                )
            print(f"verdict: {verdict['status']} (gate {args.gate:g})")
        print()
    if args.json_out:
        json.dump(verdicts, sys.stdout, indent=1, sort_keys=True)
        print()
    if regressed and args.check:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "schedule": _cmd_schedule,
        "simulate": _cmd_simulate,
        "profile": _cmd_profile,
        "experiment": _cmd_experiment,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "loadgen": _cmd_loadgen,
        "health": _cmd_health,
        "reload": _cmd_reload,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "bench-report": _cmd_bench_report,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly (and keep
        # the interpreter from re-raising at stdout shutdown)
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
