"""Traced entry point: ``python3 perfbench/shim.py SPANS_OUT <repro args>``.

Starts the same ``repro`` command line as ``python3 -m repro`` after
wrapping the public functions of each layer in a timing span, so the
traced server runs the code under test unchanged apart from the
wrappers.  Spans stay in memory (one tuple each) and are written to
``SPANS_OUT`` as JSON when the server exits; ``run.py`` turns them into
the per-layer table and a chrome trace.

A span records its name, thread, start, end and the span that was open
on the same thread when it began (its parent).  Requests that reach the
slow path run on their own worker thread, so every span of one request
hangs off its root: ``server.request`` (``serve_line_slow``) or
``server.fastpath`` (``serve_line_fast`` answering from the memos).
Roots carry the CRC-32 of the request line so the load generator can
join them to its own timings.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
import types
import zlib

_local = threading.local()
_ids = itertools.count()
_spans: dict[int, tuple] = {}
_clock = time.perf_counter


def _span(name: str, fn, note=None):
    """``fn`` wrapped in a span; ``note(args, result)`` adds one field."""

    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        sid = next(_ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        result = None
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = _clock()
            stack.pop()
            extra = note(args, result) if note is not None else None
            _spans[sid] = (name, threading.get_ident(), t0, t1, parent, extra)

    return wrapper


def _line_crc(args, result):
    return zlib.crc32(args[1])


def _fast_note(args, result):
    # a fast-path probe that found nothing carries no CRC, so it never
    # counts as a request root (the slow path answers that line)
    return zlib.crc32(args[1]) if result is not None else None


def install() -> None:
    """Wrap each layer's entry points where the serving path looks
    them up (module globals bound by ``from x import y`` are patched in
    the importing module)."""
    from repro import core, sim
    from repro.core import buffer_sizing, scheduler
    from repro.core import serialize as core_serialize
    from repro.service import cache, fingerprint, portfolio, server

    svc = server.ScheduleService
    svc.serve_line_fast = _span(
        "server.fastpath", svc.serve_line_fast, _fast_note)
    svc.serve_line_slow = _span("server.request", svc.serve_line_slow, _line_crc)
    svc.handle = _span("server.handle", svc.handle)
    svc._encode_response = _span("server.encode", svc._encode_response)
    # the request decode is the json.loads call inside serve_line_slow
    server.json = types.SimpleNamespace(
        loads=_span("server.decode", json.loads),
        dumps=json.dumps,
    )

    server.doc_digest = _span("digest", server.doc_digest)
    server.fingerprint_graph_doc = _span(
        "fingerprint", server.fingerprint_graph_doc)
    server.ingest_graph_doc = _span("ingest", server.ingest_graph_doc)
    fingerprint.ingest_graph_doc = _span("ingest", fingerprint.ingest_graph_doc)

    cache.ScheduleCache.get = _span("cache.get", cache.ScheduleCache.get)
    cache.ScheduleCache.put = _span("cache.put", cache.ScheduleCache.put)

    server.find_isomorphism = _span(
        "remap", server.find_isomorphism,
        lambda args, result: result is not None,
    )
    server._remap_entry = _span("remap.apply", server._remap_entry)

    server.run_portfolio = _span("portfolio", server.run_portfolio)
    for name in ("rlx", "lts", "nstr"):
        portfolio.register_scheduler(
            name, _span(f"cand.{name}", portfolio._SCHEDULERS[name]),
            overwrite=True,
        )

    scheduler.compute_spatial_blocks = _span(
        "core.partition", scheduler.compute_spatial_blocks)
    scheduler._schedule_block_indexed = _span(
        "core.sweep", scheduler._schedule_block_indexed)
    sizing = _span("core.buffer_sizing", buffer_sizing.compute_buffer_sizes)
    scheduler.compute_buffer_sizes = sizing
    buffer_sizing.compute_buffer_sizes = sizing
    try:
        from repro.core import kernels
    except ImportError:  # no numpy: the python path above is the only one
        pass
    else:
        kernels.schedule_sweep_numpy = _span(
            "core.sweep", kernels.schedule_sweep_numpy)
        kernels.buffer_sizes_numpy = _span(
            "core.buffer_sizing", kernels.buffer_sizes_numpy)

    portfolio.schedule_to_dict = _span("serialize", portfolio.schedule_to_dict)
    core_serialize.schedule_doc_bytes = _span(
        "serialize", core_serialize.schedule_doc_bytes)

    # the simulate op imports both lazily from the package namespaces
    sim.simulate_schedule = _span("sim", sim.simulate_schedule)
    core.schedule_streaming = _span("sim.schedule", core.schedule_streaming)


def dump(path: str) -> None:
    spans = [
        [sid, *rec] for sid, rec in sorted(_spans.items())
    ]
    with open(path, "w") as fh:
        json.dump({"spans": spans}, fh)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        dump(out)


if __name__ == "__main__":
    sys.exit(main())
