"""Structural checks of served answers, independent of the service code.

Every check works from the graph the benchmark generated itself
(:class:`graphs.Graph`) and the answer's JSON document; nothing from the
package under test is imported.  A check returns ``None`` when the
answer is valid and a one-line reason otherwise.

Streaming schedules (the paper's spatial-block schedules): every task
appears once, ``0 <= pe < num_pes``, PEs are distinct inside a block,
blocks run in order (no task of block ``b`` starts before every task of
block ``b - 1`` has finished), an edge inside a block streams (the
consumer's first output comes strictly after the producer's), an edge
between blocks is buffered (the consumer starts no earlier than the
producer's last output), every FIFO sits on a streaming edge with a
positive capacity, and the makespan is the latest finish.

List schedules (the non-streaming baseline): every task appears once on
a valid PE, no two tasks overlap on one PE, every consumer starts after
its producers finish, and the makespan is the latest finish.
"""

from __future__ import annotations


def _name(obj):
    """Wire names: tuples travel as ``{"__tuple__": [...]}``."""
    if isinstance(obj, dict) and "__tuple__" in obj:
        return tuple(_name(x) for x in obj["__tuple__"])
    return obj


def check_schedule(sched: dict, graph, num_pes: int) -> str | None:
    if not isinstance(sched, dict):
        return "no schedule document"
    if sched.get("num_pes") != num_pes:
        return f"num_pes {sched.get('num_pes')} != {num_pes}"
    fmt = sched.get("format")
    tasks = sched.get("tasks")
    if not isinstance(tasks, list):
        return "schedule has no task list"
    by_name = {}
    for t in tasks:
        name = _name(t.get("name"))
        if name in by_name:
            return f"task {name!r} scheduled twice"
        by_name[name] = t
    if len(by_name) != graph.n or any(v not in by_name for v in graph.names):
        return f"{len(by_name)} tasks scheduled, graph has {graph.n}"
    for t in tasks:
        pe = t.get("pe")
        if not isinstance(pe, int) or not 0 <= pe < num_pes:
            return f"task {t.get('name')!r} on PE {pe!r}"
    if fmt == "streaming-schedule":
        return _check_streaming(sched, by_name, graph)
    if fmt == "list-schedule":
        return _check_list(sched, by_name, graph)
    return f"unknown schedule format {fmt!r}"


def _check_streaming(sched: dict, by_name: dict, graph) -> str | None:
    num_blocks = sched.get("num_blocks")
    if not isinstance(num_blocks, int) or num_blocks < 1:
        return f"bad num_blocks {num_blocks!r}"
    pes_used = [set() for _ in range(num_blocks)]
    first_start = [None] * num_blocks
    last_finish = [None] * num_blocks
    for name, t in by_name.items():
        b = t.get("block")
        if not isinstance(b, int) or not 0 <= b < num_blocks:
            return f"task {name!r} in block {b!r}"
        if t["pe"] in pes_used[b]:
            return f"PE {t['pe']} used twice in block {b}"
        pes_used[b].add(t["pe"])
        if not t["st"] < t["fo"] <= t["lo"]:
            return f"task {name!r}: times st={t['st']} fo={t['fo']} lo={t['lo']}"
        if first_start[b] is None or t["st"] < first_start[b]:
            first_start[b] = t["st"]
        if last_finish[b] is None or t["lo"] > last_finish[b]:
            last_finish[b] = t["lo"]
    if any(s is None for s in first_start):
        return "empty block"
    for b in range(1, num_blocks):
        if first_start[b] < last_finish[b - 1]:
            return f"block {b} starts at {first_start[b]} before block {b - 1} ends"
    streaming = set()
    for u, v in graph.edges:
        tu, tv = by_name[u], by_name[v]
        if tu["block"] == tv["block"]:
            streaming.add((u, v))
            if tv["fo"] <= tu["fo"]:
                return f"streaming edge ({u!r}, {v!r}): FO not increasing"
        elif tv["st"] < tu["lo"]:
            return f"buffered edge ({u!r}, {v!r}): consumer starts early"
    for fifo in sched.get("fifo_sizes", ()):
        edge = (_name(fifo.get("src")), _name(fifo.get("dst")))
        if edge not in streaming:
            return f"FIFO on non-streaming edge {edge!r}"
        cap = fifo.get("capacity")
        if not isinstance(cap, int) or cap < 1:
            return f"FIFO {edge!r} capacity {cap!r}"
    if sched.get("makespan") != max(last_finish):
        return f"makespan {sched.get('makespan')} != latest finish {max(last_finish)}"
    return None


def _check_list(sched: dict, by_name: dict, graph) -> str | None:
    per_pe: dict[int, list] = {}
    for name, t in by_name.items():
        if not 0 <= t["start"] <= t["finish"]:
            return f"task {name!r}: start {t['start']} finish {t['finish']}"
        per_pe.setdefault(t["pe"], []).append((t["start"], t["finish"]))
    for pe, spans in per_pe.items():
        spans.sort()
        for (_, f0), (s1, _) in zip(spans, spans[1:]):
            if s1 < f0:
                return f"tasks overlap on PE {pe}"
    for u, v in graph.edges:
        if by_name[v]["start"] < by_name[u]["finish"]:
            return f"edge ({u!r}, {v!r}): consumer starts before producer ends"
    latest = max(t["finish"] for t in by_name.values())
    if sched.get("makespan") != latest:
        return f"makespan {sched.get('makespan')} != latest finish {latest}"
    return None


def check_schedule_answer(resp: dict, graph, num_pes: int) -> str | None:
    """A ``schedule`` response: ok, a valid schedule, and the headline
    fields agreeing with the document."""
    if not resp.get("ok"):
        return f"not ok: {str(resp.get('error'))[:120]}"
    sched = resp.get("schedule")
    problem = check_schedule(sched, graph, num_pes)
    if problem:
        return problem
    if resp.get("makespan") != sched.get("makespan"):
        return "response makespan disagrees with its schedule"
    names = [c.get("name") for c in resp.get("candidates", ())]
    if resp.get("winner") not in names:
        return f"winner {resp.get('winner')!r} not among candidates"
    return None


def check_simulate_answer(resp: dict) -> str | None:
    """A ``simulate`` response: ok, no deadlock, a positive makespan."""
    if not resp.get("ok"):
        return f"not ok: {str(resp.get('error'))[:120]}"
    if resp.get("deadlocked") or resp.get("blocked"):
        return "simulation deadlocked"
    sim = resp.get("sim_makespan")
    if not isinstance(sim, (int, float)) or sim <= 0:
        return f"bad sim_makespan {sim!r}"
    if not isinstance(resp.get("makespan"), (int, float)):
        return "no analytic makespan"
    return None
