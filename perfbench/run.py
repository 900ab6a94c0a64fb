"""Served-request benchmark for ``repro serve``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Boots the real ``repro serve`` entry point as a child process (default
flags, ``--port 0``, a fresh store under ``perfbench/_work/``), drives
one seeded workload against it from this process, checks every answer
with the benchmark's own validator and prints one JSON object as the
last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` replays the same inputs against an untraced and
then a traced server (``shim.py``) and reports the per-layer metrics.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))

from graphs import Graph, make_graph, renamed  # noqa: E402
from ledger import Ledger, chrome_trace, median, self_time_table  # noqa: E402
from validate import check_schedule_answer, check_simulate_answer  # noqa: E402

#: a single request may take this long before the run is abandoned
REQUEST_TIMEOUT_S = 60.0
#: setup_s is the median of this many spawns; the last server is kept
SETUP_SPAWNS = 3
#: the mixed workload's Zipf exponent over its pool
ZIPF_S = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    family: str | None  #: graph family of the cold lane; None = mixed
    nodes: int
    pes: int
    #: requests per block: the sequence repeats its request mix every
    #: ``block`` lines, and throughput counts whole blocks only
    block: int
    #: peak_rss_mb is read when this many timed requests have completed,
    #: so the figure covers the same work on every commit
    rss_after: int
    #: timed answers folded into the answer digest
    digest_n: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cold-layered-10k", "layered", 10_000, 128, 10, 40, 6),
        Workload(
            "cold-serpar-10k", "serpar", 10_000, 128, 10, 40, 6),
        Workload(
            "mixed-1k", None, 1_000, 64, 40, 400, 20),
    )
}

#: one block of the mixed workload, dealt in a shuffled order: 82.5%
#: hits, 2.5% remaps, 10% misses, 5% simulates.  Dealing whole blocks
#: instead of drawing each request keeps the mix of every run, and so
#: its throughput, the same whatever the seed
BLOCK = ("hit",) * 33 + ("remap",) + ("cold",) * 4 + ("sim",) * 2
POOL_SIZE = 30
#: simulate requests of every workload: 1k-node graphs on 64 PEs
SIM_NODES = 1_000
SIM_PES = 64
SETUP_NODES = 300


# ---------------------------------------------------------------------------
# request items
# ---------------------------------------------------------------------------
@dataclass
class Item:
    cls: str  #: cold | hit | remap | sim | pool | setup
    line: bytes
    graph: Graph | None = None
    ref: str | None = None  #: id of the line whose answer a hit repeats
    pes: int = 0
    id: str | None = None  #: set on lines that hits refer back to

    @property
    def nodes(self) -> int:
        return self.graph.n if self.graph is not None else 0


def _encode(op: str, graph: Graph, pes: int) -> bytes:
    return json.dumps({"op": op, "graph": graph.doc, "num_pes": pes}).encode() + b"\n"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def setup_items(seed: int, spawn: int, scale: float) -> list[Item]:
    """One schedule and one simulate on graphs outside the measured set."""
    n = max(20, int(SETUP_NODES * scale))
    g1 = make_graph("layered", n, _rng(seed, "setup", spawn, 0))
    g2 = make_graph("serpar", n, _rng(seed, "setup", spawn, 1))
    return [
        Item("setup", _encode("schedule", g1, 16), g1, pes=16),
        Item("setup-sim", _encode("simulate", g2, 16), g2, pes=16),
    ]


def cold_sequence(w: Workload, seed: int, nodes: int, sim_nodes: int):
    """The cold workloads' requests, per slot: a first-seen schedule
    line, six repeats of it right after its answer (hits), then three
    first-seen ``simulate`` lines on graphs of the same family at the
    mixed workload's size (a 10k-node simulation costs more than the
    schedule; at 1k the cold lane keeps ~70% of the run)."""
    for slot in range(10**9):
        g = make_graph(w.family, nodes, _rng(seed, w.name, slot))
        item = Item("cold", _encode("schedule", g, w.pes), g, pes=w.pes,
                    id=f"cold:{slot}")
        yield item
        for _ in range(6):
            yield Item("hit", item.line, ref=item.id, pes=w.pes)
        for k in range(3):
            g = make_graph(w.family, sim_nodes, _rng(seed, w.name, "sim", slot, k))
            yield Item("sim", _encode("simulate", g, SIM_PES), g, pes=SIM_PES)


def mixed_pool(seed: int, nodes: int, size: int, pes: int) -> list[Item]:
    pool = []
    for k in range(size):
        family = ("layered", "serpar")[k % 2]
        g = make_graph(family, nodes, _rng(seed, "pool", k))
        pool.append(Item("pool", _encode("schedule", g, pes), g, pes=pes,
                         id=f"pool:{k}"))
    return pool


def mixed_sequence(seed: int, pool: list[Item], nodes: int, pes: int):
    rng = _rng(seed, "mixed")
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(pool))]
    # renamed copies come from the layered half of the pool: a serpar
    # remap costs ~10x a layered one, which would make remap latency
    # bimodal rather than measure the remap path
    layered = range(0, len(pool), 2)
    # first-seen graphs alternate between the families, per class
    dealt = {"cold": 0, "sim": 0}
    block = list(BLOCK)
    j = 0
    while True:
        rng.shuffle(block)
        for cls in block:
            if cls == "hit":
                k = rng.choices(range(len(pool)), weights=weights)[0]
                yield Item("hit", pool[k].line, ref=pool[k].id, pes=pes)
            elif cls == "remap":
                k = rng.choice(layered)
                g = renamed(pool[k].graph, _rng(seed, "remap", j))
                yield Item("remap", _encode("schedule", g, pes), g, pes=pes)
            else:
                family = ("layered", "serpar")[dealt[cls] % 2]
                dealt[cls] += 1
                g = make_graph(family, nodes, _rng(seed, "mixed", j))
                op = "schedule" if cls == "cold" else "simulate"
                yield Item(cls, _encode(op, g, pes), g, pes=pes)
            j += 1


# ---------------------------------------------------------------------------
# server process and wire client
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` child process with its own store directory."""

    def __init__(self, traced: bool, spans_path: Path | None = None) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.store = Path(tempfile.mkdtemp(prefix="store-", dir=WORK))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_SERVICE_DIR"] = str(self.store)
        # string hashing seeds dict and set layouts; fixing it removes
        # one run-to-run difference that has nothing to do with the code
        env["PYTHONHASHSEED"] = "0"
        if traced:
            cmd = [sys.executable, str(HERE / "shim.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--port", "0"]
        self.log = open(self.store / "serve.log", "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.port = self._wait_port(60.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.split(b"\n"):
                    if line.startswith(b"serving on "):
                        return int(line.split()[2].rsplit(b":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"repro serve did not start (see {self.log.name})")

    def status(self, field_name: str) -> int:
        """A ``kB`` field of ``/proc/<pid>/status`` (e.g. VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
        return 0

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill if it does not come."""
        if self.proc.poll() is None:
            try:
                with Conn(self.port) as c:
                    c.call({"op": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

    def remove_store(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


class Conn:
    """A JSON-lines connection timed from first byte out to last in.

    Answers are read into one preallocated buffer: a fresh 1 MB bytes
    object per ``recv`` costs the client an allocation that glibc serves
    from ``mmap`` or from the heap depending on the process's history,
    which showed in sub-millisecond hit latencies."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray(1 << 22)
        self.held = 0  #: bytes of ``buf`` received and not yet returned

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()

    def roundtrip(self, line: bytes) -> tuple[bytes, float, float]:
        """Send one line; return the answer line, start and end time."""
        buf = self.buf
        t0 = time.perf_counter()
        self.sock.sendall(line)
        scan = 0
        while True:
            nl = buf.find(b"\n", scan, self.held)
            if nl >= 0:
                break
            scan = self.held
            if self.held == len(buf):
                buf.extend(bytes(len(buf)))
            with memoryview(buf) as view:
                got = self.sock.recv_into(view[self.held:])
            if not got:
                raise ConnectionError("server closed the connection")
            self.held += got
        t1 = time.perf_counter()
        data = bytes(buf[: nl + 1])
        rest = self.held - nl - 1
        buf[:rest] = buf[nl + 1: self.held]
        self.held = rest
        return data, t0, t1

    def call(self, doc: dict) -> dict:
        data, _, _ = self.roundtrip(json.dumps(doc).encode() + b"\n")
        return json.loads(data)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
class HostRef:
    """Host-speed references, timed in this process between requests,
    off the clock: ``py``, a fixed piece of pure-Python work (build a
    600-node graph, JSON round trip), and ``wire``, a 100 kB round trip
    through ``echo.py``, a stdlib echo process on the loopback.

    A shared two-core virtual machine was seen to switch, for seconds to
    minutes at a time, between speeds up to ~1.8x apart: a 1k-node miss
    takes 80 ms in one mode and 140 ms in the other, the server's CPU
    time moving alike, and ``py`` moves with it.  Hits, which spend
    their time in the socket path, drift on their own, as ``wire`` does.
    A latency is scaled by its reference's nominal time over the median
    of the ``K`` samples taken nearest to the request (the ones just
    before and just after it, as a rule), which reports it at the host
    speed where the reference takes its nominal time; the speed can
    switch within seconds, so wider windows tracked it worse.
    Neither reference runs code of the program under test, so a change
    to the program moves the scaled figures as it moves the raw ones."""

    NOMINAL_MS = {"py": 6.0, "wire": 0.33}
    EVERY_S = 0.25
    K = 2
    PAYLOAD = b"x" * 100_000

    def __init__(self) -> None:
        self.times: list[float] = []  #: sample midpoints, increasing
        self.ms: dict[str, list[float]] = {name: [] for name in self.NOMINAL_MS}
        self.spent_s = 0.0  #: wall time spent sampling
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "echo.py")], stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
            if not ready:
                raise RuntimeError("echo.py did not start")
            port = int(self.proc.stdout.readline())
            self.sock = socket.create_connection(
                ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = memoryview(bytearray(1 << 20))

    def close(self) -> None:
        """Stop the echo process (it exits when its peer closes)."""
        self.sock.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def sample(self) -> None:
        t0 = time.perf_counter()
        graph = make_graph("layered", 600, random.Random(0))
        json.loads(json.dumps(graph.doc))
        t1 = time.perf_counter()
        self.sock.sendall(self.PAYLOAD)
        got = 0
        while got < len(self.PAYLOAD):
            n = self.sock.recv_into(self.buf)
            if not n:
                raise ConnectionError("echo.py closed the connection")
            got += n
        t2 = time.perf_counter()
        self.times.append((t0 + t2) / 2)
        self.ms["py"].append(1000.0 * (t1 - t0))
        self.ms["wire"].append(1000.0 * (t2 - t1))
        self.spent_s += t2 - t0

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= self.EVERY_S

    def scale(self, name: str, t: float) -> float:
        """Nominal / median of reference ``name`` near time ``t``."""
        i = bisect.bisect_left(self.times, t)
        lo, hi = i, i
        while hi - lo < self.K and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times)
                           or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return self.NOMINAL_MS[name] / statistics.median(self.ms[name][lo:hi])


# ---------------------------------------------------------------------------
# driving a phase
# ---------------------------------------------------------------------------
def _prefix(data: bytes) -> bytes:
    """The response minus its per-request tail (tier and elapsed)."""
    cut = data.rfind(b', "cached": ')
    return hashlib.sha256(data[:cut] if cut >= 0 else data).digest()


@dataclass
class Record:
    cls: str
    t0: float
    lat: float
    req_bytes: int
    resp_bytes: int
    crc: int
    item: Item
    data: bytes | None  #: raw answer (hits: only when it differs)
    prefix: bytes  #: hash of the answer minus its per-request tail
    timed: bool
    #: ``lat`` at the reference host speed (timed records, see HostRef)
    scaled: float = 0.0


@dataclass
class Phase:
    setup_s: list = field(default_factory=list)
    records: list = field(default_factory=list)
    wall_s: float = 0.0
    #: (timed requests, end time) at the end of the last whole block,
    #: the end time net of host-reference sampling
    blocks_end: tuple = (0, 0.0)
    ref: HostRef | None = None
    rss_kb: int = 0
    cpu_s: float = 0.0
    stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    transport_errors: int = 0
    spans: list | None = None
    ref_prefix: dict = field(default_factory=dict)
    t_start: float = 0.0


def _record(phase: Phase, item: Item, data: bytes, t0: float, t1: float,
            timed: bool) -> Record:
    """Bookkeeping after the clock stopped.  Hit answers are kept only
    when they differ from their reference beyond the per-request tail,
    so memory does not grow with the hit count (a hit's reference is
    always answered earlier in the run)."""
    prefix = _prefix(data)
    if item.id is not None:
        phase.ref_prefix[item.id] = prefix
    keep = data
    if item.cls == "hit" and phase.ref_prefix.get(item.ref) == prefix:
        keep = None
    return Record(item.cls, t0, t1 - t0, len(item.line), len(data),
                  zlib.crc32(item.line.strip()), item, keep, prefix, timed)


def run_phase(w: Workload, seed: int, seconds: float, traced: bool,
              scale: float) -> Phase:
    phase = Phase()
    servers = []
    spans_path = None
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{w.name}-seed{seed}.json"
    try:
        phase.ref = HostRef()
        phase.ref.sample()
        for spawn in range(SETUP_SPAWNS):
            server = Server(traced and spawn == SETUP_SPAWNS - 1, spans_path)
            servers.append(server)
            with Conn(server.port) as c:
                for item in setup_items(seed, spawn, scale):
                    data, t0, t1 = c.roundtrip(item.line)
                    phase.records.append(_record(phase, item, data, t0, t1, False))
            t1 = time.perf_counter()
            phase.setup_s.append((server.t_spawn, t1))
            phase.ref.sample()
            if spawn < SETUP_SPAWNS - 1:
                server.stop()
                server.remove_store()
        server = servers[-1]
        _drive(w, seed, seconds, scale, server, phase)
        with Conn(server.port) as c:
            phase.stats = c.call({"op": "stats"})
            phase.metrics = c.call({"op": "metrics"}).get("snapshot", {})
        server.stop()
        if traced:
            with open(spans_path) as fh:
                phase.spans = json.load(fh)["spans"]
            spans_path.unlink()
    finally:
        for server in servers:
            server.stop()
            server.remove_store()
        if phase.ref is not None:
            phase.ref.close()
    return phase


def _drive(w: Workload, seed: int, seconds: float, scale: float,
           server: Server, phase: Phase) -> None:
    """One client, closed loop: on a two-core machine a second client
    measured GIL hand-offs and the OS scheduler, not the server."""
    nodes = max(20, int(w.nodes * scale))
    if w.family is None:
        pool = mixed_pool(seed, nodes, POOL_SIZE, w.pes)
        with Conn(server.port) as c:
            for item in pool:
                data, t0, t1 = c.roundtrip(item.line)
                phase.records.append(_record(phase, item, data, t0, t1, False))
        sequence = mixed_sequence(seed, pool, nodes, w.pes)
        # mixed lines are built before the clock starts, so building a
        # 1k-node line never counts against throughput
        lines = [next(sequence) for _ in range(int(seconds * 40) + 80)]
        sequence = itertools.chain(lines, sequence)
    else:
        sequence = cold_sequence(w, seed, nodes, max(20, int(SIM_NODES * scale)))

    ref = phase.ref
    # this process's own collections would land in timed round trips
    # and reference samples; nothing it allocates while driving is
    # garbage before the run ends
    gc.disable()
    ref.sample()
    cpu0 = server.cpu_s()
    t_start = phase.t_start = time.perf_counter()
    deadline = t_start + seconds
    ref_s0 = ref.spent_s
    done = 0
    try:
        with Conn(server.port) as c:
            while time.perf_counter() < deadline:
                item = next(sequence)
                data, t0, t1 = c.roundtrip(item.line)
                phase.records.append(_record(phase, item, data, t0, t1, True))
                done += 1
                if done == w.rss_after:
                    phase.rss_kb = server.status("VmHWM")
                if done % w.block == 0:
                    phase.blocks_end = (done, t1 - (ref.spent_s - ref_s0))
                if ref.due(t1):
                    ref.sample()
    except OSError:
        phase.transport_errors = 1
    finally:
        gc.enable()
    phase.wall_s = time.perf_counter() - t_start - (ref.spent_s - ref_s0)
    phase.cpu_s = server.cpu_s() - cpu0
    if not phase.rss_kb:
        phase.rss_kb = server.status("VmHWM")
    ref.sample()
    for rec in phase.records:
        if rec.timed:
            name = "wire" if rec.cls == "hit" else "py"
            rec.scaled = rec.lat * ref.scale(name, rec.t0 + rec.lat / 2)


# ---------------------------------------------------------------------------
# checking answers
# ---------------------------------------------------------------------------
#: lines the server has never seen: their answers must be fresh computes
FIRST_SEEN = ("cold", "sim", "pool", "setup", "setup-sim")
SIMULATE = ("sim", "setup-sim")


@dataclass
class Checked:
    failed: int = 0  #: timed requests answered wrongly or not at all
    untimed_failed: int = 0  #: setup / pool answers that failed
    problems: list = field(default_factory=list)
    digest: str = ""
    winners: dict = field(default_factory=dict)
    deadlocks: int = 0


def _digest_part(resp: dict) -> list:
    if resp.get("op") == "simulate":
        return [resp.get(k) for k in (
            "makespan", "sim_makespan", "error_pct", "fifo_total",
            "channels", "deadlocked")]
    sched = json.dumps(resp.get("schedule"), sort_keys=True).encode()
    return [resp.get("winner"), resp.get("makespan"), resp.get("fifo_total"),
            hashlib.sha256(sched).hexdigest()]


def _problem(rec: Record, refs: dict) -> tuple[str | None, dict | None]:
    item = rec.item
    if rec.cls == "hit":
        if rec.data is None:  # same bytes as its reference answer
            return None, None
        resp = json.loads(rec.data)
        if not resp.get("ok"):
            return f"not ok: {str(resp.get('error'))[:120]}", resp
        if resp.get("schedule") != refs.get(item.ref):
            return "hit schedule differs from the first answer", resp
        return None, resp
    resp = json.loads(rec.data)
    if rec.cls in SIMULATE:
        problem = check_simulate_answer(resp)
    else:
        problem = check_schedule_answer(resp, item.graph, item.pes)
    if problem is None and rec.cls in FIRST_SEEN and resp.get("cached") is not False:
        problem = f"first-seen line answered from {resp.get('cached')!r}"
    return problem, resp


def check(phase: Phase, w: Workload) -> Checked:
    """Validate every answer (after the clock: decoding happens here)."""
    out = Checked()
    refs: dict[str, dict] = {}
    digest = hashlib.sha256()
    digested = 0
    for rec in phase.records:
        try:
            problem, resp = _problem(rec, refs)
        except (ValueError, TypeError, KeyError) as exc:
            # not JSON, or fields of the wrong shape: a wrong answer
            problem, resp = f"malformed answer: {exc!r}", None
        if problem:
            if rec.timed:
                out.failed += 1
            else:
                out.untimed_failed += 1
            if len(out.problems) < 5:
                out.problems.append(f"{rec.cls}: {problem}")
        if resp is None or rec.cls == "hit":
            continue
        if rec.item.id is not None:
            refs[rec.item.id] = resp.get("schedule")
        if rec.cls == "cold":
            name = resp.get("winner")
            out.winners[name] = out.winners.get(name, 0) + 1
        if rec.cls in SIMULATE and resp.get("deadlocked"):
            out.deadlocks += 1
        if not rec.timed or digested < w.digest_n:
            digested += rec.timed
            digest.update(json.dumps([rec.cls, _digest_part(resp)]).encode())
    out.failed += phase.transport_errors
    out.digest = digest.hexdigest()[:16]
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def pct(values, q: float) -> float:
    """Linearly interpolated quantile (R-7), ``q`` in [0, 1]."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def latencies(phase: Phase, cls: str, scaled: bool = False) -> list[float]:
    """Timed latencies (ms) of one request class, raw or at the
    reference host speed."""
    return [1000.0 * (r.scaled if scaled else r.lat)
            for r in phase.records if r.timed and r.cls == cls]


def throughput(phase: Phase) -> float:
    """Timed requests per second over the whole blocks of the run (all
    of it when not one block completed): a block ends on the same mix of
    requests whatever the seed, a cut-off block does not."""
    done, t_end = phase.blocks_end
    if done:
        return done / (t_end - phase.t_start)
    timed = sum(1 for r in phase.records if r.timed)
    return timed / phase.wall_s if phase.wall_s else 0.0


def end_to_end(phase: Phase) -> dict:
    """The gated metrics.  Times are reported at the reference host
    speed (``HostRef``): hits by the ``wire`` reference, set-up and
    every other request by ``py``."""
    return {
        "setup_s": (statistics.median(
            (t1 - t0) * phase.ref.scale("py", (t0 + t1) / 2)
            for t0, t1 in phase.setup_s), "s"),
        "peak_rss_mb": (phase.rss_kb / 1024.0, "MB"),
        "cold_p50_ms": (pct(latencies(phase, "cold", scaled=True), 0.50), "ms"),
        "cold_nodes_per_s": (median(
            r.item.nodes / r.scaled
            for r in phase.records if r.timed and r.cls == "cold"), "1/s"),
        "hit_p50_ms": (pct(latencies(phase, "hit", scaled=True), 0.50), "ms"),
        "sim_p50_ms": (pct(latencies(phase, "sim", scaled=True), 0.50), "ms"),
    }


def tails(phase: Phase) -> dict:
    """Reported, not gated: upper percentiles catch the server's own
    full garbage collections (one a second, up to ~250 ms, on the mixed
    workload), throughput is raw and follows the host's speed, and the
    cold workloads send no remaps and too few requests for a p90 or a
    p99."""
    return {
        "cold_p75_ms": (pct(latencies(phase, "cold", scaled=True), 0.75), "ms"),
        "cold_p90_ms": (pct(latencies(phase, "cold", scaled=True), 0.90), "ms"),
        "hit_p25_ms": (pct(latencies(phase, "hit", scaled=True), 0.25), "ms"),
        "hit_p75_ms": (pct(latencies(phase, "hit", scaled=True), 0.75), "ms"),
        "hit_p99_ms": (pct(latencies(phase, "hit", scaled=True), 0.99), "ms"),
        "remap_p50_ms": (pct(latencies(phase, "remap", scaled=True), 0.50), "ms"),
        "sim_p90_ms": (pct(latencies(phase, "sim", scaled=True), 0.90), "ms"),
        "throughput_rps": (throughput(phase), "1/s"),
        "host.ref_py_ms": (median(phase.ref.ms["py"]), "ms"),
        "host.ref_wire_ms": (median(phase.ref.ms["wire"]), "ms"),
    }


def _phase_mean(snapshot: dict, op: str, phase_name: str) -> float:
    for series in snapshot.get("service.phase_ms", {}).get("series", ()):
        labels = series.get("labels", {})
        if labels.get("op") == op and labels.get("phase") == phase_name:
            return series["sum"] / series["count"] if series["count"] else 0.0
    return 0.0


def per_layer(a: Phase, b: Phase, checked_b: Checked, w: Workload,
              seed: int) -> tuple[dict, str]:
    """Per-layer metrics: ``a`` is the untraced phase, ``b`` the traced
    replay of the same inputs."""
    led = Ledger(b.spans or [])
    by_cls: dict[str, list] = {}
    overhead = []
    portfolio_all = []
    for rec, root in led.join(b.records):
        if root is None:
            continue
        self_s, incl_s, calls, notes = led.breakdown(root)
        dur = root[4] - root[3]
        if "portfolio" in incl_s:
            portfolio_all.append(incl_s["portfolio"])
        if rec.timed:
            overhead.append(rec.lat - dur)
            by_cls.setdefault(rec.cls, []).append(
                (root, dur, self_s, incl_s, calls, notes))

    def med(cls: str, fn) -> float:
        return median(fn(*row) for row in by_cls.get(cls, ()))

    def ms(cls: str, *layers, incl=False) -> float:
        return 1000.0 * med(cls, lambda root, dur, s, i, c, n: sum(
            (i if incl else s).get(layer, 0.0) for layer in layers))

    def calls(cls: str, layer: str) -> float:
        rows = by_cls.get(cls, ())
        return sum(row[4].get(layer, 0) for row in rows) / len(rows) if rows else 0.0

    stats = b.stats
    cache = stats.get("cache") or {}
    evictions = stats.get("evictions") or {}
    hits_sent = sum(1 for r in b.records if r.timed and r.cls == "hit")
    remap_notes = [x for row in by_cls.get("remap", ()) for x in row[5]]
    cold_answers = sum(checked_b.winners.values())
    cold_a = pct(latencies(a, "cold", scaled=True), 0.5)
    hit_a = pct(latencies(a, "hit", scaled=True), 0.50)
    timed_b = [r for r in b.records if r.timed]
    timed_a = sum(1 for r in a.records if r.timed)
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    server_portfolio = _phase_mean(b.metrics, "schedule", "portfolio")
    m = {
        "wire.overhead_ms": (1000.0 * median(overhead), "ms"),
        "wire.req_bytes": (statistics.fmean(r.req_bytes for r in timed_b) if timed_b else 0.0, "bytes"),
        "wire.resp_bytes": (statistics.fmean(r.resp_bytes for r in timed_b) if timed_b else 0.0, "bytes"),
        "server.fastpath_ms": (1000.0 * median(
            row[1] for row in by_cls.get("hit", ()) if row[0][1] == "server.fastpath"), "ms"),
        "server.fastpath_ratio": (stats.get("fastpath", 0) / hits_sent if hits_sent else 0.0, "ratio"),
        "server.decode_ms": (ms("cold", "server.decode"), "ms"),
        "server.encode_ms": (ms("cold", "server.encode"), "ms"),
        "server.handle_self_ms": (ms("cold", "server.handle"), "ms"),
        "server.memo_clears": (sum(evictions.get(k, 0) for k in (
            "wire_memo_clears", "fp_memo_clears", "ig_memo_clears")), "count"),
        "server.cpu_ms_per_req": (1000.0 * a.cpu_s / timed_a if timed_a else 0.0, "ms"),
        "ingest.ms": (ms("cold", "ingest"), "ms"),
        "ingest.calls": (calls("cold", "ingest"), "count"),
        "fingerprint.ms": (ms("cold", "fingerprint"), "ms"),
        "digest.ms": (ms("cold", "digest"), "ms"),
        "fingerprint.calls": (calls("cold", "fingerprint"), "count"),
        "cache.get_ms": (ms("cold", "cache.get"), "ms"),
        "cache.put_ms": (ms("cold", "cache.put"), "ms"),
        "cache.hit_ratio": (cache.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "cache.store_bytes": (cache.get("store_bytes", 0), "bytes"),
        "cache.evictions": (evictions.get("lru", 0), "count"),
        "remap.ms": (ms("remap", "remap", "remap.apply"), "ms"),
        "remap.found_ratio": (sum(map(bool, remap_notes)) / len(remap_notes) if remap_notes else 0.0, "ratio"),
        "portfolio.ms": (ms("cold", "portfolio", incl=True), "ms"),
        "portfolio.self_ms": (ms("cold", "portfolio"), "ms"),
        "cand.rlx.ms": (ms("cold", "cand.rlx", incl=True), "ms"),
        "cand.lts.ms": (ms("cold", "cand.lts", incl=True), "ms"),
        "cand.nstr.ms": (ms("cold", "cand.nstr", incl=True), "ms"),
        **{
            f"portfolio.wins.{name}": (
                checked_b.winners.get(name, 0) / cold_answers if cold_answers else 0.0, "ratio")
            for name in ("rlx", "lts", "nstr")
        },
        "core.partition.ms": (ms("cold", "core.partition"), "ms"),
        "core.sweep.ms": (ms("cold", "core.sweep"), "ms"),
        "core.buffer_sizing.ms": (ms("cold", "core.buffer_sizing"), "ms"),
        "core.kernel_fallbacks": (sum(
            (stats.get("backend") or {}).get("kernel_fallbacks", {}).values()), "count"),
        "serialize.ms": (ms("cold", "serialize"), "ms"),
        "sim.ms": (ms("sim", "sim"), "ms"),
        "sim.schedule_ms": (ms("sim", "sim.schedule", incl=True), "ms"),
        "sim.deadlocks": (checked_b.deadlocks, "count"),
        "trace.coverage": (med("cold", lambda root, dur, s, i, c, n: 1.0 - (
            s.get("server.request", 0.0) + s.get("server.handle", 0.0)) / dur), "ratio"),
        "trace.overhead_cold_ms": (pct(latencies(b, "cold", scaled=True), 0.5) - cold_a, "ms"),
        "trace.overhead_hit_ms": (pct(latencies(b, "hit", scaled=True), 0.50) - hit_a, "ms"),
        "xcheck.portfolio_ratio": (
            1000.0 * statistics.fmean(portfolio_all) / server_portfolio
            if portfolio_all and server_portfolio else 0.0, "ratio"),
        **tails(a),
    }
    table = self_time_table(
        [(row[2], row[1]) for row in by_cls.get("cold", ())],
        f"{w.name} cold requests, seed {seed}")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}"
    with open(OUT / f"trace-{stem}.json", "w") as fh:
        json.dump(chrome_trace(b.spans or []), fh)
    (OUT / f"ledger-{stem}.txt").write_text(table + "\n")
    return m, table


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _env(phase: Phase, w: Workload, seed: int, checked: Checked) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "backend": phase.stats.get("backend"),
        "answer_digest": checked.digest,
        "samples": {
            cls: len(latencies(phase, cls))
            for cls in ("cold", "hit", "remap", "sim")
        },
    }


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every graph size by this (the smoke tests use "
             "tiny graphs; reported figures always use 1)")
    args = ap.parse_args(argv)
    # a terminated run still unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        if args.trace:
            a = run_phase(w, args.seed, args.seconds / 2, False, args.scale)
            b = run_phase(w, args.seed, args.seconds / 2, True, args.scale)
            checked = check(a, w)
            checked_b = check(b, w)
            checked.failed += checked_b.failed
            checked.untimed_failed += checked_b.untimed_failed
            checked.problems += checked_b.problems
            metrics, table = per_layer(a, b, checked_b, w, args.seed)
            print(table)
            phase = b
            attempted = sum(1 for r in a.records + b.records if r.timed)
        else:
            phase = run_phase(w, args.seed, args.seconds, False, args.scale)
            checked = check(phase, w)
            metrics = end_to_end(phase)
            print("not gated (see perfbench/README.md):")
            _print_metrics(tails(phase))
            attempted = sum(1 for r in phase.records if r.timed)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    _print_metrics(metrics)
    for problem in checked.problems:
        print(f"problem: {problem}")
    failed = checked.failed
    correct = failed == 0 and checked.untimed_failed == 0 and attempted > 0
    print(f"error_rate {failed / attempted if attempted else 1.0:.4f} "
          f"({failed}/{attempted})")
    print(json.dumps({"env": _env(phase, w, args.seed, checked)}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
