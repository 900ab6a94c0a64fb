"""Shared fixtures: the paper's worked-example graphs and tiny helpers."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import CanonicalGraph


def build_fig9_graph1() -> CanonicalGraph:
    """Figure 9, task graph (1).

    A chain ``0 -(32)-> 1 -(4)-> 2 -(2)-> 3 -(32)-> 4`` with a shortcut
    edge ``0 -(32)-> 4``; deadlocks without 18 slots on (0, 4).
    """
    g = CanonicalGraph()
    g.add_task(0, 32, 32)
    g.add_task(1, 32, 4)
    g.add_task(2, 4, 2)
    g.add_task(3, 2, 32)
    g.add_task(4, 32, 32)
    for e in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
        g.add_edge(*e)
    g.validate()
    return g


def build_fig9_graph2() -> CanonicalGraph:
    """Figure 9, task graph (2).

    Undirected cycle 0-1-2-5-4-0 plus the chain 3 -> 4; the slow path
    through the 32:1 downsampler and 1:32 upsampler forces 32 slots on
    the (4, 5) channel.
    """
    g = CanonicalGraph()
    g.add_task(0, 32, 32)
    g.add_task(1, 32, 1)
    g.add_task(2, 1, 32)
    g.add_task(3, 32, 32)
    g.add_task(4, 32, 32)
    g.add_task(5, 32, 32)
    for e in [(0, 1), (1, 2), (2, 5), (3, 4), (4, 5), (0, 4)]:
        g.add_edge(*e)
    g.validate()
    return g


def build_elementwise_chain(n: int, k: int) -> CanonicalGraph:
    """``n`` element-wise tasks in a row, each moving ``k`` elements."""
    g = CanonicalGraph()
    for i in range(n):
        g.add_task(i, k, k)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def service_stat(service, name: str):
    """One field of a :class:`~repro.service.ScheduleService`'s ``stats``."""
    return service.handle({"op": "stats"})[name]


#: the schedule store's line layouts: ``entry_crc`` (what a put writes)
#: and the ``crc`` layout of stores written before it (still read)
STORE_LAYOUTS = ("entry_crc", "legacy")


def store_line(key: str, entry: dict, layout: str = "entry_crc") -> bytes:
    """One schedule-store record for ``(key, entry)`` in ``layout``."""
    from repro.service.cache import encode_record, record_crc

    if layout == "entry_crc":
        return encode_record(key, entry)
    return json.dumps(
        {"crc": record_crc(key, entry), "entry": entry, "key": key},
        sort_keys=True,
    ).encode() + b"\n"


def wait_until(predicate, timeout=10.0, interval=0.02):
    """Poll ``predicate`` until it holds or ``timeout`` real seconds pass;
    returns its last value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FakeClock:
    """A monotonic clock that moves only when a test calls
    :meth:`advance` (the supervisor's ``clock=`` seam)."""

    def __init__(self, start: float = 1000.0) -> None:
        self._now = start
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


def build_diamond(k: int = 16) -> CanonicalGraph:
    """A 4-node diamond of element-wise tasks (undirected cycle)."""
    g = CanonicalGraph()
    for i in range(4):
        g.add_task(i, k, k)
    for e in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        g.add_edge(*e)
    return g


@pytest.fixture
def fig9_graph1() -> CanonicalGraph:
    return build_fig9_graph1()


@pytest.fixture
def fig9_graph2() -> CanonicalGraph:
    return build_fig9_graph2()


@pytest.fixture
def ew_chain() -> CanonicalGraph:
    return build_elementwise_chain(8, 32)


@pytest.fixture
def diamond() -> CanonicalGraph:
    return build_diamond()


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()
