"""Garbage-collector policy of a serving process.

A cold request on a 10k-node graph allocates hundreds of thousands of
dicts, lists and tuples that live for the whole request.  Under the
interpreter's default thresholds (700, 10, 10) they leave the young
generation within milliseconds, and the waves of promotions trigger
full collections, each of which walks the whole heap: the import-time
heap (numpy, networkx, this package) and every graph and schedule the
LRU holds.  That work belongs to no request stage, so the stage ledger
spread it over whichever stage happened to be allocating.

:func:`serving_gc` wraps a process's serve loop:

* after start-up (imports, cache load, the lazily imported parts of
  the scheduler stack imported up front) one full collection, then
  :func:`gc.freeze` moves every survivor into the permanent
  generation, which no later collection walks;
* the young-generation threshold rises to :data:`YOUNG_GEN_THRESHOLD`,
  so most of a request's temporaries are freed by reference counting
  before a collection ever examines them;
* a :data:`gc.callbacks` hook times every collection into the
  ``runtime.gc_ms{generation}`` histogram and the
  ``runtime.gc_collections{generation}`` counter, which the ``stats``
  op summarizes as its ``gc`` block (:func:`gc_stats`).

The collector is never disabled, and nothing is frozen after start-up:
an LRU entry frozen on the request path could never be collected once
evicted.  On exit the previous thresholds return, the heap is unfrozen
and the hook removed, so a serve loop embedded in another program (the
tests run ``main(["serve", ...])`` in-process) leaves the interpreter
as it found it.  Library users constructing a
:class:`~repro.service.server.ScheduleServer` themselves keep the
interpreter defaults.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from typing import Iterator

from ..obs import MetricsRegistry

__all__ = ["YOUNG_GEN_THRESHOLD", "serving_gc", "gc_stats"]

#: generation-0 threshold while serving (interpreter default: 700).
#: A sweep over 700, 5k, 20k, 50k and 100k on the served-request
#: benchmark put the cold 10k-node median at 930-1010 ms (700),
#: 955-975 ms (5k) and 805-855 ms (20k-100k); the mixed 1k-node
#: workload did not move.  20k is the smallest value on the plateau.
YOUNG_GEN_THRESHOLD = 20_000

_PAUSE = "runtime.gc_ms"
_COUNT = "runtime.gc_collections"
_GENERATIONS = 3


class _CollectionTimer:
    """The ``gc.callbacks`` hook: one pause sample per collection.

    Children are resolved up front, so the hook takes no family lock;
    the child locks it takes are never held across an allocation (see
    :meth:`repro.obs.metrics._HistogramChild.snapshot`), so a
    collection can never wait on its own thread.  A process forked
    while serving (a respawned portfolio worker) inherits the hook but
    not the threads: it records nothing, since a child lock copied
    while held would never be released there.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._pid = os.getpid()
        pauses = registry.histogram(
            _PAUSE, "garbage-collector pause per collection (ms)",
            labels=("generation",),
        )
        counts = registry.counter(
            _COUNT, "garbage collections run", labels=("generation",)
        )
        gens = range(_GENERATIONS)
        self._pause = [pauses.labels(generation=g) for g in gens]
        self._count = [counts.labels(generation=g) for g in gens]
        self._t0 = 0.0  # collections never overlap: one start suffices

    def __call__(self, phase: str, info: dict) -> None:
        if os.getpid() != self._pid:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        gen = info["generation"]
        self._pause[gen].observe(1000.0 * (time.perf_counter() - self._t0))
        self._count[gen].inc()


def _import_serving_stack() -> None:
    """Import what the first requests would otherwise import lazily, so
    it joins the frozen start-up heap instead of a request's."""
    from .. import sim  # noqa: F401 - the simulate op's engine
    from ..core import backend

    if backend.HAVE_NUMPY:
        from ..core import kernels  # noqa: F401


@contextmanager
def serving_gc(registry: MetricsRegistry) -> Iterator[None]:
    """Run the body (a serve loop) under the serving GC policy, timing
    collections into ``registry``; restores the interpreter on exit."""
    _import_serving_stack()
    previous = gc.get_threshold()
    gc.collect()
    gc.freeze()
    gc.set_threshold(YOUNG_GEN_THRESHOLD, *previous[1:])
    timer = _CollectionTimer(registry)
    gc.callbacks.append(timer)
    try:
        yield
    finally:
        gc.callbacks.remove(timer)
        gc.set_threshold(*previous)
        gc.unfreeze()


def gc_stats(registry: MetricsRegistry) -> dict:
    """The ``stats`` op's ``gc`` block: thresholds, frozen objects and,
    once :func:`serving_gc` has timed collections into ``registry``,
    collections and summed pause per generation (``None`` before)."""
    families = {
        f.name: f for f in registry.families() if f.name in (_PAUSE, _COUNT)
    }
    generations = None
    if len(families) == 2:
        pauses, counts = families[_PAUSE], families[_COUNT]
        generations = [
            {
                "collections": counts.labels(generation=g).value,
                "pause_ms": round(pauses.labels(generation=g).sum, 3),
            }
            for g in range(_GENERATIONS)
        ]
    return {
        "threshold": list(gc.get_threshold()),
        "frozen": gc.get_freeze_count(),
        "generations": generations,
    }
