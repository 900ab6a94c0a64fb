"""Process-wide metrics registry: counters, gauges, histograms.

Stdlib-only and deliberately small — the Prometheus client-library data
model (metric *families* carrying labeled time series) without the
Prometheus client library:

* :class:`Counter` — monotonic; ``inc()`` only.
* :class:`Gauge` — settable; either stored values or a zero-argument
  callable sampled at snapshot time (``fn=``), the cheapest way to
  expose an existing quantity (queue depth, resident entries) without
  writing to the registry on every change.
* :class:`Histogram` — fixed cumulative buckets chosen at creation;
  ``observe()`` is one bisect plus three integer adds.

Hot-path discipline: resolve the labeled child once
(``family.labels(op="schedule")``) and keep it — a child's ``inc`` /
``observe`` takes the child's own lock and allocates nothing, so
instruments are cheap enough to leave enabled in production serving.
Families themselves are created get-or-create (idempotent), so
independent subsystems can name the same instrument and share it.

Canonical instrument names are dotted (``service.requests``,
``cache.hits``); the Prometheus text exposition
(:meth:`MetricsRegistry.render`) rewrites them to underscores as the
format requires.  :meth:`MetricsRegistry.snapshot` returns the same
data as plain dicts for JSON transport (the service's ``metrics`` op
ships both forms).

A module-level default registry (:func:`get_registry`) serves
process-wide callers — the campaign executor records cell timings
there, and ``repro serve`` binds its service to it — while tests and
embedded services can construct private :class:`MetricsRegistry`
instances for isolation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_MS_BUCKETS",
    "get_registry",
    "set_registry",
]

#: default histogram buckets, tuned for millisecond latencies: spans
#: four orders of magnitude from sub-100µs fast-path serves to
#: multi-second cold portfolio races
DEFAULT_MS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)

_INF = float("inf")


def _label_values(label_names: tuple[str, ...], labels: dict) -> tuple:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _CounterChild:
    """One monotonic time series."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class _GaugeChild:
    """One settable time series; ``fn`` samples lazily at read time."""

    __slots__ = ("_lock", "_value", "fn")

    def __init__(self, fn: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        if self.fn is not None:
            return self.fn()
        with self._lock:
            return self._value


class _HistogramChild:
    """One histogram series: fixed bounds, cumulative on export."""

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        """Cumulative ``le -> count`` buckets plus count/sum, taken
        atomically so ``buckets[+Inf] == count`` always holds.

        Nothing is allocated under the lock: an allocation can start a
        garbage collection, whose timing hook observes into a child of
        this class on the same thread (``runtime.gc_ms``)."""
        counts = [0] * len(self._counts)
        with self._lock:
            counts[:] = self._counts
            total, acc = self._count, self._sum
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip((*self.bounds, _INF), counts):
            running += n
            cumulative.append((bound, running))
        return {"count": total, "sum": acc, "buckets": cumulative}


class _Family:
    """A named instrument: shared metadata plus labeled children."""

    kind = "untyped"
    child_cls: type = _CounterChild

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}
        if not self.label_names:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        return self.child_cls()

    def labels(self, **labels):
        """The child for this label combination (created on first use)."""
        names = self.label_names
        if len(labels) == len(names):
            # same length + every name present ⇒ the sets match; skip
            # the set-building validation on the hot path
            try:
                key = tuple(str(labels[name]) for name in names)
            except KeyError:
                key = _label_values(names, labels)
        else:
            key = _label_values(names, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _only(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; call .labels()"
            )
        return self._default

    def series(self) -> list[tuple[tuple, object]]:
        with self._lock:
            return sorted(self._children.items())


class Counter(_Family):
    kind = "counter"
    child_cls = _CounterChild

    def inc(self, n: int = 1) -> None:
        self._only().inc(n)

    @property
    def value(self) -> int:
        return self._only().value


class Gauge(_Family):
    kind = "gauge"
    child_cls = _GaugeChild

    def __init__(self, name, help, label_names,
                 fn: Callable[[], float] | None = None):
        self._fn = fn
        super().__init__(name, help, label_names)

    def _make_child(self):
        child = _GaugeChild(self._fn)
        self._fn = None  # only the first (default) child samples fn
        return child

    def set(self, value: float) -> None:
        self._only().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._only().fn = fn

    def inc(self, n: float = 1.0) -> None:
        self._only().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._only().dec(n)

    @property
    def value(self) -> float:
        return self._only().value


class Histogram(_Family):
    kind = "histogram"
    child_cls = _HistogramChild

    def __init__(self, name, help, label_names,
                 buckets: Sequence[float] = DEFAULT_MS_BUCKETS):
        # dedupe, and drop non-finite bounds: every child already ends
        # in an implicit +Inf bucket, so a caller-supplied inf would
        # render two `le="+Inf"` lines (and a NaN bound is meaningless)
        bounds = tuple(sorted({
            b for b in (float(b) for b in buckets)
            if b == b and abs(b) != _INF
        }))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bound")
        self.buckets = bounds
        super().__init__(name, help, label_names)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    @property
    def count(self) -> int:
        return self._only().count

    @property
    def sum(self) -> float:
        return self._only().sum


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _fmt(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    """Label-value escaping per the 0.0.4 text format: backslash,
    double quote and newline must be escaped inside the quotes."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    """HELP-line escaping: backslash and newline only (quotes are fine)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


class MetricsRegistry:
    """Get-or-create home for every instrument of one process (or one
    embedded service; tests construct private registries for isolation).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get(self, cls, name: str, help: str, labels: Sequence[str],
             **extra) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, tuple(labels), **extra)
                self._families[name] = family
                return family
        if not isinstance(family, cls):
            raise ValueError(
                f"{name} already registered as a {family.kind}, not a "
                f"{cls.kind}"
            )
        if family.label_names != tuple(labels):
            raise ValueError(
                f"{name} already registered with labels "
                f"{family.label_names}, not {tuple(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = (),
              fn: Callable[[], float] | None = None) -> Gauge:
        gauge = self._get(Gauge, name, help, labels, fn=fn)
        if fn is not None and not labels:
            gauge.set_function(fn)  # re-registration refreshes the sampler
        return gauge

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_MS_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every instrument as plain JSON-serializable dicts."""
        out: dict[str, dict] = {}
        for family in self.families():
            series = []
            for values, child in family.series():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    shot = child.snapshot()
                    series.append({
                        "labels": labels,
                        "count": shot["count"],
                        "sum": shot["sum"],
                        "buckets": [[_fmt(b), n] for b, n in shot["buckets"]],
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return out

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every series."""
        lines: list[str] = []
        for family in self.families():
            name = _sanitize(family.name)
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values, child in family.series():
                pairs = ",".join(
                    f'{_sanitize(k)}="{_escape_label(v)}"'
                    for k, v in zip(family.label_names, values)
                )
                if family.kind == "histogram":
                    shot = child.snapshot()
                    for bound, n in shot["buckets"]:
                        le = f'le="{_fmt(bound)}"'
                        label = f"{{{pairs},{le}}}" if pairs else f"{{{le}}}"
                        lines.append(f"{name}_bucket{label} {n}")
                    suffix = f"{{{pairs}}}" if pairs else ""
                    lines.append(f"{name}_sum{suffix} {_fmt(shot['sum'])}")
                    lines.append(f"{name}_count{suffix} {shot['count']}")
                else:
                    suffix = f"{{{pairs}}}" if pairs else ""
                    lines.append(f"{name}{suffix} {_fmt(child.value)}")
        return "\n".join(lines) + "\n"


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default (tests); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
