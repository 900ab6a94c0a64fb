"""Which array kernels the scheduling core runs on this install.

The hot arithmetic has two implementations: the exact-integer
pure-Python sweeps (:func:`repro.core.scheduler.schedule_sweep_python`,
:func:`repro.core.buffer_sizing.buffer_sizes_python`), always available
and the reference semantics; and the int64 structure-of-arrays kernels
of :mod:`repro.core.kernels`, which need the optional ``numpy`` extra
(``pip install repro-streaming-scheduling[numpy]``).

The platform decides: the NumPy kernels run if and only if ``numpy``
imports.  No option, flag or environment variable selects an
implementation.  Every selection site reads :data:`HAVE_NUMPY` through
this module at call time, so a test can force the pure-Python path
with one ``monkeypatch.setattr``.  The simulator's one engine,
:mod:`repro.sim.indexed`, is pure Python on every install.

Both implementations are **byte-identical** by contract: every kernel
guards its int64 products against overflow and falls back to the exact
pure-Python path for that unit of work (counted in
``core.kernel_fallbacks``).  The parity suites in
``tests/test_backend.py`` / ``tests/test_indexed.py`` enforce this.
"""

from __future__ import annotations

import threading

__all__ = [
    "HAVE_NUMPY",
    "backend_info",
    "count_fallback",
    "fallback_counts",
]

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy  # noqa: F401

    HAVE_NUMPY = True
    _NUMPY_VERSION: str | None = numpy.__version__
except Exception:  # pragma: no cover - import error shape varies
    HAVE_NUMPY = False
    _NUMPY_VERSION = None

_lock = threading.Lock()

#: per-kernel overflow-guard fallback counts (process-wide; mirrored to
#: the metrics registry as ``core.kernel_fallbacks{kernel}``)
fallback_counts: dict[str, int] = {}


def count_fallback(kernel: str, n: int = 1) -> None:
    """Record an overflow-guard fallback of ``kernel`` to pure Python.

    Counted twice on purpose: a cheap process-wide dict consumed by
    :func:`backend_info` (stats/profile reporting), and the
    ``core.kernel_fallbacks{kernel}`` counter on the process metrics
    registry so a service's ``metrics`` op exports it.
    """
    with _lock:
        fallback_counts[kernel] = fallback_counts.get(kernel, 0) + n
    try:
        from ..obs import get_registry

        get_registry().counter(
            "core.kernel_fallbacks",
            "array-kernel overflow-guard fallbacks to the pure-Python path",
            labels=("kernel",),
        ).labels(kernel=kernel).inc(n)
    except Exception:  # pragma: no cover - metrics must never break math
        pass


def backend_info() -> dict:
    """Active kernels + fallback counts, for stats/profile surfaces."""
    return {
        "backend": "numpy" if HAVE_NUMPY else "python",
        "numpy": _NUMPY_VERSION,
        "kernel_fallbacks": dict(fallback_counts),
    }
