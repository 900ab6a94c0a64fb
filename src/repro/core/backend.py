"""Array-kernel backend selection (``numpy`` vs ``python``).

The scheduling core has two implementations of its hot arithmetic:

* ``python`` — the exact-integer pure-Python sweeps introduced by the
  indexed rewrite (:mod:`repro.core.indexed`).  Always available,
  retained verbatim as the reference semantics.
* ``numpy`` — structure-of-arrays kernels (:mod:`repro.core.kernels`)
  that batch the same integer arithmetic over int64 arrays.  Requires
  the optional ``numpy`` extra
  (``pip install repro-streaming-scheduling[numpy]``).

The simulator is not backend-selected: its one run-time engine,
:mod:`repro.sim.indexed`, is pure Python on every install.

Both backends are **byte-identical** by contract: every kernel computes
in int64 with explicit overflow guards on the common-denominator
products, and any guard trip falls back to the exact Fraction /
pure-Python path for that unit of work (counted in
``core.kernel_fallbacks``), so serialized schedules never depend on
the backend.  The golden parity suites in ``tests/test_backend.py`` /
``tests/test_indexed.py`` enforce this.

Selection precedence, most specific wins:

1. an explicit ``backend=`` argument (``--backend`` on the CLI);
2. a process-wide override set via :func:`set_default_backend`
   (``repro serve --backend`` binds this so portfolio workers inherit);
3. the ``REPRO_BACKEND`` environment variable;
4. ``auto``: numpy when importable, else python.

``resolve_backend("numpy")`` raises when numpy is not installed —
an explicit request must not silently degrade; ``auto`` degrades
silently by design.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "BACKENDS",
    "HAVE_NUMPY",
    "resolve_backend",
    "set_default_backend",
    "default_backend",
    "backend_info",
    "count_fallback",
    "fallback_counts",
]

#: accepted spellings for ``--backend`` / ``REPRO_BACKEND``
BACKENDS = ("auto", "numpy", "python")

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy  # noqa: F401

    HAVE_NUMPY = True
    _NUMPY_VERSION: str | None = numpy.__version__
except Exception:  # pragma: no cover - import error shape varies
    HAVE_NUMPY = False
    _NUMPY_VERSION = None

_lock = threading.Lock()
_override: str | None = None  #: process-wide default set by set_default_backend

#: per-kernel overflow-guard fallback counts (process-wide; mirrored to
#: the metrics registry as ``core.kernel_fallbacks{kernel}``)
fallback_counts: dict[str, int] = {}


def resolve_backend(choice: str | None = None) -> str:
    """Resolve a backend request to ``"numpy"`` or ``"python"``.

    ``None`` and ``"auto"`` follow the precedence chain documented in
    the module docstring.  An explicit ``"numpy"`` raises
    :class:`RuntimeError` when numpy is missing.
    """
    if choice in (None, "", "auto"):
        choice = _override or os.environ.get("REPRO_BACKEND", "").strip() or "auto"
    if choice == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if choice == "python":
        return "python"
    if choice == "numpy":
        if not HAVE_NUMPY:
            raise RuntimeError(
                "backend 'numpy' requested but numpy is not installed "
                "(pip install repro-streaming-scheduling[numpy], or use "
                "--backend auto/python)"
            )
        return "numpy"
    raise ValueError(
        f"unknown backend {choice!r} (known: {', '.join(BACKENDS)})"
    )


def set_default_backend(choice: str | None) -> str:
    """Set the process-wide default backend; returns the resolved name.

    ``None``/``"auto"`` clears the override back to environment/auto
    selection.  Validation happens eagerly so a misconfigured deploy
    fails at startup, not on the first request.
    """
    global _override
    if choice in (None, "", "auto"):
        with _lock:
            _override = None
        return resolve_backend(None)
    resolved = resolve_backend(choice)  # raises on unknown/unavailable
    with _lock:
        _override = resolved
    return resolved


def default_backend() -> str:
    """The backend used when no explicit choice is given."""
    return resolve_backend(None)


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
    """Active backend + fallback counts, for stats/profile surfaces."""
    return {
        "backend": default_backend(),
        "numpy": _NUMPY_VERSION,
        "kernel_fallbacks": dict(fallback_counts),
    }
