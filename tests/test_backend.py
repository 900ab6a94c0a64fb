"""Backend selection + numpy-kernel parity and fallback contracts.

The ``numpy`` backend must be **byte-identical** to the pure-Python
path everywhere: schedules serialize to the same documents, and every
int64 overflow guard falls back to the exact path while counting itself
in ``core.kernel_fallbacks``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import schedule_streaming
from repro.core import backend as BK
from repro.core.indexed import freeze
from repro.core.serialize import schedule_to_dict
from repro.graphs import random_canonical_graph

needs_numpy = pytest.mark.skipif(
    not BK.HAVE_NUMPY, reason="numpy backend not installed"
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _reset_backend():
    """Tests may pin the process default; always restore auto."""
    yield
    BK.set_default_backend(None)


def sdoc(g, pes, variant, backend):
    return json.dumps(schedule_to_dict(
        schedule_streaming(g, pes, variant, backend=backend)))


class TestSelectionPortable:
    """Selection semantics that hold with or without numpy installed."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            BK.resolve_backend("fortran")

    def test_explicit_numpy_raises_without_numpy(self, monkeypatch):
        monkeypatch.setattr(BK, "HAVE_NUMPY", False)
        with pytest.raises(RuntimeError):
            BK.resolve_backend("numpy")
        # auto degrades silently by design
        assert BK.resolve_backend("auto") == "python"

    def test_backend_info_shape(self):
        info = BK.backend_info()
        assert info["backend"] in ("numpy", "python")
        assert isinstance(info["kernel_fallbacks"], dict)

    def test_fallbacks_reach_metrics_registry(self):
        from repro.obs import get_registry

        BK.count_fallback("test.kernel", 3)
        family = get_registry().snapshot()["core.kernel_fallbacks"]
        assert family["type"] == "counter"
        hits = [
            s for s in family["series"]
            if s["labels"].get("kernel") == "test.kernel"
        ]
        assert hits and hits[0]["value"] >= 3


@needs_numpy
class TestSelection:
    def test_auto_prefers_numpy_when_installed(self):
        assert BK.resolve_backend(None) == "numpy"
        assert BK.resolve_backend("auto") == "numpy"

    def test_explicit_choice_wins(self):
        assert BK.resolve_backend("python") == "python"
        assert BK.resolve_backend("numpy") == "numpy"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert BK.resolve_backend(None) == "python"
        # an explicit argument still beats the environment
        assert BK.resolve_backend("numpy") == "numpy"

    def test_process_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        BK.set_default_backend("python")
        assert BK.resolve_backend(None) == "python"
        BK.set_default_backend(None)
        assert BK.resolve_backend(None) == "numpy"


SCENARIOS = [
    ("layered", 200, 32, "rlx"),
    ("layered", 200, 32, "lts"),
    ("serpar", 200, 32, "lts"),
    ("fft", 64, 16, "lts"),
    ("gaussian", 10, 16, "rlx"),
    ("cholesky", 8, 16, "lts"),
]


@needs_numpy
class TestScheduleParity:
    @pytest.mark.parametrize("topo,size,pes,variant", SCENARIOS)
    def test_documents_byte_identical(self, topo, size, pes, variant):
        for seed in (0, 1):
            g = random_canonical_graph(topo, size, seed=seed)
            assert sdoc(g, pes, variant, "python") == \
                sdoc(g, pes, variant, "numpy")

    def test_parity_without_scipy(self):
        """The union-find WCC constants (the only components path; scipy
        is never imported) must match the python backend's per-block
        components."""
        g = random_canonical_graph("layered", 300, seed=3)
        assert sdoc(g, 32, "rlx", "python") == sdoc(g, 32, "rlx", "numpy")

    def test_forced_levels_match_python(self):
        """levels_numpy under force= must equal the python recurrence
        even on graphs the width heuristic would skip."""
        from repro.core.kernels import levels_numpy

        for topo, size in (("layered", 150), ("fft", 64), ("cholesky", 8)):
            g = random_canonical_graph(topo, size, seed=0)
            ig = freeze(g)
            BK.set_default_backend("python")
            ig.level_keys()  # computes the exact python numerators
            num = levels_numpy(ig, ig._level_den, force=True)
            BK.set_default_backend(None)
            assert num is not None
            assert list(num) == list(ig._level_num)


def _chain(volumes):
    """A canonical chain a0 -> a1 -> ... with the given volume pairs."""
    from repro import CanonicalGraph

    g = CanonicalGraph()
    prev = None
    for i, (vi, vo) in enumerate(volumes):
        g.add_task(i, vi, vo)
        if prev is not None:
            g.add_edge(prev, i)
        prev = i
    return g


def _fallback_delta(fn):
    before = dict(BK.fallback_counts)
    result = fn()
    delta = {
        k: v - before.get(k, 0)
        for k, v in BK.fallback_counts.items()
        if v != before.get(k, 0)
    }
    return result, delta


@needs_numpy
class TestOverflowFallbacks:
    """Adversarial volumes trip the int64 guards; results stay exact."""

    def test_huge_rate_denominator_falls_back(self):
        # the upsampler's input volume IS the level denominator, and
        # P >= 2**31 violates the levels kernel's product bound
        P = (1 << 31) + 9
        g = _chain([(P, P), (P, 2 * P), (2 * P, 2 * P)])
        (a, b), delta = _fallback_delta(lambda: (
            sdoc(g, 2, "lts", "numpy"), sdoc(g, 2, "lts", "python")))
        assert a == b
        assert delta.get("core.levels", 0) >= 1

    def test_beyond_int64_volumes_fall_back_wholesale(self):
        V = 1 << 70  # not representable in the int64 arrays at all
        g = _chain([(V, V), (V, V), (V, V)])
        (a, b), delta = _fallback_delta(lambda: (
            sdoc(g, 2, "lts", "numpy"), sdoc(g, 2, "lts", "python")))
        assert a == b
        assert delta.get("core.levels", 0) >= 1
        assert delta.get("core.block_sweep", 0) >= 1


class TestFreezeLcm:
    def test_rate_one_graphs_skip_the_lcm_entirely(self, monkeypatch):
        """No upsamplers -> denominator 1 without a single lcm call."""
        import repro.core.indexed as idx

        calls = []
        real = idx.lcm
        monkeypatch.setattr(
            idx, "lcm", lambda *a: calls.append(a) or real(*a))
        g = random_canonical_graph("layered", 300, seed=0,
                                   volume_choices=(16,))
        ig = freeze(g)
        ig.level_keys()
        assert calls == []
        assert ig._level_den == 1

    def test_lcm_reduces_over_unique_upsampler_volumes(self, monkeypatch):
        import repro.core.indexed as idx

        calls = []
        real = idx.lcm
        monkeypatch.setattr(
            idx, "lcm", lambda *a: calls.append(a) or real(*a))
        # two upsamplers with distinct input volumes: one lcm step each
        g = _chain([(8, 8), (8, 32), (32, 64)])
        ig = freeze(g)
        ig.level_keys()
        assert len(calls) == len({8, 32})
        assert ig._level_den == 32  # lcm(8, 32)


class TestNoNumpy:
    def test_pure_python_stack_without_numpy(self):
        """Full pipeline in a numpy-blocked interpreter (the CI leg)."""
        code = (
            "import importlib.abc, sys\n"
            "class B(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' or name.startswith('numpy.'):\n"
            "            raise ImportError('blocked')\n"
            "sys.meta_path.insert(0, B())\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from repro.core.backend import HAVE_NUMPY, default_backend\n"
            "assert not HAVE_NUMPY\n"
            "assert default_backend() == 'python'\n"
            "from repro.core import schedule_streaming\n"
            "from repro.graphs import random_canonical_graph\n"
            "from repro.sim.runner import simulate_schedule\n"
            "g = random_canonical_graph('layered', 80, seed=1)\n"
            "s = schedule_streaming(g, 8, 'lts')\n"
            "r = simulate_schedule(s)\n"
            "assert not r.deadlocked and r.makespan > 0\n"
            "print('ok')\n"
        )
        import os

        env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
