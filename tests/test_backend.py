"""The selection rule + numpy-kernel parity and fallback contracts.

The NumPy kernels run if and only if ``numpy`` imports
(``repro.core.backend.HAVE_NUMPY``); nothing else selects them.  They
must be **byte-identical** to the pure-Python path everywhere: schedules
serialize to the same documents, and every int64 overflow guard falls
back to the exact path while counting itself in
``core.kernel_fallbacks``.  The parity tests call the pure-Python sweep
(:func:`repro.core.scheduler.schedule_sweep_python`) directly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import compute_spatial_blocks, schedule_streaming
from repro.core import backend as BK
from repro.core.indexed import freeze
from repro.core.scheduler import schedule_sweep_python
from repro.core.serialize import schedule_to_dict
from repro.graphs import random_canonical_graph

needs_numpy = pytest.mark.skipif(
    not BK.HAVE_NUMPY, reason="numpy backend not installed"
)

ROOT = Path(__file__).resolve().parents[1]


def sdoc(g, pes, variant):
    """The installed path's document (the NumPy kernels when present)."""
    return json.dumps(schedule_to_dict(schedule_streaming(g, pes, variant)))


def sdoc_python(g, pes, variant):
    """The pure-Python sweep's document, by direct call."""
    part = compute_spatial_blocks(g, pes, variant)
    return json.dumps(schedule_to_dict(schedule_sweep_python(g, part, pes)))


class TestSelectionPortable:
    """The selection rule and its reporting, with or without numpy."""

    def test_unknown_backend_rejected(self):
        """No call takes an implementation choice any more."""
        g = random_canonical_graph("chain", 4, seed=0)
        with pytest.raises(TypeError, match="backend"):
            schedule_streaming(g, 2, backend="fortran")

    def test_patched_off_reports_python(self, monkeypatch):
        monkeypatch.setattr(BK, "HAVE_NUMPY", False)
        assert BK.backend_info()["backend"] == "python"

    def test_patched_off_never_reaches_the_kernels(self, monkeypatch):
        """Every selection site reads HAVE_NUMPY at call time: with it
        off, no kernel runs and the answers are the installed path's."""
        from repro.core import compute_buffer_sizes, graph_fingerprint

        g = random_canonical_graph("layered", 200, seed=5)
        want = (sdoc(g, 16, "rlx"), graph_fingerprint(g.copy()))
        if BK.HAVE_NUMPY:
            from repro.core import kernels

            def boom(*args, **kwargs):
                raise AssertionError("a numpy kernel ran")

            for name in ("schedule_sweep_numpy", "buffer_sizes_numpy",
                         "wl_refine_numpy", "wl_digest_numpy"):
                monkeypatch.setattr(kernels, name, boom)
        monkeypatch.setattr(BK, "HAVE_NUMPY", False)
        fresh = g.copy()  # no memoized levels or labels
        s = schedule_streaming(fresh, 16, "rlx")
        assert json.dumps(schedule_to_dict(s)) == want[0]
        assert graph_fingerprint(fresh) == want[1]
        assert compute_buffer_sizes(s) == s.buffer_sizes

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
    def test_auto_prefers_numpy_when_installed(self, monkeypatch):
        from repro.core import kernels

        calls = []
        real = kernels.schedule_sweep_numpy
        monkeypatch.setattr(
            kernels, "schedule_sweep_numpy",
            lambda *a, **k: calls.append(1) or real(*a, **k))
        schedule_streaming(random_canonical_graph("fft", 16, seed=0), 8)
        assert calls == [1]
        assert BK.backend_info()["backend"] == "numpy"


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
            assert sdoc_python(g, pes, variant) == sdoc(g, pes, variant)

    def test_parity_without_scipy(self):
        """The DFS-derived WCC constants (the only components path; scipy
        is never imported) must match the python backend's per-block
        components."""
        g = random_canonical_graph("layered", 300, seed=3)
        assert sdoc_python(g, 32, "rlx") == sdoc(g, 32, "rlx")


def _ingested_10k(topo):
    from repro.core.ingest import ingest_graph_doc
    from repro.core.serialize import graph_to_dict

    g = random_canonical_graph(topo, 10_000, seed=7)
    return ingest_graph_doc(graph_to_dict(g))


VIEWS = ("times", "si", "so", "pe_of", "buffer_sizes")


@needs_numpy
class TestViewParity:
    """Both sweeps fill the same columns: every name-keyed view, the
    FIFO total and the document bytes agree, whichever built them."""

    CASES = [(t, s, p, v) for t, s, p, v in SCENARIOS] + [
        ("layered", 10_000, 128, "rlx"),
        ("serpar", 10_000, 128, "lts"),
    ]

    @staticmethod
    def _graph(topo, size):
        if size == 10_000:
            return _ingested_10k(topo)
        return random_canonical_graph(topo, size, seed=0)

    @pytest.mark.parametrize("topo,size,pes,variant", CASES)
    def test_views_and_documents_agree(self, topo, size, pes, variant,
                                       monkeypatch):
        from repro.core import kernels
        from repro.core.serialize import schedule_doc_bytes

        g = self._graph(topo, size)
        part = compute_spatial_blocks(g, pes, variant)
        runs = [
            kernels.schedule_sweep_numpy(g, freeze(g), part, pes),
            schedule_sweep_python(g, part, pes),
        ]
        with monkeypatch.context() as m:
            m.setattr(BK, "HAVE_NUMPY", False)
            g_off = self._graph(topo, size)
            runs.append(schedule_sweep_python(
                g_off, compute_spatial_blocks(g_off, pes, variant), pes))
        docs = [schedule_doc_bytes(s) for s in runs]
        assert docs[0] == docs[1] == docs[2]
        assert docs[0] == json.dumps(schedule_to_dict(runs[0])).encode()
        want = runs[0]
        for s in runs[1:]:
            for view in VIEWS:
                assert list(getattr(s, view).items()) == list(
                    getattr(want, view).items()), view
            assert s.makespan == want.makespan
            assert s.fifo_total == want.fifo_total

    def test_serializing_builds_no_view(self):
        from repro.core import kernels
        from repro.core.serialize import schedule_doc_bytes

        g = _ingested_10k("layered")
        part = compute_spatial_blocks(g, 128, "rlx")
        s = kernels.schedule_sweep_numpy(g, g, part, 128)
        total = s.fifo_total
        schedule_doc_bytes(s)
        assert not set(VIEWS) & set(vars(s))
        assert total == sum(s.buffer_sizes.values()) > 0

    def test_assigned_buffer_sizes_win(self):
        """Assigning (or editing) ``buffer_sizes`` replaces the FIFO
        columns for the total and the serializers."""
        from repro.core.serialize import schedule_doc_bytes

        g = random_canonical_graph("layered", 200, seed=0)
        s = schedule_streaming(g, 32, "rlx")
        edge = next(iter(s.buffer_sizes))
        s.buffer_sizes[edge] += 5
        doc = json.loads(schedule_doc_bytes(s))
        assert doc["fifo_sizes"][0]["capacity"] == s.buffer_sizes[edge]
        assert s.fifo_total == sum(s.buffer_sizes.values())
        s.buffer_sizes = {}
        assert s.fifo_total == 0
        assert json.loads(schedule_doc_bytes(s))["fifo_sizes"] == []


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
        # the upsampler's input volume IS the level denominator (the
        # level recurrence is exact python ints, with no kernel), and
        # P >= 2**31 violates the sweep's per-WCC constant bound
        P = (1 << 31) + 9
        g = _chain([(P, P), (P, 2 * P), (2 * P, 2 * P)])
        (a, b), delta = _fallback_delta(lambda: (
            sdoc(g, 2, "lts"), sdoc_python(g, 2, "lts")))
        assert a == b
        assert delta.get("core.block_sweep", 0) >= 1

    def test_beyond_int64_volumes_fall_back_wholesale(self):
        V = 1 << 70  # not representable in the int64 arrays at all
        g = _chain([(V, V), (V, V), (V, V)])
        (a, b), delta = _fallback_delta(lambda: (
            sdoc(g, 2, "lts"), sdoc_python(g, 2, "lts")))
        assert a == b
        assert delta.get("core.block_sweep", 0) >= 1


    def test_unsafe_wcc_blocks_fall_back_one_by_one(self):
        """A WCC whose constant reaches 2^31 sends only its own block to
        the exact path; the ordinary blocks around it stay on the
        kernel, and each unsafe WCC is counted once."""
        import numpy as np

        from oracles.stream_components import wcc_constants
        from repro import CanonicalGraph
        from repro.core import kernels

        V = (1 << 31) + 5
        g = CanonicalGraph()
        for i in range(6):  # ordinary chain o0 -> ... -> o5
            g.add_task(f"o{i}", 4, 4)
            if i:
                g.add_edge(f"o{i - 1}", f"o{i}")
        g.add_task("h0", V, V)  # the unsafe WCC: h0 -> h1
        g.add_task("h1", V, V)
        g.add_edge("h0", "h1")
        part = compute_spatial_blocks(g, 2, "rlx")
        ig = freeze(g)
        blk, _, members = part.columns()
        blk_arr = np.asarray(blk)
        eu, ev = kernels._stream_edges(
            kernels.graph_arrays(ig), blk_arr, members)
        const, roots = wcc_constants(ig, eu.tolist(), ev.tolist())
        unsafe = {roots[i] for i in range(ig.n) if const[i] >= 1 << 31}
        assert unsafe
        assert len({blk[r] for r in unsafe}) < part.num_blocks

        def docs():
            a = json.dumps(schedule_to_dict(
                kernels.schedule_sweep_numpy(g, ig, part, 2)))
            return a, json.dumps(schedule_to_dict(
                schedule_sweep_python(g, part, 2)))

        (a, b), delta = _fallback_delta(docs)
        assert a == b
        assert delta.get("core.block_sweep", 0) == len(unsafe)


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
            "from repro.core.backend import HAVE_NUMPY, backend_info\n"
            "assert not HAVE_NUMPY\n"
            "assert backend_info()['backend'] == 'python'\n"
            "from repro.core import schedule_streaming\n"
            "from repro.graphs import random_canonical_graph\n"
            "from repro.sim import simulate_schedule\n"
            "g = random_canonical_graph('layered', 80, seed=1)\n"
            "s = schedule_streaming(g, 8, 'lts')\n"
            "r = simulate_schedule(s)\n"
            "assert not r.deadlocked and r.makespan > 0\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
