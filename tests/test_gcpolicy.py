"""Tests for the serving process's garbage-collector policy: the
start-up freeze and young-generation threshold applied around the serve
loop, the collection-timing hook behind ``runtime.gc_ms``, the ``gc``
block of the ``stats`` op and its ``repro top`` line — and that nothing
outside a serve loop changes the interpreter's collector settings."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.graphs import random_canonical_graph
from repro.obs import MetricsRegistry
from repro.service import ScheduleServer, ScheduleService, ServiceClient
from repro.service.console import OpsConsole
from repro.service.gcpolicy import (
    YOUNG_GEN_THRESHOLD,
    _CollectionTimer,
    gc_stats,
    serving_gc,
)

ROOT = Path(__file__).resolve().parents[1]


def gc_state():
    return gc.get_threshold(), gc.get_freeze_count(), list(gc.callbacks)


class TestServingGc:
    def test_policy_applies_inside_and_restores_on_exit(self):
        before = gc_state()
        registry = MetricsRegistry()
        with serving_gc(registry):
            threshold, frozen, callbacks = gc_state()
            assert threshold == (YOUNG_GEN_THRESHOLD, *before[0][1:])
            assert frozen > 0
            assert len(callbacks) == len(before[2]) + 1
        assert gc_state() == before

    def test_restores_when_the_body_raises(self):
        before = gc_state()
        try:
            with serving_gc(MetricsRegistry()):
                raise KeyError("boom")
        except KeyError:
            pass
        assert gc_state() == before

    def test_hook_times_collections_per_generation(self):
        registry = MetricsRegistry()
        with serving_gc(registry):
            gc.collect(0)
            gc.collect()
            block = gc_stats(registry)
        gens = block["generations"]
        assert gens[0]["collections"] >= 1
        assert gens[2]["collections"] >= 1 and gens[2]["pause_ms"] > 0
        snap = registry.snapshot()
        assert snap["runtime.gc_ms"]["label_names"] == ["generation"]
        assert snap["runtime.gc_collections"]["type"] == "counter"

    def test_hook_records_nothing_in_a_forked_child(self):
        registry = MetricsRegistry()
        timer = _CollectionTimer(registry)
        timer._pid = os.getpid() + 1  # as seen from a forked child
        timer("start", {"generation": 0})
        timer("stop", {"generation": 0})
        assert gc_stats(registry)["generations"][0]["collections"] == 0

    def test_histogram_snapshot_survives_a_collection_hook(self):
        """A collection can start at any allocation, in any thread, and
        the timing hook then observes into a histogram child; so a
        snapshot of that child must not allocate under the child's lock,
        or a collection starting there waits on that lock forever."""
        child = MetricsRegistry().histogram(
            "runtime.gc_ms", labels=("generation",)
        ).labels(generation=0)
        stop = threading.Event()
        workers: set[int] = set()

        def hook(phase, info):
            # only the two workers observe, so a deadlock stays theirs
            if phase == "stop" and threading.get_ident() in workers:
                child.observe(0.1)

        def snapshots():
            workers.add(threading.get_ident())
            while not stop.is_set():
                child.snapshot()

        def churn():
            # surviving allocations from a second thread move the
            # collector's count to its threshold at arbitrary points of
            # the snapshot loop (the switch interval is tiny below)
            workers.add(threading.get_ident())
            kept = []
            while not stop.is_set():
                kept.append([])
                if len(kept) > 1000:
                    kept.clear()

        threads = [
            threading.Thread(target=fn, daemon=True)
            for fn in (snapshots, churn)
        ]
        previous, interval = gc.get_threshold(), sys.getswitchinterval()
        gc.callbacks.append(hook)
        gc.set_threshold(7)
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            stop.wait(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            workers.clear()
            sys.setswitchinterval(interval)
            gc.set_threshold(*previous)
            gc.callbacks.remove(hook)
        assert not any(t.is_alive() for t in threads), "snapshot deadlocked"
        assert child.count > 0


class TestLibraryDefaults:
    def test_import_and_server_start_leave_the_collector_alone(self):
        """Embedders keep the interpreter defaults: importing the
        service package and starting a server changes nothing."""
        code = (
            "import gc\n"
            "before = (gc.get_threshold(), gc.get_freeze_count())\n"
            "from repro.service import ScheduleServer, ScheduleService\n"
            "server = ScheduleServer(ScheduleService(), port=0).start()\n"
            "during = (gc.get_threshold(), gc.get_freeze_count())\n"
            "server.stop(); server.join()\n"
            "assert before == during, (before, during)\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_in_process_server_reports_untracked_gc(self):
        with ScheduleServer(ScheduleService(), port=0, workers=1) as server:
            with ServiceClient(port=server.port) as client:
                block = client.stats()["gc"]
        assert block["threshold"] == list(gc.get_threshold())
        assert block["frozen"] == gc.get_freeze_count()
        assert block["generations"] is None


class TestServingStack:
    @staticmethod
    def _no_oracle_loaded(setup: str) -> None:
        """Run ``setup`` in a fresh interpreter that could import the
        test oracles (``tests/`` is on its path) and assert it loaded
        none of them."""
        code = setup + (
            "import sys\n"
            "loaded = [m for m in sys.modules\n"
            "          if m == 'oracles' or m.startswith('oracles.')]\n"
            "assert not loaded, loaded\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_serving_process_never_imports_the_oracles(self):
        """The start-up import stack and the scheduler stack a miss
        runs load the run-time engines only: the reference simulator
        and scheduler are test oracles under ``tests/oracles``."""
        self._no_oracle_loaded(
            "from repro.service.gcpolicy import _import_serving_stack\n"
            "from repro.service import portfolio, server\n"
            "_import_serving_stack()\n"
            "from repro import baselines, core\n"
            "from repro.core import indexed, ingest\n"
        )

    def test_package_imports_load_no_oracle(self):
        self._no_oracle_loaded("import repro, repro.sim, repro.service\n")


class TestServeCommand:
    def test_serve_subprocess_freezes_once(self, tmp_path):
        env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"),
            REPRO_SERVICE_DIR=str(tmp_path / "svc"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "-w", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("serving on "):
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            assert port is not None, "repro serve did not start"
            with ServiceClient(port=port, timeout=30.0) as client:
                first = client.stats()["gc"]
                for seed in range(4):
                    g = random_canonical_graph("layered", 200, seed=seed)
                    assert client.schedule(g, 8)["ok"]
                    assert client.simulate(g, 8)["ok"]
                stats = client.stats()
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        block = stats["gc"]
        assert first["frozen"] > 0
        assert block["frozen"] == first["frozen"]  # never frozen per request
        assert block["threshold"][0] == YOUNG_GEN_THRESHOLD
        assert [set(g) for g in block["generations"]] == \
            [{"collections", "pause_ms"}] * 3  # the hook is installed
        frame = OpsConsole("127.0.0.1", port).render(
            {"stats": stats, "rps": 0.0, "mean_ms": 0.0}
        )
        assert f"threshold {YOUNG_GEN_THRESHOLD}/" in frame
        assert "gen0 " in frame
