"""Tests for the sharded serving tier: rendezvous routing and cache
affinity, shard supervision (crash detection, respawn with backoff,
failover replay), the shared JSONL store with cross-shard single-flight
(``StoreKeyLock`` + ``ScheduleCache.refresh``), the ``shard.kill``
fault site, and the zero-downtime rolling restart."""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.core import graph_to_dict
from repro.graphs import random_canonical_graph
from repro.service import (
    ScheduleCache,
    ScheduleService,
    ServiceClient,
    ShardConfig,
    ShardRouter,
    StoreKeyLock,
)
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.supervisor import BACKOFF_MIN_S, TICK_S

from conftest import STORE_LAYOUTS, service_stat, store_line, wait_until


def schedule_doc(topology="chain", size=6, seed=0, num_pes=4, **extra):
    doc = {
        "op": "schedule",
        "graph": graph_to_dict(random_canonical_graph(topology, size, seed=seed)),
        "num_pes": num_pes,
    }
    doc.update(extra)
    return doc


def make_router(tmp_path, shards=2, store=True, **kwargs):
    config = kwargs.pop("config", None)
    if config is None:
        config = ShardConfig(
            workers=2,
            store=str(tmp_path / "store.jsonl") if store else None,
            drain_grace=5.0,
        )
    router = ShardRouter(shards=shards, config=config, **kwargs)
    router.start()
    assert router.wait_ready(30.0), [s.row() for s in router.shards]
    return router


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_existing_client_works_unchanged(self, tmp_path):
        router = make_router(tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                pong = client.ping()
                assert pong["ok"] and pong["router"] is True
                response = client.request_with_retry(schedule_doc())
                assert response["ok"] and response["winner"]
                assert response["cached"] is False
        finally:
            router.stop()

    def test_repeats_of_one_graph_keep_one_shard_hot(self, tmp_path):
        router = make_router(tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                doc = schedule_doc(seed=3)
                first = client.request_with_retry(doc)
                assert first["cached"] is False
                for _ in range(4):
                    again = client.request_with_retry(doc)
                    # LRU tier of the home shard, never a recompute:
                    # the rendezvous hash pinned the graph to one shard
                    assert again["cached"] == "lru"
                stats = client.stats()
                assert stats["computed"] == 1
        finally:
            router.stop()

    def test_distinct_graphs_spread_over_shards(self, tmp_path):
        router = make_router(tmp_path, shards=2)
        try:
            # routing puts "ok" shards before ones no health poll has
            # reached yet: a shard that came up just after a poll would
            # otherwise miss every request until the next one
            assert wait_until(lambda: all(
                s.health_status == "ok" for s in router.shards
            ))
            with ServiceClient(port=router.port) as client:
                for seed in range(10):
                    client.request_with_retry(schedule_doc(seed=seed, size=4))
                stats = client.stats()
            per_shard = [row.get("served", 0) for row in stats["shards"]]
            assert sum(per_shard) >= 10
            assert all(count > 0 for count in per_shard), per_shard
        finally:
            router.stop()

    def test_router_answers_control_ops_with_aggregates(self, tmp_path):
        router = make_router(tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                client.request_with_retry(schedule_doc())
                stats = client.stats()
                assert stats["router"] is True
                assert len(stats["shards"]) == 2
                assert {"failovers", "rerouted", "shard_crashes", "respawns",
                        "reloads"} <= set(stats["router_counters"])
                # every shard serves under the start-up freeze
                assert all(row["gc"]["frozen"] > 0 for row in stats["shards"])
                # "ok" needs one health-poll round trip per shard first
                assert wait_until(
                    lambda: client.health()["status"] == "ok"
                )
                health = client.health()
                assert [row["state"] for row in health["shards"]] == ["up", "up"]
                metrics = client.metrics()
                assert "router_requests" in metrics["text"]
        finally:
            router.stop()

    def test_bad_json_answered_without_a_shard(self, tmp_path):
        router = make_router(tmp_path, shards=1, store=False)
        try:
            with socket.create_connection(("127.0.0.1", router.port),
                                          timeout=10) as sock:
                sock.sendall(b"this is not json\n")
                line = sock.makefile("rb").readline()
            doc = json.loads(line)
            assert doc["ok"] is False and "bad request" in doc["error"]
        finally:
            router.stop()


# ----------------------------------------------------------------------
# supervision: crash detection, respawn, failover
# ----------------------------------------------------------------------
class TestSupervision:
    def test_sigkilled_shard_is_respawned_with_fresh_pid(self, tmp_path):
        router = make_router(tmp_path, store=False)
        try:
            victim = router.shards[0]
            old_pid = victim.pid
            os.kill(old_pid, signal.SIGKILL)
            assert wait_until(lambda: victim.crashes == 1)
            assert wait_until(
                lambda: victim.state == "up" and victim.pid != old_pid
            )
            kinds = [e["kind"] for e in router.telemetry.flight.last(20)]
            assert "shard_crash" in kinds and "respawn" in kinds
            assert router._c_crashes.value == 1
            assert router._c_respawns.value == 1
        finally:
            router.stop()

    def test_repeated_crashes_back_off_exponentially(self, tmp_path, clock):
        router = make_router(tmp_path, shards=1, store=False, clock=clock,
                             health_interval_s=30.0)
        try:
            victim = router.shards[0]
            for expected, delay in ((1, 0.05), (2, 0.1), (3, 0.2)):
                pid = victim.pid
                os.kill(pid, signal.SIGKILL)
                assert wait_until(lambda: victim.crashes == expected)
                assert victim.respawn_at - clock() == pytest.approx(delay)
                # the shard stays down while the clock stands still
                time.sleep(3 * TICK_S)
                assert victim.state == "down" and victim.proc is None
                clock.advance(delay)
                assert wait_until(lambda: victim.state == "up")
            # no health poll ran (interval 30s), so nothing reset the
            # doubling: 0.05 -> 0.1 -> 0.2 -> 0.4 pending
            assert victim.backoff_s == pytest.approx(0.4)
        finally:
            router.stop()

    def test_healthy_round_trip_resets_the_backoff(self, tmp_path, clock):
        router = make_router(tmp_path, shards=1, store=False, clock=clock,
                             health_interval_s=0.05)
        try:
            victim = router.shards[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert wait_until(lambda: victim.crashes == 1)
            assert victim.backoff_s == pytest.approx(2 * BACKOFF_MIN_S)
            clock.advance(BACKOFF_MIN_S)
            assert wait_until(
                lambda: victim.backoff_s == pytest.approx(0.05), timeout=15.0
            )
        finally:
            router.stop()

    def test_request_fails_over_when_home_shard_dies(self, tmp_path, clock):
        # the clock never advances: the victim stays down
        router = make_router(tmp_path, shards=2, clock=clock)
        try:
            with ServiceClient(port=router.port) as client:
                doc = schedule_doc(seed=1)
                first = client.request_with_retry(doc)
                assert first["ok"]
                home = router._rendezvous(
                    json.dumps(doc).encode() + b"\n", doc
                )[0]
                victim = router.shards[home]
                os.kill(victim.pid, signal.SIGKILL)
                wait_until(lambda: victim.state != "up", timeout=5.0)
                # the home shard is down and stays down (clock stopped):
                # the sibling must answer, correctly, from the shared store
                again = client.request_with_retry(doc)
                assert again["ok"]
                assert again["winner"] == first["winner"]
                assert again["makespan"] == first["makespan"]
            assert router._c_rerouted.value >= 1
        finally:
            router.stop()

    def test_no_shard_available_is_a_retryable_refusal(self, tmp_path, clock):
        router = make_router(tmp_path, shards=1, store=False, clock=clock)
        router.NO_SHARD_GRACE_S = 0.2
        try:
            os.kill(router.shards[0].pid, signal.SIGKILL)
            assert wait_until(lambda: router.shards[0].state != "up")
            with ServiceClient(port=router.port) as client:
                response = client.request_raw(
                    json.dumps(schedule_doc()).encode() + b"\n"
                )
            assert response["ok"] is False
            assert response["retryable"] is True
            assert "no shard available" in response["error"]
        finally:
            router.stop()


# ----------------------------------------------------------------------
# the shard.kill fault site
# ----------------------------------------------------------------------
class TestShardKillFault:
    def test_plan_accepts_the_site_and_kills_deterministically(self, tmp_path):
        plan = FaultPlan.from_dict(
            {"seed": 11, "rules": [{"site": "shard.kill", "rate": 1.0,
                                    "count": 1, "after": 2}]}
        )
        router = make_router(
            tmp_path, shards=2, faults=FaultInjector(plan),
        )
        try:
            pids = [s.pid for s in router.shards]
            with ServiceClient(port=router.port) as client:
                for seed in range(4):
                    response = client.request_with_retry(
                        schedule_doc(seed=seed, size=4), retries=4
                    )
                    assert response["ok"]
            assert wait_until(
                lambda: sum(s.crashes for s in router.shards) == 1
            )
            assert wait_until(
                lambda: all(s.state == "up" for s in router.shards)
            )
            assert [s.pid for s in router.shards] != pids
            kinds = [e["kind"] for e in router.telemetry.flight.last(50)]
            assert "shard_kill" in kinds and "shard_crash" in kinds
        finally:
            router.stop()

    def test_victim_reaped_between_choice_and_kill(self):
        # the supervise thread may reap the victim between the live
        # filter and the kill: the kill must find the hole, not raise
        plan = FaultPlan.from_dict(
            {"seed": 0, "rules": [{"site": "shard.kill", "rate": 1.0}]}
        )
        router = ShardRouter(shards=1, faults=FaultInjector(plan))
        shard = router.shards[0]

        class Stub:  # no pid: nothing real can be signalled
            def is_alive(self):
                shard.proc = None
                return True

        shard.proc = Stub()
        router._maybe_kill_shard()
        kinds = [e["kind"] for e in router.telemetry.flight.last(10)]
        assert "shard_kill" in kinds


# ----------------------------------------------------------------------
# shared store: refresh visibility and cross-shard single-flight
# ----------------------------------------------------------------------
class TestSharedStore:
    @staticmethod
    def _append(path, key, value, layout):
        with open(path, "ab") as fh:
            fh.write(store_line(key, {"value": value}, layout))

    def test_refresh_sees_a_sibling_writers_appends(self, tmp_path):
        for layout in STORE_LAYOUTS:
            path = tmp_path / layout / "store.jsonl"
            path.parent.mkdir()
            writer = ScheduleCache(path, capacity=8, shared=True)
            reader = ScheduleCache(path, capacity=8, shared=True)
            assert reader.get("k0") is None
            if layout == "entry_crc":
                writer.put("k0", {"value": 0})
            else:  # a sibling still on the legacy layout
                self._append(path, "k0", 0, layout)
            # a corrupt sibling record is skipped, never indexed
            self._append(path, "k1", 1, layout)
            path.write_bytes(
                path.read_bytes().replace(b'"value": 1', b'"value": 7')
            )
            assert reader.get("k0") is None  # not yet refreshed
            assert reader.refresh() == 1
            entry, tier = reader.get("k0")
            assert entry["value"] == 0 and tier == "store"
            assert reader.get("k1") is None

    def test_refresh_skips_torn_tail_without_truncating(self, tmp_path):
        for layout in STORE_LAYOUTS:
            path = tmp_path / layout / "store.jsonl"
            path.parent.mkdir()
            writer = ScheduleCache(path, capacity=8, shared=True)
            reader = ScheduleCache(path, capacity=8, shared=True)
            writer.put("k0", {"value": 0})
            with open(path, "ab") as fh:
                # a sibling mid-append
                fh.write(store_line("torn", {"value": 1}, layout)[:12])
            size_before = path.stat().st_size
            assert reader.refresh() == 1
            assert path.stat().st_size == size_before  # reader never truncates
            assert reader.get("k0") is not None

    def test_shared_mode_refuses_compaction(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cache = ScheduleCache(path, capacity=8, shared=True)
        for i in range(10):
            cache.put("hot", {"value": i})  # lots of dead bytes
        assert cache.compact() == 0
        assert cache.counters()["shared"] is True

    def test_keylock_excludes_across_instances(self, tmp_path):
        lock_a = StoreKeyLock(tmp_path / "store.jsonl")
        lock_b = StoreKeyLock(tmp_path / "store.jsonl")
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with lock_a.acquire("k"):
                order.append("a-in")
                entered.set()
                release.wait(5.0)
                order.append("a-out")

        def waiter():
            entered.wait(5.0)
            with lock_b.acquire("k"):
                order.append("b-in")

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        for t in threads:
            t.start()
        entered.wait(5.0)
        time.sleep(0.1)
        release.set()
        for t in threads:
            t.join(10.0)
        assert order == ["a-in", "a-out", "b-in"]

    def test_keylock_deadline_raises_timeout(self, tmp_path):
        lock = StoreKeyLock(tmp_path / "store.jsonl")
        other = StoreKeyLock(tmp_path / "store.jsonl")
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with lock.acquire("k"):
                entered.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(5.0)
            with pytest.raises(TimeoutError):
                with other.acquire("k", deadline=time.perf_counter() + 0.2):
                    pass  # pragma: no cover
        finally:
            release.set()
            thread.join(5.0)

    def test_leader_reprobes_store_after_taking_the_key_lock(self, tmp_path):
        # two services over one shared store: B computes and persists a
        # key; A, asked for the same graph cold, must answer from the
        # store inside its keylock bracket instead of recomputing
        path = tmp_path / "store.jsonl"
        doc = schedule_doc(seed=5)

        service_b = ScheduleService(
            cache=ScheduleCache(path, capacity=8, shared=True),
            keylock=StoreKeyLock(path),
        )
        response_b = service_b.handle(doc)
        assert response_b["ok"] and response_b["cached"] is False

        service_a = ScheduleService(
            cache=ScheduleCache(path, capacity=8, shared=True),
            keylock=StoreKeyLock(path),
        )
        # LRU and store index are empty in A (built before B's put was
        # visible? no — built fresh, but refresh() runs under the lock)
        service_a.cache._disk.clear()
        service_a.cache._file_bytes = 0
        response_a = service_a.handle(doc)
        assert response_a["ok"]
        assert response_a["cached"] == "store"
        assert response_a["winner"] == response_b["winner"]
        assert service_stat(service_a, "crossflight") == 1


# ----------------------------------------------------------------------
# rolling restart
# ----------------------------------------------------------------------
class TestRollingRestart:
    def test_reload_replaces_every_shard_and_serves_throughout(self, tmp_path):
        router = make_router(tmp_path, shards=2)
        try:
            pids = [s.pid for s in router.shards]
            stop = threading.Event()
            outcomes = {"ok": 0, "incorrect": 0, "gave_up": 0}
            baseline = {}

            def load():
                with ServiceClient(port=router.port) as client:
                    i = 0
                    while not stop.is_set():
                        seed = i % 3
                        i += 1
                        try:
                            response = client.request_with_retry(
                                schedule_doc(seed=seed), retries=8
                            )
                        except Exception:
                            outcomes["gave_up"] += 1
                            continue
                        if not response.get("ok"):
                            outcomes["gave_up"] += 1
                        elif baseline.setdefault(
                            seed, response["makespan"]
                        ) != response["makespan"]:
                            outcomes["incorrect"] += 1
                        else:
                            outcomes["ok"] += 1

            thread = threading.Thread(target=load)
            thread.start()
            try:
                assert wait_until(lambda: outcomes["ok"] >= 3)
                started = router.reload()
                assert started["ok"]
                assert wait_until(
                    lambda: router._c_reloads.value == 1, timeout=60.0
                )
            finally:
                stop.set()
                thread.join(15.0)
            assert outcomes["incorrect"] == 0, outcomes
            assert outcomes["ok"] >= 3
            # every shard was replaced, and via the drain path, not a kill
            assert [s.pid for s in router.shards] != pids
            assert all(s.crashes == 0 for s in router.shards)
            assert all(s.restarts == 1 for s in router.shards)
            assert all(s.state == "up" for s in router.shards)
            kinds = [e["kind"] for e in router.telemetry.flight.last(50)]
            assert kinds.count("reload_shard") == 2
            assert "reload_done" in kinds
        finally:
            router.stop()

    def test_concurrent_reload_is_refused(self, tmp_path):
        router = make_router(tmp_path, shards=2, store=False)
        try:
            first = router.reload()
            assert first["ok"]
            second = router.reload()
            assert second["ok"] is False
            assert "in progress" in second["error"]
            assert wait_until(
                lambda: router._c_reloads.value == 1, timeout=60.0
            )
        finally:
            router.stop()
