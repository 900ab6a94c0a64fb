"""Tests for the reliability layer: fault plans and injection, the
circuit breaker, crash-safe cache recovery (torn tails, corrupt records,
interrupted compaction), supervised portfolio workers, per-request
deadlines, client transport recovery and retries, shed/drain/health, and
an in-process chaos smoke run."""

import json
import os
import random
import shutil
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.campaign import append_jsonl, read_jsonl
from repro.campaign.store import record_crc as campaign_record_crc
from repro.core import graph_to_dict
from repro.graphs import random_canonical_graph
from repro.obs import MetricsRegistry
from repro.service import (
    FAULT_SITES,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ScheduleCache,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
    ServiceError,
    run_loadgen,
    run_portfolio,
)
from repro.service.cache import decode_record
from repro.service.cache import record_crc as cache_record_crc
from repro.service.portfolio import (
    HANG_TIMEOUT_S,
    PortfolioPool,
    QuarantinedError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.supervisor import BACKOFF_MAX_S, BACKOFF_MIN_S, TICK_S

from conftest import STORE_LAYOUTS, store_line, wait_until


def schedule_doc(topology="chain", size=6, seed=0, num_pes=4, **extra):
    doc = {
        "op": "schedule",
        "graph": graph_to_dict(random_canonical_graph(topology, size, seed=seed)),
        "num_pes": num_pes,
    }
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# fault plans and the injector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_known_sites_cover_the_stack(self):
        assert FAULT_SITES == {
            "disk.read", "disk.write", "worker.crash", "worker.hang",
            "conn.drop", "conn.partial", "compute.slow", "shard.kill",
        }

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="disk.reed")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_dict({"rules": [{"site": "nope", "rate": 1.0}]})

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ValueError, match="unknown rule fields"):
            FaultPlan.from_dict(
                {"rules": [{"site": "conn.drop", "rte": 0.5}]}
            )

    def test_malformed_plans_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict([])  # not an object
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"seed": 3})  # no rules list
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"rules": [{"rate": 1.0}]})  # no site
        with pytest.raises(ValueError):
            FaultRule(site="conn.drop", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule(site="conn.drop", count=-1)
        with pytest.raises(ValueError):
            FaultRule(site="compute.slow", seconds=-0.1)

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan.from_dict(
            {"seed": 9, "rules": [
                {"site": "worker.hang", "rate": 0.5, "count": 2,
                 "after": 3, "seconds": 0.2},
                {"site": "conn.drop", "rate": 0.1},
            ]}
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.seed == 9
        assert [r.site for r in again.rules] == ["worker.hang", "conn.drop"]
        assert again.rules[0].seconds == 0.2 and again.rules[0].after == 3

    def test_fire_sequence_is_deterministic(self):
        doc = {"seed": 42, "rules": [
            {"site": "conn.drop", "rate": 0.3},
            {"site": "disk.read", "rate": 0.7, "after": 2},
        ]}
        runs = []
        for _ in range(2):
            inj = FaultInjector(FaultPlan.from_dict(doc))
            runs.append([
                (site, inj.fire(site) is not None)
                for site in ["conn.drop", "disk.read"] * 50
            ])
        assert runs[0] == runs[1]
        assert any(fired for _, fired in runs[0])

    def test_sites_draw_independent_streams(self):
        # traffic at one site must not shift decisions at another: the
        # disk.read sequence is identical whether or not conn.drop is
        # being consulted in between
        doc = {"seed": 7, "rules": [
            {"site": "conn.drop", "rate": 0.5},
            {"site": "disk.read", "rate": 0.5},
        ]}
        quiet = FaultInjector(FaultPlan.from_dict(doc))
        noisy = FaultInjector(FaultPlan.from_dict(doc))
        quiet_seq = [quiet.fire("disk.read") is not None for _ in range(40)]
        noisy_seq = []
        for _ in range(40):
            noisy.fire("conn.drop")
            noisy_seq.append(noisy.fire("disk.read") is not None)
        assert quiet_seq == noisy_seq

    def test_count_and_after_bound_firing(self):
        rule = FaultRule(site="conn.drop", rate=1.0, count=2, after=3)
        inj = FaultInjector(FaultPlan([rule], seed=0))
        fired = [inj.fire("conn.drop") is not None for _ in range(8)]
        assert fired == [False, False, False, True, True, False, False, False]
        assert rule.exhausted
        assert not inj.active()
        assert inj.fired["conn.drop"] == 2

    def test_unlimited_rule_keeps_plan_active(self):
        inj = FaultInjector(
            FaultPlan([FaultRule(site="conn.drop", rate=0.0)], seed=0)
        )
        for _ in range(10):
            assert inj.fire("conn.drop") is None
        assert inj.active()  # count=None can always fire later

    def test_unplanned_site_never_fires(self):
        inj = FaultInjector(
            FaultPlan([FaultRule(site="conn.drop", rate=1.0)], seed=0)
        )
        assert inj.fire("disk.read") is None

    def test_snapshot_reports_rules_and_counts(self):
        inj = FaultInjector(
            FaultPlan([FaultRule(site="compute.slow", rate=1.0, count=1,
                                 seconds=0.01)], seed=5)
        )
        assert inj.fire("compute.slow") is not None
        snap = inj.snapshot()
        assert snap["seed"] == 5 and snap["active"] is False
        assert snap["fired"] == {"compute.slow": 1}
        (rule,) = snap["rules"]
        assert rule["site"] == "compute.slow"
        assert rule["fired"] == 1 and rule["checks"] == 1
        assert rule["seconds"] == 0.01

    def test_fire_counts_into_bound_registry(self):
        reg = MetricsRegistry()
        inj = FaultInjector(
            FaultPlan([FaultRule(site="conn.drop", rate=1.0, count=3)])
        )
        inj.bind(registry=reg)
        for _ in range(5):
            inj.fire("conn.drop")
        family = reg.counter(
            "service.faults_injected",
            "Faults injected by the active fault plan",
            labels=("site",),
        )
        assert family.labels(site="conn.drop").value == 3

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 3, "rules": [{"site": "conn.drop", "rate": 1.0}]}
        ))
        inj = FaultInjector.load(path)
        assert inj.plan.seed == 3
        assert inj.fire("conn.drop") is not None

    def test_serve_rejects_bad_plan_with_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"rules": [{"site": "disk.reed"}]}
        ))
        code = main([
            "serve", "--port", "0",
            "--store", str(tmp_path / "s.jsonl"),
            "--fault-plan", str(plan),
        ])
        assert code == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_committed_smoke_plan_is_valid(self):
        plan = FaultPlan.load("benchmarks/faultplans/smoke.json")
        assert plan.seed == 7
        sites = {r.site for r in plan.rules}
        assert "worker.crash" in sites and "conn.partial" in sites
        # every rule is bounded, so the plan drains and health recovers
        assert all(r.count is not None for r in plan.rules)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        return clock, CircuitBreaker(
            name="disk", failure_threshold=threshold, cooldown_s=cooldown,
            clock=clock,
        )

    def test_opens_after_consecutive_failures(self):
        _, br = self.make()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open" and br.opens == 1
        assert not br.allow()

    def test_success_resets_the_failure_run(self):
        _, br = self.make()
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"  # never 3 consecutive

    def test_half_open_admits_exactly_one_probe(self):
        clock, br = self.make()
        for _ in range(3):
            br.record_failure()
        clock.t += 10.0
        assert br.state == "half_open"
        assert br.allow()  # the probe
        assert not br.allow()  # everyone else keeps degrading

    def test_probe_success_closes(self):
        clock, br = self.make()
        for _ in range(3):
            br.record_failure()
        clock.t += 10.0
        assert br.allow()
        br.record_success()
        assert br.state == "closed" and br.allow()

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock, br = self.make()
        for _ in range(3):
            br.record_failure()
        clock.t += 10.0
        assert br.allow()
        br.record_failure()
        assert br.state == "open" and br.opens == 2
        assert not br.allow()
        clock.t += 9.9
        assert not br.allow()  # cooldown restarted at the reopen
        clock.t += 0.2
        assert br.allow()

    def test_force_open_and_reset(self):
        _, br = self.make()
        br.force_open()
        assert br.state == "open" and not br.allow()
        br.reset()
        assert br.state == "closed" and br.allow()

    def test_state_gauge_tracks_transitions(self):
        reg = MetricsRegistry()
        clock, br = self.make()
        br.bind(registry=reg)
        gauge = reg.gauge(
            "breaker.state",
            "Circuit breaker state (0 closed, 0.5 half-open, 1 open)",
            labels=("name",),
        ).labels(name="disk")
        assert gauge.value == 0.0
        br.force_open()
        assert gauge.value == 1.0
        clock.t += 10.0
        assert br.state == "half_open"
        assert gauge.value == 0.5

    def test_half_open_concurrent_probes_admit_exactly_one(self):
        # two threads hitting allow() at the same instant while the
        # breaker is half-open must race for one probe slot; the state
        # machine has to stay consistent whichever thread wins
        for trial in range(20):
            clock, br = self.make()
            for _ in range(3):
                br.record_failure()
            clock.t += 10.0
            assert br.state == "half_open"
            barrier = threading.Barrier(2)
            admitted = []

            def probe():
                barrier.wait()
                if br.allow():
                    admitted.append(threading.get_ident())

            threads = [threading.Thread(target=probe) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(admitted) == 1, f"trial {trial}: {len(admitted)} probes"
            assert br.state == "half_open"
            assert not br.allow()  # the probe slot stays taken
            br.record_success()  # the winning probe reports back
            assert br.state == "closed" and br.allow()

    def test_half_open_concurrent_probe_failure_reopens_once(self):
        clock, br = self.make()
        for _ in range(3):
            br.record_failure()
        clock.t += 10.0
        barrier = threading.Barrier(2)
        results = []

        def probe():
            barrier.wait()
            results.append(br.allow())

        threads = [threading.Thread(target=probe) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == [False, True]
        br.record_failure()  # the admitted probe fails
        assert br.state == "open" and br.opens == 2
        assert not br.allow()

    def test_to_dict_shape(self):
        _, br = self.make()
        doc = br.to_dict()
        assert doc == {
            "name": "disk", "state": "closed", "failures": 0,
            "threshold": 3, "cooldown_s": 10.0, "opens": 0,
        }

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# crash-safe cache: checksums, torn tails, quarantine, degradation
# ----------------------------------------------------------------------
def fill_cache(path, n=6, capacity=64):
    cache = ScheduleCache(path, capacity=capacity)
    for i in range(n):
        cache.put(f"k{i}", {"value": i, "pad": "x" * 20})
    return cache


def write_store(path, n, layout):
    """``n`` records ``k<i>`` in one of the store's line layouts (the
    ``entry_crc`` layout through ``put``, as a server writes it)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if layout == "entry_crc":
        fill_cache(path, n=n)
        return
    path.write_bytes(b"".join(
        store_line(f"k{i}", {"value": i, "pad": "x" * 20}, layout)
        for i in range(n)
    ))


class TestCrashSafeCache:
    def test_records_carry_verifiable_checksums(self, tmp_path):
        path = tmp_path / "store.jsonl"
        fill_cache(path, n=3)
        lines = path.read_bytes().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            doc = json.loads(line)
            # the checksum covers the entry bytes, the tail of the line
            body = line.split(b', "entry": ', 1)[1][:-1]
            assert doc["entry_crc"] == zlib.crc32(body)
            assert decode_record(line) == (f"k{i}", doc["entry"])

    def test_corrupt_interior_record_is_quarantined_at_load(self, tmp_path):
        for layout in STORE_LAYOUTS:
            path = tmp_path / layout / "store.jsonl"
            write_store(path, 5, layout)
            lines = path.read_bytes().splitlines(keepends=True)
            # flip a digit inside k2's entry: still JSON, but the crc lies
            lines[2] = lines[2].replace(b'"value": 2', b'"value": 7')
            path.write_bytes(b"".join(lines))
            cache = ScheduleCache(path, capacity=64)
            assert cache.corrupt_records == 1
            assert cache.get("k2") is None  # quarantined, never served wrong
            assert path.with_name("store.jsonl.quarantine").exists()
            for i in (0, 1, 3, 4):
                entry, tier = cache.get(f"k{i}")
                assert entry["value"] == i and tier == "store"

    def test_unparseable_line_is_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "store.jsonl"
        fill_cache(path, n=2)
        with open(path, "ab") as fh:
            fh.write(b"{this is not json}\n")
        cache = ScheduleCache(path, capacity=64)
        assert cache.corrupt_records == 1
        assert cache.get("k0") is not None and cache.get("k1") is not None

    def test_quarantine_rotates_at_its_size_bound(self, tmp_path):
        # a persistently corrupt disk must never fill the volume through
        # the quarantine file: it rotates at the bound, keeping exactly
        # one previous generation
        path = tmp_path / "store.jsonl"
        qpath = path.with_name("store.jsonl.quarantine")
        junk = b"{broken " + b"x" * 120 + b"}\n"
        fill_cache(path, n=1)
        with open(path, "ab") as fh:
            fh.write(junk)
        sizes = []
        for _ in range(8):
            cache = ScheduleCache(path, capacity=8,
                                  quarantine_max_bytes=256)
            assert cache.corrupt_records == 1
            sizes.append(qpath.stat().st_size)
        assert qpath.with_name("store.jsonl.quarantine.1").exists()
        assert max(sizes) <= 256 + len(junk)  # bounded, not monotone
        assert sizes[-1] < sizes[0] * 8  # actually rotated, not grown
        assert cache.counters()["quarantine_bytes"] == qpath.stat().st_size

    def test_quarantine_bytes_gauge_is_registered(self, tmp_path):
        path = tmp_path / "store.jsonl"
        fill_cache(path, n=1)
        with open(path, "ab") as fh:
            fh.write(b"{junk}\n")
        registry = MetricsRegistry()
        cache = ScheduleCache(path, capacity=8, registry=registry)
        assert cache.corrupt_records == 1
        gauge = registry.gauge("cache.quarantine_bytes")
        assert gauge.value == path.with_name(
            "store.jsonl.quarantine").stat().st_size
        assert gauge.value > 0

    def test_legacy_records_without_crc_still_served(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with open(path, "wb") as fh:
            fh.write(json.dumps({"key": "old", "entry": {"value": 1}}).encode()
                     + b"\n")
        cache = ScheduleCache(path, capacity=64)
        entry, tier = cache.get("old")
        assert entry == {"value": 1} and tier == "store"
        assert cache.corrupt_records == 0

    def test_torn_tail_is_truncated_and_appends_stay_clean(self, tmp_path):
        path = tmp_path / "store.jsonl"
        fill_cache(path, n=3)
        whole = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"key": "torn", "entry": {"va')  # killed mid-append
        cache = ScheduleCache(path, capacity=64)
        assert cache.recovered_tail_bytes > 0
        assert path.stat().st_size == whole  # the fragment is gone
        for i in range(3):
            assert cache.get(f"k{i}")[0]["value"] == i
        # a fresh append after recovery must not merge into the fragment
        cache.put("after", {"value": 99})
        reopened = ScheduleCache(path, capacity=64)
        assert reopened.get("after")[0]["value"] == 99
        assert reopened.corrupt_records == 0

    def test_bit_rot_detected_on_store_read(self, tmp_path):
        for layout in STORE_LAYOUTS:
            path = tmp_path / layout / "store.jsonl"
            write_store(path, 4, layout)
            cache = ScheduleCache(path, capacity=64)  # index built, LRU empty
            raw = path.read_bytes()
            # same-length in-place mangle of k1's entry, after the index load
            rotted = raw.replace(b'"value": 1', b'"value": 8')
            assert len(rotted) == len(raw)
            path.write_bytes(rotted)
            assert cache.get("k1") is None
            assert cache.corrupt_records == 1
            assert cache.get("k1", count_miss=False) is None  # slot forgotten
            assert cache.get("k0")[0]["value"] == 0

    def test_injected_write_faults_trip_the_disk_tier(self, tmp_path):
        inj = FaultInjector(
            FaultPlan([FaultRule(site="disk.write", rate=1.0)], seed=0)
        )
        cache = ScheduleCache(tmp_path / "store.jsonl", capacity=64)
        cache.bind_faults(inj)
        threshold = cache.breaker.failure_threshold
        for i in range(threshold):
            cache.put(f"k{i}", {"value": i})
        assert cache.breaker.state == "open"
        assert cache.degraded()
        assert inj.fired["disk.write"] == threshold
        # tripped: puts stay LRU-only instead of erroring...
        cache.put("extra", {"value": 42})
        assert inj.fired["disk.write"] == threshold  # disk untouched
        assert cache.get("extra")[0]["value"] == 42  # ...and still served
        assert not (tmp_path / "store.jsonl").exists()

    def test_injected_read_faults_degrade_to_misses(self, tmp_path):
        path = tmp_path / "store.jsonl"
        fill_cache(path, n=8)
        inj = FaultInjector(
            FaultPlan([FaultRule(site="disk.read", rate=1.0)], seed=0)
        )
        cache = ScheduleCache(path, capacity=64)
        cache.bind_faults(inj)
        threshold = cache.breaker.failure_threshold
        for i in range(threshold):
            assert cache.get(f"k{i}") is None  # failed read -> miss
        assert cache.breaker.state == "open"
        assert cache.get(f"k{threshold}") is None  # skipped, not attempted
        assert inj.fired["disk.read"] == threshold

    def test_breaker_recovery_rejoins_the_disk_tier(self, tmp_path):
        path = tmp_path / "store.jsonl"
        fill_cache(path, n=4)
        clock = FakeClock()
        breaker = CircuitBreaker(name="disk", failure_threshold=2,
                                 cooldown_s=5.0, clock=clock)
        cache = ScheduleCache(path, capacity=64, breaker=breaker)
        breaker.record_failure()
        breaker.record_failure()
        assert cache.degraded() and cache.get("k0") is None
        clock.t += 5.0  # cooldown elapsed: next read is the probe
        entry, tier = cache.get("k0")
        assert entry["value"] == 0 and tier == "store"
        assert breaker.state == "closed" and not cache.degraded()


class _KilledMidWrite(BaseException):
    """Stands in for SIGKILL: not an OSError, so nothing catches it."""


class _KillingFile:
    """File proxy that stops persisting after ``budget`` bytes, then
    "dies" — exactly the on-disk state a kill at that offset leaves."""

    def __init__(self, fh, budget):
        self._fh = fh
        self._budget = budget

    def write(self, data):
        room = self._budget - self._fh.tell()
        if room < len(data):
            self._fh.write(data[:max(0, room)])
            self._fh.flush()
            raise _KilledMidWrite
        return self._fh.write(data)

    def flush(self):
        self._fh.flush()

    def fileno(self):
        return self._fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestInterruptedCompaction:
    def build_store(self, path):
        """Two generations of the same 8 keys: half the file is dead
        bytes, compaction has real work to do, and ``expected`` is the
        committed (latest) value per key."""
        expected = {}
        with open(path, "wb") as fh:
            for gen in range(2):
                for i in range(8):
                    key, entry = f"k{i}", {"value": gen * 100 + i,
                                           "pad": "y" * 10}
                    fh.write(json.dumps(
                        {"crc": cache_record_crc(key, entry),
                         "entry": entry, "key": key},
                        sort_keys=True,
                    ).encode() + b"\n")
                    expected[key] = entry["value"]
        return expected

    def test_kill_at_randomized_offsets_preserves_every_key(self, tmp_path):
        src = tmp_path / "seed.jsonl"
        expected = self.build_store(src)
        live_bytes = sum(
            length for _, length in ScheduleCache(src, capacity=64)
            ._disk.values()
        )
        rng = random.Random(1234)
        offsets = {0, 1, live_bytes - 1} | {
            rng.randrange(live_bytes) for _ in range(6)
        }
        import builtins

        real_open = builtins.open
        for n, offset in enumerate(sorted(offsets)):
            store = tmp_path / f"run{n}" / "store.jsonl"
            store.parent.mkdir()
            shutil.copy(src, store)
            cache = ScheduleCache(store, capacity=64)

            def killing_open(file, mode="r", *args, **kwargs):
                fh = real_open(file, mode, *args, **kwargs)
                if str(file).endswith(".compact") and "w" in mode:
                    return _KillingFile(fh, offset)
                return fh

            builtins.open = killing_open
            try:
                with pytest.raises(_KilledMidWrite):
                    cache.compact()
            finally:
                builtins.open = real_open
            tmp = store.with_name("store.jsonl.compact")
            assert tmp.exists()  # the kill left a partial temp behind
            assert tmp.stat().st_size <= offset
            # recovery: the temp is swept, the original store is whole
            recovered = ScheduleCache(store, capacity=64)
            assert not tmp.exists()
            assert recovered.corrupt_records == 0
            for key, value in expected.items():
                entry, _ = recovered.get(key)
                assert entry["value"] == value

    def test_completed_compaction_survives_reopen(self, tmp_path):
        store = tmp_path / "store.jsonl"
        expected = self.build_store(store)
        cache = ScheduleCache(store, capacity=64)
        before = store.stat().st_size
        assert cache.compact() > 0
        assert store.stat().st_size < before
        reopened = ScheduleCache(store, capacity=64)
        for key, value in expected.items():
            assert reopened.get(key)[0]["value"] == value

    def test_kill_mid_append_at_randomized_offsets(self, tmp_path):
        src = tmp_path / "seed.jsonl"
        self.build_store(src)
        raw = src.read_bytes()
        boundaries = []  # (end offset, keys committed by then)
        committed = {}
        pos = 0
        for line in raw.splitlines(keepends=True):
            doc = json.loads(line)
            pos += len(line)
            committed[doc["key"]] = doc["entry"]["value"]
            boundaries.append((pos, dict(committed)))
        rng = random.Random(99)
        offsets = {1, len(raw) - 1} | {
            rng.randrange(1, len(raw)) for _ in range(6)
        }
        for n, offset in enumerate(sorted(offsets)):
            store = tmp_path / f"cut{n}" / "store.jsonl"
            store.parent.mkdir()
            store.write_bytes(raw[:offset])
            expected = {}
            for end, snapshot in boundaries:
                if end <= offset:
                    expected = snapshot
            cache = ScheduleCache(store, capacity=64)
            assert cache.corrupt_records == 0
            for key, value in expected.items():
                assert cache.get(key)[0]["value"] == value
            for key in set(committed) - set(expected):
                assert cache.get(key) is None


# ----------------------------------------------------------------------
# campaign store checksums
# ----------------------------------------------------------------------
class TestCampaignStoreCrc:
    def test_round_trip_stamps_and_verifies(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        docs = [{"cell": "a", "makespan": 10}, {"cell": "b", "makespan": 20}]
        append_jsonl(path, docs)
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            assert doc["crc"] == campaign_record_crc(doc)
        assert list(read_jsonl(path)) == docs

    def test_corrupt_record_skipped_on_read(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        append_jsonl(path, [{"cell": "a", "makespan": 10},
                            {"cell": "b", "makespan": 20}])
        mangled = path.read_text().replace('"makespan": 10', '"makespan": 11')
        path.write_text(mangled)
        assert list(read_jsonl(path)) == [{"cell": "b", "makespan": 20}]

    def test_legacy_records_without_crc_accepted(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        path.write_text(json.dumps({"cell": "old", "makespan": 5}) + "\n")
        assert list(read_jsonl(path)) == [{"cell": "old", "makespan": 5}]


# ----------------------------------------------------------------------
# supervised portfolio pool
# ----------------------------------------------------------------------
GRAPH_DOC = graph_to_dict(random_canonical_graph("chain", 6, seed=0))


class TestPortfolioPool:
    def test_crash_is_detected_and_worker_respawned(self, clock):
        with PortfolioPool(workers=2, clock=clock) as pool:
            task = pool.submit(GRAPH_DOC, 2, "lts", fault={"kind": "crash"})
            with pytest.raises(WorkerCrashError):
                pool.wait(task, None)
            assert pool.crashes == 1
            clock.advance(BACKOFF_MIN_S)
            assert wait_until(lambda: pool.respawns >= 1)
            assert wait_until(lambda: pool.snapshot()["alive"] == 2)
            # the pool keeps serving after the respawn
            healthy = pool.submit(GRAPH_DOC, 2, "lts")
            result = pool.wait(healthy, None)
            assert result["name"] == "lts" and result["makespan"] > 0

    def test_hung_candidate_is_cut_off(self, clock):
        with PortfolioPool(workers=2, clock=clock) as pool:
            task = pool.submit(
                GRAPH_DOC, 2, "lts", fault={"kind": "hang", "seconds": 30.0}
            )
            # the cutoff counts from the dispatch, on the pool's clock
            assert wait_until(
                lambda: any(s.task is task for s in pool._slots)
            )
            clock.advance(HANG_TIMEOUT_S + 1.0)
            with pytest.raises(WorkerHangError):
                pool.wait(task, None)
            assert pool.hangs == 1
            clock.advance(BACKOFF_MIN_S)
            assert wait_until(lambda: pool.snapshot()["alive"] == 2)

    def test_poison_task_quarantined_after_repeated_crashes(self, clock):
        with PortfolioPool(workers=2, clock=clock) as pool:
            for _ in range(2):
                task = pool.submit(GRAPH_DOC, 2, "lts", task_key="poison",
                                   fault={"kind": "crash"})
                with pytest.raises(WorkerCrashError):
                    pool.wait(task, None)
                clock.advance(BACKOFF_MAX_S)
                wait_until(lambda: pool.snapshot()["alive"] == 2)
            with pytest.raises(QuarantinedError):
                pool.submit(GRAPH_DOC, 2, "lts", task_key="poison")
            assert pool.snapshot()["quarantined"] == ["poison"]
            # other keys are unaffected by the quarantine
            ok = pool.submit(GRAPH_DOC, 2, "lts", task_key="fine")
            assert pool.wait(ok, None)["makespan"] > 0

    def test_faulted_race_still_returns_the_right_answer(self, clock):
        g = random_canonical_graph("fft", 8, seed=1)
        baseline = run_portfolio(g, 4)
        inj = FaultInjector(
            FaultPlan([FaultRule(site="worker.crash", rate=1.0, count=1)],
                      seed=0)
        )
        with PortfolioPool(workers=2, clock=clock) as pool:
            faulted = run_portfolio(g, 4, pool=pool, faults=inj,
                                    task_key="t")
            assert pool.crashes == 1
        # the crashed candidate was recomputed in-process: same winner
        assert faulted.winner.name == baseline.winner.name
        assert faulted.winner.makespan == baseline.winner.makespan
        assert faulted.schedule_doc() == baseline.schedule_doc()

    def test_backoff_doubles_per_crash_and_a_task_resets_it(self, clock):
        with PortfolioPool(workers=2, clock=clock) as pool:
            slot = pool._slots[0]
            for delay in (0.05, 0.1, 0.2):
                # both workers idle: the dispatcher hands slot 0 the task
                task = pool.submit(GRAPH_DOC, 2, "lts",
                                   fault={"kind": "crash"})
                with pytest.raises(WorkerCrashError):
                    pool.wait(task, None)
                assert slot.respawn_at - clock() == pytest.approx(delay)
                # the slot stays down while the clock stands still
                time.sleep(3 * TICK_S)
                assert pool.snapshot()["alive"] == 1
                clock.advance(delay)
                assert wait_until(lambda: pool.snapshot()["alive"] == 2)
            assert slot.backoff_s == pytest.approx(0.4)
            ok = pool.submit(GRAPH_DOC, 2, "lts")
            assert pool.wait(ok, None)["makespan"] > 0
            assert slot.backoff_s == pytest.approx(BACKOFF_MIN_S)

    def test_snapshot_reads_each_slot_once(self):
        # the dispatcher tears slots down without the snapshot's lock; a
        # slot cleared right after the observer's first read of it must
        # count as what that read saw, never raise
        class Stub:
            def is_alive(self):
                return True

        class VanishingSlot:
            def __init__(self):
                self._proc = Stub()

            @property
            def proc(self):
                proc, self._proc = self._proc, None
                return proc

        pool = PortfolioPool(workers=2)
        pool.close()
        pool._slots[0] = VanishingSlot()
        assert pool.snapshot()["alive"] == 1

    def test_snapshot_shape(self):
        with PortfolioPool(workers=2) as pool:
            snap = pool.snapshot()
        assert snap["workers"] == 2
        assert {"alive", "closed", "respawns", "crashes", "hangs",
                "quarantined"} <= set(snap)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def setup_method(self):
        self.service = ScheduleService(cache=ScheduleCache(None, capacity=16))

    def test_expired_deadline_refused_with_retryable_marker(self):
        response = self.service.handle(schedule_doc(deadline_ms=1e-6))
        assert response["ok"] is False
        assert response["deadline_exceeded"] is True
        assert response["retryable"] is True

    def test_generous_deadline_is_served(self):
        response = self.service.handle(schedule_doc(deadline_ms=60_000))
        assert response["ok"] is True and response["makespan"] > 0

    def test_simulate_honours_deadlines_too(self):
        doc = {
            "op": "simulate", "graph": GRAPH_DOC, "num_pes": 2,
            "deadline_ms": 1e-6,
        }
        response = self.service.handle(doc)
        assert response["ok"] is False and response["deadline_exceeded"]

    def test_nonpositive_deadline_refused_before_any_work(self):
        response = self.service.handle(schedule_doc(deadline_ms=0))
        assert response["ok"] is False and response["deadline_exceeded"]

    def test_deadline_refusals_counted(self):
        before = self.service.telemetry.registry.counter(
            "service.deadline_refused",
            "requests refused because their deadline expired",
        ).value
        self.service.handle(schedule_doc(deadline_ms=1e-6))
        after = self.service.telemetry.registry.counter(
            "service.deadline_refused",
            "requests refused because their deadline expired",
        ).value
        assert after == before + 1


# ----------------------------------------------------------------------
# wire-level recovery: reconnects, partial replies, retries, shed
# ----------------------------------------------------------------------
def serve_with_plan(rules, seed=1, **service_kw):
    faults = FaultInjector(FaultPlan(rules, seed=seed))
    service = ScheduleService(
        cache=ScheduleCache(None, capacity=64), faults=faults, **service_kw
    )
    return ScheduleServer(service, port=0, workers=2), faults


class TestClientRecovery:
    def test_dropped_connection_is_transparently_replayed(self):
        server, faults = serve_with_plan(
            [FaultRule(site="conn.drop", rate=1.0, count=1)]
        )
        with server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.ping()["ok"]  # survived the injected drop
                assert client.reconnects == 1
                assert faults.fired["conn.drop"] == 1
                assert client.ping()["ok"]  # plan drained: clean traffic
                assert client.reconnects == 1

    def test_partial_reply_is_detected_and_replayed(self):
        server, faults = serve_with_plan(
            [FaultRule(site="conn.partial", rate=1.0, count=1)]
        )
        with server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                response = client.schedule(
                    random_canonical_graph("chain", 6, seed=0), 4
                )
                assert response["ok"] and response["makespan"] > 0
                assert client.reconnects == 1
                assert faults.fired["conn.partial"] == 1

    def test_two_consecutive_failures_surface(self):
        server, _ = serve_with_plan(
            [FaultRule(site="conn.drop", rate=1.0, count=2)]
        )
        with server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                with pytest.raises(ConnectionError, match="after reconnect"):
                    client.ping()

    def test_request_with_retry_survives_repeated_drops(self):
        server, _ = serve_with_plan(
            [FaultRule(site="conn.drop", rate=1.0, count=2)]
        )
        with server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                response = client.request_with_retry(
                    {"op": "ping"}, retries=3, backoff_s=0.01,
                    rng=random.Random(0),
                )
                assert response["ok"]
                assert client.retries >= 1

    def test_nonretryable_error_propagates_immediately(self, tmp_path):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        with ScheduleServer(service, port=0, workers=2) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                with pytest.raises(ServiceError) as info:
                    client.request_with_retry(
                        {"op": "no-such-op"}, retries=3, backoff_s=0.01
                    )
                assert not info.value.retryable
                assert client.retries == 0


class TestShedAndDrain:
    def test_overload_sheds_compute_with_retry_hint(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        with ScheduleServer(service, port=0, workers=2) as server:
            held = 0
            while server._slow_slots.acquire(blocking=False):
                held += 1
            try:
                with ServiceClient(port=server.port, timeout=5.0) as client:
                    assert client.ping()["ok"]  # control ops stay inline
                    response = client.request_raw(
                        json.dumps(schedule_doc()).encode()
                    )
                    assert response["ok"] is False
                    assert response["shed"] is True
                    assert response["retryable"] is True
                    assert response["retry_after_ms"] == 200
            finally:
                for _ in range(held):
                    server._slow_slots.release()
            with ServiceClient(port=server.port, timeout=10.0) as client:
                assert client.schedule(
                    random_canonical_graph("chain", 6, seed=0), 4
                )["ok"]

    def test_retry_rides_out_a_shed_window(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        with ScheduleServer(service, port=0, workers=2) as server:
            held = 0
            while server._slow_slots.acquire(blocking=False):
                held += 1

            def lift():
                for _ in range(held):
                    server._slow_slots.release()

            timer = threading.Timer(0.15, lift)
            timer.start()
            try:
                with ServiceClient(port=server.port, timeout=10.0) as client:
                    response = client.request_with_retry(
                        schedule_doc(), retries=5, backoff_s=0.05,
                        rng=random.Random(0),
                    )
                    assert response["ok"] and client.retries >= 1
            finally:
                timer.join()

    def test_draining_service_refuses_compute_retryably(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        service.draining = True
        response = service.handle(schedule_doc())
        assert response["ok"] is False
        assert response["draining"] is True and response["retryable"] is True
        assert service.handle({"op": "ping"})["ok"]  # control ops still fine
        assert service.health()["status"] == "draining"

    def test_drain_stops_the_server_and_closes_the_listener(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        server = ScheduleServer(service, port=0, workers=2).start()
        port = server.port
        with ServiceClient(port=port, timeout=5.0) as client:
            assert client.ping()["ok"]
            server.drain(grace_s=2.0)
            assert server.draining
            server.join()
        with pytest.raises(OSError):
            ServiceClient(port=port, timeout=0.5)

    def test_drain_is_idempotent(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        server = ScheduleServer(service, port=0, workers=2).start()
        server.drain(grace_s=1.0)
        server.drain(grace_s=1.0)  # second call is a no-op
        server.join()


class TestHealth:
    def make_service(self, tmp_path):
        clock = FakeClock()
        breaker = CircuitBreaker(name="disk", failure_threshold=2,
                                 cooldown_s=5.0, clock=clock)
        cache = ScheduleCache(tmp_path / "store.jsonl", capacity=16,
                              breaker=breaker)
        return clock, breaker, ScheduleService(cache=cache)

    def test_ok_by_default(self, tmp_path):
        _, _, service = self.make_service(tmp_path)
        doc = service.health()
        assert doc["ok"] is True and doc["status"] == "ok"
        assert doc["tripped"] == []
        assert doc["breakers"][0]["name"] == "disk"

    def test_open_breaker_degrades(self, tmp_path):
        _, breaker, service = self.make_service(tmp_path)
        breaker.force_open()
        doc = service.health()
        assert doc["status"] == "degraded"
        assert doc["tripped"] == ["disk"]

    def test_half_open_counts_as_ok(self, tmp_path):
        # a half-open breaker is waiting for a probe; without disk
        # traffic that probe may never run, and the server serves fine
        clock, breaker, service = self.make_service(tmp_path)
        breaker.force_open()
        clock.t += 5.0
        assert breaker.state == "half_open"
        doc = service.health()
        assert doc["ok"] is True and doc["status"] == "ok"

    def test_health_over_the_wire_with_fault_snapshot(self):
        server, _ = serve_with_plan(
            [FaultRule(site="compute.slow", rate=1.0, count=1,
                       seconds=0.001)]
        )
        with server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                doc = client.health()
                assert doc["ok"] is True and doc["status"] == "ok"
                assert doc["faults"]["active"] is True
                client.schedule(random_canonical_graph("chain", 6, seed=0), 4)
                doc = client.health()
                assert doc["faults"]["fired"] == {"compute.slow": 1}
                assert doc["faults"]["active"] is False

    def test_stats_report_health_and_fault_state(self):
        server, _ = serve_with_plan(
            [FaultRule(site="conn.drop", rate=0.0)]
        )
        with server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                stats = client.stats()
                assert stats["health"] == "ok"
                assert stats["draining"] is False
                assert stats["faults"]["seed"] == 1


# ----------------------------------------------------------------------
# accept-path fd hygiene
# ----------------------------------------------------------------------
def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs procfs")
class TestFdStability:
    def test_fd_count_stable_across_100_failed_connects(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        with ScheduleServer(service, port=0, workers=2) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.ping()["ok"]
                baseline = open_fds()
                for i in range(100):
                    sock = socket.create_connection(
                        ("127.0.0.1", server.port), timeout=5.0
                    )
                    if i % 2:
                        sock.send(b'{"op": "ping"')  # die mid-request
                    # RST instead of FIN: the hard-failure close path
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    sock.close()
                assert wait_until(lambda: open_fds() <= baseline + 4,
                                  timeout=5.0), (
                    f"fd leak: {open_fds()} open vs baseline {baseline}"
                )
                assert client.ping()["ok"]  # the server is unscathed


# ----------------------------------------------------------------------
# in-process chaos smoke: faulted server + retrying loadgen
# ----------------------------------------------------------------------
class TestChaosSmoke:
    def test_retrying_loadgen_survives_a_fault_plan(self, tmp_path):
        faults = FaultInjector(FaultPlan([
            FaultRule(site="conn.drop", rate=0.2, count=3, after=4),
            FaultRule(site="conn.partial", rate=0.2, count=3, after=4),
            FaultRule(site="disk.write", rate=0.5, count=3),
            FaultRule(site="compute.slow", rate=0.5, count=2, seconds=0.005),
        ], seed=7))
        cache = ScheduleCache(tmp_path / "store.jsonl", capacity=256)
        cache.breaker.cooldown_s = 0.2  # recover fast inside the test
        service = ScheduleService(cache=cache, faults=faults)
        with ScheduleServer(service, port=0, workers=2) as server:
            report = run_loadgen(
                port=server.port, requests=80, workers=2, pool=6,
                retries=2, seed=0,
            )
            # a faulted server may refuse or slow down, but never lie
            assert report.incorrect == 0
            assert report.requests > 0
            assert report.error_rate <= 0.02
            assert not faults.active()  # every bounded rule drained

            def healthy():
                return service.health()["status"] == "ok"

            assert wait_until(healthy, timeout=5.0)
