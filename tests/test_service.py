"""Tests for the scheduling service: fingerprint, cache, portfolio,
server/client wire protocol, load generator and CLI wiring."""

import gc
import hashlib
import json
import re
import threading
import time
import zlib

import pytest

from repro.cli import main
from repro.core import find_isomorphism, graph_fingerprint, graph_to_dict, save_graph
from repro.core import backend as BK
from repro.core.backend import HAVE_NUMPY, fallback_counts
from repro.core.graph import CanonicalGraph
from repro.core.node_types import NodeSpec
from repro.graphs import random_canonical_graph
from repro.service import (
    DEFAULT_SCHEDULERS,
    SCHEDULE_KEY_VERSION,
    ScheduleCache,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
    ServiceError,
    build_request_pool,
    percentile,
    request_key,
    run_loadgen,
    run_portfolio,
    scheduler_names,
)
from repro.service import server as server_module
from repro.service.cache import _served_record, decode_record, encode_record
from repro.service.fingerprint import canonical_bytes, is_current_key
from repro.service.gcpolicy import YOUNG_GEN_THRESHOLD

from conftest import service_stat, store_line, wait_until

#: both array implementations; numpy is an optional extra
BACKEND_PARAMS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed"),
    ),
]


@pytest.fixture
def pin_backend(monkeypatch):
    """Runs the rest of the test on one array implementation by patching
    ``HAVE_NUMPY`` (``"python"`` = the no-numpy install); undone after."""
    return lambda name: monkeypatch.setattr(BK, "HAVE_NUMPY", name == "numpy")


def relabel(graph: CanonicalGraph, prefix: str = "r") -> CanonicalGraph:
    """Same graph, different node names and insertion order."""
    mapping = {v: f"{prefix}{i}" for i, v in enumerate(graph.nodes)}
    clone = CanonicalGraph()
    for v in reversed(list(graph.nodes)):
        s = graph.spec(v)
        clone.add_node(
            NodeSpec(mapping[v], s.kind, s.input_volume, s.output_volume)
        )
    for u, v in graph.edges:
        clone.nx.add_edge(mapping[u], mapping[v])
    return clone


class TestFingerprint:
    def test_stable_under_relabeling(self):
        g = random_canonical_graph("fft", 8, seed=3)
        assert graph_fingerprint(g) == graph_fingerprint(relabel(g))

    def test_method_matches_function(self):
        g = random_canonical_graph("chain", 8, seed=0)
        assert g.fingerprint() == graph_fingerprint(g)

    def test_volume_change_changes_fingerprint(self):
        a = random_canonical_graph("gaussian", 4, seed=1)
        b = random_canonical_graph("gaussian", 4, seed=2)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_topology_change_changes_fingerprint(self):
        a = random_canonical_graph("chain", 6, seed=0)
        b = random_canonical_graph("chain", 7, seed=0)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_distinct_across_families_and_seeds(self):
        fps = {
            graph_fingerprint(random_canonical_graph(topo, size, seed=s))
            for topo, size in (("chain", 8), ("fft", 8), ("gaussian", 6))
            for s in range(5)
        }
        assert len(fps) == 15

    def test_direction_matters(self):
        # fan-out vs fan-in over identically-labelled nodes: only the
        # edge directions differ, so an undirected hash would collide
        def three_nodes():
            g = CanonicalGraph()
            for name in ("p", "q", "r"):
                g.add_task(name, 8, 8)
            return g

        fan_out = three_nodes()
        fan_out.add_edge("p", "q")
        fan_out.add_edge("p", "r")
        fan_in = three_nodes()
        fan_in.add_edge("p", "r")
        fan_in.add_edge("q", "r")
        assert graph_fingerprint(fan_out) != graph_fingerprint(fan_in)

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_cg3_hex_pinned(self, backend, pin_backend):
        # any change to the cg3 construction changes this hex and must
        # come with a FINGERPRINT_VERSION bump
        pin_backend(backend)
        g = CanonicalGraph()
        g.add_source("src", 8)
        g.add_task("e", 8, 8)
        g.add_task("d", 8, 2)
        g.add_buffer("b", 2, 6)
        g.add_task("u", 6, 12)
        g.add_sink("out", 12)
        g.add_task("f", 8, 8)
        g.add_sink("out2", 8)
        for u, v in [("src", "e"), ("e", "d"), ("d", "b"), ("b", "u"),
                     ("u", "out"), ("e", "f"), ("f", "out2")]:
            g.add_edge(u, v)
        assert graph_fingerprint(g) == (
            "731918d0690716cced89a2cee54db37d19db2c6ff74557cf815c8194ff8a7370"
        )

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_huge_volumes_fingerprint_on_numpy_without_fallback(
        self, pin_backend
    ):
        # volumes enter only through the Python-hashed seed labels, so
        # values past int64 need no guard on the array kernel
        def build():
            g = CanonicalGraph()
            big = (1 << 63) + 5
            g.add_source("s", big)
            g.add_task("t", big, big)
            g.add_task("w", big, 1 << 70)
            g.add_sink("k", 1 << 70)
            for u, v in [("s", "t"), ("t", "w"), ("w", "k")]:
                g.add_edge(u, v)
            return g

        pin_backend("numpy")
        before = dict(fallback_counts)
        fp = graph_fingerprint(build())
        assert fallback_counts == before
        pin_backend("python")
        assert fp == graph_fingerprint(build())

    def test_request_key_composition(self):
        key = request_key("f" * 64, 8, "makespan", ("rlx", "nstr"))
        assert key == f"{SCHEDULE_KEY_VERSION}:{'f' * 64}:p8:makespan:rlx+nstr"
        assert key != request_key("f" * 64, 8, "makespan", ("nstr", "rlx"))

    def test_request_key_carries_schema_version(self):
        # entries persisted by older code must become unreachable after
        # a schedule-schema or scheduler change: the version leads the key
        assert request_key("a", 2, "makespan", ("rlx",)).startswith(
            f"{SCHEDULE_KEY_VERSION}:"
        )


class TestFindIsomorphism:
    def test_witness_maps_relabeled_graph(self):
        g = random_canonical_graph("fft", 8, seed=3)
        h = relabel(g)
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        assert set(mapping) == set(g.nodes)
        assert set(mapping.values()) == set(h.nodes)
        assert {(mapping[u], mapping[v]) for u, v in g.edges} == set(h.edges)

    def test_witness_respects_symmetric_orbits(self):
        # two identical parallel chains: 1-WL alone cannot tell the
        # twins apart, so the witness must pair chains consistently
        def chains(prefix_a, prefix_b):
            g = CanonicalGraph()
            for p in (prefix_a, prefix_b):
                for i in range(3):
                    g.add_task(f"{p}{i}", 8, 8)
                for i in range(2):
                    g.add_edge(f"{p}{i}", f"{p}{i + 1}")
            return g

        src, dst = chains("a", "b"), chains("x", "y")
        mapping = find_isomorphism(src, dst)
        assert mapping is not None
        assert {(mapping[u], mapping[v]) for u, v in src.edges} == set(dst.edges)

    def test_non_isomorphic_same_sizes_yield_none(self):
        def three_nodes():
            g = CanonicalGraph()
            for name in ("p", "q", "r"):
                g.add_task(name, 8, 8)
            return g

        fan_out = three_nodes()
        fan_out.add_edge("p", "q")
        fan_out.add_edge("p", "r")
        fan_in = three_nodes()
        fan_in.add_edge("p", "r")
        fan_in.add_edge("q", "r")
        assert find_isomorphism(fan_out, fan_in) is None

    def test_size_mismatch_yields_none(self):
        a = random_canonical_graph("chain", 6, seed=0)
        b = random_canonical_graph("chain", 7, seed=0)
        assert find_isomorphism(a, b) is None


class TestScheduleCache:
    def test_lru_hit_and_miss_counters(self):
        cache = ScheduleCache(None, capacity=4)
        assert cache.get("a") is None
        cache.put("a", {"x": 1})
        entry, tier = cache.get("a")
        assert entry == {"x": 1} and tier == "lru"
        counters = cache.counters()
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_eviction_drops_least_recent(self):
        cache = ScheduleCache(None, capacity=2)
        cache.put("a", {"v": "a"})
        cache.put("b", {"v": "b"})
        cache.get("a")  # a is now most recent
        cache.put("c", {"v": "c"})  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.counters()["evictions"] == 1

    def test_persistent_tier_survives_reopen(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        cache = ScheduleCache(path, capacity=4)
        cache.put("k", {"answer": 42})
        reopened = ScheduleCache(path, capacity=4)
        entry, tier = reopened.get("k")
        assert entry == {"answer": 42} and tier == "store"
        # promoted into the LRU: second get is a memory hit
        assert reopened.get("k")[1] == "lru"

    def test_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        ScheduleCache(path).put("good", {"v": 1})
        with open(path, "a") as fh:
            fh.write('{"key": "torn", "entry": {tr')  # torn write
        reopened = ScheduleCache(path)
        assert reopened.get("good") is not None
        assert reopened.get("torn") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ScheduleCache(None, capacity=0)

    def test_lru_bytes_tracks_insert_and_evict(self):
        cache = ScheduleCache(None, capacity=2)
        cache.put("a", {"graph": b"g" * 10, "schedule": b"s" * 5, "v": 1})
        cache.put("b", {"graph": b"g" * 7, "schedule": b"s" * 3})
        assert cache.counters()["lru_bytes"] == 25
        cache.put("a", {"graph": b"g", "schedule": b"s"})  # replaced
        assert cache.counters()["lru_bytes"] == 12
        cache.put("c", {"v": "c"})  # evicts b, holds no bytes
        assert cache.counters()["lru_bytes"] == 2
        assert "cache_lru_bytes 2" in cache.registry.render()

    def test_store_entries_stay_on_disk_until_hit(self, tmp_path):
        # the disk tier is an offset index, not resident entries: a key
        # evicted from the LRU is re-read from the file on demand
        path = tmp_path / "schedules.jsonl"
        cache = ScheduleCache(path, capacity=1)
        cache.put("a", {"v": "a"})
        cache.put("b", {"v": "b"})  # evicts a from the LRU
        assert cache.counters()["evictions"] == 1
        entry, tier = cache.get("a")
        assert entry == {"v": "a"} and tier == "store"
        assert cache.get("a")[1] == "lru"  # promoted back


class TestPortfolio:
    def test_default_race_and_winner(self):
        # the default race, and all five candidates in a named order
        for g, schedulers in (
            (random_canonical_graph("fft", 8, seed=0), None),
            (random_canonical_graph("fft", 16, seed=1),
             ("rlx", "lts", "work", "nstr", "heft")),
        ):
            result = run_portfolio(g, 8, schedulers=schedulers)
            assert [c.name for c in result.candidates] == list(
                schedulers or DEFAULT_SCHEDULERS
            )
            assert result.winner.makespan == min(
                c.makespan for c in result.candidates
            )
            assert result.schedule_doc()["makespan"] == result.winner.makespan
            assert not result.truncated

    def test_registry_contains_all_five(self):
        assert set(scheduler_names()) >= {"lts", "rlx", "work", "nstr", "heft"}

    def test_heft_and_work_candidates_run(self):
        g = random_canonical_graph("gaussian", 6, seed=1)
        result = run_portfolio(g, 4, schedulers=("heft", "work"))
        assert {c.name for c in result.candidates} == {"heft", "work"}

    def test_buffer_objective_prefers_fifo_free_schedules(self):
        g = random_canonical_graph("fft", 8, seed=0)
        result = run_portfolio(g, 8, objective="buffer",
                               schedulers=("rlx", "nstr"))
        # nstr needs no FIFOs at all, so it wins the buffer objective
        assert result.winner.name == "nstr"
        assert result.winner.fifo_total == 0

    def test_throughput_value_is_speedup(self):
        from repro.core import total_work

        g = random_canonical_graph("chain", 8, seed=0)
        result = run_portfolio(g, 4, objective="throughput")
        assert result.winner.value == pytest.approx(
            total_work(g) / result.winner.makespan
        )

    def test_budget_truncates_but_returns_a_schedule(self):
        g = random_canonical_graph("fft", 8, seed=0)
        result = run_portfolio(g, 8, budget_s=0.0)
        assert result.truncated
        assert len(result.candidates) == 1
        assert result.winner.name == DEFAULT_SCHEDULERS[0]

    def test_unknown_scheduler_rejected(self):
        g = random_canonical_graph("chain", 4, seed=0)
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_portfolio(g, 2, schedulers=("nope",))

    def test_unknown_objective_rejected(self):
        g = random_canonical_graph("chain", 4, seed=0)
        with pytest.raises(ValueError, match="unknown objective"):
            run_portfolio(g, 2, objective="vibes")

    def test_scheduler_names_with_key_delimiters_rejected(self):
        from repro.service import register_scheduler

        # names land in cache keys joined by '+' and delimited by ':',
        # so ["rlx+lts"] must never collide with ["rlx", "lts"]
        for bad in ("rlx+lts", "a:b", "", " padded "):
            with pytest.raises(ValueError, match="invalid scheduler name"):
                register_scheduler(bad, lambda g, p: None)


class TestScheduleService:
    def setup_method(self):
        self.service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        self.graph = random_canonical_graph("fft", 8, seed=1)
        self.doc = {
            "op": "schedule",
            "graph": graph_to_dict(self.graph),
            "num_pes": 8,
        }

    def test_cold_then_cached_byte_identical(self):
        cold = self.service.handle(dict(self.doc))
        warm = self.service.handle(dict(self.doc))
        assert cold["ok"] and cold["cached"] is False
        assert warm["cached"] == "lru"
        assert json.dumps(cold["schedule"], sort_keys=True) == json.dumps(
            warm["schedule"], sort_keys=True
        )

    def test_relabeled_graph_hits_the_same_entry(self):
        cold = self.service.handle(dict(self.doc))
        renamed_graph = relabel(self.graph)
        renamed = {
            "op": "schedule",
            "graph": graph_to_dict(renamed_graph),
            "num_pes": 8,
        }
        response = self.service.handle(renamed)
        assert response["cached"] == "lru"
        # the hit must be *applicable*: the served schedule names the
        # requester's nodes, not the original submitter's
        assert service_stat(self.service, "remapped") == 1
        assert response["makespan"] == cold["makespan"]
        names = {t["name"] for t in response["schedule"]["tasks"]}
        assert names and names <= set(renamed_graph.nodes)
        for fifo in response["schedule"].get("fifo_sizes", ()):
            assert fifo["src"] in renamed_graph and fifo["dst"] in renamed_graph

    def test_relabeled_store_hit_remaps_after_restart(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        first = ScheduleService(cache=ScheduleCache(path, capacity=8))
        first.handle(dict(self.doc))
        # a fresh service warming from disk must still remap the entry
        reopened = ScheduleService(cache=ScheduleCache(path, capacity=8))
        renamed_graph = relabel(self.graph)
        response = reopened.handle({
            "op": "schedule",
            "graph": graph_to_dict(renamed_graph),
            "num_pes": 8,
        })
        assert response["cached"] == "store"
        assert service_stat(reopened, "remapped") == 1
        names = {t["name"] for t in response["schedule"]["tasks"]}
        assert names and names <= set(renamed_graph.nodes)

    def test_fingerprint_collision_recomputes_never_serves_other_graph(
        self, monkeypatch
    ):
        # force two non-isomorphic, equal-size documents onto one
        # fingerprint: the witness check, not the hash, must keep the
        # second request from receiving the first document's schedule
        real = server_module.fingerprint_graph_doc

        def colliding(doc, **kwargs):
            graph, _ = real(doc, **kwargs)
            return graph, "c" * 64

        monkeypatch.setattr(server_module, "fingerprint_graph_doc", colliding)

        def tasks(prefix, edges):
            g = CanonicalGraph()
            for i in range(6):
                g.add_task(f"{prefix}{i}", 8, 8)
            for u, v in edges:
                g.add_edge(f"{prefix}{u}", f"{prefix}{v}")
            return g

        first_graph = tasks("a", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        second_graph = tasks("z", [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)])
        assert len(first_graph) == len(second_graph)
        assert first_graph.number_of_edges() == second_graph.number_of_edges()
        assert find_isomorphism(first_graph, second_graph) is None
        service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        first = service.handle({
            "op": "schedule", "graph": graph_to_dict(first_graph), "num_pes": 8,
        })
        second = service.handle({
            "op": "schedule", "graph": graph_to_dict(second_graph), "num_pes": 8,
        })
        assert first["ok"] and second["ok"]
        assert first["key"] == second["key"]
        assert second["cached"] is False
        assert service_stat(service, "remapped") == 0
        names = {t["name"] for t in second["schedule"]["tasks"]}
        assert names and names <= set(second_graph.nodes)
        assert not names & set(first_graph.nodes)

    def test_responses_do_not_echo_the_graph_document(self):
        cold = self.service.handle(dict(self.doc))
        warm = self.service.handle(dict(self.doc))
        assert "graph" not in cold and "graph" not in warm

    def test_cold_schedule_builds_no_name_keyed_partition_view(
            self, monkeypatch):
        """A served miss reads only the partition's id columns: neither
        the winner's nor a loser's partition builds ``blocks``,
        ``block_of`` or ``sources_per_block``."""
        from repro.core import scheduler

        made = []
        real = scheduler.compute_spatial_blocks
        monkeypatch.setattr(
            scheduler, "compute_spatial_blocks",
            lambda *a, **k: made.append(real(*a, **k)) or made[-1])
        cold = self.service.handle(
            {**self.doc, "schedulers": ["rlx", "lts"]})
        assert cold["ok"] and cold["cached"] is False
        assert [p.variant for p in made] == ["sb-rlx", "sb-lts"]
        for p in made:
            assert not {"blocks", "block_of", "sources_per_block"} & set(vars(p))
        # the views still build on demand, from the same columns
        assert sum(map(len, made[0].blocks)) == self.graph.num_tasks()

    def test_no_cache_forces_recompute(self):
        self.service.handle(dict(self.doc))
        forced = self.service.handle({**self.doc, "no_cache": True})
        assert forced["cached"] is False
        assert service_stat(self.service, "computed") == 2

    def test_distinct_pes_do_not_collide(self):
        a = self.service.handle(dict(self.doc))
        b = self.service.handle({**self.doc, "num_pes": 4})
        assert a["key"] != b["key"] and b["cached"] is False

    def test_truncated_results_are_not_cached(self):
        truncated = self.service.handle({**self.doc, "budget_ms": 1e-6})
        assert truncated["truncated"]
        again = self.service.handle({**self.doc, "budget_ms": 1e-6})
        assert again["cached"] is False  # never served from cache

    def test_bad_requests_answer_ok_false(self):
        assert not self.service.handle({"op": "nope"})["ok"]
        assert not self.service.handle({"op": "schedule"})["ok"]
        bad_graph = {"op": "schedule", "graph": {"format": "x"}, "num_pes": 2}
        assert not self.service.handle(bad_graph)["ok"]
        # an unhashable op is an unknown op, not a crash of handle()
        assert not self.service.handle({"op": ["schedule"]})["ok"]
        assert service_stat(self.service, "errors") == 4

    @pytest.mark.parametrize("op", ["schedule", "simulate"])
    @pytest.mark.parametrize("num_pes", [
        10**30, 2**20 + 1, 1e30, 4.9, True, "8",
    ], ids=["1e30-int", "max-plus-1", "1e30-float", "fraction", "bool", "str"])
    def test_num_pes_outside_the_device_range_is_refused(self, op, num_pes):
        """Only a JSON integer in [1, MAX_PES] is scheduled: anything
        else is refused before any per-PE allocation."""
        t0 = time.perf_counter()
        refused = self.service.handle(
            {**self.doc, "op": op, "num_pes": num_pes})
        assert time.perf_counter() - t0 < 1.0
        assert not refused["ok"] and "num_pes" in refused["error"]
        assert self.service.handle({**self.doc, "op": op})["ok"]

    def _refused_before_fingerprint(self, doc: dict, field: str) -> dict:
        refused = self.service.handle(doc)
        assert not refused["ok"] and field in refused["error"]
        assert not refused.get("deadline_exceeded")
        assert not self.service._graphs  # no graph work was done
        return refused

    @pytest.mark.parametrize("budget_ms", [
        float("nan"), float("inf"), "5000", True, 10**400,
    ], ids=["nan", "inf", "str", "bool", "past-float"])
    def test_budget_ms_must_be_a_finite_number(self, budget_ms):
        self._refused_before_fingerprint(
            {**self.doc, "budget_ms": budget_ms}, "budget_ms")

    @pytest.mark.parametrize("budget_ms", [0, -5, -0.5])
    def test_budget_ms_must_be_positive(self, budget_ms):
        self._refused_before_fingerprint(
            {**self.doc, "budget_ms": budget_ms}, "budget_ms")
        assert self.service.handle({**self.doc, "budget_ms": 5000})["ok"]

    @pytest.mark.parametrize("op", ["schedule", "simulate"])
    @pytest.mark.parametrize("deadline_ms", [
        float("nan"), float("inf"), float("-inf"), "5000", True,
    ], ids=["nan", "inf", "-inf", "str", "bool"])
    def test_deadline_ms_must_be_a_finite_number(self, op, deadline_ms):
        self._refused_before_fingerprint(
            {**self.doc, "op": op, "deadline_ms": deadline_ms}, "deadline_ms")

    @pytest.mark.parametrize("deadline_ms", [-5, -0.5])
    def test_expired_deadline_ms_is_still_a_deadline_refusal(self, deadline_ms):
        refused = self.service.handle({**self.doc, "deadline_ms": deadline_ms})
        assert not refused["ok"]
        assert refused["deadline_exceeded"] and refused["retryable"]
        assert not self.service._graphs

    @pytest.mark.parametrize("schedulers", [
        "rlx", ["rlx", 3], {"rlx": 1}, [["rlx"]],
    ], ids=["str", "non-str-item", "object", "nested"])
    def test_schedulers_must_be_a_list_of_names(self, schedulers):
        self._refused_before_fingerprint(
            {**self.doc, "schedulers": schedulers}, "schedulers")
        ok = self.service.handle({**self.doc, "schedulers": ["rlx"]})
        assert ok["ok"] and ok["key"].endswith(":rlx")

    @pytest.mark.parametrize("field,value", [
        ("schedulers", ["bogus"]), ("schedulers", ["rlx", "bogus"]),
        ("objective", "fastest"), ("objective", None),
    ], ids=["unknown-name", "one-unknown", "unknown-objective", "null-objective"])
    def test_unknown_schedulers_and_objectives_are_refused_before_parse(
            self, field, value):
        refused = self._refused_before_fingerprint(
            {**self.doc, field: value}, field.rstrip("s"))
        assert "unknown" in refused["error"]

    @pytest.mark.parametrize("op", ["schedule", "simulate"])
    @pytest.mark.parametrize("no_cache", ["false", 0, "lru"])
    def test_no_cache_must_be_a_json_boolean(self, op, no_cache):
        self._refused_before_fingerprint(
            {**self.doc, "op": op, "no_cache": no_cache}, "no_cache")
        for value in (None, False, True):
            assert self.service.handle(
                {**self.doc, "op": op, "no_cache": value})["ok"]

    @pytest.mark.parametrize("op", ["schedule", "simulate"])
    @pytest.mark.parametrize("graph", [
        None, [1, 2], "graph", 5,
    ], ids=["missing", "list", "str", "int"])
    def test_graph_must_be_a_json_object(self, op, graph):
        doc = {**self.doc, "op": op}
        if graph is None:
            del doc["graph"]
        else:
            doc["graph"] = graph
        refused = self._refused_before_fingerprint(doc, "graph")
        assert refused["error"] == "graph must be a JSON object"

    #: one wrong-typed value per declared field type
    WRONG_TYPE = {dict: [1, 2], bool: "no", int: "8", float: "5",
                  str: 5, list: "rlx"}

    @pytest.mark.parametrize("op,field", [
        (op, field) for op in server_module.COMPUTE_OPS
        for field in server_module.OPS[op].fields
    ])
    def test_every_declared_field_is_checked_before_fingerprinting(
            self, op, field):
        """Walks the op table: a wrong-typed value in any declared field
        of a keyed op is refused by name, before any graph work."""
        kind = server_module.OPS[op].fields[field].kind
        doc = {**self.doc, "op": op, field: self.WRONG_TYPE[kind]}
        self._refused_before_fingerprint(doc, field)
        assert service_stat(self.service, "computed") == 0

    def test_retry_must_be_a_json_boolean(self):
        retries = self.service.telemetry.registry.counter("service.retries")
        self._refused_before_fingerprint(
            {**self.doc, "retry": "no"}, "retry")
        assert retries.value == 0
        assert self.service.handle({**self.doc, "retry": True})["ok"]
        assert retries.value == 1

    @pytest.mark.parametrize("op", ["trace", "profile", "flight"])
    @pytest.mark.parametrize("n", [True, 0, 2.0, "3"])
    def test_control_op_n_must_be_a_positive_json_integer(self, op, n):
        refused = self.service.handle({"op": op, "n": n})
        assert not refused["ok"]
        assert refused["error"] == "n must be an integer of at least 1"

    @pytest.mark.parametrize("op,field", [
        ("flight", "dump"), ("profile", "speedscope"),
    ])
    def test_control_op_flags_must_be_json_booleans(self, op, field):
        refused = self.service.handle({"op": op, field: "no"})
        assert not refused["ok"]
        assert refused["error"] == f"{field} must be a JSON boolean"
        assert not self.service.telemetry.flight.snapshot()["dumps"]

    @pytest.mark.parametrize("volume", [2.5, True, "4", None])
    def test_non_integer_volumes_are_refused(self, volume):
        """A chain with a 2.5-element edge used to answer a makespan."""
        g = CanonicalGraph()
        g.add_source("s", 4)
        g.add_task("t", 4, 4)
        g.add_sink("k", 4)
        g.add_edge("s", "t")
        g.add_edge("t", "k")
        graph_doc = graph_to_dict(g)
        graph_doc["nodes"][1]["input_volume"] = volume
        graph_doc["nodes"][0]["output_volume"] = volume
        for op in ("schedule", "simulate"):
            refused = self.service.handle(
                {"op": op, "graph": graph_doc, "num_pes": 2})
            assert not refused["ok"]
            assert refused["error"].startswith(
                "node 's': volumes must be integers")

    def test_stats_shape(self):
        self.service.handle(dict(self.doc))
        stats = self.service.handle({"op": "stats"})
        assert stats["ok"] and stats["served"] == 1 and stats["computed"] == 1
        assert stats["cache"]["puts"] == 1
        # one cold request is exactly one miss: the leader's in-flight
        # double-check re-probe must not count a second one
        assert stats["cache"]["misses"] == 1

    def test_coalescing_batches_identical_fingerprints(self):
        line = dict(self.doc)
        n = 6
        barrier = threading.Barrier(n)
        responses = []
        lock = threading.Lock()

        def fire():
            barrier.wait()
            response = self.service.handle(dict(line))
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=fire) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in responses)
        payloads = {json.dumps(r["schedule"], sort_keys=True) for r in responses}
        assert len(payloads) == 1
        # exactly one computation; everyone else waited or hit the cache
        assert service_stat(self.service, "computed") == 1
        assert service_stat(self.service, "coalesced") + 1 + sum(
            1 for r in responses if r["cached"] == "lru"
        ) == n

    def test_coalesced_followers_do_not_hold_work_slots(self):
        from repro.service import portfolio as portfolio_mod
        from repro.service import register_scheduler

        entered = threading.Event()
        release = threading.Event()

        def slow(graph, num_pes):
            entered.set()
            release.wait(10.0)
            return portfolio_mod._SCHEDULERS["nstr"](graph, num_pes)

        register_scheduler("slowtest", slow)
        try:
            slots = threading.BoundedSemaphore(2)
            doc = {**self.doc, "schedulers": ["slowtest"]}
            responses = []
            lock = threading.Lock()

            def call():
                response = self.service.handle(dict(doc), slots)
                with lock:
                    responses.append(response)

            leader = threading.Thread(target=call)
            leader.start()
            assert entered.wait(10.0)  # the leader computes, holding a slot
            followers = [threading.Thread(target=call) for _ in range(3)]
            for t in followers:
                t.start()
            time.sleep(0.2)  # let the followers reach the in-flight wait
            # blocked followers must not pin the second slot: unrelated
            # work could still claim it while the leader computes
            assert slots.acquire(timeout=5.0)
            slots.release()
            release.set()
            leader.join(10.0)
            for t in followers:
                t.join(10.0)
            assert len(responses) == 4 and all(r["ok"] for r in responses)
            assert service_stat(self.service, "computed") == 1
        finally:
            release.set()
            portfolio_mod._SCHEDULERS.pop("slowtest", None)


class TestSimulateOp:
    """The DES-validation endpoint: fingerprint-keyed like schedule."""

    def setup_method(self):
        self.service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        self.graph = random_canonical_graph("fft", 8, seed=1)
        self.doc = {
            "op": "simulate",
            "graph": graph_to_dict(self.graph),
            "num_pes": 8,
        }

    def test_cold_then_cached(self):
        cold = self.service.handle(dict(self.doc))
        warm = self.service.handle(dict(self.doc))
        assert cold["ok"] and cold["op"] == "simulate"
        assert cold["cached"] is False and warm["cached"] == "lru"
        assert cold["sim_makespan"] == warm["sim_makespan"]
        assert cold["makespan"] > 0 and not cold["deadlocked"]
        assert cold["error_pct"] is not None
        assert service_stat(self.service, "simulated") == 1  # one DES execution only

    def test_served_simulation_builds_no_name_keyed_view(self, monkeypatch):
        """The service reads the makespan and the channel count only:
        the result's ``finish_times``/``start_times``/``channel_stats``
        stay unbuilt."""
        import repro.sim

        made = []
        real = repro.sim.simulate_schedule
        monkeypatch.setattr(
            repro.sim, "simulate_schedule",
            lambda *a, **k: made.append(real(*a, **k)) or made[-1])
        cold = self.service.handle(dict(self.doc))
        [sim] = made
        assert cold["ok"] and cold["sim_makespan"] == sim.makespan
        assert cold["channels"] == sim.num_channels > 0
        views = {"finish_times", "start_times", "channel_stats"}
        assert not views & set(vars(sim))
        # the views still build on demand, from the same columns
        assert len(sim.channel_stats) == sim.num_channels
        assert set(sim.finish_times) == set(self.graph.computational_nodes())

    def test_key_is_sim_tagged_and_distinct_from_schedule(self):
        sim = self.service.handle(dict(self.doc))
        sched = self.service.handle({**self.doc, "op": "schedule"})
        assert ":sim:" in sim["key"]
        assert sim["key"] != sched["key"]
        assert sim["key"].startswith(f"{SCHEDULE_KEY_VERSION}:")
        # the schedule request must not have been served from the
        # simulation entry or vice versa
        assert sched["cached"] is False

    def test_params_change_the_key(self):
        base = self.service.handle(dict(self.doc))
        for extra in ({"policy": "pe"}, {"pacing": "greedy"},
                      {"capacity": 4}, {"scheduler": "rlx"}):
            other = self.service.handle({**self.doc, **extra})
            assert other["key"] != base["key"], extra
            assert other["cached"] is False

    def _refuse_fingerprinting(self, monkeypatch):
        def no_fingerprint(*args, **kwargs):
            raise AssertionError("fingerprinted an invalid request")

        monkeypatch.setattr(self.service, "_fingerprint", no_fingerprint)

    def test_engine_field_may_only_name_the_one_engine(self, monkeypatch):
        absent = self.service.handle(dict(self.doc))
        named = self.service.handle({**self.doc, "engine": "indexed"})
        assert named["cached"] == "lru" and named["key"] == absent["key"]
        assert absent["engine"] == named["engine"] == "indexed"
        self._refuse_fingerprinting(monkeypatch)
        refused = self.service.handle({**self.doc, "engine": "reference"})
        assert not refused["ok"]
        assert "'indexed'" in refused["error"]
        assert service_stat(self.service, "simulated") == 1

    @pytest.mark.parametrize("capacity", [2.9, True, "3", 0])
    def test_capacity_must_be_a_positive_json_integer(self, capacity,
                                                      monkeypatch):
        self._refuse_fingerprinting(monkeypatch)
        response = self.service.handle({**self.doc, "capacity": capacity})
        assert not response["ok"]
        assert "capacity" in response["error"]

    def test_no_cache_forces_a_fresh_simulation(self):
        self.service.handle(dict(self.doc))
        forced = self.service.handle({**self.doc, "no_cache": True})
        assert forced["cached"] is False
        assert service_stat(self.service, "simulated") == 2

    def test_renamed_isomorphic_copy_recomputes(self):
        first = self.service.handle(dict(self.doc))
        renamed = self.service.handle({
            "op": "simulate",
            "graph": graph_to_dict(relabel(self.graph)),
            "num_pes": 8,
        })
        # same fingerprint/key, but blocked/channel diagnostics name
        # nodes, so a cross-document hit recomputes instead of remapping
        assert renamed["key"] == first["key"]
        assert renamed["cached"] is False
        assert renamed["sim_makespan"] == first["sim_makespan"]
        assert service_stat(self.service, "simulated") == 2

    def test_deadlock_reported_with_full_channels(self, fig9_graph1):
        response = self.service.handle({
            "op": "simulate",
            "graph": graph_to_dict(fig9_graph1),
            "num_pes": 8,
            "capacity": 1,
        })
        assert response["ok"] and response["deadlocked"]
        assert response["blocked"]
        assert response["full_channels"]
        for ch in response["full_channels"]:
            assert ch["occupancy"] == ch["capacity"] == 1
        assert response["error_pct"] is None

    def test_persisted_entries_survive_restart(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        first = ScheduleService(cache=ScheduleCache(path, capacity=8))
        cold = first.handle(dict(self.doc))
        reopened = ScheduleService(cache=ScheduleCache(path, capacity=8))
        warm = reopened.handle(dict(self.doc))
        assert warm["cached"] == "store"
        assert warm["sim_makespan"] == cold["sim_makespan"]
        assert service_stat(reopened, "simulated") == 0

    def test_invalid_parameters_rejected(self):
        for bad in ({"scheduler": "nstr"}, {"scheduler": "heft"},
                    {"policy": "x"}, {"pacing": "x"},
                    {"engine": "x"}, {"capacity": 0}):
            response = self.service.handle({**self.doc, **bad})
            assert not response["ok"], bad

    def test_simulate_coalesces_identical_requests(self):
        n = 4
        barrier = threading.Barrier(n)
        responses = []
        lock = threading.Lock()

        def fire():
            barrier.wait()
            response = self.service.handle(dict(self.doc))
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=fire) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in responses)
        assert service_stat(self.service, "simulated") == 1
        assert {r["sim_makespan"] for r in responses} == {
            responses[0]["sim_makespan"]
        }


class TestSelectionRule:
    """The platform picks the array kernels: with ``HAVE_NUMPY`` patched
    off (the no-numpy install) a served cold ``schedule`` and
    ``simulate`` answer with the installed path's bytes."""

    @staticmethod
    def _cold_answers() -> tuple[list[str], dict]:
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        graph = graph_to_dict(random_canonical_graph("layered", 300, seed=4))
        answers = []
        for op in ("schedule", "simulate"):
            line = json.dumps({"op": op, "graph": graph, "num_pes": 16})
            data, _ = service.serve_line_slow(line.encode())
            response = json.loads(data)
            assert response["ok"] and response["cached"] is False
            # wall-clock timings are the only fields allowed to differ
            del response["elapsed_ms"]
            for cand in response.get("candidates", ()):
                del cand["elapsed_ms"], cand["cpu_ms"]
            answers.append(json.dumps(response))
        return answers, service.handle({"op": "stats"})["backend"]

    def test_python_path_serves_the_same_bytes(self, monkeypatch):
        installed, info = self._cold_answers()
        assert info["backend"] == ("numpy" if HAVE_NUMPY else "python")
        monkeypatch.setattr(BK, "HAVE_NUMPY", False)
        python, info = self._cold_answers()
        assert python == installed
        assert info["backend"] == "python"


@pytest.fixture
def live_server():
    service = ScheduleService(cache=ScheduleCache(None, capacity=64))
    with ScheduleServer(service, port=0, workers=2) as server:
        yield server


class TestServerClient:
    def test_ping_schedule_stats_roundtrip(self, live_server):
        g = random_canonical_graph("chain", 6, seed=0)
        with ServiceClient(port=live_server.port) as client:
            assert client.ping()["ok"]
            first = client.schedule(g, 4)
            second = client.schedule(g, 4)
            assert first["cached"] is False and second["cached"] == "lru"
            assert client.stats()["served"] == 2

    def test_simulate_roundtrip(self, live_server):
        g = random_canonical_graph("fft", 8, seed=2)
        with ServiceClient(port=live_server.port) as client:
            first = client.simulate(g, 8)
            second = client.simulate(g, 8)
            assert first["ok"] and first["op"] == "simulate"
            assert first["cached"] is False and second["cached"] == "lru"
            assert first["sim_makespan"] == second["sim_makespan"]
            assert "graph" not in first  # the requester already has it
            stats = client.stats()
            assert stats["simulated"] == 1
            assert stats["sim_schedulers"] == ["lts", "rlx", "work"]

    def test_simulate_engines_agree_over_the_wire(self, live_server):
        """Naming the one engine answers what omitting it answers."""
        g = random_canonical_graph("gaussian", 8, seed=1)
        with ServiceClient(port=live_server.port) as client:
            default = client.simulate(g, 8)
            named = client.request({
                "op": "simulate", "graph": graph_to_dict(g), "num_pes": 8,
                "engine": "indexed", "no_cache": True,
            })
        for response in (default, named):
            del response["elapsed_ms"]
        assert named == default

    def test_service_error_raised_for_bad_request(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            with pytest.raises(ServiceError):
                g = random_canonical_graph("chain", 4, seed=0)
                client.schedule(g, 4, schedulers=["bogus"])
            with pytest.raises(ServiceError):
                g = random_canonical_graph("chain", 4, seed=0)
                client.simulate(g, 4, scheduler="nstr")

    def test_malformed_line_gets_error_response(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            response = client.request_raw(b"this is not json\n")
            assert response["ok"] is False

    def test_more_clients_than_workers_are_all_served(self):
        # connections must not pin worker slots: with a single worker
        # slot, a second concurrent client still gets answers while the
        # first connection stays open and idle
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        with ScheduleServer(service, port=0, workers=1) as server:
            g = random_canonical_graph("chain", 4, seed=0)
            with ServiceClient(port=server.port, timeout=5.0) as first:
                assert first.ping()["ok"]
                with ServiceClient(port=server.port, timeout=5.0) as second:
                    assert second.ping()["ok"]
                    assert second.schedule(g, 2)["ok"]
                assert first.schedule(g, 2)["ok"]

    def test_shutdown_is_graceful(self):
        service = ScheduleService()
        server = ScheduleServer(service, port=0, workers=2).start()
        with ServiceClient(port=server.port) as client:
            assert client.shutdown()["ok"]
        server.join()
        with pytest.raises(OSError):
            ServiceClient(port=server.port, timeout=0.5)

    def test_shutdown_permitted_only_from_loopback(self):
        class FakePeer:
            def __init__(self, host):
                self._host = host

            def getpeername(self):
                return (self._host, 40000)

        service = ScheduleService()
        server = ScheduleServer(service, port=0)
        assert server._shutdown_permitted(FakePeer("127.0.0.1"))
        assert not server._shutdown_permitted(FakePeer("192.0.2.7"))
        remote_ok = ScheduleServer(service, port=0, allow_remote_shutdown=True)
        assert remote_ok._shutdown_permitted(FakePeer("192.0.2.7"))

    def test_refused_shutdown_keeps_server_alive(self, monkeypatch):
        monkeypatch.setattr(
            ScheduleServer, "_shutdown_permitted", lambda self, conn: False
        )
        service = ScheduleService()
        with ScheduleServer(service, port=0, workers=1) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError, match="shutdown refused"):
                    client.shutdown()
                assert client.ping()["ok"]


class TestLoadgen:
    def test_pool_is_diverse_and_deterministic(self):
        lines = build_request_pool(scenario="fig10", pool=8)
        assert lines == build_request_pool(scenario="fig10", pool=8)
        docs = [json.loads(line) for line in lines]
        assert len(lines) == 8
        assert len({d["num_pes"] for d in docs}) > 1  # mixes PE counts

    def test_percentile_nearest_rank(self):
        xs = [10.0, 20.0, 30.0, 40.0]
        assert percentile(xs, 50) == 20.0
        assert percentile(xs, 100) == 40.0
        # rank = ceil(q/100 * N), exactly: p50 of 1..10 is the 5th value
        assert percentile(list(range(1, 11)), 50) == 5
        assert percentile(list(range(1, 501)), 99) == 495
        assert percentile(xs, 0) == 10.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_loadgen_against_live_server(self, live_server):
        report = run_loadgen(
            port=live_server.port, requests=30, workers=2, pool=4,
            scenario="fig10", seed=1,
        )
        assert report.requests == 30 and report.errors == 0
        assert report.tiers.get("cold", 0) <= 4 + 2  # pool + races
        assert report.hit_rate > 0.5
        assert report.summary()["p50_ms"] > 0
        assert "req/s" in report.table()

    def test_simulate_pool_builds_simulate_lines(self):
        lines = build_request_pool(scenario="fig10", pool=4, op="simulate")
        docs = [json.loads(line) for line in lines]
        assert all(d["op"] == "simulate" for d in docs)
        assert all(d["scheduler"] == "lts" for d in docs)
        assert all("objective" not in d for d in docs)
        with pytest.raises(ValueError, match="unknown request op"):
            build_request_pool(op="teleport")

    def test_loadgen_simulate_against_live_server(self, live_server):
        report = run_loadgen(
            port=live_server.port, requests=12, workers=2, pool=3,
            scenario="fig10", seed=1, op="simulate",
        )
        assert report.requests == 12 and report.errors == 0
        assert report.hit_rate > 0.5  # Zipf replay hits the sim cache

    def test_loadgen_fails_fast_without_server(self):
        with pytest.raises(OSError):
            run_loadgen(port=1, requests=2, workers=1, pool=2)

    def test_refused_responses_are_errors_not_requests(self, live_server):
        # every request names an unknown scheduler, so every answer is
        # ok:false — nothing may be double-counted as a served request
        with pytest.raises(ConnectionError, match="no request completed"):
            run_loadgen(port=live_server.port, requests=6, workers=2,
                        pool=2, schedulers=["bogus"], seed=0)


class TestServiceCli:
    def test_request_and_loadgen_cli(self, live_server, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        save_graph(random_canonical_graph("chain", 6, seed=0), str(graph_path))
        out_path = tmp_path / "sched.json"
        rc = main([
            "request", str(graph_path), "-p", "4",
            "--schedulers", "rlx,nstr",
            "--host", "127.0.0.1", "--port", str(live_server.port),
            "-o", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wins makespan" in out
        assert json.loads(out_path.read_text())["num_pes"] == 4

        json_out = tmp_path / "loadgen.json"
        csv_out = tmp_path / "lat.csv"
        rc = main([
            "loadgen", "--requests", "20", "--workers", "2", "--pool", "3",
            "--port", str(live_server.port),
            "--json", str(json_out), "--csv", str(csv_out),
        ])
        assert rc == 0
        report = json.loads(json_out.read_text())
        assert report["requests"] == 20 and report["errors"] == 0
        assert csv_out.read_text().startswith("index,latency_ms")

    def test_request_simulate_cli(self, live_server, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        save_graph(random_canonical_graph("fft", 8, seed=0), str(graph_path))
        out_path = tmp_path / "sim.json"
        rc = main([
            "request", str(graph_path), "-p", "8", "--simulate",
            "--schedulers", "rlx", "--port", str(live_server.port),
            "-o", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated makespan" in out
        response = json.loads(out_path.read_text())
        assert response["op"] == "simulate"
        assert response["scheduler"] == "rlx"
        assert response["sim_makespan"] > 0

    def test_loadgen_simulate_cli(self, live_server, capsys):
        rc = main([
            "loadgen", "--requests", "8", "--workers", "2", "--pool", "2",
            "--simulate", "--port", str(live_server.port),
        ])
        assert rc == 0
        assert "req/s" in capsys.readouterr().out

    def test_request_cli_unreachable_service(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        save_graph(random_canonical_graph("chain", 4, seed=0), str(graph_path))
        rc = main(["request", str(graph_path), "-p", "2", "--port", "1"])
        assert rc == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_serve_cli_runs_and_shuts_down(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
        # pick a free port first
        import socket as socketlib

        with socketlib.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rc_box = {}
        # the serve loop's GC policy must not outlive it in this process
        gc_before = (gc.get_threshold(), gc.get_freeze_count(),
                     list(gc.callbacks))

        def run_serve():
            rc_box["rc"] = main([
                "serve", "--port", str(port), "-w", "2",
                "--allow-remote-shutdown",
            ])

        thread = threading.Thread(target=run_serve)
        thread.start()
        g = random_canonical_graph("chain", 4, seed=0)
        client = None
        for _ in range(100):
            try:
                client = ServiceClient(port=port, timeout=5.0)
                break
            except OSError:
                import time

                time.sleep(0.05)
        assert client is not None
        with client:
            assert client.schedule(g, 2)["ok"]
            gc_block = client.stats()["gc"]
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive() and rc_box["rc"] == 0
        assert gc_block["threshold"][0] == YOUNG_GEN_THRESHOLD
        assert gc_block["frozen"] > 0
        assert (gc.get_threshold(), gc.get_freeze_count(),
                list(gc.callbacks)) == gc_before
        # the persistent schedule store was created and holds the entry
        store = tmp_path / "svc" / "schedules.jsonl"
        assert store.exists()
        assert len(store.read_text().strip().splitlines()) == 1


def _permuted_copy(graph: CanonicalGraph, order_seed: int) -> CanonicalGraph:
    """Same specs and edges, nodes inserted in a shuffled order."""
    import random as random_mod

    names = list(graph.nodes)
    random_mod.Random(order_seed).shuffle(names)
    clone = CanonicalGraph()
    for v in names:
        clone.add_node(graph.spec(v))
    for u, v in graph.edges:
        clone.nx.add_edge(u, v)
    return clone


@pytest.fixture(scope="module")
def fingerprint_families() -> list[tuple[CanonicalGraph, str]]:
    """``(graph, python cg3 hex)`` over layered and serpar graphs from 5
    to 10k nodes, the paper's topologies and two ML graphs — built once
    for every backend.  The hex is taken on a copy, so ``graph`` itself
    carries no memoized labels."""
    from conftest import build_fig9_graph1, build_fig9_graph2
    from repro.ml import build_resnet50, build_transformer_encoder

    graphs = [
        random_canonical_graph(topo, size, seed=2)
        for topo, size in (
            ("layered", 5), ("layered", 64), ("serpar", 60),
            ("layered", 1000), ("serpar", 1000),
            ("layered", 10_000), ("serpar", 10_000),
            ("fft", 16), ("gaussian", 8), ("cholesky", 6),
        )
    ]
    graphs += [
        build_fig9_graph1(),
        build_fig9_graph2(),
        build_resnet50(image_size=56, max_parallel=16),
        build_transformer_encoder(
            seq_len=16, d_model=64, num_heads=4, d_ff=128, max_parallel=16
        ),
    ]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(BK, "HAVE_NUMPY", False)
        return [(g, graph_fingerprint(g.copy())) for g in graphs]


def _verify_witness(src: CanonicalGraph, dst: CanonicalGraph, mapping) -> None:
    assert mapping is not None
    assert set(mapping) == set(src.nodes)
    assert set(mapping.values()) == set(dst.nodes)
    assert {(mapping[u], mapping[v]) for u, v in src.edges} == set(dst.edges)
    for v in src.nodes:
        a, b = src.spec(v), dst.spec(mapping[v])
        assert (a.kind, a.input_volume, a.output_volume) == (
            b.kind, b.input_volume, b.output_volume
        )


class TestIsomorphismAutomorphismRich:
    """Witness search on graphs with large automorphism groups: every
    1-WL class is a non-trivial orbit, so the individualization-
    refinement loop (not plain refinement) does the work."""

    @staticmethod
    def _alternating_cycle(n_pairs: int, prefix: str = "") -> CanonicalGraph:
        # C_{2n} with alternating orientation: even nodes feed both odd
        # neighbours; uniform volumes make all evens (and all odds)
        # 1-WL-equivalent, with a dihedral automorphism group
        g = CanonicalGraph()
        n = 2 * n_pairs
        for i in range(n):
            g.add_task(f"{prefix}{i}", 8, 8)
        for i in range(0, n, 2):
            g.add_edge(f"{prefix}{i}", f"{prefix}{(i + 1) % n}")
            g.add_edge(f"{prefix}{i}", f"{prefix}{(i - 1) % n}")
        return g

    @staticmethod
    def _complete_bipartite(k: int, prefix: str = "") -> CanonicalGraph:
        g = CanonicalGraph()
        for i in range(k):
            g.add_task(f"{prefix}a{i}", 4, 4)
        for j in range(k):
            g.add_task(f"{prefix}b{j}", 4, 4)
        for i in range(k):
            for j in range(k):
                g.add_edge(f"{prefix}a{i}", f"{prefix}b{j}")
        return g

    @staticmethod
    def _uniform_layered(layers: int, width: int, prefix: str = "") -> CanonicalGraph:
        g = CanonicalGraph()
        for li in range(layers):
            for w in range(width):
                g.add_task(f"{prefix}L{li}_{w}", 4, 4)
        for li in range(1, layers):
            for w in range(width):
                for pw in range(width):
                    g.add_edge(f"{prefix}L{li - 1}_{pw}", f"{prefix}L{li}_{w}")
        return g

    def test_alternating_cycle_witness(self):
        src = self._alternating_cycle(4)
        dst = _permuted_copy(self._alternating_cycle(4, prefix="x"), 3)
        _verify_witness(src, dst, find_isomorphism(src, dst))

    def test_complete_bipartite_witness(self):
        src = self._complete_bipartite(4)
        dst = _permuted_copy(self._complete_bipartite(4, prefix="y"), 5)
        _verify_witness(src, dst, find_isomorphism(src, dst))

    def test_uniform_layered_witness(self):
        src = self._uniform_layered(3, 4)
        dst = _permuted_copy(self._uniform_layered(3, 4, prefix="z"), 7)
        _verify_witness(src, dst, find_isomorphism(src, dst))

    def test_different_cycle_lengths_yield_none(self):
        # C_8 vs two C_4s: same node count, same degrees, classic
        # 1-WL-equivalent pair — the verified witness must reject it
        c8 = self._alternating_cycle(4)
        two_c4 = self._alternating_cycle(2, prefix="p")
        extra = self._alternating_cycle(2, prefix="q")
        for v in extra.nodes:
            two_c4.add_node(extra.spec(v))
        for u, v in extra.edges:
            two_c4.nx.add_edge(u, v)
        assert len(c8) == len(two_c4)
        assert c8.number_of_edges() == two_c4.number_of_edges()
        assert find_isomorphism(c8, two_c4) is None

    def test_fingerprint_stable_under_node_permutation(self):
        for build in (
            lambda p: self._alternating_cycle(4, prefix=p),
            lambda p: self._complete_bipartite(4, prefix=p),
            lambda p: self._uniform_layered(3, 4, prefix=p),
        ):
            base = build("")
            fp = graph_fingerprint(base)
            for seed in range(4):
                assert graph_fingerprint(_permuted_copy(base, seed)) == fp

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_fingerprint_stable_under_permutation_random_families(
        self, backend, pin_backend, fingerprint_families
    ):
        pin_backend(backend)
        for g, fp in fingerprint_families:
            # every backend computes the python hex, on a fresh copy of
            # the graph and on a renamed, reordered copy
            assert graph_fingerprint(g.copy()) == fp
            assert graph_fingerprint(relabel(g)) == fp
            if len(g) <= 1000:
                for seed in range(1, 3):
                    assert graph_fingerprint(_permuted_copy(g, seed)) == fp


class TestCacheCompaction:
    def _fill(self, path, keys, prefix="sv3:", pad=3000):
        # lines are padded past ScheduleCache.COMPACT_MIN_BYTES so the
        # auto-compaction thresholds are exercised with realistic sizes
        cache = ScheduleCache(path, capacity=64)
        for k in keys:
            cache.put(f"{prefix}{k}", {"v": k, "pad": "x" * pad})
        return cache

    def test_dead_bytes_from_duplicates_are_reclaimed(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        self._fill(path, ["a", "b", "c"])
        # simulate older generations: re-append newer lines for the same
        # keys (an old server without the in-memory index did exactly this)
        with open(path, "ab") as fh:
            for k in ("a", "b", "c"):
                fh.write(json.dumps(
                    {"key": f"sv3:{k}", "entry": {"v": k + "2", "pad": "y" * 200}}
                ).encode() + b"\n")
        before = path.stat().st_size
        cache = ScheduleCache(path, capacity=64)
        # the last occurrence wins the index; earlier lines are dead
        assert cache.dead_bytes() == 0  # auto-compacted on load (>50% dead)
        assert cache.counters()["compactions"] == 1
        assert path.stat().st_size < before
        for k in ("a", "b", "c"):
            entry, tier = cache.get(f"sv3:{k}")
            assert entry["v"] == k + "2" and tier == "store"

    def test_explicit_compact_shrinks_and_hits_resolve(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        self._fill(path, ["a", "b"])
        with open(path, "ab") as fh:
            fh.write(b'{"torn": \n')  # garbage lines are dead bytes
            fh.write(b"not json at all\n" * 4)
        cache = ScheduleCache(path, capacity=64)
        dead = cache.dead_bytes()
        assert dead > 0
        before = path.stat().st_size
        reclaimed = cache.compact()
        assert reclaimed == dead
        assert path.stat().st_size == before - reclaimed
        assert cache.dead_bytes() == 0
        assert cache.get("sv3:a")[0]["v"] == "a"
        # a reload sees the compacted file
        reopened = ScheduleCache(path, capacity=64)
        assert reopened.get("sv3:b")[0]["v"] == "b"

    def test_retain_drops_superseded_versions(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        cache = self._fill(path, ["old1", "old2", "old3"], prefix="sv2:")
        cache.put("sv3:new", {"v": "new", "pad": "z" * 200})
        before = path.stat().st_size
        reopened = ScheduleCache(
            path, capacity=64, retain=lambda k: k.startswith("sv3:")
        )
        # sv2 lines were never indexed -> dead -> auto-compacted away
        assert reopened.counters()["compactions"] == 1
        assert path.stat().st_size < before
        assert reopened.get("sv3:new")[0]["v"] == "new"
        assert reopened.get("sv2:old1") is None

    def test_records_of_older_key_versions_are_unindexed_and_compacted(
        self, tmp_path
    ):
        # an sv2 record (cg2-era fingerprint) next to a larger current
        # one: dead, but below the auto-compaction ratio on load
        path = tmp_path / "schedules.jsonl"
        old = encode_record("sv2:" + "a" * 64, {"v": "old"})
        live = encode_record(
            f"{SCHEDULE_KEY_VERSION}:" + "b" * 64, {"v": "new", "pad": "x" * 6000}
        )
        path.write_bytes(old + live)
        cache = ScheduleCache(path, capacity=8, retain=is_current_key)
        assert cache.counters()["compactions"] == 0
        assert len(cache) == 1
        assert cache.get("sv2:" + "a" * 64) is None
        assert cache.dead_bytes() == len(old)
        assert cache.compact() == len(old)
        assert path.read_bytes() == live
        assert cache.get(f"{SCHEDULE_KEY_VERSION}:" + "b" * 64)[0]["v"] == "new"

    def test_puts_after_compaction_land_at_correct_offsets(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        cache = self._fill(path, ["a", "b", "c", "d"])
        with open(path, "ab") as fh:
            fh.write(b"garbage\n" * 40)
        cache = ScheduleCache(path, capacity=1)  # tiny LRU: force store reads
        cache.compact()
        cache.put("sv3:e", {"v": "e"})
        for k in ("a", "b", "c", "d", "e"):
            assert cache.get(f"sv3:{k}")[0]["v"] == k


class TestStoreRecord:
    ENTRIES = [
        {},
        {"names": ["é", "日本", "a\"b", "tab\t"], "none": None},
        {"floats": [0.1, -0.0, 1e300, 2.5e-10, 3], "nested": [[1, [2, {}]], []]},
        {"z": {"b": 1, "a": {"y": None, "x": [1.5]}}, "a": "ü"},
    ]
    KEYS = ("sv3:" + "f" * 64 + ":p8:makespan:rlx", "sv3:ключ")

    @staticmethod
    def _lines(service) -> list[bytes]:
        return service.cache.path.read_bytes().splitlines(keepends=True)

    @staticmethod
    def _service(path) -> ScheduleService:
        return ScheduleService(cache=ScheduleCache(path, capacity=8))

    @staticmethod
    def _request_lines(family: str = "fft") -> list[bytes]:
        graph = graph_to_dict(random_canonical_graph(family, 8, seed=1))
        return [
            json.dumps({"op": op, "graph": graph, "num_pes": 8}).encode()
            for op in ("schedule", "simulate")
        ]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_record_round_trips_with_crc_over_the_entry_bytes(self, entry):
        for key in self.KEYS:
            line = encode_record(key, entry)
            assert decode_record(line) == (key, entry)
            assert decode_record(line, parse=False) == (key, None)
            doc = json.loads(line)
            assert list(doc) == ["entry_crc", "key", "entry"]
            # the entry bytes are the tail of the line, in insertion order
            body = line.split(b', "entry": ', 1)[1][:-2]
            assert body == json.dumps(entry).encode()
            assert doc["entry_crc"] == zlib.crc32(body)

    def test_spliced_fields_give_the_same_line(self):
        graph = {"nodes": [{"name": "b", "kind": "x"}], "edges": []}
        schedule = {"tasks": [{"name": "b", "pe": 0}], "format": "s"}
        entry = {"key": "sv3:k", "graph": graph, "schedule": schedule}
        held = {**entry, "graph": canonical_bytes(graph),
                "schedule": json.dumps(schedule).encode()}
        line = encode_record("sv3:k", held)
        assert line == encode_record("sv3:k", entry)
        assert decode_record(line) == ("sv3:k", entry)
        # a store hit slices the spliced bytes back out of the line
        assert _served_record(line) == ("sv3:k", held)

    def test_served_record_graph_bytes_hash_to_the_digest(
        self, tmp_path, monkeypatch
    ):
        # fft names are tuples: the ingest's fallback dump writes the bytes
        self._check_record_graph_bytes(tmp_path, monkeypatch, "fft")

    def test_column_written_record_graph_bytes_hash_to_the_digest(
        self, tmp_path, monkeypatch
    ):
        # layered names are ints: the ingest's column writer writes them
        self._check_record_graph_bytes(tmp_path, monkeypatch, "layered")

    def _check_record_graph_bytes(self, tmp_path, monkeypatch, family):
        from repro.service import cache as cache_module

        def refuse(doc):
            raise AssertionError("the cold path re-encoded the graph")

        # the store append splices the digest's bytes, never re-dumps
        monkeypatch.setattr(cache_module, "canonical_bytes", refuse)
        service = self._service(tmp_path / "schedules.jsonl")
        sched_line = self._request_lines(family)[0]
        service.serve_line_slow(sched_line)
        (line,) = self._lines(service)
        key, entry = decode_record(line)
        graph = canonical_bytes(json.loads(sched_line)["graph"])
        assert b', "graph": ' + graph + b', "num_pes": ' in line
        assert hashlib.sha256(graph).hexdigest() == entry["graph_digest"]

    def test_store_tier_answer_repeats_the_cold_bytes(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        first = self._service(path)
        cold = [first.serve_line_slow(line)[0] for line in self._request_lines()]
        second = self._service(path)
        for line, before in zip(self._request_lines(), cold):
            after = second.serve_line_slow(line)[0]
            assert json.loads(after)["cached"] == "store"
            head = before.split(b', "cached": ')[0]
            assert after.split(b', "cached": ')[0] == head
        assert service_stat(second, "computed") == 0
        assert service_stat(second, "simulated") == 0

    def test_legacy_layout_store_serves_without_recompute(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        first = self._service(path)
        cold = [first.handle(json.loads(line)) for line in self._request_lines()]
        path.write_bytes(b"".join(
            store_line(*decode_record(line), layout="legacy")
            for line in self._lines(first)
        ))
        reopened = self._service(path)
        assert reopened.cache.counters()["corrupt_records"] == 0
        for line, before in zip(self._request_lines(), cold):
            after = reopened.handle(json.loads(line))
            assert after["cached"] == "store"
            assert after["key"] == before["key"]
        assert service_stat(reopened, "computed") == 0
        assert service_stat(reopened, "simulated") == 0

    def test_one_flipped_byte_in_meta_graph_or_schedule_is_caught(
        self, tmp_path
    ):
        path = tmp_path / "schedules.jsonl"
        self._service(path).serve_line_slow(self._request_lines()[0])
        (line,) = path.read_bytes().splitlines(keepends=True)
        key = decode_record(line)[0]
        for marker in (b'"makespan": ', b'"graph": ', b'"schedule": '):
            at = line.index(marker) + len(marker) + 1
            rotted = line[:at] + bytes([line[at] ^ 0x04]) + line[at + 1:]
            with pytest.raises(ValueError):
                decode_record(rotted)
            # at load: quarantined, never indexed
            path.write_bytes(rotted)
            cache = ScheduleCache(path, capacity=8)
            assert cache.corrupt_records == 1 and cache.get(key) is None
            # after load: dropped on the store read
            path.write_bytes(line)
            cache = ScheduleCache(path, capacity=8)
            path.write_bytes(rotted)
            assert cache.get(key) is None and cache.corrupt_records == 1
            path.with_name(path.name + ".quarantine").unlink()
        # a rotted header must not pass for a legacy line without a CRC
        with pytest.raises(ValueError):
            decode_record(line.replace(b'"entry_crc"', b'"entry_crd"', 1))
        # the CRC does not cover the key: a rotted key indexes the record
        # under a key no request names, and the entry's own key refuses it
        at = line.index(b":p8:") + 2
        rotted = line[:at] + b"9" + line[at + 1:]
        path.write_bytes(rotted)
        cache = ScheduleCache(path, capacity=8)
        assert cache.get(key) is None
        assert cache.get(key.replace(":p8:", ":p9:")) is None
        assert cache.corrupt_records == 1


    #: SHA-256 of (cold, lru, store, remap) wire answers and the store
    #: record with every timing field and the record's CRC zeroed: the
    #: bytes the service served while its entries held dicts
    SERVED_BYTES = {
        "fft": (
            "f667431686156ab0db963d91fbe3ece0f488194921d1db60817726738ab680c6",
            "21afd4dc01e7fc5e0be8f3b60a5263d6e6cb2798f850f78c9d1a3c5f46490cac",
            "4775237ba449c0b0b59a13108ec293886d061e89d3c3e0d3363441fc5b09740d",
            "1e3c8a88998b12e142771177d47472024fba6e454a1d3089ca701e0d52a74aa5",
            "53beb44ae8f9abd4a5710e2e9ee02c8d31984272daa105a215c67ac0f8044f57",
        ),
        "layered": (
            "f13f4dd14040cabef17b51a8c2a9d3290fbace5c889e43a2690f808b2eecf647",
            "153d8d313c06de62353789c138e0b3f2a312ec19fc199529039070ae5febdc21",
            "9d675f5e1f5562612afb4eee3001f90aef9896d45604c2f3bef0cf9898ff7bc5",
            "9ab2d4abe993831103e7a21b38306a1cd8c8a17dcb8bc23a9b5927d6b4a04561",
            "9211534d787875fe2d76b8b19f06bdd6ff423dae0ddc93705662f250eec65d71",
        ),
    }

    @staticmethod
    def _untimed(data: bytes) -> str:
        data = re.sub(rb'^\{"entry_crc": \d+', b'{"entry_crc": 0', data)
        data = re.sub(rb'"(elapsed_ms|cpu_ms)": [-+.\deE]+', rb'"\1": 0', data)
        return hashlib.sha256(data).hexdigest()

    # fft names are tuples, layered names ints
    @pytest.mark.parametrize("family", ["fft", "layered"])
    def test_served_bytes_are_pinned(self, tmp_path, family):
        path = tmp_path / "schedules.jsonl"
        graph = random_canonical_graph(family, 8, seed=1)
        doc = {"op": "schedule", "graph": graph_to_dict(graph), "num_pes": 8}
        line = json.dumps(doc).encode()
        renamed = json.dumps({**doc, "graph": graph_to_dict(relabel(graph))})
        first = self._service(path)
        cold = first.serve_line_slow(line)[0]
        lru = first.serve_line_fast(line)
        remap = first.serve_line_slow(renamed.encode())[0]
        store = self._service(path).serve_line_slow(line)[0]
        (record,) = self._lines(first)
        answers = (cold, lru, store, remap)
        assert [json.loads(a)["cached"] for a in answers] == [
            False, "lru", "store", "lru"]
        assert service_stat(first, "remapped") == 1
        assert tuple(map(self._untimed, (*answers, record))) == \
            self.SERVED_BYTES[family]


class TestEntriesHoldBytes:
    """A cached schedule entry holds the bytes it serves, its graph's
    canonical dump and its schedule document, whichever tier filled it;
    ``handle`` decodes the schedule for in-process callers."""

    def setup_method(self):
        self.graph = random_canonical_graph("fft", 8, seed=1)
        self.doc = {
            "op": "schedule", "graph": graph_to_dict(self.graph), "num_pes": 8,
        }
        self.line = json.dumps(self.doc).encode()

    def _held(self, service) -> dict:
        (entry,) = service.cache._lru.values()
        assert type(entry["graph"]) is bytes
        assert type(entry["schedule"]) is bytes
        assert entry["graph"] == canonical_bytes(self.doc["graph"])
        assert service.cache.counters()["lru_bytes"] == (
            len(entry["graph"]) + len(entry["schedule"]))
        return entry

    @staticmethod
    def _wire(service, line: bytes) -> dict:
        return json.loads(service.serve_line_slow(line)[0])

    def test_cold_lru_and_remap(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        cold = self._wire(service, self.line)
        entry = self._held(service)
        assert json.loads(entry["schedule"]) == cold["schedule"]
        in_process = service.handle(dict(self.doc))
        wire = self._wire(service, self.line)
        assert in_process["cached"] == wire["cached"] == "lru"
        assert in_process["schedule"] == wire["schedule"]
        renamed = {**self.doc, "graph": graph_to_dict(relabel(self.graph))}
        # the remap ingests the cached graph from the entry's bytes
        service._graphs.clear()
        in_process = service.handle(dict(renamed))
        wire = self._wire(service, json.dumps(renamed).encode())
        assert in_process["cached"] == wire["cached"] == "lru"
        assert service_stat(service, "remapped") == 2
        assert in_process["schedule"] == wire["schedule"] != cold["schedule"]
        assert self._held(service) is entry

    def test_store_hit(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        first = ScheduleService(cache=ScheduleCache(path, capacity=8))
        self._wire(first, self.line)
        held = self._held(first)
        by_handle = ScheduleService(cache=ScheduleCache(path, capacity=8))
        in_process = by_handle.handle(dict(self.doc))
        assert in_process["cached"] == "store"
        assert self._held(by_handle) == held
        by_wire = ScheduleService(cache=ScheduleCache(path, capacity=8))
        wire = self._wire(by_wire, self.line)
        assert wire["cached"] == "store"
        assert in_process["schedule"] == wire["schedule"]
        assert self._held(by_wire) == held

    def test_legacy_store_hit_is_encoded_once(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        self._wire(ScheduleService(cache=ScheduleCache(path)), self.line)
        key, entry = decode_record(path.read_bytes())
        path.write_bytes(store_line(key, entry, layout="legacy"))
        reopened = ScheduleService(cache=ScheduleCache(path))
        wire = self._wire(reopened, self.line)
        assert wire["cached"] == "store"
        assert wire["schedule"] == entry["schedule"]
        # the legacy record's keys are sorted, and are served that way
        assert self._held(reopened)["schedule"] == json.dumps(
            entry["schedule"], sort_keys=True).encode()

    def test_coalesced_answers(self):
        from repro.service import portfolio as portfolio_mod
        from repro.service import register_scheduler

        entered, release = threading.Event(), threading.Event()

        def slow(graph, num_pes):
            entered.set()
            release.wait(10.0)
            return portfolio_mod._SCHEDULERS["rlx"](graph, num_pes)

        register_scheduler("slowbytes", slow)
        try:
            service = ScheduleService(cache=ScheduleCache(None, capacity=8))
            doc = {**self.doc, "schedulers": ["slowbytes"]}
            answers = {}

            def call(name):
                if name == "wire":
                    answers[name] = self._wire(service, json.dumps(doc).encode())
                else:
                    answers[name] = service.handle(dict(doc))

            threads = [threading.Thread(target=call, args=(name,))
                       for name in ("leader", "handle", "wire")]
            threads[0].start()
            assert entered.wait(10.0)
            for t in threads[1:]:
                t.start()
            # both followers are bound to the leader's flight
            assert wait_until(lambda: sum(
                e["kind"] == "coalesce_follower"
                for e in service.telemetry.flight.last()) == 2)
            release.set()
            for t in threads:
                t.join(10.0)
            assert answers["leader"]["cached"] is False
            assert answers["handle"]["cached"] == "inflight"
            assert answers["wire"]["cached"] == "inflight"
            assert answers["handle"]["schedule"] == answers["wire"]["schedule"]
            assert answers["leader"]["schedule"] == answers["wire"]["schedule"]
            self._held(service)
        finally:
            release.set()
            portfolio_mod._SCHEDULERS.pop("slowbytes", None)


class TestQuantiles:
    def test_interpolated_quantile_values(self):
        from repro.service import quantile

        xs = [10.0, 20.0, 30.0, 40.0]
        assert quantile(xs, 0) == 10.0
        assert quantile(xs, 100) == 40.0
        assert quantile(xs, 50) == 25.0  # interpolates, unlike nearest rank
        assert quantile(xs, 25) == pytest.approx(17.5)
        assert quantile(list(range(1, 11)), 50) == 5.5
        assert quantile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            quantile([], 50)
        with pytest.raises(ValueError):
            quantile(xs, 101)

    def test_summary_uses_interpolated_quantiles(self):
        from repro.service.loadgen import LoadgenReport

        report = LoadgenReport(
            requests=4, workers=1, pool=2, zipf=1.0, objective="makespan",
            no_cache=False, elapsed=1.0,
            latencies_ms=[10.0, 20.0, 30.0, 40.0],
        )
        assert report.summary()["p50_ms"] == 25.0
        assert report.small_sample  # 4 < MIN_RELIABLE_SAMPLES
        assert "warning" in report.table()
        assert report.to_dict()["small_sample"] is True

    def test_wire_bytes_reported(self, live_server):
        report = run_loadgen(
            port=live_server.port, requests=20, workers=2, pool=3,
            scenario="fig10", seed=2,
        )
        assert report.bytes_sent > 0 and report.bytes_received > 0
        assert report.wire_bytes_per_s > 0
        doc = report.to_dict()
        assert doc["bytes_sent"] == report.bytes_sent
        assert doc["wire_bytes_per_s"] > 0


class TestServiceTelemetry:
    """Telemetry threaded through the request path: metrics/trace ops,
    per-phase histograms, and counter semantics under coalescing."""

    def setup_method(self):
        self.service = ScheduleService(cache=ScheduleCache(None, capacity=16))
        self.graph = random_canonical_graph("fft", 8, seed=1)
        self.doc = {
            "op": "schedule",
            "graph": graph_to_dict(self.graph),
            "num_pes": 8,
        }

    def test_metrics_op_text_and_snapshot(self):
        self.service.handle(dict(self.doc))
        self.service.handle(dict(self.doc))
        metrics = self.service.handle({"op": "metrics"})
        assert metrics["ok"] and metrics["telemetry_enabled"]
        assert "# TYPE service_requests counter" in metrics["text"]
        assert "# TYPE cache_hits counter" in metrics["text"]
        snap = metrics["snapshot"]
        requests = {
            (s["labels"]["op"], s["labels"]["outcome"]): s["value"]
            for s in snap["service.requests"]["series"]
        }
        assert requests[("schedule", "ok")] == 2
        wins = sum(s["value"] for s in snap["portfolio.wins"]["series"])
        assert wins == snap["portfolio.races"]["series"][0]["value"] == 1
        hits = {
            s["labels"]["tier"]: s["value"]
            for s in snap["cache.hits"]["series"]
        }
        assert hits.get("lru", 0) == 1

    def test_request_counter_outcomes(self):
        self.service.handle(dict(self.doc))
        self.service.handle({"op": "nope"})
        self.service.handle({"op": "schedule"})  # refused: no graph
        snap = self.service.handle({"op": "metrics"})["snapshot"]
        requests = {
            (s["labels"]["op"], s["labels"]["outcome"]): s["value"]
            for s in snap["service.requests"]["series"]
        }
        assert requests[("schedule", "ok")] == 1
        assert requests[("schedule", "error")] == 1
        assert requests[("unknown", "error")] == 1  # bounded cardinality

    def _phase_counts(self, op="schedule"):
        snap = self.service.handle({"op": "metrics"})["snapshot"]
        family = snap.get("service.phase_ms", {"series": ()})
        return {
            s["labels"]["phase"]: s["count"]
            for s in family["series"]
            if s["labels"]["op"] == op
        }

    def test_coalesced_followers_do_not_double_count_phases(self):
        line = json.dumps(self.doc).encode()
        n = 6
        barrier = threading.Barrier(n)

        def fire():
            barrier.wait()
            self.service.serve_line_slow(line)

        threads = [threading.Thread(target=fire) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service_stat(self.service, "computed") == 1
        phases = self._phase_counts()
        # compute-side phases belong to the single leader: followers
        # coalesce or hit the cache, never re-record a portfolio race
        assert phases["portfolio"] == 1
        # every request fingerprints and probes the cache for itself
        assert phases["fingerprint"] == n
        assert phases["cache"] >= n

    def test_forced_recompute_counts_a_second_race(self):
        self.service.handle(dict(self.doc))
        self.service.handle({**self.doc, "no_cache": True})
        phases = self._phase_counts()
        assert phases["portfolio"] == 2
        snap = self.service.handle({"op": "metrics"})["snapshot"]
        assert snap["portfolio.races"]["series"][0]["value"] == 2
        assert service_stat(self.service, "computed") == 2

    def test_trace_op_returns_spans_and_chrome(self):
        line = json.dumps(self.doc).encode()
        self.service.serve_line_slow(line)
        self.service.serve_line_slow(line)
        trace = self.service.handle({"op": "trace", "n": 10})
        assert trace["ok"] and trace["count"] == 2
        assert trace["recorded"] == 2 and trace["capacity"] >= 10
        cold, warm = trace["spans"]
        cold_phases = [p["phase"] for p in cold["phases"]]
        assert "fingerprint" in cold_phases and "portfolio" in cold_phases
        assert any(p.startswith("cand:") for p in cold_phases)
        assert "portfolio" not in [p["phase"] for p in warm["phases"]]
        assert warm["meta"]["tier"] == "lru"
        assert all(e["ph"] == "X" and e["pid"] == 1 for e in trace["chrome"])
        json.dumps(trace["chrome"])  # viewer-loadable
        # the winner's single encoding and the store append are phases
        # of the cold miss; a cold simulate records its store append too
        assert "encode" in cold_phases and "store" in cold_phases
        assert "store" not in [p["phase"] for p in warm["phases"]]
        self.service.serve_line_slow(
            json.dumps({**self.doc, "op": "simulate"}).encode()
        )
        (sim,) = self.service.handle({"op": "trace", "n": 1})["spans"]
        assert "store" in [p["phase"] for p in sim["phases"]]

    def test_trace_op_validates_n(self):
        assert not self.service.handle({"op": "trace", "n": 0})["ok"]
        assert not self.service.handle({"op": "trace", "n": "x"})["ok"]

    def test_trace_op_errors_when_telemetry_disabled(self):
        from repro.obs import Telemetry

        service = ScheduleService(
            cache=ScheduleCache(None, capacity=4),
            telemetry=Telemetry(enabled=False),
        )
        response = service.handle({"op": "trace"})
        assert not response["ok"] and "disabled" in response["error"]
        # metrics still answers: the counters stay live without spans
        metrics = service.handle({"op": "metrics"})
        assert metrics["ok"] and not metrics["telemetry_enabled"]
        assert "service.phase_ms" not in metrics["snapshot"]

    def test_stats_reports_wire_memo_and_evictions(self):
        line = json.dumps(self.doc).encode()
        self.service.serve_line_slow(line)
        stats = self.service.handle({"op": "stats"})
        wm = stats["wire_memo"]
        assert wm["bytes"] > 0 and wm["budget"] > 0
        assert wm["occupancy"] == pytest.approx(
            wm["bytes"] / wm["budget"], abs=5e-5  # reported at 4 decimals
        )
        assert set(wm) == {
            "bytes", "budget", "occupancy", "lines", "prefixes", "clears"
        }
        assert wm["lines"] == 1 and wm["prefixes"] == 1 and wm["clears"] == 0
        ev = stats["evictions"]
        assert set(ev) == {"lru", "wire_memo_clears", "ig_memo_clears"}
        assert stats["telemetry"] is True

    def test_legacy_counter_attributes_track_registry(self):
        """The stats keys that replaced the legacy counter attributes
        read the registry counters."""
        self.service.handle(dict(self.doc))
        self.service.handle(dict(self.doc))
        snap = self.service.handle({"op": "metrics"})["snapshot"]
        served = snap["service.served"]["series"][0]["value"]
        assert service_stat(self.service, "served") == served
        assert service_stat(self.service, "computed") == 1

    def test_metrics_and_trace_over_the_wire(self, live_server):
        g = random_canonical_graph("chain", 6, seed=0)
        with ServiceClient(port=live_server.port) as client:
            client.schedule(g, 4)
            client.schedule(g, 4)
            metrics = client.metrics()
            assert "service_requests" in metrics["text"]
            trace = client.trace(n=5)
            assert trace["count"] >= 1
            assert trace["chrome"]

    def test_loadgen_error_kind_invariant(self, live_server, monkeypatch):
        # a pool mixing valid requests with a refused one: the report's
        # columns must partition the workload exactly
        from repro.service import loadgen as loadgen_mod

        real_pool = loadgen_mod.build_request_pool

        def mixed_pool(**kwargs):
            lines = real_pool(**kwargs)
            bad = json.loads(lines[0])
            bad["schedulers"] = ["bogus"]
            return [*lines[:-1], json.dumps(bad).encode() + b"\n"]

        monkeypatch.setattr(loadgen_mod, "build_request_pool", mixed_pool)
        sent = 24
        report = run_loadgen(
            port=live_server.port, requests=sent, workers=2, pool=4, seed=3,
        )
        assert report.errors > 0
        assert report.error_kinds.get("refused") == report.errors
        assert report.requests + sum(report.error_kinds.values()) == sent
        assert "errors by kind" in report.table()
        assert report.to_dict()["error_kinds"] == report.error_kinds

    def test_loadgen_reports_server_phases(self, live_server):
        report = run_loadgen(
            port=live_server.port, requests=20, workers=2, pool=3, seed=1,
        )
        assert report.server_phases  # telemetry is on by default
        key = next(iter(report.server_phases))
        entry = report.server_phases[key]
        assert entry["count"] >= 1 and entry["total_ms"] >= 0.0
        assert "server phases" in report.table()
        assert report.to_dict()["server_phases"] == report.server_phases


class TestObservabilityCli:
    def test_profile_json_export(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main([
            "profile", "fig10", "--cells", "1", "--limit", "5",
            "--json", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "fig10" and doc["cells"] == 1
        assert doc["total_calls"] > 0
        assert doc["functions"]
        row = doc["functions"][0]
        assert {"function", "ncalls", "tottime_s", "cumtime_s"} <= set(row)

    def test_serve_trace_dir_writes_spans(self, tmp_path):
        # the serving stack wired exactly the way `repro serve
        # --trace-dir` assembles it
        from repro.obs import MetricsRegistry, Telemetry

        trace_dir = tmp_path / "spans"
        g = random_canonical_graph("chain", 5, seed=0)
        telemetry = Telemetry(registry=MetricsRegistry(), trace_dir=trace_dir)
        service = ScheduleService(
            cache=ScheduleCache(None, capacity=8), telemetry=telemetry
        )
        with ScheduleServer(service, port=0, workers=1) as server:
            with ServiceClient(port=server.port) as client:
                client.schedule(g, 2)
                client.schedule(g, 2)  # wire fastpath: no second span
        telemetry.close()
        files = sorted(trace_dir.glob("spans-*.jsonl"))
        assert files
        spans = [
            json.loads(line)
            for path in files
            for line in path.read_text().splitlines()
        ]
        assert spans
        assert all(s["op"] == "schedule" for s in spans)
        assert all(s["wall_ms"] > 0 for s in spans)
        assert all("trace_id" in s for s in spans)


class TestDiagnosisOps:
    """The profile and flight service ops, the flight-event sequences
    the request path emits, and the deadlock → flight-dump trigger."""

    @staticmethod
    def _service(**telemetry_kwargs):
        from repro.obs import Telemetry

        return ScheduleService(
            cache=ScheduleCache(None, capacity=16),
            telemetry=Telemetry(**telemetry_kwargs),
        )

    def test_profile_op_requires_a_profiler(self):
        service = self._service()
        response = service.handle({"op": "profile"})
        assert response["ok"] is False
        assert "--profile-hz" in response["error"]

    def test_profile_op_serves_the_aggregate(self):
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler(hz=400.0).start()
        service = self._service(profiler=profiler)
        g = random_canonical_graph("fft", 8, seed=1)
        service.handle({"op": "schedule", "graph": graph_to_dict(g),
                        "num_pes": 8})
        deadline = time.time() + 5.0
        while profiler.samples == 0 and time.time() < deadline:
            time.sleep(0.01)
        response = service.handle({"op": "profile", "n": 3})
        service.telemetry.close()
        assert response["ok"] and response["op"] == "profile"
        assert response["hz"] == 400.0
        assert response["samples"] > 0
        assert len(response["top_stacks"]) <= 3
        assert response["collapsed"].strip()
        assert "speedscope" not in response
        with_doc = service.handle({"op": "profile", "speedscope": True})
        assert with_doc["speedscope"]["profiles"][0]["type"] == "sampled"

    def test_profile_op_validates_n(self):
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler()
        service = self._service(profiler=profiler)
        assert service.handle({"op": "profile", "n": 0})["ok"] is False
        assert service.handle({"op": "profile", "n": "x"})["ok"] is False

    def test_flight_sequence_for_schedule_requests(self):
        service = self._service()
        g = random_canonical_graph("fft", 8, seed=1)
        doc = {"op": "schedule", "graph": graph_to_dict(g), "num_pes": 8}
        service.handle(dict(doc))
        kinds = [e["kind"] for e in service.telemetry.flight.last()]
        # cold request: admitted, missed both tiers, led its own compute
        assert kinds == [
            "request", "cache_miss", "coalesce_leader", "dispatch"
        ]
        service.handle(dict(doc))
        kinds = [e["kind"] for e in service.telemetry.flight.last()]
        assert kinds[-2:] == ["request", "cache_hit"]
        hit = service.telemetry.flight.last(1)[0]
        assert hit["tier"] == "lru"
        assert len(hit["key"]) <= ScheduleService._FLIGHT_KEY_CHARS

    def test_flight_records_refused_requests(self):
        service = self._service()
        service.handle({"op": "schedule"})  # no graph
        kinds = [e["kind"] for e in service.telemetry.flight.last()]
        assert kinds[-1] == "refused"
        assert service.telemetry.flight.last()[-1]["op"] == "schedule"

    def test_control_ops_stay_out_of_the_ring(self):
        service = self._service()
        service.handle({"op": "ping"})
        service.handle({"op": "stats"})
        service.handle({"op": "metrics"})
        service.handle({"op": "flight"})
        assert len(service.telemetry.flight) == 0

    def test_flight_op_returns_events_and_summary(self):
        service = self._service()
        g = random_canonical_graph("chain", 5, seed=0)
        service.handle({"op": "schedule", "graph": graph_to_dict(g),
                        "num_pes": 2})
        response = service.handle({"op": "flight", "n": 2})
        assert response["ok"] and response["op"] == "flight"
        assert response["capacity"] == service.telemetry.flight.capacity
        assert response["recorded"] >= 4
        assert len(response["events"]) == 2
        assert response["dumps"] == [] and response["suppressed"] == 0

    def test_flight_op_dump_needs_a_directory(self, tmp_path):
        from repro.obs import FlightRecorder

        service = self._service()
        refused = service.handle({"op": "flight", "dump": True})
        assert refused["ok"] is False and "--flight-dir" in refused["error"]

        service = self._service(
            flight=FlightRecorder(dump_dir=tmp_path)
        )
        service.telemetry.flight.record("x")
        response = service.handle({"op": "flight", "dump": True})
        assert response["ok"]
        assert response["dumped"].endswith(".jsonl")
        assert list(tmp_path.glob("flight-*-manual.jsonl"))

    def test_eviction_events_reach_the_flight_ring(self):
        from repro.obs import Telemetry

        service = ScheduleService(
            cache=ScheduleCache(None, capacity=2), telemetry=Telemetry()
        )
        for seed in range(3):
            g = random_canonical_graph("chain", 5, seed=seed)
            service.handle({"op": "schedule", "graph": graph_to_dict(g),
                            "num_pes": 2})
        evictions = [
            e for e in service.telemetry.flight.last()
            if e["kind"] == "eviction"
        ]
        assert len(evictions) == 1
        assert evictions[0]["tier"] == "lru"

    def test_deadlock_emits_flight_event_and_dump(self, tmp_path, fig9_graph1):
        """Acceptance: a deadlocking served simulate request leaves a
        flight dump whose sequence shows the request being admitted,
        missing the cache, and deadlocking."""
        from repro.obs import FlightRecorder, Telemetry

        telemetry = Telemetry(flight=FlightRecorder(dump_dir=tmp_path))
        service = ScheduleService(
            cache=ScheduleCache(None, capacity=16), telemetry=telemetry
        )
        with ScheduleServer(service, port=0, workers=2) as server:
            with ServiceClient(port=server.port) as client:
                response = client.simulate(
                    fig9_graph1, num_pes=8, capacity=1
                )
        assert response["ok"] and response["deadlocked"]
        (dump,) = tmp_path.glob("flight-*-deadlock.jsonl")
        lines = [json.loads(l) for l in dump.read_text().splitlines()]
        header, *events = lines
        assert header["kind"] == "flight-dump"
        assert header["trigger"] == "deadlock"
        kinds = [e["kind"] for e in events]
        # the admitting request, its cache miss, and the deadlock are
        # all present, in causal order
        assert "request" in kinds and "cache_miss" in kinds
        assert "deadlock" in kinds
        assert kinds.index("request") < kinds.index("cache_miss")
        assert kinds.index("cache_miss") < kinds.index("deadlock")
        deadlock = events[kinds.index("deadlock")]
        assert deadlock["capacity"] == 1 and deadlock["num_pes"] == 8
        assert deadlock["blocked"] > 0 and deadlock["full_channels"] > 0
        request = events[kinds.index("request")]
        assert request["op"] == "simulate"
        # the span and the flight sequence share one trace id
        assert deadlock["trace_id"] == request["trace_id"] is not None

    def test_profile_and_flight_over_the_wire(self):
        from repro.obs import SamplingProfiler, Telemetry

        telemetry = Telemetry(profiler=SamplingProfiler(hz=200.0).start())
        service = ScheduleService(
            cache=ScheduleCache(None, capacity=16), telemetry=telemetry
        )
        g = random_canonical_graph("fft", 8, seed=3)
        with ScheduleServer(service, port=0, workers=2) as server:
            with ServiceClient(port=server.port) as client:
                client.schedule(g, 8)
                profile = client.profile(n=2)
                flight = client.flight(n=3)
        telemetry.close()
        assert profile["ok"] and profile["hz"] == 200.0
        assert flight["ok"]
        assert [e["kind"] for e in flight["events"]][0] in (
            "request", "cache_miss", "coalesce_leader", "dispatch"
        )


class TestOpsConsole:
    def test_two_frames_against_a_live_server(self, live_server):
        import io

        from repro.service import run_top

        g = random_canonical_graph("chain", 6, seed=0)
        with ServiceClient(port=live_server.port) as client:
            client.schedule(g, 4)
        out = io.StringIO()
        rc = run_top(
            "127.0.0.1", live_server.port, interval=0.05,
            iterations=2, out=out, use_ansi=False,
        )
        assert rc == 0
        text = out.getvalue()
        assert text.count("repro top —") == 2
        assert "req/s" in text and "cache hit ratio" in text
        assert "flight events" in text  # the ring saw the schedule
        assert "\x1b[" not in text  # ansi off appends plain frames

    def test_unreachable_server_fails_cleanly(self, capsys):
        from repro.service import run_top

        rc = run_top("127.0.0.1", 1, iterations=1)
        assert rc == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_console_rates_derive_from_deltas(self, live_server):
        from repro.service.console import OpsConsole

        g = random_canonical_graph("chain", 6, seed=1)
        console = OpsConsole("127.0.0.1", live_server.port)
        try:
            first = console.sample()
            assert first["rps"] == 0.0  # no previous tick to diff
            with ServiceClient(port=live_server.port) as client:
                for _ in range(3):
                    client.schedule(g, 4)
            second = console.sample()
            assert second["rps"] > 0.0
            assert len(console.rps_history) == 1
            frame = console.render(second)
            assert f"{live_server.port}" in frame
        finally:
            console.close()


class TestDiagnosisCli:
    def test_metrics_cli_text_and_json(self, live_server, capsys):
        g = random_canonical_graph("chain", 5, seed=0)
        with ServiceClient(port=live_server.port) as client:
            client.schedule(g, 2)
        rc = main(["metrics", f"127.0.0.1:{live_server.port}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE service_requests counter" in out
        rc = main(["metrics", f"127.0.0.1:{live_server.port}", "--json"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert "service.requests" in snap

    def test_trace_cli_table_and_json(self, live_server, capsys):
        g = random_canonical_graph("chain", 5, seed=1)
        with ServiceClient(port=live_server.port) as client:
            client.schedule(g, 2)
        rc = main(["trace", f"127.0.0.1:{live_server.port}", "-n", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans shown" in out
        assert "schedule" in out
        rc = main([
            "trace", f"127.0.0.1:{live_server.port}", "-n", "5", "--json",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(l)["op"] == "schedule" for l in lines)

    def test_top_cli(self, live_server, capsys):
        rc = main([
            "top", f"127.0.0.1:{live_server.port}",
            "--iterations", "1", "--interval", "0.01",
        ])
        assert rc == 0
        assert "repro top —" in capsys.readouterr().out

    def test_observer_cli_unreachable(self, capsys):
        for argv in (["metrics", "127.0.0.1:1"], ["trace", "127.0.0.1:1"]):
            assert main(argv) == 1
            assert "cannot reach service" in capsys.readouterr().err

    def test_target_parsing(self):
        from repro.cli import _parse_target
        from repro.service import DEFAULT_PORT

        assert _parse_target("10.0.0.7:9999") == ("10.0.0.7", 9999)
        assert _parse_target("7007") == ("127.0.0.1", 7007)
        assert _parse_target("somehost") == ("somehost", DEFAULT_PORT)

    def test_loadgen_error_rate_gate(self, capsys, monkeypatch, live_server):
        from repro.service import loadgen as loadgen_mod

        real = loadgen_mod.run_loadgen

        def flaky(**kwargs):
            report = real(**kwargs)
            report.errors = 1  # one synthetic failure
            return report

        monkeypatch.setattr("repro.service.run_loadgen", flaky)
        argv = [
            "loadgen", "--requests", "6", "--workers", "1", "--pool", "2",
            "--port", str(live_server.port),
        ]
        # default gate: any error fails
        assert main(list(argv)) == 1
        assert "exceeds the --max-error-rate" in capsys.readouterr().err
        # a tolerant gate lets the same run pass (1 error / 7 attempts)
        assert main(argv + ["--max-error-rate", "0.5"]) == 0

    def test_bench_report_cli(self, tmp_path, capsys, monkeypatch):
        from repro.obs.benchhist import append_record

        monkeypatch.chdir(tmp_path)
        history = tmp_path / "BENCH_history.jsonl"
        metric = {"value": 100.0, "direction": "higher", "unit": "req/s"}
        append_record(history, "service", {"fig10_cached_rps": metric})
        append_record(
            history, "service",
            {"fig10_cached_rps": {**metric, "value": 99.0}},
        )
        rc = main(["bench-report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench service: 2 records" in out
        assert "fig10_cached_rps" in out  # trend table rendered
        assert "verdict: ok" in out
        # a regression past the gate fails only with --check
        append_record(
            history, "service",
            {"fig10_cached_rps": {**metric, "value": 50.0}},
        )
        assert main(["bench-report"]) == 0
        assert "verdict: regression" in capsys.readouterr().out
        assert main(["bench-report", "--check"]) == 1
        capsys.readouterr()

    def test_bench_report_json_and_missing_history(self, tmp_path, capsys):
        from repro.obs.benchhist import append_record

        history = tmp_path / "h.jsonl"
        assert main(["bench-report", "--history", str(history)]) == 1
        assert "no history records" in capsys.readouterr().err
        metric = {"value": 10.0, "direction": "lower", "unit": "ms"}
        append_record(history, "sim", {"p50": metric})
        append_record(history, "sim", {"p50": {**metric, "value": 11.0}})
        rc = main(["bench-report", "--history", str(history), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sim"]["status"] == "ok"
        assert doc["sim"]["metrics"]["p50"]["ratio"] == pytest.approx(1.1)
