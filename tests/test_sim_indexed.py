"""Tests for the array-state simulation engine.

Two layers of protection, mirroring tests/test_indexed.py:

* **golden differential equivalence** — the indexed engine must produce
  identical makespans, per-task start/finish times, deadlock verdicts
  and blocked-process sets to the process-based reference engine kept
  in :mod:`oracles.sim_reference`, swept across the campaign graph
  families (layered / serpar, the paper topologies, a small ML graph),
  all three block policies, both pacing modes and deliberately
  undersized FIFOs;
* **unit tests** for the front door, the richer
  :class:`~repro.sim.result.DeadlockError` diagnostics and the
  simulated-timeline trace exports.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import CanonicalGraph, schedule_streaming
from repro.graphs import random_canonical_graph
from repro.sim import (
    DeadlockError,
    simulate_schedule,
    simulation_to_chrome_trace,
    simulation_to_dict,
)

from conftest import build_elementwise_chain
from oracles.sim_reference import simulate_schedule_reference


def assert_equivalent(schedule, **kwargs):
    """Both engines must agree on every semantically defined field."""
    a = simulate_schedule(schedule, **kwargs)
    b = simulate_schedule_reference(schedule, **kwargs)
    assert a.makespan == b.makespan
    assert a.deadlocked == b.deadlocked
    assert a.finish_times == b.finish_times
    assert a.start_times == b.start_times
    assert a.blocked == b.blocked
    assert a.deadlock_channels == b.deadlock_channels
    assert set(a.channel_stats) == set(b.channel_stats)
    for edge, (cap, occ) in a.channel_stats.items():
        ref_cap, ref_occ = b.channel_stats[edge]
        assert cap == ref_cap
        # the indexed engine reconstructs occupancy with pops winning
        # same-instant ties (the minimal consistent profile); the
        # reference may count a transient same-cycle race on top
        assert occ <= ref_occ <= cap
    return a


class TestGoldenDifferential:
    """Indexed vs reference: identical timing and deadlock behaviour."""

    @pytest.mark.parametrize("topo,size,pes", [
        ("layered", 64, 16),
        ("serpar", 60, 16),
        ("chain", 8, 8),
        ("fft", 8, 16),
        ("gaussian", 8, 16),
        ("cholesky", 8, 16),
    ])
    @pytest.mark.parametrize("variant", ["lts", "rlx"])
    def test_registry_sweep(self, topo, size, pes, variant):
        for seed in range(2):
            g = random_canonical_graph(topo, size, seed=seed)
            s = schedule_streaming(g, pes, variant)
            assert_equivalent(s)

    @pytest.mark.parametrize("policy", ["barrier", "pe", "dataflow"])
    def test_all_block_policies(self, policy):
        for topo, size in [("fft", 8), ("gaussian", 8), ("layered", 64)]:
            g = random_canonical_graph(topo, size, seed=3)
            s = schedule_streaming(g, 16, "rlx")
            assert_equivalent(s, policy=policy)

    @pytest.mark.parametrize("pacing", ["steady", "greedy"])
    def test_pacing_modes(self, pacing):
        g = random_canonical_graph("fft", 8, seed=1)
        s = schedule_streaming(g, 16, "lts")
        assert_equivalent(s, pacing=pacing)

    @pytest.mark.parametrize("capacity", [None, 64])
    def test_rate_skewed_wide_ratios(self, capacity):
        """Wide rate ratios (volumes 8 vs 512), schedule-sized and
        ample FIFOs: long consume/emit runs between channel waits."""
        g = random_canonical_graph("layered", 120, seed=2,
                                   volume_choices=(8, 512))
        s = schedule_streaming(g, 16, "rlx")
        assert_equivalent(s, capacity_override=capacity)

    def test_work_variant(self):
        g = random_canonical_graph("gaussian", 8, seed=2)
        assert_equivalent(schedule_streaming(g, 8, "work"))

    def test_ml_transformer(self):
        from repro.ml import build_transformer_encoder

        g = build_transformer_encoder(
            seq_len=8, d_model=32, num_heads=2, d_ff=64, max_parallel=8
        )
        s = schedule_streaming(g, 8, "lts")
        r = assert_equivalent(s)
        assert not r.deadlocked

    def test_rate_converting_chain(self):
        g = CanonicalGraph()
        g.add_task(0, 32, 32)
        g.add_task(1, 32, 4)
        g.add_task(2, 4, 32)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        s = schedule_streaming(g, 4)
        r = assert_equivalent(s)
        assert r.makespan == s.makespan

    def test_passive_nodes_and_buffers(self):
        g = CanonicalGraph()
        g.add_source("src", 16)
        g.add_task("a", 16, 16)
        g.add_buffer("B", 16, 16)
        g.add_task("b", 16, 16)
        g.add_sink("out", 16)
        for e in [("src", "a"), ("a", "B"), ("B", "b"), ("b", "out")]:
            g.add_edge(*e)
        r = assert_equivalent(schedule_streaming(g, 4))
        assert r.finish_times["b"] == 32

    def test_multi_block_chain(self):
        s = schedule_streaming(build_elementwise_chain(6, 24), 2, "rlx")
        r = assert_equivalent(s)
        assert not r.deadlocked and r.makespan == s.makespan


class TestHandWorkedCases:
    """Tiny graphs whose timelines are derived by hand in the comments.

    Conventions of the engine (and of the reference): a task reads
    element ``c`` at the latest of its clock, every input's accept time
    of ``c`` and its read pacing; reading takes one cycle; it then
    writes its output element at its clock, once the target FIFO has a
    free slot (the pop of element ``k - capacity`` is known).  Every
    interval below is 1 (element-wise tasks), so pacing never delays.
    """

    @staticmethod
    def _graph(tasks, edges):
        g = CanonicalGraph()
        for name, vin, vout in tasks:
            g.add_task(name, vin, vout)
        for e in edges:
            g.add_edge(*e)
        return g

    def test_two_task_elementwise_chain(self):
        # a -> b, 4 elements each.  a reads element k at k and writes it
        # at k + 1; b reads it at k + 1 (the accept time), popping it at
        # once, so the capacity-1 FIFO never holds a write back.
        # a: start 0, last write at 4 -> finish 4.
        # b: start 1, reads element 3 at 4 -> finish 5 = makespan.
        g = self._graph([("a", 4, 4), ("b", 4, 4)], [("a", "b")])
        s = schedule_streaming(g, 4)
        assert s.buffer_sizes == {("a", "b"): 1}
        r = assert_equivalent(s)
        assert (r.makespan, r.deadlocked) == (5, False)
        assert r.start_times == {"a": 0, "b": 1}
        assert r.finish_times == {"a": 4, "b": 5}
        assert r.channel_stats == {("a", "b"): (1, 0)}  # pops win ties

    def test_fork_backs_up_on_a_capacity_one_fifo(self):
        # a forks to b -> c -> d (slow branch, two hops) and straight to
        # d (short branch); 4 elements each, one block.  d reads element
        # k once both a->d[k] and c->d[k] are in: c->d[k] lands two
        # cycles after a->d[k], so a->d holds each element for 2 cycles.
        # Section 6 sizes a->d to 2 and nothing waits: d finishes at
        # 4 + 3 hops = 7, the analytic makespan.
        g = self._graph(
            [(v, 4, 4) for v in "abcd"],
            [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")],
        )
        s = schedule_streaming(g, 4, "lts")
        assert s.buffer_sizes[("a", "d")] == 2 and s.makespan == 7
        sized = assert_equivalent(s)
        assert sized.makespan == 7
        assert sized.finish_times == {"a": 4, "b": 5, "c": 6, "d": 7}
        # At capacity 1, a's write of element k waits for d's pop of
        # element k - 1:
        #   k=0: a writes at 1 (a->b 1, a->d 1); b 2, c 3: d pops at 3.
        #   k=1: a writes a->b at 2, then a->d waits for pop 3 -> 3;
        #        b reads at 2 -> c->d[1] = 4; d pops element 1 at 4.
        #   k=2: a reads at 3, writes at 4 (a->d free since 4);
        #        b reads a->b[2] at 4 -> c->d[2] = 6; d pops at 6.
        #   k=3: a reads at 4, writes a->b at 5, a->d waits until 6:
        #        a finishes at 6.  b reads at 5 -> finish 6, c 7, and d
        #        reads element 3 at 7 -> finish 8 = makespan.
        starved = assert_equivalent(s, capacity_override=1)
        assert (starved.makespan, starved.deadlocked) == (8, False)
        assert starved.start_times == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert starved.finish_times == {"a": 6, "b": 6, "c": 7, "d": 8}
        assert starved.channel_stats[("a", "d")] == (1, 1)

    def test_capacity_one_deadlock(self):
        # a forks to d directly and through b1 (4:1 reducer) -> b2 (1:4
        # expander).  d needs b2's first element, which exists only
        # after b1 has read all 4 of a's elements; with a 1-slot a->d,
        # a can write only one element there until d pops:
        #   a reads 0 at 0, writes at 1 to a->b1 and a->d;
        #   b1 reads element 0 at 1;  a reads 1 at 1, writes a->b1 at 2,
        #   then blocks on the full a->d (d never pops: it waits for
        #   b2->d[0]);  b1 reads element 1 at 2, clock 3, and waits for
        #   element 2;  b2 and d wait on their first input element.
        # Nothing can move: deadlock at t = 3 (b1's clock).
        g = self._graph(
            [("a", 4, 4), ("b1", 4, 1), ("b2", 1, 4), ("d", 4, 4)],
            [("a", "b1"), ("a", "d"), ("b1", "b2"), ("b2", "d")],
        )
        s = schedule_streaming(g, 4, "lts")
        assert s.buffer_sizes[("a", "d")] == 4
        assert not assert_equivalent(s).deadlocked
        r = assert_equivalent(s, capacity_override=1)
        assert (r.makespan, r.deadlocked) == (3, True)
        assert r.blocked == [
            "task:a (on a->d.put)",
            "task:b1 (on all_of)",
            "task:b2 (on all_of)",
            "task:d (on all_of)",
        ]
        assert r.deadlock_channels == {
            "a->b1": (0, 1), "a->d": (1, 1), "b1->b2": (0, 1), "b2->d": (0, 1),
        }
        assert r.full_channels() == {"a->d": (1, 1)}
        assert r.start_times == {"a": 0, "b1": 1} and r.finish_times == {}


class TestServedShape:
    """The shape a served ``simulate`` runs: an ``lts`` schedule of a
    layered graph at 64 PEs, where almost every FIFO has capacity 1."""

    @pytest.mark.parametrize("capacity", [None, 1])
    def test_layered_300_at_64_pes(self, capacity):
        g = random_canonical_graph("layered", 300, seed=0)
        s = schedule_streaming(g, 64, "lts")
        caps = list(s.buffer_sizes.values())
        assert sum(c == 1 for c in caps) >= 0.9 * len(caps)
        r = assert_equivalent(s, capacity_override=capacity)
        assert r.num_channels == len(r.channel_stats) > 0


class TestRandomizedDifferential:
    """Seeded sweep over graph families × policies × undersized FIFOs:
    parity on makespan, deadlock detection and blocked-process sets."""

    FAMILIES = [("layered", 48), ("serpar", 40), ("fft", 8), ("gaussian", 8)]

    def test_randomized_parity(self):
        rng = random.Random(20260726)
        cases = []
        for topo, size in self.FAMILIES:
            for _ in range(3):
                cases.append((
                    topo,
                    size,
                    rng.randrange(1000),
                    rng.choice([4, 8, 16]),
                    rng.choice(["lts", "rlx"]),
                    rng.choice(["barrier", "pe", "dataflow"]),
                    rng.choice([None, 1, 2]),
                ))
        deadlocks = 0
        for topo, size, seed, pes, variant, policy, cap in cases:
            g = random_canonical_graph(topo, size, seed=seed)
            s = schedule_streaming(g, pes, variant)
            r = assert_equivalent(s, policy=policy, capacity_override=cap)
            deadlocks += r.deadlocked
        # guarantee the sweep exercises the deadlock path too: the
        # Figure 9 graphs starve deterministically at capacity 1
        from conftest import build_fig9_graph1, build_fig9_graph2

        for build in (build_fig9_graph1, build_fig9_graph2):
            s = schedule_streaming(build(), 8)
            r = assert_equivalent(s, capacity_override=1)
            deadlocks += r.deadlocked
        assert deadlocks >= 2

    def test_undersized_fifos_deadlock_identically(self, fig9_graph1,
                                                   fig9_graph2):
        for g in (fig9_graph1, fig9_graph2):
            s = schedule_streaming(g, 8)
            sized = assert_equivalent(s)
            assert not sized.deadlocked
            starved = assert_equivalent(s, capacity_override=1)
            assert starved.deadlocked
            assert starved.blocked  # names + blocking ops, sorted
            # at-deadlock occupancies ride on the result (Figure 9
            # diagnostics without re-running under raise_on_deadlock)
            full = starved.full_channels()
            assert full and all(occ == cap for occ, cap in full.values())

    def test_blocked_strings_match_reference_format(self, fig9_graph1):
        s = schedule_streaming(fig9_graph1, 8)
        r = simulate_schedule(s, capacity_override=1)
        assert any("(on " in entry and entry.startswith("task:")
                   for entry in r.blocked)
        assert r.blocked == sorted(r.blocked)


class TestDeadlockDiagnostics:
    def test_error_carries_channel_occupancy(self, fig9_graph1):
        s = schedule_streaming(fig9_graph1, 8)
        for simulate in (simulate_schedule, simulate_schedule_reference):
            with pytest.raises(DeadlockError) as info:
                simulate(s, capacity_override=1, raise_on_deadlock=True)
            err = info.value
            assert err.channels  # every streaming FIFO reported
            for name, (occ, cap) in err.channels.items():
                assert "->" in name
                assert 0 <= occ <= cap == 1
            full = err.full_channels()
            assert full and all(occ == cap for occ, cap in full.values())

    def test_both_engines_report_identical_diagnostics(self, fig9_graph2):
        s = schedule_streaming(fig9_graph2, 8)
        errors = {}
        for engine, simulate in (("indexed", simulate_schedule),
                                 ("reference", simulate_schedule_reference)):
            with pytest.raises(DeadlockError) as info:
                simulate(s, capacity_override=1, raise_on_deadlock=True)
            errors[engine] = info.value
        assert errors["indexed"].time == errors["reference"].time
        assert errors["indexed"].blocked == errors["reference"].blocked
        assert errors["indexed"].channels == errors["reference"].channels

    def test_message_names_full_fifos(self, fig9_graph1):
        s = schedule_streaming(fig9_graph1, 8)
        with pytest.raises(DeadlockError, match="FIFOs full"):
            simulate_schedule(s, capacity_override=1, raise_on_deadlock=True)

    def test_engine_error_without_channels_keeps_legacy_message(self):
        err = DeadlockError(5, ["task:a (on all_of)"])
        assert err.channels == {}
        assert "FIFOs" not in str(err)


class TestEngineDispatch:
    def test_default_engine_is_indexed(self):
        import repro.sim.indexed

        # the front door IS the indexed engine: nothing to dispatch on
        assert simulate_schedule is repro.sim.indexed.simulate_schedule

    def test_reference_engine_selectable(self, ew_chain):
        """The oracle is selected by calling it directly."""
        s = schedule_streaming(ew_chain, 4)
        r = simulate_schedule_reference(s)
        assert r.makespan == s.makespan

    def test_unknown_engine_rejected(self, ew_chain):
        s = schedule_streaming(ew_chain, 4)
        with pytest.raises(TypeError, match="engine"):
            simulate_schedule(s, engine="indexed")

    def test_capacity_must_be_positive(self, ew_chain):
        s = schedule_streaming(ew_chain, 2)
        with pytest.raises(ValueError, match="capacity"):
            simulate_schedule(s, capacity_override=0)

    def test_start_times_match_analytic_for_exact_chain(self):
        g = build_elementwise_chain(6, 24)
        s = schedule_streaming(g, 8, "rlx")
        r = simulate_schedule(s)
        assert r.start_times.keys() == r.finish_times.keys()
        for v, t in r.start_times.items():
            assert t <= r.finish_times[v]


class TestSimulationTrace:
    def _simulated(self):
        g = random_canonical_graph("fft", 8, seed=0)
        s = schedule_streaming(g, 8, "rlx")
        return s, simulate_schedule(s)

    def test_simulation_to_dict_schema(self):
        s, r = self._simulated()
        doc = simulation_to_dict(s, r)
        assert doc["format"] == "streaming-simulation"
        assert doc["makespan"] == r.makespan
        assert doc["analytic_makespan"] == s.makespan
        assert not doc["deadlocked"]
        comp = s.graph.computational_nodes()
        assert len(doc["tasks"]) == len(comp)
        for task, v in zip(doc["tasks"], comp):  # names JSON-encoded
            assert task["finish"] == r.finish_times[v]
            assert task["start"] == r.start_times[v]
        assert len(doc["channels"]) == len(r.channel_stats)
        json.dumps(doc)  # wire-serializable

    def test_trace_schema_matches_schedule_trace(self):
        s, r = self._simulated()
        events = simulation_to_chrome_trace(s, r)
        assert len(events) == len(r.finish_times)
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 1
            assert ev["cat"].startswith("block")
            assert ev["args"]["finish"] == ev["ts"] + ev["dur"] or \
                ev["args"]["finish"] == ev["ts"]  # zero-length task clamped
        json.dumps(events)

    def test_trace_marks_deadlocked_tasks(self, fig9_graph1):
        s = schedule_streaming(fig9_graph1, 8)
        r = simulate_schedule(s, capacity_override=1)
        assert r.deadlocked
        events = simulation_to_chrome_trace(s, r)
        assert any(ev["args"].get("deadlocked") for ev in events)
