"""Tests for the integer-indexed scheduling core.

Two layers of protection:

* **golden-output equivalence** — the indexed hot path must produce
  *byte-identical* serialized schedules (times, PE/block assignment,
  FIFO capacities, makespan) to the pre-indexed reference implementation
  preserved in ``tests/oracles/scheduler_reference.py``, swept across the campaign
  scenario families (layered / serpar, the paper topologies, the ML
  graphs) and all three streaming variants;
* **unit tests** for the :class:`~repro.core.indexed.IndexedGraph`
  structure itself — CSR adjacency, topo/entry/exit memoization and
  invalidation, exact levels — plus edge cases: single node,
  disconnected entries, multi-rate CSDF phases in the flattened
  self-timed executor.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.core import (
    CanonicalGraph,
    node_levels,
    num_levels,
    schedule_streaming,
)
from repro.core.indexed import freeze
from repro.core.serialize import graph_from_dict, graph_to_dict, schedule_to_dict
from repro.graphs import random_canonical_graph

from oracles.scheduler_reference import (
    _node_levels as node_levels_reference,
    schedule_streaming_reference,
)


def schedule_bytes(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=False)


def assert_golden(graph_a, graph_b, num_pes, variant) -> None:
    a = schedule_bytes(schedule_streaming(graph_a, num_pes, variant))
    b = schedule_bytes(schedule_streaming_reference(graph_b, num_pes, variant))
    assert a == b


class TestGoldenEquivalence:
    """Indexed vs reference: byte-identical serialized schedules."""

    @pytest.mark.parametrize("topo,size,pes", [
        ("layered", 64, 16),
        ("layered", 128, 64),
        ("layered", 400, 64),
        ("serpar", 60, 16),
        ("serpar", 120, 32),
        ("chain", 8, 8),
        ("fft", 32, 16),
        ("gaussian", 16, 32),
        ("cholesky", 8, 16),
    ])
    @pytest.mark.parametrize("variant", ["lts", "rlx", "work"])
    def test_registry_sweep(self, topo, size, pes, variant):
        for seed in range(2):
            g1 = random_canonical_graph(topo, size, seed=seed)
            g2 = random_canonical_graph(topo, size, seed=seed)
            assert_golden(g1, g2, pes, variant)

    @pytest.mark.parametrize("pes", [8, 64])
    def test_ml_resnet(self, pes):
        from repro.ml import build_resnet50

        g1 = build_resnet50(image_size=56, max_parallel=16)
        g2 = build_resnet50(image_size=56, max_parallel=16)
        assert_golden(g1, g2, pes, "lts")

    @pytest.mark.parametrize("pes", [8, 64])
    def test_ml_transformer(self, pes):
        from repro.ml import build_transformer_encoder

        g1 = build_transformer_encoder(seq_len=16, d_model=64, num_heads=4,
                                       d_ff=128, max_parallel=16)
        g2 = build_transformer_encoder(seq_len=16, d_model=64, num_heads=4,
                                       d_ff=128, max_parallel=16)
        assert_golden(g1, g2, pes, "rlx")

    def test_levels_match_reference(self):
        for topo, size in [("layered", 128), ("fft", 32), ("cholesky", 8)]:
            g = random_canonical_graph(topo, size, seed=3)
            assert node_levels(g) == node_levels_reference(g)

    def test_sequential_blocks_off_matches_reference(self):
        g1 = random_canonical_graph("gaussian", 12, seed=5)
        g2 = random_canonical_graph("gaussian", 12, seed=5)
        a = schedule_bytes(
            schedule_streaming(g1, 16, "rlx", sequential_blocks=False)
        )
        b = schedule_bytes(
            schedule_streaming_reference(g2, 16, "rlx", sequential_blocks=False)
        )
        assert a == b


class TestIndexedGraph:
    def test_csr_matches_nx_adjacency(self):
        g = random_canonical_graph("layered", 64, seed=0)
        ig = freeze(g)
        for name in g.nodes:
            i = ig.index[name]
            succs = [ig.names[j] for j in ig.succs(i)]
            preds = [ig.names[j] for j in ig.preds(i)]
            assert succs == list(g.successors(name))
            assert set(preds) == set(g.predecessors(name))
            assert ig.in_degree(i) == g.in_degree(name)
            assert ig.out_degree(i) == g.out_degree(name)

    def test_topo_entries_exits_num_tasks(self):
        g = random_canonical_graph("serpar", 60, seed=1)
        ig = freeze(g)
        assert [ig.names[i] for i in ig.topo] == g.topological_order()
        assert sorted(map(str, (ig.names[i] for i in ig.entries))) == \
            sorted(map(str, g.entry_nodes()))
        assert sorted(map(str, (ig.names[i] for i in ig.exits))) == \
            sorted(map(str, g.exit_nodes()))
        assert ig.num_tasks == g.num_tasks()

    def test_freeze_is_memoized_and_invalidated(self):
        g = CanonicalGraph()
        g.add_source("s", 4)
        g.add_task("t", 4, 4)
        g.add_edge("s", "t")
        ig1 = freeze(g)
        assert freeze(g) is ig1  # memoized
        g.add_task("u", 4, 2)
        g.add_edge("t", "u")
        ig2 = freeze(g)
        assert ig2 is not ig1  # mutation invalidated the cache
        assert ig2.n == 3

    def test_topological_order_cache_invalidation(self):
        g = CanonicalGraph()
        g.add_task("a", 2, 2)
        first = g.topological_order()
        assert first == ["a"]
        first.append("junk")  # caller mutation must not poison the cache
        assert g.topological_order() == ["a"]
        g.add_task("b", 2, 2)
        g.add_edge("a", "b")
        assert g.topological_order() == ["a", "b"]

    def test_single_node_graph(self):
        g = CanonicalGraph()
        g.add_task("only", 3, 3)
        ig = freeze(g)
        assert ig.n == 1 and ig.entries == [0] and ig.exits == [0]
        assert ig.num_tasks == 1
        s = schedule_streaming(g, 4)
        g2 = CanonicalGraph()
        g2.add_task("only", 3, 3)
        assert schedule_bytes(s) == schedule_bytes(
            schedule_streaming_reference(g2, 4)
        )

    def test_disconnected_entries(self):
        def build():
            g = CanonicalGraph()
            # two weakly disconnected pipelines
            g.add_source("s1", 8)
            g.add_task("a", 8, 4)
            g.add_sink("k1", 4)
            g.add_edge("s1", "a")
            g.add_edge("a", "k1")
            g.add_source("s2", 2)
            g.add_task("b", 2, 6)
            g.add_sink("k2", 6)
            g.add_edge("s2", "b")
            g.add_edge("b", "k2")
            return g

        g = build()
        ig = freeze(g)
        assert {ig.names[i] for i in ig.entries} == {"s1", "s2"}
        assert {ig.names[i] for i in ig.exits} == {"k1", "k2"}
        assert_golden(g, build(), 2, "lts")

    def test_levels_exact_fractions(self):
        g = CanonicalGraph()
        g.add_task("a", 2, 3)   # upsampler, rate 3/2
        g.add_task("b", 3, 5)   # upsampler, rate 5/3
        g.add_edge("a", "b")
        levels = node_levels(g)
        assert levels["a"] == Fraction(1)
        assert levels["b"] == Fraction(5, 3) + Fraction(1)
        assert num_levels(g) == Fraction(8, 3)

    def test_graph_from_dict_validate_false_roundtrip(self):
        g = random_canonical_graph("fft", 8, seed=0)
        doc = graph_to_dict(g)
        h = graph_from_dict(doc, validate=False)
        assert graph_to_dict(h) == doc


class TestCsdfMultiRatePhases:
    """Flattened self-timed executor on cyclo-static (multi-rate) actors."""

    def _graph(self):
        from repro.sdf.csdf import CsdfGraph

        csdf = CsdfGraph()
        csdf.add_actor("A", durations=(1, 1))   # two phases
        csdf.add_actor("B", durations=(2,))
        # phase 0 produces 1 token, phase 1 produces 2; B needs 3
        csdf.add_channel("A", "B", production=(1, 2), consumption=(3,))
        return csdf

    def test_hand_computed_makespan(self):
        from repro.sdf import self_timed_makespan

        res = self_timed_makespan(self._graph())
        # A: [0,1) and [1,2); B fires at t=2 with 3 tokens, done at 4
        assert res.makespan == 4
        assert res.firings == 3

    def test_two_iterations_pipeline(self):
        from repro.sdf import self_timed_makespan

        res = self_timed_makespan(self._graph(), iterations=2)
        # second A cycle overlaps B's first firing: [2,3), [3,4); the
        # second B firing runs [4,6)
        assert res.makespan == 6
        assert res.firings == 6

    def test_repetition_vector_respected(self):
        csdf = self._graph()
        q = csdf.repetition_vector()
        assert q == {"A": 1, "B": 1}

    def test_deadlock_detection_survives_flattening(self):
        from repro.sdf.csdf import CsdfGraph
        from repro.sdf import self_timed_makespan

        csdf = CsdfGraph()
        csdf.add_actor("A", durations=(1,))
        csdf.add_actor("B", durations=(1,))
        csdf.add_channel("A", "B", production=(1,), consumption=(1,))
        csdf.add_channel("B", "A", production=(1,), consumption=(1,))
        with pytest.raises(RuntimeError, match="deadlocked"):
            self_timed_makespan(csdf)


class TestPortfolioPoolEquivalence:
    """A race of all five schedulers, over the frozen view the service
    ingests, matches running them one at a time."""

    def test_pooled_race_matches_sequential(self):
        from repro.service import run_portfolio

        g = random_canonical_graph("fft", 16, seed=1)
        schedulers = ("rlx", "lts", "work", "nstr", "heft")
        race = run_portfolio(freeze(g), 8, schedulers=schedulers)
        seq = [run_portfolio(g, 8, schedulers=(name,)) for name in schedulers]
        assert not race.truncated
        assert [c.name for c in race.candidates] == list(schedulers)
        assert [c.makespan for c in race.candidates] == \
            [s.winner.makespan for s in seq]
        # ties go to the earlier candidate, as in the sequential order
        best = min(seq, key=lambda s: s.winner.makespan)
        assert race.winner.name == best.winner.name
        assert race.winner.makespan == best.winner.makespan
        assert json.dumps(race.schedule_doc(), sort_keys=True) == \
            json.dumps(best.schedule_doc(), sort_keys=True)
