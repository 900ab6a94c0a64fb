"""Unit tests for the Section 6 FIFO sizing pass."""

import networkx as nx
import pytest

from repro import CanonicalGraph, schedule_streaming
from repro.core.buffer_sizing import compute_buffer_sizes
from repro.sim import simulate_schedule

from conftest import build_diamond, build_elementwise_chain
from oracles.scheduler_reference import cycle_nodes_of_block


class TestCycleDetection:
    def test_tree_has_no_cycle_nodes(self):
        t = nx.Graph([(0, 1), (1, 2), (1, 3)])
        assert cycle_nodes_of_block(t) == set()

    def test_cycle_marks_members_only(self):
        g = nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert cycle_nodes_of_block(g) == {0, 1, 2}

    def test_empty_graph(self):
        assert cycle_nodes_of_block(nx.Graph()) == set()


class TestSizing:
    def test_chain_edges_minimal(self):
        g = build_elementwise_chain(5, 16)
        s = schedule_streaming(g, 8)
        assert all(cap == 1 for cap in s.buffer_sizes.values())

    def test_balanced_diamond_minimal(self):
        """Equal-latency branches need no extra slack."""
        g = build_diamond(16)
        s = schedule_streaming(g, 8)
        assert all(cap == 1 for cap in s.buffer_sizes.values())

    def test_unbalanced_diamond_sized_by_delay(self):
        """One branch passes through an 8:1 downsampler + 1:8 upsampler:
        the fast branch channel must hold the delay difference."""
        g = CanonicalGraph()
        g.add_task(0, 32, 32)
        g.add_task("slow1", 32, 4)
        g.add_task("slow2", 4, 32)
        g.add_task("join", 32, 32)
        g.add_edge(0, "slow1")
        g.add_edge("slow1", "slow2")
        g.add_edge(0, "join")
        g.add_edge("slow2", "join")
        s = schedule_streaming(g, 8)
        fast = s.buffer_sizes[(0, "join")]
        assert fast > 1
        sim = simulate_schedule(s)
        assert not sim.deadlocked
        assert sim.makespan == s.makespan

    def test_capped_by_edge_volume(self):
        """Never buffer more than the data ever sent on the edge."""
        g = CanonicalGraph()
        g.add_task(0, 4, 4)
        g.add_task("slow1", 4, 1)
        g.add_task("slow2", 1, 4)
        g.add_task("join", 4, 4)
        g.add_edge(0, "slow1")
        g.add_edge("slow1", "slow2")
        g.add_edge(0, "join")
        g.add_edge("slow2", "join")
        s = schedule_streaming(g, 8)
        assert s.buffer_sizes[(0, "join")] <= 4

    def test_non_streaming_edges_absent(self):
        g = build_elementwise_chain(4, 16)
        s = schedule_streaming(g, 2, "rlx")  # 2 blocks
        for (u, v) in s.buffer_sizes:
            assert s.is_streaming_edge(u, v)

    def test_occupancy_within_capacity(self, fig9_graph1):
        s = schedule_streaming(fig9_graph1, 8)
        sim = simulate_schedule(s)
        for edge, (cap, occ) in sim.channel_stats.items():
            assert occ <= cap, edge

    def test_sized_capacity_actually_used(self, fig9_graph1):
        """The (0,4) channel really fills up to its 18 slots."""
        s = schedule_streaming(fig9_graph1, 8)
        sim = simulate_schedule(s)
        cap, occ = sim.channel_stats[(0, 4)]
        assert cap == 18
        assert occ == 18


class TestDefaultCapacity:
    def test_default_capacity_parameter(self, fig9_graph1):
        s = schedule_streaming(fig9_graph1, 8, size_buffers=False)
        sizes = compute_buffer_sizes(s, default_capacity=3)
        assert all(c >= 3 for c in sizes.values())
        assert sizes[(0, 4)] == 18
