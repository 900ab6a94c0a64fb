"""Unit tests for the mesh NoC model and greedy placement."""

import pytest

from repro import schedule_streaming
from repro.graphs import random_canonical_graph
from repro.placement import Mesh, mesh_for, place_schedule, random_placement

from conftest import build_elementwise_chain


class TestMesh:
    def test_coords_round_trip(self):
        m = Mesh(3, 4)
        for pe in range(m.size):
            r, c = m.coords(pe)
            assert m.pe_at(r, c) == pe

    def test_manhattan_distance(self):
        m = Mesh(4, 4)
        assert m.distance(0, 0) == 0
        assert m.distance(m.pe_at(0, 0), m.pe_at(3, 3)) == 6
        assert m.distance(m.pe_at(1, 2), m.pe_at(2, 0)) == 3

    def test_neighbors_interior_and_corner(self):
        m = Mesh(3, 3)
        assert len(list(m.neighbors(m.pe_at(1, 1)))) == 4
        assert len(list(m.neighbors(m.pe_at(0, 0)))) == 2

    def test_xy_route_length(self):
        m = Mesh(4, 4)
        a, b = m.pe_at(0, 0), m.pe_at(2, 3)
        route = m.route(a, b)
        assert route[0] == a and route[-1] == b
        assert len(route) == m.distance(a, b) + 1
        # every step moves to an adjacent PE
        for x, y in zip(route, route[1:]):
            assert m.distance(x, y) == 1

    def test_mesh_for_exact_squares(self):
        assert (mesh_for(16).rows, mesh_for(16).cols) == (4, 4)
        m = mesh_for(12)
        assert m.size >= 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            Mesh(0, 4)
        with pytest.raises(ValueError):
            Mesh(2, 2).coords(5)


class TestPlacement:
    def test_chain_placed_contiguously(self):
        """A streaming chain should sit on adjacent PEs: one hop/edge."""
        g = build_elementwise_chain(6, 16)
        s = schedule_streaming(g, 9, "rlx")
        placement = place_schedule(s, Mesh(3, 3))
        per_edge_hops = placement.weighted_hops() / (5 * 16)
        assert per_edge_hops == pytest.approx(1.0)

    def test_placement_is_valid(self):
        for seed in range(3):
            g = random_canonical_graph("gaussian", 8, seed=seed)
            s = schedule_streaming(g, 16, "rlx")
            placement = place_schedule(s)
            placement.validate()
            assert set(placement.pe_of) == set(g.computational_nodes())

    def test_greedy_beats_random(self):
        """The centroid placer must generate less NoC traffic than a
        random placement on pipelining-heavy graphs."""
        wins = 0
        for seed in range(5):
            g = random_canonical_graph("fft", 16, seed=seed)
            s = schedule_streaming(g, 64, "rlx")
            greedy = place_schedule(s).weighted_hops()
            rnd = random_placement(s, seed=seed).weighted_hops()
            if greedy <= rnd:
                wins += 1
        assert wins >= 4

    def test_link_load_positive_when_streaming(self):
        g = build_elementwise_chain(4, 8)
        s = schedule_streaming(g, 4, "rlx")
        placement = place_schedule(s)
        assert placement.max_link_load() >= 8

    def test_mesh_too_small_rejected(self):
        g = build_elementwise_chain(6, 8)
        s = schedule_streaming(g, 6, "rlx")
        with pytest.raises(ValueError):
            place_schedule(s, Mesh(2, 2))


class TestIngestedSchedule:
    def test_placing_never_builds_networkx(self):
        """Streaming-edge questions are answered from the CSR arrays
        and the block column: placing a schedule of a wire-ingested
        graph leaves its networkx twin unbuilt, and the NoC metrics
        equal the CanonicalGraph path's."""
        from repro.core import ingest_graph_doc
        from repro.core.serialize import graph_to_dict

        g = random_canonical_graph("layered", 2000, seed=4)
        ig = ingest_graph_doc(graph_to_dict(g))
        s = schedule_streaming(ig, 16)
        placement = place_schedule(s)
        hops, load = placement.weighted_hops(), placement.max_link_load()
        s.validate()
        assert s.streaming_edges()
        assert ig._graph is None
        want = place_schedule(schedule_streaming(g, 16))
        assert (hops, load) == (want.weighted_hops(), want.max_link_load())
        assert placement.pe_of == want.pe_of

    def test_edge_insertion_order_does_not_change_placement(self):
        """Stream neighbours are walked in producer-id order, so a
        CanonicalGraph whose edges were added in any other order places
        exactly like its wire-ingested twin."""
        from repro.core import ingest_graph_doc
        from repro.core.graph import CanonicalGraph
        from repro.core.serialize import graph_to_dict

        src = random_canonical_graph("layered", 400, seed=9)
        g = CanonicalGraph()
        for v in src.nodes:
            g.add_node(src.spec(v))
        for u, v in reversed(list(src.edges)):
            g.add_edge(u, v)
        ig = ingest_graph_doc(graph_to_dict(g))
        want = place_schedule(schedule_streaming(ig, 16))
        got = place_schedule(schedule_streaming(g, 16))
        assert got.pe_of == want.pe_of
        assert (got.weighted_hops(), got.max_link_load()) == (
            want.weighted_hops(), want.max_link_load())

    def test_is_streaming_edge_rejects_non_edges(self):
        s = schedule_streaming(random_canonical_graph("layered", 60, seed=1), 8)
        u, v = s.streaming_edges()[0]
        assert s.is_streaming_edge(u, v)
        with pytest.raises(KeyError):
            s.is_streaming_edge(v, u)
