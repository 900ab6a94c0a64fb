"""Unit tests for the non-streaming baseline (NSTR-SCH)."""

import pytest

from repro import CanonicalGraph
from repro.baselines import PlacedTask, condensed_dependencies, schedule_nonstreaming
from repro.core.levels import critical_path_length, total_work
from repro.graphs import random_canonical_graph

from conftest import build_diamond, build_elementwise_chain


class TestCondensedDependencies:
    def test_direct_edges(self, diamond):
        deps = condensed_dependencies(diamond)
        assert deps[3] == {1, 2}
        assert deps[0] == set()

    def test_passes_through_passives(self):
        g = CanonicalGraph()
        g.add_task("a", 8, 8)
        g.add_buffer("B", 8, 8)
        g.add_task("b", 8, 8)
        g.add_edge("a", "B")
        g.add_edge("B", "b")
        deps = condensed_dependencies(g)
        assert deps["b"] == {"a"}

    def test_source_contributes_nothing(self):
        g = CanonicalGraph()
        g.add_source("s", 8)
        g.add_task("a", 8, 8)
        g.add_edge("s", "a")
        assert condensed_dependencies(g)["a"] == set()

    def test_chained_passives(self):
        g = CanonicalGraph()
        g.add_task("a", 8, 8)
        g.add_buffer("B1", 8, 8)
        g.add_buffer("B2", 8, 8)
        g.add_task("b", 8, 8)
        for e in [("a", "B1"), ("B1", "B2"), ("B2", "b")]:
            g.add_edge(*e)
        assert condensed_dependencies(g)["b"] == {"a"}


class TestScheduleProperties:
    def test_chain_is_sequential(self):
        g = build_elementwise_chain(5, 16)
        s = schedule_nonstreaming(g, 4)
        assert s.makespan == 5 * 16
        s.validate()

    def test_diamond_parallel_branches(self):
        g = build_diamond(16)
        s = schedule_nonstreaming(g, 2)
        assert s.makespan == 3 * 16  # branches overlap
        s.validate()

    def test_single_pe_equals_total_work(self):
        for seed in range(3):
            g = random_canonical_graph("gaussian", 6, seed=seed)
            s = schedule_nonstreaming(g, 1)
            assert s.makespan == total_work(g)

    def test_makespan_lower_bounds(self):
        for seed in range(5):
            g = random_canonical_graph("fft", 8, seed=seed)
            for p in (2, 4, 8):
                s = schedule_nonstreaming(g, p)
                assert s.makespan >= critical_path_length(g)
                assert s.makespan >= total_work(g) / p
                s.validate()

    def test_more_pes_never_worse(self):
        g = random_canonical_graph("cholesky", 6, seed=1)
        spans = [schedule_nonstreaming(g, p).makespan for p in (1, 2, 4, 8, 16)]
        assert spans == sorted(spans, reverse=True)

    def test_insertion_fills_gaps(self):
        """A short independent task should slot into an idle gap."""
        g = CanonicalGraph()
        g.add_task("long1", 100, 100)
        g.add_task("long2", 100, 100)
        g.add_edge("long1", "long2")
        g.add_task("tiny", 10, 10)
        s = schedule_nonstreaming(g, 1)
        assert s.makespan == 210
        s.validate()

    def test_invalid_pes(self, ew_chain):
        with pytest.raises(ValueError):
            schedule_nonstreaming(ew_chain, 0)

    def test_busy_time_is_total_work(self, ew_chain):
        s = schedule_nonstreaming(ew_chain, 4)
        assert s.busy_time() == total_work(ew_chain)

    def test_placements_cover_all_tasks(self):
        g = random_canonical_graph("gaussian", 8, seed=0)
        s = schedule_nonstreaming(g, 8)
        assert set(s.placements) == set(g.computational_nodes())


def placed(schedule) -> dict:
    """``{task: (start, pe)}`` of a list schedule."""
    return {v: (p.start, p.pe) for v, p in schedule.placements.items()}


class TestHandWorkedTieBreaks:
    """Exact placements on tiny graphs (cf. estee's ``test_simulator_cpus*``).

    Order: descending bottom level, ties by insertion order.  Rule: the
    earliest insertion slot, the lowest PE index among equal starts.
    """

    def test_two_idle_pes_lower_index_wins(self):
        # a: PE0 [0,30); b: PE1 [0,10); c: PE2 [0,10).  d (after b) is
        # ready at 10, when PE1 and PE2 are both idle: PE1 wins.
        g = CanonicalGraph()
        g.add_task("a", 30, 30)
        g.add_task("b", 10, 10)
        g.add_task("c", 10, 10)
        g.add_task("d", 10, 10)
        g.add_edge("b", "d")
        s = schedule_nonstreaming(g, 3)
        assert placed(s) == {
            "a": (0, 0), "b": (0, 1), "c": (0, 2), "d": (10, 1),
        }
        assert s.makespan == 30
        s.validate()

    def test_gap_on_pe0_ties_with_append_on_pe1(self):
        # e: PE0 [0,60); g: PE1 [0,60); d: PE2 [0,40); b: PE2 [40,70).
        # c (after b) is ready at 70 and PE0 is idle from 60: PE0
        # [70,80), leaving the gap [60,70).  f (after d) is ready at 40:
        # PE0's gap offers 60, PE1's append offers 60, PE2 offers 70 —
        # the tie goes to PE0.
        g = CanonicalGraph()
        g.add_task("e", 60, 60)
        g.add_task("g", 60, 60)
        g.add_task("d", 40, 10)
        g.add_task("b", 30, 10)
        g.add_task("c", 10, 10)
        g.add_task("f", 10, 10)
        g.add_edge("b", "c")
        g.add_edge("d", "f")
        s = schedule_nonstreaming(g, 3)
        assert list(s.placements) == ["e", "g", "d", "b", "c", "f"]
        assert placed(s) == {
            "e": (0, 0), "g": (0, 1), "d": (0, 2), "b": (40, 2),
            "c": (70, 0), "f": (60, 0),
        }
        assert s.makespan == 80
        assert [[p.name for p in tl] for tl in s.timelines] == [
            ["e", "f", "c"], ["g"], ["d", "b"],
        ]
        s.validate()

    def test_gap_ending_before_ready_is_skipped(self):
        # a: PE0 [0,60); c: PE1 [0,50); b: PE1 [50,80).  d (after b, c)
        # is ready at 80: PE0 [80,90), leaving the gap [60,80).  e
        # (after a, b) is ready at 80 too; PE0's gap ends at 80, so PE0
        # offers 90 and PE1, idle from 80, takes it.
        g = CanonicalGraph()
        g.add_task("a", 60, 10)
        g.add_task("b", 30, 10)
        g.add_task("c", 50, 10)
        g.add_task("d", 10, 10)
        g.add_task("e", 10, 10)
        for u, v in [("a", "e"), ("b", "d"), ("b", "e"), ("c", "d")]:
            g.add_edge(u, v)
        s = schedule_nonstreaming(g, 2)
        assert list(s.placements) == ["a", "c", "b", "d", "e"]
        assert placed(s) == {
            "a": (0, 0), "c": (0, 1), "b": (50, 1), "d": (80, 0),
            "e": (80, 1),
        }
        assert s.makespan == 90
        s.validate()

    def test_all_pes_busy_earliest_last_end_wins(self):
        # a, b, c fill PE0..PE2 until 30, 20, 10; d (ready at 0) finds
        # every PE busy and appends to PE2, the earliest to free up.
        g = CanonicalGraph()
        for name, w in [("a", 30), ("b", 20), ("c", 10), ("d", 5)]:
            g.add_task(name, w, w)
        s = schedule_nonstreaming(g, 3)
        assert placed(s) == {
            "a": (0, 0), "b": (0, 1), "c": (0, 2), "d": (10, 2),
        }
        assert s.makespan == 30
        s.validate()

    def test_buffer_chain_adds_no_time(self):
        # s -> a -> B1 -> B2 -> b: passive nodes cost nothing, so b
        # starts the cycle a finishes.
        g = CanonicalGraph()
        g.add_source("s", 16)
        g.add_task("a", 16, 16)
        g.add_buffer("B1", 16, 8)
        g.add_buffer("B2", 8, 24)
        g.add_task("b", 24, 24)
        for u, v in [("s", "a"), ("a", "B1"), ("B1", "B2"), ("B2", "b")]:
            g.add_edge(u, v)
        s = schedule_nonstreaming(g, 2)
        assert placed(s) == {"a": (0, 0), "b": (16, 0)}
        assert s.makespan == 16 + 24
        s.validate()


class TestValidateCatchesCorruption:
    def _schedule(self):
        s = schedule_nonstreaming(build_diamond(16), 2)
        s.validate()
        return s

    def test_missing_task(self):
        s = self._schedule()
        del s.placements[3]
        with pytest.raises(ValueError, match="not placed"):
            s.validate()

    def test_task_placed_twice(self):
        s = self._schedule()
        s.timelines[1].append(s.timelines[0][0])
        with pytest.raises(ValueError, match="placed 2 times"):
            s.validate()

    def test_duration_is_not_work(self):
        s = self._schedule()
        p = s.placements[3]
        s.placements[3] = PlacedTask(3, p.start, p.finish + 1, p.pe)
        with pytest.raises(ValueError, match="runs 17 cycles"):
            s.validate()
