"""Greedy NoC-aware placement of spatial blocks (future-work extension).

Each spatial block is placed independently (its tasks are the only ones
co-resident on the device): tasks are visited in a BFS order over the
block's streaming subgraph, and each task takes the free PE closest (by
Manhattan distance) to the weighted centroid of its already-placed
streaming neighbors.  This is the classic cluster-growth heuristic; it
is not optimal, but it turns the scheduler's abstract PE indices into
mesh coordinates and lets us quantify NoC traffic.

Metrics:

* **weighted hops** — sum over streaming edges of
  ``volume(e) * distance(place(u), place(v))``: total element-hops the
  NoC carries;
* **max link load** — the hottest mesh link under XY routing, a proxy
  for the contention the paper's model assumes away.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from ..core.indexed import freeze
from ..core.scheduler import StreamingSchedule
from .mesh import Mesh, mesh_for

__all__ = ["Placement", "place_schedule", "random_placement"]


@dataclass
class Placement:
    """Mesh coordinates for every task of a schedule."""

    mesh: Mesh
    schedule: StreamingSchedule
    pe_of: dict[Hashable, int] = field(default_factory=dict)

    def weighted_hops(self) -> int:
        total = 0
        for u, v in self.schedule.streaming_edges():
            total += self.schedule.graph.volume(u, v) * self.mesh.distance(
                self.pe_of[u], self.pe_of[v]
            )
        return total

    def max_link_load(self) -> int:
        """Hottest directed mesh link under XY routing (element count)."""
        load: dict[tuple[int, int], int] = {}
        for u, v in self.schedule.streaming_edges():
            vol = self.schedule.graph.volume(u, v)
            path = self.mesh.route(self.pe_of[u], self.pe_of[v])
            for a, b in zip(path, path[1:]):
                load[(a, b)] = load.get((a, b), 0) + vol
        return max(load.values(), default=0)

    def validate(self) -> None:
        """No two tasks of one block may share a PE."""
        for block in self.schedule.partition.blocks:
            used = [self.pe_of[v] for v in block]
            if len(set(used)) != len(used):
                raise ValueError("two co-scheduled tasks share a PE")
            for pe in used:
                self.mesh.coords(pe)  # raises if out of range


def place_schedule(schedule: StreamingSchedule, mesh: Mesh | None = None) -> Placement:
    """Greedy centroid placement of every spatial block."""
    mesh = mesh or mesh_for(schedule.num_pes)
    if mesh.size < schedule.num_pes:
        raise ValueError(
            f"mesh of {mesh.size} PEs cannot host {schedule.num_pes}-wide blocks"
        )
    # neighbours come from the frozen CSR arrays, so a CanonicalGraph
    # and its wire-ingested twin place identically (and the latter
    # never builds networkx)
    ig = freeze(schedule.graph)
    names, index, out_vol, work = ig.names, ig.index, ig.out_vol, ig.work
    pp, pa, sp, sa = ig.pred_ptr, ig.pred_adj, ig.succ_ptr, ig.succ_adj
    placement = Placement(mesh, schedule)

    for block in schedule.partition.blocks:
        members = set(block)
        free = set(range(mesh.size))
        placed: dict[Hashable, int] = {}

        def stream_neighbors(v: Hashable):
            i = index[v]
            for u in pa[pp[i]:pp[i + 1]]:
                if names[u] in members:
                    yield names[u], out_vol[u]
            for w in sa[sp[i]:sp[i + 1]]:
                if names[w] in members:
                    yield names[w], out_vol[i]

        # BFS over the streaming subgraph from the heaviest task
        order: list[Hashable] = []
        seen: set[Hashable] = set()
        for seed in sorted(block, key=lambda v: -work[index[v]]):
            if seed in seen:
                continue
            queue = deque([seed])
            seen.add(seed)
            while queue:
                v = queue.popleft()
                order.append(v)
                for u, _ in stream_neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)

        center = mesh.pe_at(mesh.rows // 2, mesh.cols // 2)
        for v in order:
            anchors = [
                (placed[u], vol) for u, vol in stream_neighbors(v) if u in placed
            ]
            if anchors:
                total = sum(vol for _, vol in anchors)
                row = round(
                    sum(mesh.coords(pe)[0] * vol for pe, vol in anchors) / total
                )
                col = round(
                    sum(mesh.coords(pe)[1] * vol for pe, vol in anchors) / total
                )
                target = mesh.pe_at(
                    min(max(row, 0), mesh.rows - 1), min(max(col, 0), mesh.cols - 1)
                )
            else:
                target = center
            pe = min(free, key=lambda p: (mesh.distance(p, target), p))
            free.remove(pe)
            placed[v] = pe
        placement.pe_of.update(placed)

    placement.validate()
    return placement


def random_placement(
    schedule: StreamingSchedule, mesh: Mesh | None = None, seed: int = 0
) -> Placement:
    """Uniform-random per-block placement — the comparison baseline."""
    import random

    mesh = mesh or mesh_for(schedule.num_pes)
    rng = random.Random(seed)
    placement = Placement(mesh, schedule)
    for block in schedule.partition.blocks:
        pes = rng.sample(range(mesh.size), len(block))
        placement.pe_of.update(dict(zip(block, pes)))
    placement.validate()
    return placement
