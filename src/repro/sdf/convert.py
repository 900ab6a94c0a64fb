"""Canonical task graph -> CSDF conversion (Section 7.2).

"Provided that there are no buffer nodes (not supported in CSDFGs), we
can convert a given canonical task graph into an equivalent CSDFG: each
canonical node is represented by a corresponding CSDFG node.  Using
different production/consumption rates per firing, we conveniently
represent downsamplers and upsamplers."

Every computational node with per-edge volumes ``(I, O)`` becomes an
actor with ``W = max(I, O)`` unit-duration phases whose per-phase rate
patterns mirror the one-element-per-cycle dataflow loop of
:mod:`repro.sim.indexed` exactly (consume-cycles and emit-cycles
interleaved by the rational rate ``O/I``).  Entry nodes get an auxiliary
single-phase source actor injecting one token per firing, fired ``I``
times per graph iteration by the balance equations.
"""

from __future__ import annotations

import math
from typing import Hashable

from ..core.graph import CanonicalGraph
from ..core.node_types import NodeKind
from .csdf import CsdfGraph

__all__ = ["canonical_to_csdf", "rate_patterns"]


def rate_patterns(in_volume: int, out_volume: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-phase (consumption, production) patterns of a canonical task.

    Derived by symbolically running the dataflow loop: each phase is one
    cycle; a phase consumes one element from each input edge and/or
    produces one element to each output edge.  ``len == max(I, O)``.
    """
    cons: list[int] = []
    prod: list[int] = []
    consumed = produced = 0
    while consumed < in_volume or produced < out_volume:
        need = (
            math.ceil((produced + 1) * in_volume / out_volume)
            if produced < out_volume
            else in_volume
        )
        if consumed < need:
            consumed += 1
            if produced < out_volume and consumed >= math.ceil(
                (produced + 1) * in_volume / out_volume
            ):
                produced += 1
                cons.append(1)
                prod.append(1)
            else:
                cons.append(1)
                prod.append(0)
        else:
            produced += 1
            cons.append(0)
            prod.append(1)
    return tuple(cons), tuple(prod)


def canonical_to_csdf(graph: CanonicalGraph) -> CsdfGraph:
    """Convert ``graph`` (which must be buffer-free) to a CSDF graph."""
    if graph.buffer_nodes():
        raise ValueError("CSDF conversion does not support buffer nodes")
    csdf = CsdfGraph()
    patterns: dict[Hashable, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for v in graph.nodes:
        spec = graph.spec(v)
        if spec.kind is NodeKind.SOURCE:
            csdf.add_actor(v, (1,))
            patterns[v] = ((0,), (1,))
        elif spec.kind is NodeKind.SINK:
            csdf.add_actor(v, (1,))
            patterns[v] = ((1,), (0,))
        else:
            cons, prod = rate_patterns(spec.input_volume, spec.output_volume)
            csdf.add_actor(v, (1,) * len(cons))
            patterns[v] = (cons, prod)
            if graph.in_degree(v) == 0:
                # auxiliary memory-injection source, one token per firing
                src = ("__src__", v)
                csdf.add_actor(src, (1,))
                csdf.add_channel(src, v, production=(1,), consumption=cons)
    for u, v in graph.edges:
        csdf.add_channel(
            u, v, production=patterns[u][1], consumption=patterns[v][0]
        )
    return csdf
