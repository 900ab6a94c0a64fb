"""Property-based tests (hypothesis) on the core invariants.

Random canonical DAGs are generated from scratch (layered topologies
with canonical-consistent volumes) and the pipeline's invariants are
checked end to end: interval laws, schedule monotonicity, partition
correctness, DES agreement and deadlock freedom.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CanonicalGraph,
    compute_spatial_blocks,
    compute_streaming_intervals,
    schedule_streaming,
    streaming_depth,
    total_work,
)
from repro.baselines import schedule_nonstreaming
from repro.core.backend import HAVE_NUMPY
from repro.core.indexed import IndexedGraph
from repro.core.ingest import ingest_graph_doc
from repro.core.levels import critical_path_length
from repro.core.node_types import NodeKind
from repro.core.serialize import graph_to_dict
from repro.graphs import random_canonical_graph
from repro.sdf import canonical_to_csdf, rate_patterns, self_timed_makespan
from repro.sim import simulate_schedule

from oracles.graph_parse import parse_graph_doc

VOLUMES = (1, 2, 4, 8, 16)


@st.composite
def canonical_dags(draw, max_layers: int = 4, max_width: int = 4):
    """Layered random canonical DAGs of computational tasks.

    Volumes are drawn per producer-equivalence class: every node in
    layer ``i`` draws its output volume, and consumers in layer ``i+1``
    pick one *single* producer volume group to keep canonicality.
    """
    num_layers = draw(st.integers(1, max_layers))
    g = CanonicalGraph()
    layers: list[list[tuple[str, int]]] = []  # (name, out_volume)
    for li in range(num_layers):
        width = draw(st.integers(1, max_width))
        layer: list[tuple[str, int]] = []
        for wi in range(width):
            name = f"n{li}_{wi}"
            out_vol = draw(st.sampled_from(VOLUMES))
            if li == 0:
                in_vol = draw(st.sampled_from(VOLUMES))
                preds: list[str] = []
            else:
                # choose producers of one shared volume so all input
                # edges carry the same amount of data
                groups: dict[int, list[str]] = {}
                for pname, pvol in layers[li - 1]:
                    groups.setdefault(pvol, []).append(pname)
                vol = draw(st.sampled_from(sorted(groups)))
                candidates = groups[vol]
                k = draw(st.integers(1, min(2, len(candidates))))
                preds = draw(
                    st.lists(
                        st.sampled_from(candidates),
                        min_size=k,
                        max_size=k,
                        unique=True,
                    )
                )
                in_vol = vol
            g.add_task(name, in_vol, out_vol)
            for p in preds:
                g.add_edge(p, name)
            layer.append((name, out_vol))
        layers.append(layer)
    g.validate()
    return g


@st.composite
def passive_dags(draw, max_layers: int = 4, max_width: int = 4):
    """:func:`canonical_dags` with passive nodes: a SOURCE feeds every
    entry task, a SINK drains every exit task, and some edges are split
    by a BUFFER (where the Section 4.2.3 placement rule allows it)."""
    from repro.core.graph import CanonicalityError
    from repro.core.transform import check_buffer_placement

    core = draw(canonical_dags(max_layers, max_width))
    edges = list(core.edges)
    split = draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)
                 if edges else st.just([]))

    def build(buffered) -> CanonicalGraph:
        g = CanonicalGraph()
        for v in core.nodes:
            g.add_node(core.spec(v))
        for v in core.nodes:
            spec = core.spec(v)
            if not core.nx.in_degree(v):
                g.add_source(f"src_{v}", spec.input_volume)
                g.add_edge(f"src_{v}", v)
            if not core.nx.out_degree(v):
                g.add_sink(f"sink_{v}", spec.output_volume)
                g.add_edge(v, f"sink_{v}")
        for u, v in edges:
            if (u, v) in buffered:
                vol = core.spec(u).output_volume
                g.add_buffer(f"buf_{u}_{v}", vol, vol)
                g.add_edge(u, f"buf_{u}_{v}")
                g.add_edge(f"buf_{u}_{v}", v)
            else:
                g.add_edge(u, v)
        return g

    buffered: set = set()
    for edge in split:
        try:
            check_buffer_placement(build(buffered | {edge}))
        except CanonicalityError:
            continue  # a buffer inside one component: not canonical
        buffered.add(edge)
    g = build(buffered)
    g.validate()
    return g


common = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common
@given(canonical_dags())
def test_interval_laws(g: CanonicalGraph):
    """Equation (1), Equation (2) and Lemma 4.3 hold for every graph."""
    iv = compute_streaming_intervals(g)
    consts: dict[int, set[Fraction]] = {}
    for v in g.nodes:
        spec = g.spec(v)
        so, si = iv.so[v], iv.si[v]
        assert so >= 1 and si >= 1
        assert so == si / spec.production_rate
        c = iv.wcc_of[v]
        consts.setdefault(c, set()).add(so * spec.output_volume)
    for values in consts.values():
        assert len(values) == 1  # O(v) * S_o(v) constant per WCC


@common
@given(canonical_dags(), st.integers(1, 6), st.sampled_from(["lts", "rlx"]))
def test_partition_invariants(g: CanonicalGraph, pes: int, variant: str):
    p = compute_spatial_blocks(g, pes, variant)
    p.validate(g, pes)  # coverage, capacity, forward-only edges


@common
@given(canonical_dags(), st.integers(1, 6), st.sampled_from(["lts", "rlx"]))
def test_schedule_invariants(g: CanonicalGraph, pes: int, variant: str):
    s = schedule_streaming(g, pes, variant)
    s.validate()
    for v in g.computational_nodes():
        t = s.times[v]
        assert 0 <= t.st < t.fo <= t.lo
        # a task cannot finish faster than its work, nor run longer than
        # the whole schedule
        assert t.lo - t.st >= g.spec(v).work - 1
        assert t.lo <= s.makespan


@common
@given(canonical_dags(), st.integers(1, 6))
def test_speedup_bounded_by_pes(g: CanonicalGraph, pes: int):
    s = schedule_streaming(g, pes, "rlx", size_buffers=False)
    assert total_work(g) / s.makespan <= pes + 1e-9


@common
@given(canonical_dags(), st.integers(1, 6))
def test_nstr_bounds(g: CanonicalGraph, pes: int):
    s = schedule_nonstreaming(g, pes)
    s.validate()
    assert s.makespan >= critical_path_length(g)
    assert s.makespan >= math.ceil(total_work(g) / pes)
    assert s.makespan <= total_work(g)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(canonical_dags(max_layers=3, max_width=3), st.integers(1, 5))
def test_simulation_agrees_and_never_deadlocks(g: CanonicalGraph, pes: int):
    """The headline Section 6 guarantee, property-tested: with the
    computed FIFO sizes the execution completes, and the steady-state
    simulation matches the analytic makespan closely."""
    s = schedule_streaming(g, pes, "rlx")
    sim = simulate_schedule(s)
    assert not sim.deadlocked
    assert abs(sim.relative_error(s.makespan)) <= 0.25


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(canonical_dags(max_layers=3, max_width=3))
def test_csdf_self_timed_lower_bounds_schedule(g: CanonicalGraph):
    """Self-timed unbounded-PE CSDF execution is the greedy optimum; a
    single-block streaming schedule cannot beat it by more than the
    per-node rounding slack."""
    s = schedule_streaming(g, len(g), "rlx", size_buffers=False)
    res = self_timed_makespan(canonical_to_csdf(g))
    assert s.makespan >= res.makespan - len(g) - 1


@given(st.integers(1, 64), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_rate_patterns_conserve_volumes(i: int, o: int):
    cons, prod = rate_patterns(i, o)
    assert len(cons) == len(prod) == max(i, o)
    assert sum(cons) == i
    assert sum(prod) == o
    assert set(cons) <= {0, 1} and set(prod) <= {0, 1}


@common
@given(canonical_dags(max_layers=3, max_width=3))
def test_streaming_depth_lower_bounds_any_schedule_width(g: CanonicalGraph):
    """More PEs never hurt, and the single-block schedule at full width
    equals the streaming depth."""
    spans = [
        schedule_streaming(g, p, "rlx", size_buffers=False).makespan
        for p in (1, 2, len(g))
    ]
    assert spans[2] == streaming_depth(g)


# ----------------------------------------------------------------------
# the numpy sweep's fused streaming-edge pass vs the two-pass oracle
# ----------------------------------------------------------------------

#: (family, size) of the random graphs the fused pass is diffed on
STREAM_FAMILIES = {"layered": 60, "serpar": 60, "fft": 16}


def _fused_vs_oracle(topo: str, seed: int, pes: int, variant: str) -> set:
    """Diff the fused pass against the oracle on one graph; returns the
    block classes seen (streaming edges per block, 3 meaning >= 3)."""
    import numpy as np

    from oracles.stream_components import hot_nodes, wcc_constants
    from repro.core import kernels
    from repro.core.indexed import freeze
    from repro.graphs import random_canonical_graph

    g = random_canonical_graph(topo, STREAM_FAMILIES[topo], seed=seed)
    ig = freeze(g)
    part = compute_spatial_blocks(g, pes, variant)
    blk, _, members = part.columns()
    blk_arr = np.asarray(blk)
    eu, ev = kernels._stream_edges(kernels.graph_arrays(ig), blk_arr, members)
    label, hot = kernels._stream_components(ig.n, eu, ev)
    const, roots = wcc_constants(ig, eu.tolist(), ev.tolist())

    schedule = kernels.schedule_sweep_numpy(g, ig, part, pes)
    assert schedule.const_idx == const

    def wccs(lab) -> set:
        groups: dict = {}
        for i in range(ig.n):
            if ig.comp[i]:
                groups.setdefault(int(lab[i]), set()).add(i)
        return {frozenset(m) for m in groups.values()}

    assert wccs(label) == wccs(roots)
    want = hot_nodes(ig.n, eu, ev, blk_arr[eu], part.num_blocks)
    assert hot.tolist() == want.tolist()
    counts = np.bincount(blk_arr[eu], minlength=part.num_blocks)
    return set(np.minimum(counts, 3).tolist())


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy backend not installed")


@needs_numpy
@common
@given(
    st.sampled_from(sorted(STREAM_FAMILIES)),
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.sampled_from(["lts", "rlx"]),
)
def test_fused_stream_pass_matches_oracle(topo, seed, pes, variant):
    """One low-link DFS gives the union-find's constants and WCC
    partition and the per-block bridge DFS's on-cycle mask."""
    _fused_vs_oracle(topo, seed, pes, variant)


@needs_numpy
def test_fused_stream_pass_covers_every_block_class():
    """The PE counts above do reach blocks with 0, 1, 2 and >= 3
    streaming edges (the classes the oracle treats differently)."""
    seen: set = set()
    for topo in sorted(STREAM_FAMILIES):
        for pes in (1, 2, 3, 8):
            seen |= _fused_vs_oracle(topo, 0, pes, "rlx")
    assert seen == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# the id-column partitioners vs the name-keyed oracle
# ----------------------------------------------------------------------

def _partitions(g, pes: int, variant: str):
    from oracles.scheduler_reference import (
        compute_spatial_blocks_reference,
        partition_by_work_reference,
    )
    from repro.core.partition import partition_by_work

    if variant == "work":
        return partition_by_work(g, pes), partition_by_work_reference(g, pes)
    return (compute_spatial_blocks(g, pes, variant),
            compute_spatial_blocks_reference(g, pes, variant))


def _assert_same_partition(g, pes: int, variant: str) -> None:
    """Every view and every column, in the same order: ``block_of``'s
    insertion order and ``sources_per_block`` are invisible to the
    schedule bytes."""
    got, want = _partitions(g, pes, variant)
    assert (got.variant, got.num_pes) == (want.variant, want.num_pes)
    assert got.blocks == want.blocks
    assert list(got.block_of.items()) == list(want.block_of.items())
    assert got.sources_per_block == want.sources_per_block
    assert got.columns() == want.columns()


@common
@given(st.one_of(canonical_dags(), passive_dags()), st.integers(1, 6),
       st.sampled_from(["lts", "rlx", "work"]))
def test_partition_matches_oracle(g: CanonicalGraph, pes: int, variant: str):
    _assert_same_partition(g, pes, variant)


def test_passive_dags_reach_every_passive_kind():
    """The strategy does generate sources, sinks and buffers."""
    from hypothesis import find

    for kind in (NodeKind.SOURCE, NodeKind.SINK, NodeKind.BUFFER):
        find(passive_dags(),
             lambda g, kind=kind: any(g.spec(v).kind is kind for v in g.nodes),
             settings=settings(max_examples=200, deadline=None))


def _schedule_doc(schedule) -> str:
    from repro.core.serialize import schedule_to_dict

    return json.dumps(schedule_to_dict(schedule))


@common
@given(st.one_of(canonical_dags(), passive_dags()), st.integers(1, 6),
       st.sampled_from(["lts", "rlx", "work"]))
def test_schedule_bytes_match_oracle(g: CanonicalGraph, pes: int, variant: str):
    """The served pipeline's schedule document — partition, sweep and
    FIFO sizing — equals the name-keyed oracle's byte for byte, on the
    installed array path and on the pure-Python sweep."""
    from oracles.scheduler_reference import schedule_streaming_reference
    from repro.core.partition import partition_by_work
    from repro.core.scheduler import schedule_sweep_python

    want = _schedule_doc(schedule_streaming_reference(g, pes, variant))
    assert _schedule_doc(schedule_streaming(g, pes, variant)) == want
    part = (partition_by_work(g, pes) if variant == "work"
            else compute_spatial_blocks(g, pes, variant))
    assert _schedule_doc(schedule_sweep_python(g, part, pes)) == want


@pytest.mark.parametrize("pes", [3, 128])
@pytest.mark.parametrize("case", ["layered-2k", "serpar-2k", "transformer"])
def test_partition_matches_oracle_fixed(case: str, pes: int):
    """Serving-shaped graphs, and an ML graph with sources, buffers and
    sinks at a size the generated DAGs above never reach."""
    if case == "transformer":
        from repro.ml import build_transformer_encoder

        g = build_transformer_encoder(seq_len=16, d_model=64, num_heads=4,
                                      d_ff=128, max_parallel=16)
    else:
        g = random_canonical_graph(case.split("-")[0], 2000, seed=11)
    for variant in ("lts", "rlx", "work"):
        _assert_same_partition(g, pes, variant)


@common
@given(canonical_dags())
def test_levels_match_oracle(g: CanonicalGraph):
    from oracles.scheduler_reference import _node_levels

    assert IndexedGraph(g).levels_by_name() == _node_levels(g)


# ----------------------------------------------------------------------
# one parse path: the wire ingest vs the networkx oracle parse
# ----------------------------------------------------------------------

_BAD_VOLUMES = (0, -1, 1, 3, 2.5, True, "4", None)


def _parse_outcome(parse, doc: dict):
    """The arrays a parse yields, or the type and message it raised."""
    try:
        ig = parse(json.loads(json.dumps(doc)))
    except Exception as exc:
        return type(exc), str(exc)
    return (ig.names, ig.kinds, ig.in_vol, ig.out_vol, ig.succ_ptr,
            ig.succ_adj, ig.pred_ptr, ig.pred_adj, ig.topo)


def _oracle(doc: dict) -> IndexedGraph:
    return IndexedGraph(parse_graph_doc(doc))


def _corrupt(doc: dict, rng, how: str) -> None:
    nodes, edges = doc["nodes"], doc["edges"]
    if how == "kind":
        rng.choice(nodes)["kind"] = rng.choice(
            [k.value for k in NodeKind] + ["quantum"])
    elif how == "volume":
        node = rng.choice(nodes)
        node[rng.choice(["input_volume", "output_volume"])] = rng.choice(
            _BAD_VOLUMES)
    elif how == "dangling":
        name = rng.choice(nodes)["name"]
        edge = [name, "ghost"] if rng.random() < 0.5 else ["ghost", name]
        edges.insert(rng.randrange(len(edges) + 1), edge)
    else:  # close a cycle: walk forward from an edge's head, link back
        succs: dict = {}
        for u, v in edges:
            succs.setdefault(json.dumps(u), []).append(v)
        u, w = rng.choice(edges)
        for _ in range(rng.randrange(4)):
            nxt = succs.get(json.dumps(w))
            if not nxt:
                break
            w = rng.choice(nxt)
        edges.insert(rng.randrange(len(edges) + 1), [w, u])


@common
@given(
    st.sampled_from(["layered", "serpar"]),
    st.integers(6, 40),
    st.integers(0, 10_000),
    st.integers(0, 3),
    st.sampled_from(["kind", "volume", "dangling", "cycle"]),
    st.randoms(use_true_random=False),
)
def test_ingest_matches_oracle_parse(topo, size, seed, dups, how, rng):
    """Shuffled node and edge order and repeated edges give the oracle's
    arrays; one corruption gives the oracle's exception and message
    (or, when it happens to stay canonical, the oracle's arrays)."""
    doc = graph_to_dict(random_canonical_graph(topo, size, seed=seed))
    rng.shuffle(doc["nodes"])
    doc["edges"] += [list(rng.choice(doc["edges"])) for _ in range(dups)]
    rng.shuffle(doc["edges"])
    clean = _parse_outcome(_oracle, doc)
    assert isinstance(clean[0], list)
    assert _parse_outcome(ingest_graph_doc, doc) == clean

    _corrupt(doc, rng, how)
    assert _parse_outcome(ingest_graph_doc, doc) == _parse_outcome(_oracle, doc)
