"""Index-space NSTR-SCH and unit-speed HEFT against the scan oracle.

:mod:`oracles.list_scheduler_scan` keeps the name-keyed scan scheduler
(one ``_Timeline`` per PE, tried in index order).  The runtime
schedulers must reproduce it exactly: the same ``(start, pe)`` per
task, the same makespan, the same scheduling order and byte-identical
schedule documents — the way ``tests/test_indexed.py::assert_golden``
pins the streaming core against its reference.
"""

import json
from functools import lru_cache

import pytest

from repro.baselines import schedule_heft, schedule_nonstreaming
from repro.core.indexed import freeze
from repro.core.ingest import ingest_graph_doc
from repro.core.serialize import graph_to_dict, schedule_doc_bytes, schedule_to_dict
from repro.graphs import random_canonical_graph

from oracles.list_scheduler_scan import scan_heft, scan_nonstreaming

FAMILIES = [
    ("layered", 300),
    ("serpar", 200),
    ("fft", 32),
    ("gaussian", 16),
    ("cholesky", 8),
]
PES = [1, 2, 3, 16, 64, 128]
#: one ~10k-node graph per family, ingested as the service sees it
FAMILIES_10K = [
    ("layered", 10000),
    ("serpar", 10000),
    ("fft", 1024),
    ("gaussian", 140),
    ("cholesky", 38),
]


@lru_cache(maxsize=None)
def small_graph(topo, size, seed):
    return random_canonical_graph(topo, size, seed=seed)


def assert_same_schedule(new, old) -> None:
    assert list(new.placements) == list(old.placements)  # scheduling order
    assert {v: (p.start, p.pe) for v, p in new.placements.items()} == {
        v: (p.start, p.pe) for v, p in old.placements.items()
    }
    assert new.makespan == old.makespan
    blob = schedule_doc_bytes(new)
    assert blob == schedule_doc_bytes(old)
    assert blob == json.dumps(schedule_to_dict(new)).encode()


def assert_nstr_matches(graph, num_pes) -> None:
    new = schedule_nonstreaming(graph, num_pes)
    old = scan_nonstreaming(graph, num_pes)
    # the int columns themselves, before the lazy placements exist
    names = freeze(graph).names
    assert [names[v] for v in new.order_idx] == list(old.placements)
    assert {names[v]: (new.start_idx[v], new.pe_idx[v])
            for v in new.order_idx} == {
        v: (p.start, p.pe) for v, p in old.placements.items()
    }
    assert_same_schedule(new, old)
    assert [[p.name for p in tl] for tl in new.timelines] == [
        [p.name for p in tl] for tl in old.timelines
    ]


class TestNonstreamingOracle:
    @pytest.mark.parametrize("pes", PES)
    @pytest.mark.parametrize("topo,size", FAMILIES)
    def test_sweep(self, topo, size, pes):
        for seed in range(2):
            assert_nstr_matches(small_graph(topo, size, seed), pes)


class TestUnitHeftOracle:
    @pytest.mark.parametrize("pes", PES)
    @pytest.mark.parametrize("topo,size", FAMILIES)
    def test_sweep(self, topo, size, pes):
        for seed in range(2):
            g = small_graph(topo, size, seed)
            assert_same_schedule(
                schedule_heft(g, [1.0] * pes), scan_heft(g, [1.0] * pes)
            )

    def test_heterogeneous_keeps_the_general_loop(self):
        g = small_graph("gaussian", 16, 0)
        speeds = [1.0, 2.0, 0.5, 1.5]
        assert_same_schedule(schedule_heft(g, speeds), scan_heft(g, speeds))
        assert_same_schedule(
            schedule_heft(g, [1.0] * 4, bandwidth=2.0),
            scan_heft(g, [1.0] * 4, bandwidth=2.0),
        )


@pytest.mark.parametrize("topo,size", FAMILIES_10K)
def test_serving_scale_at_128_pes(topo, size):
    """nstr and unit-speed heft on one ingested ~10k-node graph."""
    g = ingest_graph_doc(
        graph_to_dict(random_canonical_graph(topo, size, seed=7))
    )
    assert_nstr_matches(g, 128)
    assert_same_schedule(
        schedule_heft(g, [1.0] * 128), scan_heft(g, [1.0] * 128)
    )


@lru_cache(maxsize=None)
def ml_graph(model):
    from repro.ml import build_resnet50, build_transformer_encoder

    if model == "resnet":
        return build_resnet50(image_size=56, max_parallel=16)
    return build_transformer_encoder(
        seq_len=16, d_model=64, num_heads=4, d_ff=128, max_parallel=16
    )


@pytest.mark.parametrize("pes", [3, 64])
@pytest.mark.parametrize("model", ["resnet", "encoder"])
def test_ml_graphs_through_buffers(model, pes):
    """The ML graphs carry buffers, a source and a sink: ready times
    must look through passive nodes exactly as the name sets did."""
    g = ml_graph(model)
    assert_nstr_matches(g, pes)
    assert_same_schedule(
        schedule_heft(g, [1.0] * pes), scan_heft(g, [1.0] * pes)
    )
