"""Tests for the wire ingest path and the event-loop server.

The reference is the networkx parse kept in ``tests/oracles/graph_parse.py``
(``graph_from_dict`` is now a wrapper over the ingest).  Three layers of
protection:

* **golden array/fingerprint equivalence** — ``ingest_graph_doc`` must
  produce an :class:`IndexedGraph` whose every array (ids, CSR
  adjacency, topo order, volumes, works, labels) matches
  ``freeze(parse_graph_doc(doc))`` across the scenario families, and
  whose cg3 fingerprint and scheduled documents are byte-identical;
* **validation parity** — with ``validate=True`` the ingest (and so
  ``graph_from_dict``) raises the same exception types and messages as
  the oracle parse for every malformed-document class, and with two
  faults names the one first in document order;
* **canonical bytes** — the bytes the ingest writes into ``out`` equal
  ``canonical_bytes(doc)`` (a Hypothesis differential), through the
  column writer or its fallback;
* **service equivalence** — the served fingerprint, request key and
  winning schedule document equal those computed directly on
  ``parse_graph_doc(doc)`` across the layered/serpar/paper/ML sweeps,
  and the wire fast path returns the same bytes the slow path would.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CanonicalGraph, schedule_streaming
from repro.core import ingest as ingest_module
from repro.core.graph import CanonicalityError, graph_fingerprint
from repro.core.indexed import IndexedGraph, freeze
from repro.core.ingest import canonical_bytes, ingest_graph_doc
from repro.core.serialize import (
    _name_to_json,
    graph_from_dict,
    graph_to_dict,
    schedule_doc_bytes,
    schedule_to_dict,
)
from repro.graphs import random_canonical_graph
from repro.service import ScheduleCache, ScheduleServer, ScheduleService, ServiceClient
from repro.service.fingerprint import request_key
from repro.service.portfolio import DEFAULT_SCHEDULERS, run_portfolio

from conftest import service_stat
from oracles.graph_parse import parse_graph_doc

FAMILIES = [
    ("layered", 128, 64),
    ("layered", 400, 64),
    ("serpar", 120, 32),
    ("chain", 8, 8),
    ("fft", 32, 16),
    ("gaussian", 16, 32),
    ("cholesky", 8, 16),
]


def _ml_graphs():
    from repro.ml import build_resnet50, build_transformer_encoder

    return [
        (build_resnet50(image_size=56, max_parallel=16), 16),
        (
            build_transformer_encoder(
                seq_len=16, d_model=64, num_heads=4, d_ff=128, max_parallel=16
            ),
            16,
        ),
    ]


class TestIngestGolden:
    @pytest.mark.parametrize("topo,size,pes", FAMILIES)
    def test_arrays_match_legacy_freeze(self, topo, size, pes):
        doc = graph_to_dict(random_canonical_graph(topo, size, seed=1))
        legacy = freeze(parse_graph_doc(doc))
        ig = ingest_graph_doc(doc)
        assert ig.names == legacy.names
        assert ig.index == legacy.index
        assert ig.kinds == legacy.kinds
        assert ig.in_vol == legacy.in_vol
        assert ig.out_vol == legacy.out_vol
        assert ig.comp == legacy.comp
        assert ig.work == legacy.work
        assert ig.labels == legacy.labels
        assert ig.succ_ptr == legacy.succ_ptr
        assert ig.succ_adj == legacy.succ_adj
        assert ig.pred_ptr == legacy.pred_ptr
        assert ig.pred_adj == legacy.pred_adj
        assert ig.topo == legacy.topo
        assert ig.entries == legacy.entries
        assert ig.exits == legacy.exits
        assert ig.num_tasks == legacy.num_tasks

    @pytest.mark.parametrize("topo,size,pes", FAMILIES)
    def test_fingerprint_matches_without_networkx(self, topo, size, pes):
        doc = graph_to_dict(random_canonical_graph(topo, size, seed=2))
        ig = ingest_graph_doc(doc)
        assert graph_fingerprint(ig) == graph_fingerprint(parse_graph_doc(doc))
        # the streaming fingerprint never touched networkx
        assert ig._graph is None

    @pytest.mark.parametrize("topo,size,pes", FAMILIES)
    @pytest.mark.parametrize("variant", ["lts", "rlx", "work"])
    def test_schedules_byte_identical(self, topo, size, pes, variant):
        doc = graph_to_dict(random_canonical_graph(topo, size, seed=0))
        ig = ingest_graph_doc(doc)
        a = json.dumps(schedule_to_dict(schedule_streaming(ig, pes, variant)))
        b = json.dumps(
            schedule_to_dict(schedule_streaming(parse_graph_doc(doc), pes, variant))
        )
        assert a == b
        assert ig._graph is None  # scheduling ran on the arrays alone

    def test_ml_builders_roundtrip(self):
        for graph, pes in _ml_graphs():
            doc = graph_to_dict(graph)
            ig = ingest_graph_doc(doc)
            assert graph_fingerprint(ig) == graph_fingerprint(graph)
            a = json.dumps(schedule_to_dict(schedule_streaming(ig, pes, "lts")))
            b = json.dumps(schedule_to_dict(schedule_streaming(graph, pes, "lts")))
            assert a == b

    def test_trusted_ingest_same_arrays(self):
        doc = graph_to_dict(random_canonical_graph("fft", 16, seed=3))
        a, b = ingest_graph_doc(doc), ingest_graph_doc(doc, validate=False)
        assert a.names == b.names and a.succ_adj == b.succ_adj
        assert a.topo == b.topo and a.work == b.work

    def test_tuple_names_survive(self):
        # the paper topologies name nodes with tuples; the wire tags them
        doc = graph_to_dict(random_canonical_graph("cholesky", 6, seed=0))
        ig = ingest_graph_doc(doc)
        assert any(isinstance(n, tuple) for n in ig.names)
        assert graph_to_dict(ig.graph) == doc

    def test_materialized_graph_adopts_the_view(self):
        doc = graph_to_dict(random_canonical_graph("gaussian", 8, seed=1))
        ig = ingest_graph_doc(doc)
        g = ig.graph  # lazy materialization
        assert isinstance(g, CanonicalGraph)
        assert freeze(g) is ig
        assert graph_to_dict(g) == doc
        g.validate()  # the twin is a fully valid canonical graph

    def test_nonstreaming_and_heft_run_on_ingested_graphs(self):
        from repro.baselines import schedule_heft, schedule_nonstreaming

        doc = graph_to_dict(random_canonical_graph("layered", 96, seed=4))
        ig = ingest_graph_doc(doc)
        legacy = parse_graph_doc(doc)
        a = schedule_nonstreaming(ig, 16)
        b = schedule_nonstreaming(legacy, 16)
        assert json.dumps(schedule_to_dict(a)) == json.dumps(schedule_to_dict(b))
        assert schedule_heft(ig, [1.0] * 16).makespan == \
            schedule_heft(legacy, [1.0] * 16).makespan
        assert ig._graph is None  # neither baseline materialized networkx


class TestScheduleDocBytes:
    @pytest.mark.parametrize("topo,size,pes", FAMILIES[:4])
    @pytest.mark.parametrize("variant", ["lts", "rlx"])
    def test_streaming_bytes_match_json_dumps(self, topo, size, pes, variant):
        ig = ingest_graph_doc(
            graph_to_dict(random_canonical_graph(topo, size, seed=5))
        )
        s = schedule_streaming(ig, pes, variant)
        assert schedule_doc_bytes(s) == json.dumps(schedule_to_dict(s)).encode()

    def test_list_schedule_bytes_match(self):
        from repro.baselines import schedule_nonstreaming

        g = random_canonical_graph("fft", 16, seed=1)
        s = schedule_nonstreaming(g, 8)
        assert schedule_doc_bytes(s) == json.dumps(schedule_to_dict(s)).encode()

    def test_out_buffer_is_appended(self):
        g = random_canonical_graph("chain", 6, seed=0)
        s = schedule_streaming(g, 4, "lts")
        buf = bytearray(b"prefix:")
        blob = schedule_doc_bytes(s, out=buf)
        assert bytes(buf) == b"prefix:" + blob


class TestValidationParity:
    """Same exception type and message as the networkx oracle parse,
    through ``ingest_graph_doc`` and through ``graph_from_dict``."""

    def _both(self, doc):
        errors = []
        for parse in (parse_graph_doc, ingest_graph_doc, graph_from_dict):
            try:
                parse(json.loads(json.dumps(doc)))
                errors.append(None)
            except Exception as exc:
                errors.append((type(exc), str(exc)))
        assert errors[0] is not None, "expected the oracle parser to raise"
        assert errors[0] == errors[1] == errors[2]
        return errors[0]

    def _doc(self, **overrides):
        g = CanonicalGraph()
        g.add_source("s", 4)
        g.add_task("t", 4, 4)
        g.add_sink("k", 4)
        g.add_edge("s", "t")
        g.add_edge("t", "k")
        doc = graph_to_dict(g)
        doc.update(overrides)
        return doc

    def test_wrong_format(self):
        exc_type, msg = self._both({"format": "nope"})
        assert exc_type is ValueError and "not a canonical task graph" in msg

    def test_wrong_version(self):
        exc_type, msg = self._both(self._doc(version=99))
        assert exc_type is ValueError and "unsupported version" in msg

    def test_bad_kind(self):
        doc = self._doc()
        doc["nodes"][1]["kind"] = "quantum"
        exc_type, msg = self._both(doc)
        assert exc_type is ValueError and "quantum" in msg

    def test_duplicate_node(self):
        doc = self._doc()
        doc["nodes"].append(dict(doc["nodes"][1]))
        exc_type, msg = self._both(doc)
        assert exc_type is CanonicalityError and "duplicate node" in msg

    def test_bad_volumes_for_kind(self):
        doc = self._doc()
        doc["nodes"][0]["input_volume"] = 3  # a source must have I == 0
        exc_type, msg = self._both(doc)
        assert exc_type is ValueError and "must have I(v) == 0" in msg

    def test_kind_rate_mismatch(self):
        doc = self._doc()
        doc["nodes"][1]["kind"] = "downsampler"  # volumes say elementwise
        exc_type, msg = self._both(doc)
        assert exc_type is ValueError and "imply" in msg

    def test_unknown_edge_endpoint(self):
        doc = self._doc()
        doc["edges"].append(["t", "ghost"])
        exc_type, msg = self._both(doc)
        assert exc_type is KeyError and "ghost" in msg

    def test_sink_with_outgoing_edge(self):
        doc = self._doc()
        doc["edges"].append(["k", "t"])
        exc_type, msg = self._both(doc)
        assert exc_type is CanonicalityError and "cannot have outgoing" in msg

    def test_source_with_incoming_edge(self):
        doc = self._doc()
        doc["edges"].append(["t", "s"])
        exc_type, msg = self._both(doc)
        assert exc_type is CanonicalityError and "cannot have incoming" in msg

    def test_volume_mismatch_on_edge(self):
        doc = self._doc()
        doc["nodes"][1]["input_volume"] = 2
        doc["nodes"][1]["output_volume"] = 2
        exc_type, msg = self._both(doc)
        assert exc_type is CanonicalityError and "volume" in msg

    def test_cycle_detected(self):
        g = CanonicalGraph()
        g.add_task("a", 4, 4)
        g.add_task("b", 4, 4)
        g.add_edge("a", "b")
        doc = graph_to_dict(g)
        doc["edges"].append(["b", "a"])
        exc_type, msg = self._both(doc)
        assert exc_type is CanonicalityError and "acyclic" in msg

    def test_duplicate_edges_are_idempotent(self):
        doc = self._doc()
        doc["edges"].append(list(doc["edges"][0]))  # nx dedupes silently
        legacy = freeze(parse_graph_doc(json.loads(json.dumps(doc))))
        ig = ingest_graph_doc(json.loads(json.dumps(doc)))
        assert ig.succ_adj == legacy.succ_adj
        assert ig.pred_adj == legacy.pred_adj

    @pytest.mark.parametrize("volume", [2.5, True, "4", None, 4.0])
    def test_non_integer_volume(self, volume):
        doc = self._doc()
        doc["nodes"][1]["input_volume"] = volume
        exc_type, msg = self._both(doc)
        assert exc_type is ValueError
        assert msg == (
            f"node 't': volumes must be integers, got I={volume!r}, O=4")

    def _chain(self):
        """s -> t1 -> t2 -> t3 -> k, every volume 4."""
        g = CanonicalGraph()
        g.add_source("s", 4)
        for i in (1, 2, 3):
            g.add_task(f"t{i}", 4, 4)
        g.add_sink("k", 4)
        for u, v in [("s", "t1"), ("t1", "t2"), ("t2", "t3"), ("t3", "k")]:
            g.add_edge(u, v)
        return graph_to_dict(g)

    def test_first_node_fault_wins_over_a_later_bad_kind(self):
        doc = self._chain()
        doc["nodes"][3]["kind"] = "quantum"
        doc["nodes"][1]["input_volume"] = 0
        exc_type, msg = self._both(doc)
        assert exc_type is ValueError
        assert "input_volume > 0" in msg and "quantum" not in msg

    def test_first_edge_fault_wins_over_a_later_unknown_endpoint(self):
        doc = self._chain()
        doc["nodes"][1]["input_volume"] = doc["nodes"][1]["output_volume"] = 2
        doc["edges"][2] = ["t2", "ghost"]
        exc_type, msg = self._both(doc)
        assert exc_type is CanonicalityError
        assert msg.startswith("edge ('s', 't1'): producer volume")


_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\u2028", "é", "名前", "😀"]),
)


@st.composite
def _graph_docs(draw):
    """A valid graph document (a source, then elementwise tasks, forward
    edges with repeats) and whether it has something the column writer
    does not model."""
    tuples, unlabelled, node_extra, doc_extra = (
        draw(st.integers(0, 4)) == 0 for _ in range(4))
    name = st.one_of(st.integers(-(10**12), 10**12), _TEXT)
    if tuples:
        name = st.one_of(name, st.tuples(st.integers(0, 9), _TEXT))
    names = draw(st.lists(name, min_size=1, max_size=8, unique=True))
    volume = draw(st.sampled_from([1, 4, 64]))
    nodes = []
    for i, v in enumerate(names):
        node = {"name": _name_to_json(v),
                "kind": "elementwise" if i else "source",
                "input_volume": volume if i else 0, "output_volume": volume,
                "label": draw(_TEXT)}
        nodes.append({k: node[k] for k in draw(st.permutations(list(node)))})
    if unlabelled:
        del draw(st.sampled_from(nodes))["label"]
    if node_extra:
        draw(st.sampled_from(nodes))["metadata"] = draw(_TEXT)
    pairs = draw(st.lists(st.tuples(st.integers(0, len(names) - 1),
                                    st.integers(0, len(names) - 1)),
                          max_size=12))
    doc = {
        "format": "canonical-task-graph", "version": 1, "nodes": nodes,
        "edges": [[_name_to_json(names[min(a, b)]),
                   _name_to_json(names[max(a, b)])]
                  for a, b in pairs if a != b],
    }
    if doc_extra:
        doc["comment"] = draw(_TEXT)
    doc = {k: doc[k] for k in draw(st.permutations(list(doc)))}
    fallback = (unlabelled or node_extra or doc_extra
                or any(type(v) is tuple for v in names))
    return json.loads(json.dumps(doc)), fallback


class TestCanonicalWriter:
    """``ingest_graph_doc(doc, out=...)`` appends exactly
    ``canonical_bytes(doc)``, written from the columns when the writer
    models the document and by the fallback dump when it does not."""

    @given(case=_graph_docs())
    @settings(max_examples=200, deadline=None)
    def test_written_bytes_equal_the_canonical_dump(self, case):
        doc, fallback = case
        expected = canonical_bytes(doc)
        for validate in (True, False):
            out = bytearray(b"head")
            with mock.patch.object(ingest_module, "canonical_bytes",
                                   wraps=canonical_bytes) as dump:
                ingest_graph_doc(doc, validate, out)
            assert out == b"head" + expected
            assert dump.called == fallback

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["edges"].append([1.0, 2]),
                     id="float-endpoint"),
        pytest.param(lambda doc: doc["edges"].append([True, 2]),
                     id="bool-endpoint"),
        pytest.param(lambda doc: doc.update(version=True),
                     id="bool-version"),
        pytest.param(lambda doc: doc["nodes"][1].update(label=None),
                     id="null-label"),
        pytest.param(lambda doc: doc["edges"].append((0, 1)),
                     id="tuple-edge"),
    ])
    def test_values_the_writer_does_not_encode_take_the_dump(self, edit):
        g = CanonicalGraph()
        g.add_source(0, 4)
        g.add_task(1, 4, 4)
        g.add_task(2, 4, 4)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        doc = graph_to_dict(g)
        edit(doc)
        for validate in (True, False):
            out = bytearray()
            ingest_graph_doc(doc, validate, out)
            assert out == canonical_bytes(doc)


class TestOneParsePath:
    def test_graph_from_dict_is_the_ingest(self):
        doc = graph_to_dict(random_canonical_graph("serpar", 60, seed=2))
        g = graph_from_dict(doc)
        ig = g._cache["indexed"]  # a loaded graph comes with its view
        assert freeze(g) is ig and ig.graph is g
        oracle = freeze(parse_graph_doc(doc))
        assert (ig.names, ig.succ_adj, ig.pred_adj, ig.topo) == (
            oracle.names, oracle.succ_adj, oracle.pred_adj, oracle.topo)

    def test_validated_ingest_builds_no_node_spec(self, monkeypatch):
        from repro.core.node_types import NodeSpec

        doc = graph_to_dict(random_canonical_graph("layered", 200, seed=3))
        built = []
        post_init = NodeSpec.__post_init__

        def counting(spec):
            built.append(spec.name)
            post_init(spec)

        monkeypatch.setattr(NodeSpec, "__post_init__", counting)
        ig = ingest_graph_doc(doc)
        assert built == []
        fingerprint = graph_fingerprint(ig)
        schedule_doc_bytes(schedule_streaming(ig, 16, "rlx"))
        assert built == []  # neither does fingerprinting nor scheduling
        assert ig.spec(ig.names[0]).name == ig.names[0]  # made on demand
        assert len(built) == ig.n
        assert graph_fingerprint(ingest_graph_doc(doc)) == fingerprint

    def test_trusted_ingest_still_refuses_a_cycle(self):
        g = CanonicalGraph()
        g.add_task("a", 4, 4)
        g.add_task("b", 4, 4)
        g.add_edge("a", "b")
        doc = graph_to_dict(g)
        doc["edges"].append(["b", "a"])
        with pytest.raises(CanonicalityError, match="acyclic"):
            ingest_graph_doc(doc, validate=False)

    def test_freezing_a_cyclic_graph_raises_the_ingest_error(self):
        g = CanonicalGraph()
        g.add_task("a", 4, 4)
        g.add_task("b", 4, 4)
        g.add_edge("a", "b")
        g.nx.add_edge("b", "a")  # through the escape hatch
        with pytest.raises(CanonicalityError, match="acyclic"):
            IndexedGraph(g)


def _assert_matches_networkx_path(response: dict, doc: dict) -> None:
    """The served answer must equal the fingerprint and the portfolio
    winner computed directly on ``parse_graph_doc(doc)``, byte for byte."""
    graph = parse_graph_doc(json.loads(json.dumps(doc["graph"])))
    fp = graph_fingerprint(graph)
    result = run_portfolio(graph, doc["num_pes"])
    assert response["ok"]
    assert response["fingerprint"] == fp
    assert response["key"] == request_key(
        fp, doc["num_pes"], "makespan", DEFAULT_SCHEDULERS)
    assert response["winner"] == result.winner.name
    assert response["makespan"] == result.winner.makespan
    assert [(c["name"], c["makespan"]) for c in response["candidates"]] == [
        (c.name, c.makespan) for c in result.candidates]
    assert json.dumps(response["schedule"], sort_keys=True) == \
        json.dumps(result.schedule_doc(), sort_keys=True)


class TestServiceEquivalence:
    """Served answers vs the networkx path computed directly."""

    @pytest.mark.parametrize("topo,size,pes", [
        ("layered", 128, 64),
        ("serpar", 120, 32),
        ("fft", 32, 16),
        ("gaussian", 16, 32),
        ("cholesky", 8, 16),
        ("chain", 8, 8),
    ])
    def test_byte_identical_schedule_responses(self, topo, size, pes):
        doc = {
            "op": "schedule",
            "graph": graph_to_dict(random_canonical_graph(topo, size, seed=7)),
            "num_pes": pes,
        }
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        response = service.handle(json.loads(json.dumps(doc)))
        _assert_matches_networkx_path(response, doc)

    def test_ml_responses_match(self):
        for graph, pes in _ml_graphs():
            doc = {"op": "schedule", "graph": graph_to_dict(graph),
                   "num_pes": pes}
            response = ScheduleService().handle(json.loads(json.dumps(doc)))
            _assert_matches_networkx_path(response, doc)

    def test_relabeled_hit_remaps_on_ingest_path(self):
        from tests.test_service import relabel

        g = random_canonical_graph("fft", 8, seed=1)
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        service.handle({"op": "schedule", "graph": graph_to_dict(g),
                        "num_pes": 8})
        renamed = relabel(g)
        response = service.handle({
            "op": "schedule", "graph": graph_to_dict(renamed), "num_pes": 8,
        })
        assert response["cached"] == "lru" and service_stat(service, "remapped") == 1
        names = {t["name"] for t in response["schedule"]["tasks"]}
        assert names and names <= set(renamed.nodes)


class TestWireFastPath:
    """The line/prefix memos must be pure memoization of the slow path."""

    def _line(self, seed=0, **extra):
        g = random_canonical_graph("fft", 8, seed=seed)
        doc = {"op": "schedule", "graph": graph_to_dict(g), "num_pes": 8}
        doc.update(extra)
        return json.dumps(doc).encode()

    def test_fast_path_bytes_match_slow_path(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        line = self._line()
        assert service.serve_line_fast(line) is None  # nothing memoized yet
        cold, _ = service.serve_line_slow(line)
        fast = service.serve_line_fast(line)
        assert fast is not None
        slow, _ = service.serve_line_slow(line)

        def normalize(data: bytes) -> str:
            doc = json.loads(data)
            doc.pop("elapsed_ms")
            return json.dumps(doc, sort_keys=True)

        cold_doc = json.loads(cold)
        assert cold_doc["cached"] is False
        assert normalize(fast) == normalize(slow)
        assert json.loads(fast)["cached"] == "lru"
        assert service_stat(service, "fastpath") == 1

    def test_no_cache_lines_never_take_the_fast_path(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        line = self._line(no_cache=True)
        service.serve_line_slow(line)
        assert service.serve_line_fast(line) is None
        service.serve_line_slow(line)
        assert service_stat(service, "computed") == 2  # every replay recomputes

    def test_hinted_replay_skips_the_ingest(self, monkeypatch):
        from repro.service import server as server_module

        calls = {"ingest": 0, "fingerprint": 0}

        def counting(name):
            real = getattr(server_module, name)

            def wrapper(*args, **kwargs):
                calls[name.split("_")[0]] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(server_module, name, wrapper)

        counting("ingest_graph_doc")
        counting("fingerprint_graph_doc")
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        line = self._line(no_cache=True)
        service.serve_line_slow(line)
        assert service._lines[line][0] is None  # the record holds a digest
        assert calls == {"ingest": 1, "fingerprint": 1}
        # the replay's digest hits the graph memo before any ingest
        assert json.loads(service.serve_line_slow(line)[0])["ok"]
        assert calls == {"ingest": 1, "fingerprint": 1}
        # a first-seen line of a known document ingests to find its
        # digest, then finds the fingerprint memoized
        other = self._line(no_cache=True, num_pes=4)
        assert json.loads(service.serve_line_slow(other)[0])["ok"]
        assert calls == {"ingest": 2, "fingerprint": 1}

    def test_memo_budget_bounds_memory(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=64))
        service._WIRE_MEMO_BUDGET = 1
        for seed in range(3):
            service.serve_line_slow(self._line(seed=seed))
        # over-budget inserts clear the memos instead of growing them
        assert len(service._lines) <= 1
        assert len(service._prefix_memo) <= 1

    def test_line_that_crosses_the_budget_replays_fast(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        service.serve_line_slow(self._line(seed=0))
        held = service.handle({"op": "stats"})["wire_memo"]["bytes"]
        # the first line fits exactly; the second (a larger graph) crosses
        service._WIRE_MEMO_BUDGET = held
        g = random_canonical_graph("fft", 16, seed=1)
        line = json.dumps({"op": "schedule", "graph": graph_to_dict(g),
                           "num_pes": 8}).encode()
        data, _ = service.serve_line_slow(line)
        assert service.handle({"op": "stats"})["wire_memo"]["clears"] >= 1
        replay = service.serve_line_fast(line)
        assert replay is not None  # the crossing records were kept
        first, again = json.loads(data), json.loads(replay)
        assert again["cached"] == "lru"
        assert again["schedule"] == first["schedule"]

    def test_refused_lines_are_not_memoized(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        for seed in range(3):
            data, _ = service.serve_line_slow(
                self._line(seed=seed, num_pes="64"))
            assert not json.loads(data)["ok"]
        assert service.handle({"op": "stats"})["wire_memo"]["bytes"] == 0

    def test_served_line_is_charged_the_bytes_it_holds(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        line = self._line()
        service.serve_line_slow(line)
        [(meta, sched)] = service._prefix_memo.values()
        charged = service.handle({"op": "stats"})["wire_memo"]["bytes"]
        assert charged == len(line) + len(meta) + len(sched)
        service.serve_line_slow(line)  # a replay holds nothing new
        assert service.handle({"op": "stats"})["wire_memo"]["bytes"] == charged

    def test_pipelined_requests_answered_in_order(self):
        service = ScheduleService(cache=ScheduleCache(None, capacity=8))
        with ScheduleServer(service, port=0, workers=2) as server:
            import socket as socketlib

            with socketlib.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                # one cold compute then two pings, written back-to-back:
                # responses must come back in request order
                batch = self._line() + b'\n{"op": "ping"}\n{"op": "stats"}\n'
                sock.sendall(batch)
                stream = sock.makefile("rb")
                first = json.loads(stream.readline())
                second = json.loads(stream.readline())
                third = json.loads(stream.readline())
        assert first["op"] == "schedule" and first["ok"]
        assert second["op"] == "ping"
        # processing may interleave (stats can run while the schedule
        # computes) but the responses must come back in request order
        assert third["op"] == "stats" and third["ok"]

    def test_idle_connections_cost_no_threads(self):
        import threading

        service = ScheduleService()
        with ScheduleServer(service, port=0, workers=1) as server:
            before = threading.active_count()
            clients = [
                ServiceClient(port=server.port, timeout=5.0) for _ in range(20)
            ]
            try:
                assert clients[-1].ping()["ok"]
                # 20 idle connections: at most the loop thread plus a
                # transiently live worker — not thread-per-connection
                assert threading.active_count() <= before + 2
            finally:
                for c in clients:
                    c.close()
