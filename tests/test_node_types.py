"""Unit tests for the canonical node taxonomy."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.node_types import (
    COMPUTATIONAL_KINDS,
    PASSIVE_KINDS,
    NodeKind,
    NodeSpec,
    classify_rate,
)


class TestClassifyRate:
    def test_elementwise(self):
        assert classify_rate(8, 8) is NodeKind.ELEMENTWISE

    def test_downsampler(self):
        assert classify_rate(8, 1) is NodeKind.DOWNSAMPLER

    def test_upsampler(self):
        assert classify_rate(2, 16) is NodeKind.UPSAMPLER

    def test_non_integer_ratio(self):
        assert classify_rate(3, 2) is NodeKind.DOWNSAMPLER
        assert classify_rate(2, 3) is NodeKind.UPSAMPLER

    @pytest.mark.parametrize("i,o", [(0, 5), (5, 0), (-1, 5), (5, -2)])
    def test_rejects_nonpositive(self, i, o):
        with pytest.raises(ValueError):
            classify_rate(i, o)


class TestNodeSpec:
    def test_production_rate_exact(self):
        spec = NodeSpec("d", NodeKind.DOWNSAMPLER, 3, 2)
        assert spec.production_rate == Fraction(2, 3)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec("x", NodeKind.UPSAMPLER, 8, 4)  # actually a downsampler

    def test_source_constraints(self):
        NodeSpec("s", NodeKind.SOURCE, 0, 8)
        with pytest.raises(ValueError):
            NodeSpec("s", NodeKind.SOURCE, 1, 8)
        with pytest.raises(ValueError):
            NodeSpec("s", NodeKind.SOURCE, 0, 0)

    def test_sink_constraints(self):
        NodeSpec("t", NodeKind.SINK, 8, 0)
        with pytest.raises(ValueError):
            NodeSpec("t", NodeKind.SINK, 8, 1)
        with pytest.raises(ValueError):
            NodeSpec("t", NodeKind.SINK, 0, 0)

    def test_buffer_needs_positive_volumes(self):
        NodeSpec("b", NodeKind.BUFFER, 4, 12)
        with pytest.raises(ValueError):
            NodeSpec("b", NodeKind.BUFFER, 0, 12)

    def test_source_has_no_production_rate(self):
        spec = NodeSpec("s", NodeKind.SOURCE, 0, 8)
        with pytest.raises(ValueError):
            _ = spec.production_rate

    def test_sink_rate_zero(self):
        assert NodeSpec("t", NodeKind.SINK, 8, 0).production_rate == 0

    def test_work_is_max_of_volumes(self):
        assert NodeSpec("e", NodeKind.ELEMENTWISE, 8, 8).work == 8
        assert NodeSpec("d", NodeKind.DOWNSAMPLER, 32, 4).work == 32
        assert NodeSpec("u", NodeKind.UPSAMPLER, 4, 32).work == 32

    def test_passive_work_is_zero(self):
        assert NodeSpec("b", NodeKind.BUFFER, 8, 8).work == 0
        assert NodeSpec("s", NodeKind.SOURCE, 0, 8).work == 0
        assert NodeSpec("t", NodeKind.SINK, 8, 0).work == 0


class TestKindSets:
    def test_partition_of_kinds(self):
        assert COMPUTATIONAL_KINDS | PASSIVE_KINDS == frozenset(NodeKind)
        assert not COMPUTATIONAL_KINDS & PASSIVE_KINDS

    def test_kind_properties(self):
        assert NodeKind.ELEMENTWISE.is_computational
        assert not NodeKind.BUFFER.is_computational
        assert NodeKind.BUFFER.is_passive
        assert not NodeKind.DOWNSAMPLER.is_passive


class TestKindHash:
    """``NodeKind`` hashes by identity (a C-level hash): members compare
    by identity, so kind sets and kind-keyed dicts behave as before."""

    def test_pickled_kind_keeps_its_set_membership(self):
        back = {k: pickle.loads(pickle.dumps(k)) for k in NodeKind}
        assert {k for k, b in back.items() if b in PASSIVE_KINDS} == {
            NodeKind.BUFFER, NodeKind.SOURCE, NodeKind.SINK}
        assert {k for k, b in back.items() if b in COMPUTATIONAL_KINDS} == {
            NodeKind.ELEMENTWISE, NodeKind.DOWNSAMPLER, NodeKind.UPSAMPLER}
        assert {b: k for k, b in back.items()} == {k: k for k in NodeKind}

    def test_fingerprint_and_schedule_bytes_ignore_the_hash_seed(self):
        code = (
            "import hashlib\n"
            "from repro.core import schedule_streaming\n"
            "from repro.core.graph import graph_fingerprint\n"
            "from repro.core.serialize import schedule_doc_bytes\n"
            "from repro.graphs import random_canonical_graph\n"
            "g = random_canonical_graph('layered', 300, seed=4)\n"
            "s = schedule_doc_bytes(schedule_streaming(g, 16, 'rlx'))\n"
            "print(graph_fingerprint(g), hashlib.sha256(s).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=240)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0].strip()
