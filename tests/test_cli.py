"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert main(["generate", "fft", "8", "-o", str(path), "--seed", "1"]) == 0
    return path


class TestGenerateInfo:
    def test_generate_writes_valid_graph(self, graph_file):
        doc = json.loads(graph_file.read_text())
        assert doc["format"] == "canonical-task-graph"
        assert len(doc["nodes"]) == 39  # FFT with 8 points: 2N-1 + N log N

    def test_info_prints_stats(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "streaming depth" in out
        assert "T1" in out


class TestSchedule:
    def test_streaming_schedule_with_artifacts(self, graph_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        trace = tmp_path / "t.json"
        rc = main(
            [
                "schedule", str(graph_file), "-p", "8", "--scheduler", "rlx",
                "-o", str(sched), "--trace", str(trace), "--gantt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "PE0" in out  # gantt printed
        assert json.loads(sched.read_text())["num_pes"] == 8
        assert isinstance(json.loads(trace.read_text()), list)

    def test_nonstreaming_schedule(self, graph_file, capsys):
        assert main(["schedule", str(graph_file), "-p", "4", "--scheduler", "nstr"]) == 0
        assert "NSTR-SCH" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_ok(self, graph_file, capsys):
        assert main(["simulate", str(graph_file), "-p", "8"]) == 0
        assert "error" in capsys.readouterr().out

    def test_simulate_greedy_pacing(self, graph_file):
        assert main(["simulate", str(graph_file), "-p", "8", "--pacing", "greedy"]) == 0

    def test_selection_flags_are_gone(self, graph_file, capsys):
        for flag, value in (("--engine", "reference"), ("--backend", "numpy")):
            with pytest.raises(SystemExit) as info:
                main(["simulate", str(graph_file), "-p", "8", flag, value])
            assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_simulate_policy_flag(self, graph_file):
        for policy in ("barrier", "pe", "dataflow"):
            assert main(["simulate", str(graph_file), "-p", "8",
                         "--policy", policy]) == 0

    def test_simulate_output_and_trace(self, graph_file, tmp_path, capsys):
        out = tmp_path / "sim.json"
        trace = tmp_path / "sim_trace.json"
        assert main(["simulate", str(graph_file), "-p", "8",
                     "-o", str(out), "--trace", str(trace)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "streaming-simulation"
        assert doc["makespan"] > 0 and not doc["deadlocked"]
        events = json.loads(trace.read_text())
        assert events and all(ev["ph"] == "X" for ev in events)
        assert "written to" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_topology_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "hypercube", "8", "-o", str(tmp_path / "x.json")]
            )
