"""Tests for the top-level CLI and the report exporters."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.experiments.export import to_csv, to_json, to_markdown, write_report
from repro.experiments.report import ExperimentReport
from repro.graph.build import from_edges
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g = from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5, name="clifixture")
    p = tmp_path / "g.el"
    write_edge_list(g, p)
    return p


class TestCliCC:
    def test_basic(self, graph_file, capsys):
        assert main(["cc", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "components=2" in out

    def test_verify_flag(self, graph_file, capsys):
        assert main(["cc", str(graph_file), "--verify"]) == 0
        assert "verification: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["serial", "gpu", "omp"])
    def test_backends(self, graph_file, backend):
        assert main(["cc", str(graph_file), "--backend", backend]) == 0

    def test_backend_choices_come_from_registry(self, graph_file, capsys):
        assert main(["cc", str(graph_file), "--backend", "numpy"]) == 0
        numpy_line = capsys.readouterr().out
        assert main(["cc", str(graph_file), "--backend", "contract"]) == 0
        assert capsys.readouterr().out == numpy_line
        assert "components=2" in numpy_line

    def test_unregistered_backend_is_argparse_error(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cc", str(graph_file), "--backend", "no_such_backend"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sizes_and_output(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "labels.npy"
        assert main(["cc", str(graph_file), "--sizes", "2",
                     "--output", str(out_path)]) == 0
        labels = np.load(out_path)
        assert labels.tolist() == [0, 0, 0, 3, 3]
        assert "component 0: 3 vertices" in capsys.readouterr().out


class TestCliStats:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "CCs" in out


class TestCliConvert:
    @pytest.mark.parametrize("ext", [".gr", ".mtx", ".npz", ".el"])
    def test_round_trips(self, graph_file, tmp_path, ext):
        out = tmp_path / f"converted{ext}"
        assert main(["convert", str(graph_file), str(out)]) == 0
        from repro.graph.io import read_auto

        g = read_auto(out)
        assert g.num_edges == 3


class TestCliGenerate:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        assert main(["generate", "internet", str(out), "--scale", "tiny"]) == 0
        from repro.graph.io import load_csr_npz

        g = load_csr_npz(out)
        assert g.num_vertices == 120


@pytest.fixture
def sample_report():
    r = ExperimentReport("figX", "Sample", ["Graph", "A", "B"])
    r.add_row("g1", 1.0, 2.5)
    r.add_row("g2", None, 4.0)
    r.compute_geomean()
    r.notes.append("a note")
    return r


class TestExport:
    def test_csv(self, sample_report, tmp_path):
        p = tmp_path / "r.csv"
        to_csv(sample_report, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0].startswith("Graph,A,B")
        assert "n/a" in lines[2]
        assert len(lines) == 4  # header + 2 rows + geomean

    def test_json(self, sample_report, tmp_path):
        p = tmp_path / "r.json"
        to_json(sample_report, p)
        data = json.loads(p.read_text())
        assert data["experiment_id"] == "figX"
        assert data["notes"] == ["a note"]

    def test_markdown(self, sample_report):
        md = to_markdown(sample_report)
        assert md.startswith("### figX")
        assert "| g1 | 1.000 | 2.500 |" in md
        assert "n/a" in md
        assert "*a note*" in md

    def test_write_report(self, sample_report, tmp_path):
        paths = write_report(sample_report, tmp_path / "out")
        assert all(p.exists() for p in paths.values())


class TestCliProfileMsf:
    def test_profile(self, graph_file, capsys):
        assert main(["profile", str(graph_file), "--scale-cache"]) == 0
        out = capsys.readouterr().out
        assert "compute1" in out and "IPC" in out and "paths:" in out

    def test_profile_k40_jump_variant(self, graph_file, capsys):
        assert main(["profile", str(graph_file), "--device", "k40",
                     "--jump", "Jump2"]) == 0
        assert "K40" in capsys.readouterr().out

    def test_msf(self, graph_file, capsys):
        assert main(["msf", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "MSF has 3 edges in 2 tree(s)" in out

    def test_msf_gpu_crosscheck(self, graph_file, capsys):
        assert main(["msf", str(graph_file), "--gpu", "--seed", "3"]) == 0
        assert "forests identical: True" in capsys.readouterr().out
