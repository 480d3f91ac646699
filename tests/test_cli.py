"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import aids_like
from repro.graph import save_graphs

from .conftest import path_graph


@pytest.fixture
def collection_file(tmp_path):
    graphs = aids_like(num_graphs=15, seed=4)
    path = tmp_path / "graphs.txt"
    save_graphs(graphs, path)
    return str(path)


@pytest.fixture
def tiny_file(tmp_path):
    a = path_graph(["C", "C", "O"], graph_id=0)
    b = path_graph(["C", "C", "N"], graph_id=1)
    path = tmp_path / "tiny.txt"
    save_graphs([a, b], path)
    return str(path)


class TestJoinCommand:
    def test_join_runs_and_prints_pairs(self, collection_file, capsys):
        code = main(["join", collection_file, "--tau", "2"])
        assert code == 0
        out = capsys.readouterr()
        assert "results=" in out.err  # summary on stderr
        for line in out.out.splitlines():
            a, b = line.split("\t")
            assert a != b

    def test_join_quiet(self, collection_file, capsys):
        assert main(["join", collection_file, "--tau", "1", "--quiet"]) == 0
        assert "results=" not in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["kat", "appfull", "naive"])
    def test_join_baselines_agree(self, tiny_file, capsys, algorithm):
        main(["join", tiny_file, "--tau", "1", "--quiet"])
        expected = capsys.readouterr().out
        main(["join", tiny_file, "--tau", "1", "--quiet", "--algorithm", algorithm])
        assert capsys.readouterr().out == expected

    def test_join_variants(self, tiny_file, capsys):
        for variant in ("basic", "minedit", "full"):
            assert main(
                ["join", tiny_file, "--tau", "1", "--variant", variant, "--quiet"]
            ) == 0

    def test_missing_file_reports_error(self, capsys):
        assert main(["stats", "/nonexistent/file.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_collection_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["join", str(empty), "--tau", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGedCommand:
    def test_ged_by_id(self, tiny_file, capsys):
        assert main(["ged", tiny_file, "0", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_ged_with_threshold_exceeded(self, tiny_file, capsys):
        assert main(["ged", tiny_file, "0", "1", "--tau", "0"]) == 0
        assert capsys.readouterr().out.strip() == "> 0"

    def test_unknown_id_is_error(self, tiny_file, capsys):
        assert main(["ged", tiny_file, "0", "99"]) == 1
        assert "no graph with id" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_prints_row(self, collection_file, capsys):
        assert main(["stats", collection_file]) == 0
        out = capsys.readouterr().out
        assert "|R|=15" in out


class TestGenerateCommand:
    @pytest.mark.parametrize("kind", ["aids", "protein"])
    def test_generate_roundtrip(self, tmp_path, capsys, kind):
        out = tmp_path / "gen.txt"
        assert main(
            ["generate", "--kind", kind, "--n", "8", "--seed", "3", "-o", str(out)]
        ) == 0
        assert main(["stats", str(out)]) == 0
        assert "|R|=8" in capsys.readouterr().out


class TestCliExtensions:
    def test_join_with_workers(self, tiny_file, capsys):
        main(["join", tiny_file, "--tau", "1", "--quiet"])
        expected = capsys.readouterr().out
        assert main(
            ["join", tiny_file, "--tau", "1", "--quiet", "--workers", "2"]
        ) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_join_rejects_workers_below_one(self, tiny_file, capsys, workers):
        for algorithm, message in (
            ("gsimjoin", "workers must be >= 1"),
            ("naive", "require --algorithm gsimjoin"),
        ):
            assert main(
                ["join", tiny_file, "--tau", "1", "--algorithm", algorithm,
                 "--workers", workers]
            ) == 1
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""

    def test_gxl_collection(self, tmp_path, capsys):
        from repro.datasets import figure1_graphs
        from repro.graph.gxl import save_gxl

        path = tmp_path / "mol.gxl"
        save_gxl(list(figure1_graphs()), path)
        assert main(["stats", str(path)]) == 0
        assert "|R|=2" in capsys.readouterr().out

    def test_join_json_output(self, tiny_file, tmp_path, capsys):
        import json

        out = tmp_path / "result.json"
        assert main(
            ["join", tiny_file, "--tau", "1", "--quiet", "--json", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["stats"]["tau"] == 1
        assert isinstance(data["pairs"], list)
        assert data["undecided"] == []


class TestRobustnessFlags:
    def test_budget_flags_accepted(self, collection_file, capsys):
        main(["join", collection_file, "--tau", "2", "--quiet"])
        expected = capsys.readouterr().out
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--budget-expansions", "1000000", "--budget-seconds", "60"]
        ) == 0
        assert capsys.readouterr().out == expected

    def test_checkpoint_run_then_resume(self, collection_file, tmp_path, capsys):
        journal = tmp_path / "join.jsonl"
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--checkpoint", str(journal)]
        ) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--checkpoint", str(journal)]
        ) == 0
        assert capsys.readouterr().out == first

    def test_checkpoint_mismatch_is_error_not_traceback(
        self, collection_file, tmp_path, capsys
    ):
        journal = tmp_path / "join.jsonl"
        assert main(
            ["join", collection_file, "--tau", "1", "--quiet",
             "--checkpoint", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--checkpoint", str(journal)]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_sharded_join_matches_in_memory_output(
        self, collection_file, tmp_path, capsys
    ):
        main(["join", collection_file, "--tau", "2", "--quiet"])
        expected = capsys.readouterr().out
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--shards", "3", "--spill-dir", str(tmp_path / "spill"),
             "--memory-budget-mb", "64"]
        ) == 0
        assert capsys.readouterr().out == expected

    def test_sharded_explain_plan(self, tmp_path, capsys):
        """The sharded path prints the plan and the merged stage table,
        per-backend verify tallies included."""
        path = tmp_path / "graphs.txt"
        save_graphs(aids_like(num_graphs=80, seed=7), path)
        assert main(
            ["join", str(path), "--tau", "2", "--quiet",
             "--shards", "3", "--spill-dir", str(tmp_path / "spill"),
             "--explain-plan"]
        ) == 0
        err = capsys.readouterr().err
        assert "join plan:" in err
        assert "verify backends:" in err

    def test_sharded_resume_flag(self, collection_file, tmp_path, capsys):
        spill = str(tmp_path / "spill")
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--shards", "2", "--spill-dir", spill]
        ) == 0
        first = capsys.readouterr().out
        # Re-running without --resume refuses; with it, identical output.
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--shards", "2", "--spill-dir", spill]
        ) == 1
        assert "resume" in capsys.readouterr().err
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--shards", "2", "--spill-dir", spill, "--resume"]
        ) == 0
        assert capsys.readouterr().out == first

    def test_sharded_flags_require_shards(self, collection_file, capsys):
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--memory-budget-mb", "64"]
        ) == 1
        assert "--shards" in capsys.readouterr().err

    def test_shards_require_spill_dir(self, collection_file, capsys):
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet", "--shards", "2"]
        ) == 1
        assert "--spill-dir" in capsys.readouterr().err

    def test_shards_reject_checkpoint(self, collection_file, tmp_path, capsys):
        assert main(
            ["join", collection_file, "--tau", "2", "--quiet",
             "--shards", "2", "--spill-dir", str(tmp_path / "spill"),
             "--checkpoint", str(tmp_path / "j.jsonl")]
        ) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_budget_with_baseline_is_error(self, tiny_file, capsys):
        for flags in (
            ["--algorithm", "naive", "--budget-expansions", "5"],
            ["--algorithm", "kat", "--workers", "4"],
            ["--algorithm", "appfull", "--workers", "2"],
        ):
            assert main(["join", tiny_file, "--tau", "1", *flags]) == 1
            assert "gsimjoin" in capsys.readouterr().err

    def test_keyboard_interrupt_exit_code(self, tiny_file, capsys, monkeypatch):
        import repro.cli as cli

        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "join", interrupt)
        code = main(
            ["join", tiny_file, "--tau", "1", "--checkpoint", "j.jsonl"]
        )
        assert code == cli.EXIT_INTERRUPTED == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "j.jsonl" in err

    def test_repro_error_exit_code_via_subprocess(self):
        """``python -m repro`` exits 1 (not a traceback) on a ReproError."""
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "join", "/no/such/file.txt",
             "--tau", "1"],
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
