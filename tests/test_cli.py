"""Command-line behaviour: exit codes, formats, and composition."""

import json
import subprocess
import sys

import pytest

from flipsense.cli import main

from conftest import history_lines


@pytest.fixture
def history_file(tmp_path):
    lines = history_lines(
        [
            ("b0", [], {"t1": "pass", "t2": "pass", "a0": "pass"}),
            ("b1", ["f1"], {"t1": "fail", "t2": "pass", "a0": "pass"}),
            ("b2", ["f1", "f2"], {"t1": "pass", "t2": "fail", "a0": "pass"}),
            ("b3", ["f2"], {"t1": "pass", "t2": "pass", "a0": "pass"}),
        ]
    )
    path = tmp_path / "history.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def changes_file(tmp_path):
    path = tmp_path / "changes.txt"
    path.write_text("f1\n", encoding="utf-8")
    return path


class TestIngest:
    def test_valid_history(self, history_file, capsys):
        assert main(["ingest", str(history_file)]) == 0
        out = capsys.readouterr().out
        assert "builds:" in out and "4" in out

    def test_machine_format(self, history_file, capsys):
        assert main(["ingest", str(history_file), "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["builds"] == 4
        assert doc["tests"] == 3
        assert doc["files"] == 2

    def test_malformed_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        good = history_lines([("b%d" % i, [], {"t": "pass"}) for i in range(6)])
        path.write_text("\n".join(good + ["{broken"]) + "\n", encoding="utf-8")
        assert main(["ingest", str(path)]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_empty_history(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["ingest", str(path)]) == 2


class TestPrioritise:
    def test_line_count(self, history_file, changes_file, capsys):
        assert main([
            "prioritise", "--history", str(history_file),
            "--changes", str(changes_file), "-n", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_score_modes_agree_on_ranking(self, history_file, changes_file, capsys):
        orders = {}
        for mode in ("sum", "max"):
            assert main([
                "prioritise", "--history", str(history_file),
                "--changes", str(changes_file), "-n", "2", "--score-mode", mode,
            ]) == 0
            orders[mode] = capsys.readouterr().out.strip().splitlines()
        assert orders["sum"][0] == orders["max"][0] == "t1"

    def test_unknown_files_fall_back_to_lexicographic(self, history_file, tmp_path, capsys):
        changes = tmp_path / "unknown.txt"
        changes.write_text("nope\n", encoding="utf-8")
        assert main([
            "prioritise", "--history", str(history_file),
            "--changes", str(changes), "-n", "3",
        ]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["a0", "t1", "t2"]

    def test_requires_an_input(self, changes_file, capsys):
        assert main(["prioritise", "--changes", str(changes_file), "-n", "1"]) == 2

    def test_change_set_from_stdin(self, history_file):
        cmd = [sys.executable, "-m", "flipsense.cli", "prioritise", "--history", str(history_file),
               "--changes", "-", "-n", "2"]
        proc = subprocess.run(cmd, input="# piped\nf1\n", capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "t1"

    def test_from_snapshot(self, history_file, changes_file, tmp_path, capsys):
        snapshot = tmp_path / "matrix.jsonl"
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(snapshot)])
        capsys.readouterr()
        assert main([
            "prioritise", "--snapshot", str(snapshot),
            "--changes", str(changes_file), "-n", "1", "--show-scores",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t1\t")


class TestReplay:
    def test_figure_tables_written(self, history_file, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main([
            "replay", "--input", str(history_file), "--method", "all",
            "--alpha", "0.8", "--select", "1..3", "--seed", "5", "--runs", "10",
            "--out", str(out),
        ]) == 0
        for name in ("zero_pct", "precision", "recall", "f_measure"):
            table = (out / f"{name}.csv").read_text(encoding="utf-8")
            lines = table.strip().splitlines()
            assert lines[0] == "n,ema,cumulative,random"
            assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]
        assert (out / "improvement.json").exists()

    def test_machine_output_parses(self, history_file, capsys):
        assert main([
            "replay", "--input", str(history_file), "--method", "ema",
            "--select", "2", "--format", "machine",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"]["ema"]["2"]["evaluated_builds"] >= 1

    def test_zero_random_runs_is_a_usage_error(self, history_file):
        cmd = [sys.executable, "-m", "flipsense.cli", "replay", "--input", str(history_file),
               "--method", "random", "--runs", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    def test_unknown_method(self, history_file, capsys):
        assert main(["replay", "--input", str(history_file), "--method", "bogus"]) == 2


class TestSweep:
    def test_best_alpha_reported(self, history_file, capsys):
        assert main([
            "sweep-alpha", "--input", str(history_file),
            "--grid", "0:0.8:0.4", "--select", "1", "--format", "machine",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_alpha"] in (0.0, 0.4, 0.8)
        assert len(doc["table"]) == 3


class TestHeatmap:
    def test_files_written(self, history_file, tmp_path, capsys):
        out = tmp_path / "hm"
        assert main([
            "heatmap", "--input", str(history_file), "--alpha", "0.8",
            "--out", str(out), "--save-snapshot", str(tmp_path / "m.jsonl"),
        ]) == 0
        header = (out / "heatmap.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("file,")
        assert (tmp_path / "m.jsonl").exists()


class TestExitCodes:
    def test_unwritable_output_is_runtime_error(self, history_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        code = main([
            "heatmap", "--input", str(history_file), "--out", str(blocker / "sub"),
        ])
        assert code == 1

    def test_missing_input_file(self, capsys):
        assert main(["ingest", "/nonexistent/history.jsonl"]) == 1


class TestSchedule:
    def test_init_stable_tick_cycle(self, history_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(["schedule", "init", "--history", str(history_file), "--state", str(state)]) == 0
        capsys.readouterr()
        assert main(["schedule", "stable", "--state", str(state), "--budget", "1"]) == 0
        picked = capsys.readouterr().out.strip()
        assert picked == "a0"  # the only never-flipped test
        assert main(["schedule", "tick", "--state", str(state)]) == 0
        capsys.readouterr()
        assert main(["schedule", "cost", "--state", str(state), "--format", "machine"]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 3  # three tests aged by one

    def test_office_and_apply(self, history_file, changes_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        matrix = tmp_path / "matrix.jsonl"
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        capsys.readouterr()
        assert main([
            "schedule", "office", "--state", str(state), "--matrix", str(matrix),
            "--history", str(history_file), "--changes", str(changes_file),
            "-k", "2", "--observe",
        ]) == 0
        selection = capsys.readouterr().out.strip().splitlines()
        assert len(selection) == 2
        results = tmp_path / "results.json"
        results.write_text(json.dumps({t: "pass" for t in selection}), encoding="utf-8")
        assert main([
            "schedule", "apply", "--state", str(state), "--matrix", str(matrix),
            "--results", str(results),
        ]) == 0


class TestSynthCommand:
    def test_writes_history_and_truth(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        truth = tmp_path / "truth.json"
        assert main([
            "synth", "--seed", "3", "--builds", "5", "--files", "10", "--tests", "4",
            "--deps", "1..2", "--change-size", "1..3",
            "--out", str(out), "--truth", str(truth),
        ]) == 0
        assert len(out.read_text(encoding="utf-8").strip().splitlines()) == 5
        assert len(json.loads(truth.read_text(encoding="utf-8"))) == 4

    def test_pipe_composition(self):
        # synth | replay as a real shell pipeline
        synth_cmd = [sys.executable, "-m", "flipsense.cli", "synth", "--seed", "1",
                     "--builds", "8", "--files", "10", "--tests", "6",
                     "--deps", "1..2", "--change-size", "1..3"]
        replay_cmd = [sys.executable, "-m", "flipsense.cli", "replay", "--input", "-",
                      "--method", "ema", "--select", "2", "--format", "machine"]
        synth_proc = subprocess.run(synth_cmd, capture_output=True, text=True)
        assert synth_proc.returncode == 0
        replay_proc = subprocess.run(replay_cmd, input=synth_proc.stdout,
                                     capture_output=True, text=True)
        assert replay_proc.returncode == 0, replay_proc.stderr
        json.loads(replay_proc.stdout)
