"""Command-line behaviour: exit codes, formats, and composition."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from flipsense import evaluate, sensitivity
from flipsense.baselines import hbtp_scores, recency_scores
from flipsense.cli import _parse_grid, _parse_size_range, main
from flipsense.errors import ValidationError
from flipsense.evaluate import MethodConfig, replay_sizes
from flipsense.history import VERDICTS, extract_flips, read_history, write_history
from flipsense.schedule import load_state
from flipsense.sensitivity import load_matrix, save_matrix
from flipsense.synth import SynthConfig, generate

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

    def test_output_does_not_depend_on_hash_seed(self, tmp_path):
        # string hashing, and with it set iteration order, changes with
        # PYTHONHASHSEED; scores, ties and replay figures must not
        hist, big, changes = tmp_path / "h.jsonl", tmp_path / "big.jsonl", tmp_path / "changes.txt"
        assert main(["synth", "--seed", "7", "--out", str(hist)]) == 0
        assert main(["synth", "--seed", "7", "--builds", "50", "--files", "2000",
                     "--tests", "1000", "--out", str(big)]) == 0
        changes.write_text("f0012\nf0077\nf0150\nf0003\nf0199\n", encoding="utf-8")
        matrix = tmp_path / "matrix.jsonl"
        assert main(["heatmap", "--input", str(hist), "--alpha", "0.3", "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(matrix)]) == 0
        cases = [
            (["prioritise", "--history", str(hist), "--changes", str(changes), "-n", "25",
              "--method", "ema"], ("0", "2", "4")),
            (["replay", "--input", str(big), "--method", "all", "--runs", "5"], ("0", "3")),
            (["sweep-alpha", "--input", str(big), "--grid", "0.1:0.9:0.4"], ("0", "3")),
            (["prioritise", "--snapshot", str(_unpruned_snapshot(hist, tmp_path)), "--changes",
              str(changes), "-n", "25", "--show-scores"], ("0", "3")),
            (["schedule", "office", "--state", "{state}", "--matrix", str(matrix),
              "--changes", str(changes), "--observe", "-k", "5"],
             ("0", "3")),
        ]
        for args, seeds in cases:
            outputs = set()
            for seed in seeds:
                # office --observe rewrites its state, so each run starts from a fresh one
                state = tmp_path / f"state-{seed}.json"
                if "{state}" in args:
                    assert main(["schedule", "init", "--history", str(hist), "--state", str(state)]) == 0
                cmd = [sys.executable, "-m", "flipsense.cli",
                       *(a.format(state=state) for a in args), "--format", "machine"]
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      env={**os.environ, "PYTHONHASHSEED": seed})
                assert proc.returncode == 0, proc.stderr
                outputs.add(proc.stdout)
            assert len(outputs) == 1, args[0]

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

    @pytest.mark.parametrize("fmt, near_tie", [("human", False), ("machine", False),
                                               ("human", True), ("machine", True)],
                             ids=["human", "machine", "near-tie-human", "near-tie-machine"])
    def test_snapshot_pads_like_history(self, history_file, changes_file, tmp_path, capsys, fmt,
                                        near_tie):
        # a0 never flipped: both ways pad with it once the credited tests run out.
        # In the near tie, t0070 and t0093 score one ulp apart: a live sum of
        # stored values scaled once would rank them the other way round.
        history, changes, alpha, n, shown = history_file, changes_file, [], "3", "a0"
        if near_tie:
            history, changes = tmp_path / "h.jsonl", tmp_path / "changes.txt"
            main(["synth", "--seed", "1", "--builds", "60", "--out", str(history)])
            changes.write_text("f0048\nf0104\nf0159\nf0169\n", encoding="utf-8")
            alpha, n, shown = ["--alpha", "0.1"], "25", "t0093"
        snapshot = tmp_path / "matrix.json"
        main(["heatmap", "--input", str(history), *alpha, "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(snapshot)])
        capsys.readouterr()
        outs = []
        for source in (["--history", str(history), *alpha], ["--snapshot", str(snapshot)]):
            assert main(["prioritise", *source, "--changes", str(changes), "-n", n,
                         "--show-scores", "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert shown in outs[1]

    @pytest.mark.parametrize("saved, flags, err", [
        (["--alpha", "0.1"], ["--alpha", "0.9"],
         "--alpha 0.9 contradicts the snapshot, which holds alpha 0.1"),
        (["--alpha", "0.1"], ["--method", "cumulative"],
         "--method cumulative contradicts the snapshot, which holds method ema"),
        (["--alpha", "0.1"], ["--alpha", "0.1", "--method", "cumulative"],
         "--method cumulative contradicts the snapshot, which holds method ema"),
        (["--alpha", "0.1"], ["--d-mode", "constant"],
         "--d-mode constant contradicts the snapshot, which holds d-mode linear"),
        (["--method", "cumulative"], ["--alpha", "0.8"],
         "--alpha 0.8 contradicts the snapshot, which holds no alpha"),
        (["--method", "cumulative"], ["--method", "ema"],
         "--method ema contradicts the snapshot, which holds method cumulative"),
        (["--method", "cumulative"], ["--d-mode", "linear"],
         "--d-mode linear contradicts the snapshot, which holds d-mode constant"),
    ], ids=["alpha", "method", "alpha-and-method", "d-mode", "alpha-on-cumulative",
            "method-on-cumulative", "d-mode-on-cumulative"])
    @pytest.mark.parametrize("command", ["prioritise", "heatmap"])
    def test_snapshot_flag_that_contradicts_it(self, history_file, changes_file, tmp_path, capsys,
                                               saved, flags, err, command):
        # a flag that names a setting the snapshot does not hold is a usage
        # error, not a setting silently ignored
        snapshot = tmp_path / "matrix.json"
        assert main(["heatmap", "--input", str(history_file), *saved, "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(snapshot)]) == 0
        capsys.readouterr()
        argv = {"prioritise": ["prioritise", "--changes", str(changes_file), "-n", "1"],
                "heatmap": ["heatmap", "--out", str(tmp_path / "hm2")]}[command]
        assert main([*argv, "--snapshot", str(snapshot), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not (tmp_path / "hm2").exists()

    @pytest.mark.parametrize("command", ["prioritise", "heatmap"])
    def test_snapshot_beside_a_history(self, history_file, changes_file, tmp_path, capsys, command):
        # one matrix source: a history given as well is an error, not
        # silently ignored, and it is neither read nor written
        snapshot = tmp_path / "matrix.json"
        assert main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(snapshot)]) == 0
        capsys.readouterr()
        argv, flag = {
            "prioritise": (["prioritise", "--changes", str(changes_file), "-n", "3"], "--history"),
            "heatmap": (["heatmap", "--out", str(tmp_path / "hm2")], "--input"),
        }[command]
        for history in (str(tmp_path / "nonexistent.jsonl"), str(history_file)):
            assert main([*argv, "--snapshot", str(snapshot), flag, history]) == 2
            assert capsys.readouterr() == ("", f"error: {command} takes {flag} or --snapshot, not both\n")
        assert not (tmp_path / "hm2").exists()

    @pytest.mark.parametrize("saved, flags", [
        (["--alpha", "0.1"], ["--alpha", "0.1", "--method", "ema", "--d-mode", "linear"]),
        (["--method", "cumulative"], ["--method", "cumulative", "--d-mode", "constant"]),
    ], ids=["ema", "cumulative"])
    def test_snapshot_flags_that_agree_change_nothing(self, history_file, changes_file, tmp_path,
                                                      capsys, saved, flags):
        snapshot = tmp_path / "matrix.json"
        assert main(["heatmap", "--input", str(history_file), *saved, "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(snapshot)]) == 0
        capsys.readouterr()
        outs = []
        for extra in ([], flags):
            assert main(["prioritise", "--snapshot", str(snapshot), "--changes", str(changes_file),
                         "-n", "3", "--show-scores", *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("t1\t")

    @pytest.mark.parametrize("argv, got", [
        (["prioritise", "--history", "{history}", "--changes", "{changes}", "-n", "1",
          "--method", "cumulative"], "cumulative"),
        (["heatmap", "--input", "{history}", "--out", "{out}", "--method", "cumulative"],
         "cumulative"),
        (["replay", "--input", "{history}", "--out", "{out}", "--method", "cumulative"],
         "cumulative"),
        (["replay", "--input", "{history}", "--method", "cumulative,random"], "cumulative,random"),
    ], ids=["prioritise", "heatmap", "replay", "replay-two"])
    def test_alpha_without_ema_is_a_usage_error(self, history_file, changes_file, tmp_path, capsys,
                                                argv, got):
        # no chosen method reads --alpha: it is a usage error, as against a
        # cumulative snapshot, not a flag silently dropped
        out = tmp_path / "out"
        argv = [a.format(history=history_file, changes=changes_file, out=out) for a in argv]
        assert main([*argv, "--alpha", "0.5"]) == 2
        assert capsys.readouterr() == ("", f"error: --alpha 0.5 needs --method ema, got {got}\n")
        assert not out.exists()


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

    def test_too_many_random_runs_is_a_usage_error(self, history_file, capsys, monkeypatch):
        def no_permutations(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(evaluate, "shuffled_universe", no_permutations)
        assert main(["replay", "--input", str(history_file), "--method", "ema,random",
                     "--runs", "10001"]) == 2
        err = capsys.readouterr().err
        assert err == "error: random selection takes at most 10000 runs, got 10001\n"

    def test_too_many_random_runs_times_sizes_is_a_usage_error(self, history_file, capsys,
                                                                monkeypatch):
        # each run and size is a row per build, so their product is capped too
        def no_permutations(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(evaluate, "shuffled_universe", no_permutations)
        assert main(["replay", "--input", str(history_file), "--method", "ema,random",
                     "--runs", "1000", "--select", "1..11"]) == 2
        assert capsys.readouterr() == \
            ("", "error: random runs x sizes must be at most 10000, got 1000 x 11\n")

    @pytest.mark.parametrize("method, runs, select", [
        ("random", "1000", "1..10"),  # at the cap
        ("ema", "1000", "1..11"),  # no random runs to draw
    ])
    def test_runs_times_sizes_within_the_cap(self, history_file, capsys, method, runs, select):
        assert main(["replay", "--input", str(history_file), "--method", method,
                     "--runs", runs, "--select", select]) == 0

    def test_unknown_method(self, history_file, capsys):
        assert main(["replay", "--input", str(history_file), "--method", "bogus"]) == 2
        capsys.readouterr()
        assert main(["replay", "--input", str(history_file), "--method", ","]) == 2
        assert capsys.readouterr() == ("", "error: no method given\n")

    def test_repeated_method_is_a_usage_error(self, history_file, capsys):
        assert main(["replay", "--input", str(history_file),
                     "--method", "ema,cumulative,ema"]) == 2
        assert capsys.readouterr() == \
            ("", "error: methods must be distinct, got ['ema'] more than once\n")

    @pytest.mark.parametrize("methods", ["ema", "ema,cumulative"])
    def test_baseline_outside_the_methods_is_a_usage_error(self, history_file, capsys, methods):
        # also with one method, where no improvement is computed
        assert main(["replay", "--input", str(history_file), "--method", methods,
                     "--baseline", "random"]) == 2
        assert capsys.readouterr() == \
            ("", "error: baseline 'random' is not among the replayed methods\n")

    def test_d_mode_applies_to_cumulative(self, history_file, capsys):
        assert main(["replay", "--input", str(history_file), "--method", "cumulative",
                     "--d-mode", "linear", "--select", "1..2", "--format", "machine"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]["cumulative"]
        records = read_history(str(history_file))
        config = MethodConfig(method="cumulative", d_mode="linear")
        expected = replay_sizes(records, extract_flips(records), config, [1, 2])
        assert reports == {str(n): r.to_dict() for n, r in expected.items()}
        assert {r["d_mode"] for r in reports.values()} == {"linear"}


class TestSweep:
    def test_best_alpha_reported(self, history_file, capsys):
        assert main([
            "sweep-alpha", "--input", str(history_file),
            "--grid", "0:0.8:0.4", "--select", "1", "--format", "machine",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_alpha"] in (0.0, 0.4, 0.8)
        assert len(doc["table"]) == 3

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:1:0.5", "0:1:inf", "0:nan:0.5"])
    def test_non_finite_grid_is_a_usage_error(self, history_file, grid, capsys):
        assert main(["sweep-alpha", "--input", str(history_file), f"--grid={grid}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_grid_without_a_step_is_a_usage_error(self, history_file, capsys):
        assert main(["sweep-alpha", "--input", str(history_file), "--grid", "1:2"]) == 2
        assert capsys.readouterr() == ("", "error: grid must be lo:hi:step, got '1:2'\n")


class TestListFlags:
    """--select and --grid are counted before their lists are built."""

    def test_size_range_is_capped(self):
        assert len(_parse_size_range("1..10000")) == 10_000
        with pytest.raises(ValueError, match="more than 10000 sizes"):
            _parse_size_range("1..10001")

    def test_grid_is_capped(self):
        assert len(_parse_grid("0:1:0.01")) == 101
        with pytest.raises(ValueError, match="more than 10000 points"):
            _parse_grid("0:1:0.0001")  # 10,001 points

    @pytest.mark.parametrize("argv", [
        ["replay", "--select", "1..10001"],
        ["sweep-alpha", "--grid", "0:1:5e-324"],  # (hi - lo) / step overflows to inf
    ])
    def test_over_cap_is_a_usage_error(self, history_file, argv, capsys):
        assert main([*argv, "--input", str(history_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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

    def test_out_defaults_to_flipsense_out(self, history_file, tmp_path, monkeypatch, capsys):
        # heatmap --out is the one output that FLIPSENSE_OUT sets; replay
        # without --out still writes no tables
        out = tmp_path / "env-out"
        monkeypatch.setenv("FLIPSENSE_OUT", str(out))
        assert main(["heatmap", "--input", str(history_file)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["flakiness.csv", "heatmap.csv"]
        assert main(["replay", "--input", str(history_file), "--select", "1"]) == 0
        assert "tables written" not in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["flakiness.csv", "heatmap.csv"]


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

    @pytest.mark.parametrize("argv, err", [
        (["replay", "--select", "0"], "selection size must be >= 1, got 0"),
        (["replay", "--method", "bogus"],
         "unknown method 'bogus'; expected ema, cumulative, random or all"),
        (["replay", "--method", "cumulative", "--alpha", "0.5"],
         "--alpha 0.5 needs --method ema, got cumulative"),
        (["replay", "--alpha", "1.5"], "ema requires alpha in [0, 1], got 1.5"),
        (["replay", "--method", "random", "--runs", "10001"],
         "random selection takes at most 10000 runs, got 10001"),
        (["replay", "--method", "ema", "--baseline", "random"],
         "baseline 'random' is not among the replayed methods"),
        (["sweep-alpha", "--select", "3..1"], "bad size range '3..1'"),
        (["sweep-alpha", "--grid", "1:2"], "grid must be lo:hi:step, got '1:2'"),
        (["sweep-alpha", "--grid", "0:2:0.5"], "alpha 1.5 outside [0, 1]"),
    ], ids=["replay-select", "replay-method", "replay-alpha", "replay-alpha-range", "replay-runs",
            "replay-baseline", "sweep-select", "sweep-grid", "sweep-grid-range"])
    def test_flags_are_checked_before_the_input_is_read(self, tmp_path, capsys, argv, err):
        # a usage error exits 2 without reading the history, which would
        # otherwise fail first, with exit 1
        missing = str(tmp_path / "nonexistent.jsonl")
        assert main([argv[0], "--input", missing, *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


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

    def test_stable_rejects_a_window_under_one_day(self, history_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(["schedule", "init", "--history", str(history_file), "--state", str(state)]) == 0
        capsys.readouterr()
        assert main(["schedule", "stable", "--state", str(state), "--budget", "3",
                     "--window", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "window" in captured.err

    def test_office_and_apply(self, history_file, changes_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        matrix = tmp_path / "matrix.jsonl"
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        capsys.readouterr()
        assert main([
            "schedule", "office", "--state", str(state), "--matrix", str(matrix),
            "--changes", str(changes_file), "-k", "2", "--observe",
        ]) == 0
        selection = capsys.readouterr().out.strip().splitlines()
        assert len(selection) == 2
        results = tmp_path / "results.json"
        results.write_text(json.dumps({t: "pass" for t in selection}), encoding="utf-8")
        assert main([
            "schedule", "apply", "--state", str(state), "--matrix", str(matrix),
            "--results", str(results),
        ]) == 0

    def test_apply_clears_stable_for_a_flip(self, history_file, tmp_path, capsys):
        # a0 never flipped in the history; once apply sees it flip, it is
        # no longer stable, even after it flips back
        state, matrix, results = (tmp_path / n for n in ("state.json", "matrix.json", "results.json"))
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        for verdict, picked in (("pass", ["a0"]), ("pass", ["a0"]), ("fail", []), ("pass", [])):
            results.write_text(json.dumps({"a0": verdict}), encoding="utf-8")
            assert main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                         "--results", str(results)]) == 0
            capsys.readouterr()
            assert main(["schedule", "stable", "--state", str(state), "--budget", "3"]) == 0
            assert capsys.readouterr().out.split() == picked, verdict
        with open(state, encoding="utf-8") as fp:
            assert load_state(fp).stable == {"a0": False, "t1": False, "t2": False}

    @pytest.mark.parametrize("d_mode, gain", [("constant", 1.0), ("linear", 0.5)])
    def test_apply_counts_into_a_cumulative_snapshot(self, history_file, tmp_path, capsys,
                                                     d_mode, gain):
        # t1 flips (pass -> fail) and gains 1/d on each of its two pending
        # files; t2 ran without flipping and keeps its column, since a
        # cumulative matrix counts and never decays
        state, matrix, changes, results = (
            tmp_path / n for n in ("state.json", "matrix.json", "changes.txt", "results.json"))
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        assert main(["heatmap", "--input", str(history_file), "--method", "cumulative",
                     "--d-mode", d_mode, "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(matrix)]) == 0
        changes.write_text("f1\nf3\n", encoding="utf-8")
        assert main(["schedule", "office", "--state", str(state), "--matrix", str(matrix),
                     "--changes", str(changes), "-k", "1", "--observe"]) == 0
        with open(matrix, encoding="utf-8") as fp:
            before = load_matrix(fp).cols
        results.write_text(json.dumps({"t1": "fail", "t2": "pass"}), encoding="utf-8")
        assert main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                     "--results", str(results)]) == 0
        with open(matrix, encoding="utf-8") as fp:
            after = load_matrix(fp)
        assert (after.update_mode, after.d_mode) == ("cumulative", d_mode)
        assert after.cols["t1"] == {"f1": before["t1"]["f1"] + gain, "f2": before["t1"]["f2"],
                                    "f3": gain}
        assert after.cols["t2"] == before["t2"]

    @pytest.fixture
    def two_build_loop(self, tmp_path, capsys):
        """init and a matrix snapshot of a history where t1 fails at its last
        build and a0 always passes, then one observed change set, f2."""
        hist, state, matrix, changes = (
            tmp_path / n for n in ("history.jsonl", "state.json", "matrix.json", "changes.txt"))
        hist.write_text("\n".join(history_lines([
            ("b0", [], {"t1": "pass", "a0": "pass"}),
            ("b1", ["f1"], {"t1": "fail", "a0": "pass"}),
        ])) + "\n", encoding="utf-8")
        changes.write_text("f2\n", encoding="utf-8")
        main(["schedule", "init", "--history", str(hist), "--state", str(state)])
        main(["heatmap", "--input", str(hist), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        assert main(["schedule", "office", "--state", str(state), "--matrix", str(matrix),
                     "--changes", str(changes), "-k", "2", "--observe"]) == 0
        capsys.readouterr()
        return state, matrix

    def _apply_and_pick(self, state, matrix, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"a0": "fail", "t1": "pass"}), encoding="utf-8")
        assert main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                     "--results", str(results)]) == 0
        capsys.readouterr()
        assert main(["schedule", "stable", "--state", str(state), "--budget", "3"]) == 0
        with open(matrix, encoding="utf-8") as fp:
            return capsys.readouterr().out.split(), load_matrix(fp).cols

    def test_first_apply_after_init_judges_the_history_verdict(self, two_build_loop, tmp_path,
                                                               capsys):
        # init records each test's last history verdict, so the first apply
        # flips a0 (pass -> fail) and t1 (fail -> pass) as any later one would
        state, matrix = two_build_loop
        picked, cols = self._apply_and_pick(state, matrix, tmp_path, capsys)
        assert picked == []  # a0 flipped, so it left the stable pass
        # t1's column decays by 1 - alpha and is credited alpha on the observed file
        assert cols["t1"] == {"f1": pytest.approx(0.8 * 0.2), "f2": pytest.approx(0.8)}
        assert cols["a0"] == {"f2": pytest.approx(0.8)}

    def test_apply_stamps_a_failure_at_the_clock(self, two_build_loop, tmp_path, capsys):
        # init stamped t1's failure at the last build as clock 0; office
        # --observe ticked the clock to 1, where apply stamps a0's failure
        # and leaves t1's pass alone
        state, matrix = two_build_loop
        self._apply_and_pick(state, matrix, tmp_path, capsys)
        with open(state, encoding="utf-8") as fp:
            assert load_state(fp).failed_at == {"t1": 0, "a0": 1}

    def test_apply_counts_each_executed_test_once(self, two_build_loop, tmp_path, capsys):
        # a test named twice in --executed ran once: one verdict applied, and
        # the same matrix and state as naming it once
        state, matrix = two_build_loop
        results, executed = tmp_path / "results.json", tmp_path / "executed.txt"
        results.write_text(json.dumps({"a0": "fail", "t1": "pass"}), encoding="utf-8")
        written = []
        for names in ("a0\n", "a0\na0\n"):
            s, m = tmp_path / f"state-{len(written)}.json", tmp_path / f"matrix-{len(written)}.json"
            s.write_bytes(state.read_bytes())
            m.write_bytes(matrix.read_bytes())
            executed.write_text(names, encoding="utf-8")
            assert main(["schedule", "apply", "--state", str(s), "--matrix", str(m),
                         "--results", str(results), "--executed", str(executed)]) == 0
            assert capsys.readouterr().out == "applied 1 verdicts\n"
            written.append((s.read_bytes(), m.read_bytes()))
        assert written[0] == written[1]

    @pytest.mark.parametrize("seed, split", [(3, 2), (7, 12), (11, 25)])
    def test_stamps_score_as_hbtp_over_the_grown_history(self, seed, split, tmp_path, capsys):
        # init on a prefix, then office --observe and apply with each later
        # build's full verdicts: the recency office reads from the state is,
        # after init and after every apply, bit for bit HBTP over the
        # history grown by those builds
        records, _ = generate(SynthConfig(seed=seed, n_builds=30, n_files=40, n_tests=30))
        hist, state, matrix, changes, results = (
            tmp_path / n for n in ("history.jsonl", "state.json", "matrix.json", "changes.txt",
                                   "results.json"))
        with open(hist, "w", encoding="utf-8") as fp:
            write_history(records[:split], fp)
        assert main(["schedule", "init", "--history", str(hist), "--state", str(state)]) == 0
        assert main(["heatmap", "--input", str(hist), "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(matrix)]) == 0
        for grown in range(split, len(records) + 1):
            if grown > split:
                record = records[grown - 1]
                changes.write_text("".join(f + "\n" for f in sorted(record.changed_files)),
                                   encoding="utf-8")
                results.write_text(json.dumps(record.verdicts), encoding="utf-8")
                assert main(["schedule", "office", "--state", str(state), "--matrix", str(matrix),
                             "--changes", str(changes), "-k", "5", "--observe"]) == 0
                assert main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                             "--results", str(results)]) == 0
            with open(state, encoding="utf-8") as fp:
                loaded = load_state(fp)
            pending = loaded.pending
            recency = recency_scores(loaded.failed_at, pending.clock, pending.tests())
            hbtp = hbtp_scores(records[:grown], extract_flips(records[:grown]), grown)
            assert {t: v.hex() for t, v in recency.positive.items()} \
                == {t: v.hex() for t, v in hbtp.positive.items()}, grown
            assert recency.known == hbtp.known
        capsys.readouterr()

    def test_a_state_without_last_verdicts_judges_no_first_flip(self, two_build_loop, tmp_path,
                                                                 capsys):
        # a state that knows no test's last verdict loads, and its first
        # apply only records the verdicts
        state, matrix = two_build_loop
        doc = json.loads(state.read_text(encoding="utf-8"))
        doc["last_verdict"] = {}
        state.write_text(json.dumps(doc), encoding="utf-8")
        picked, cols = self._apply_and_pick(state, matrix, tmp_path, capsys)
        assert picked == ["a0"]
        assert cols == {"t1": {"f1": pytest.approx(0.8 * 0.2)}}
        with open(state, encoding="utf-8") as fp:
            assert load_state(fp).pending.last_verdict == {"a0": "fail", "t1": "pass"}

    @pytest.mark.parametrize("flag", [["-k", "0"], ["-k", "5", "-w", "7"]], ids=["k", "w"])
    def test_rejected_office_observes_nothing(self, flag, history_file, changes_file,
                                              tmp_path, capsys):
        state, matrix = tmp_path / "state.json", tmp_path / "matrix.json"
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        before = state.read_bytes()
        capsys.readouterr()
        assert main(["schedule", "office", "--state", str(state), "--matrix", str(matrix),
                     "--changes", str(changes_file), "--observe", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert state.read_bytes() == before

    @pytest.mark.parametrize("results",['"x"', "[1, 2]", '{"t1": 3}', '{"": "pass"}'])
    def test_apply_rejects_malformed_results(self, history_file, tmp_path, capsys, results):
        state, matrix = tmp_path / "state.json", tmp_path / "matrix.json"
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        path = tmp_path / "results.json"
        path.write_text(results, encoding="utf-8")
        before = (state.read_text(encoding="utf-8"), matrix.read_text(encoding="utf-8"))
        capsys.readouterr()
        code = main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                     "--results", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert (state.read_text(encoding="utf-8"), matrix.read_text(encoding="utf-8")) == before


def _snapshot_doc():
    return {
        "kind": "sensitivity-matrix", "d_mode": "linear", "update_mode": "ema", "alpha": 0.8,
        "last_seq": 3, "drop_threshold": 1e-12, "files": ["f1"], "tests": ["t1"],
        "cols": {"t1": {"f1": 0.5}},
    }


def _state_doc():
    return {
        "kind": "schedule-state", "clock": 3, "changed_at": {"f1": 3, "f2": 1},
        "failed_at": {"t1": -4}, "staleness": {"t1": 2}, "stable": {"t1": True},
        "last_run": {"t1": 1}, "last_verdict": {"t1": "pass"},
    }


def _edit(doc, path, value):
    """doc with the field at `path` (a tuple of keys) set to value, or
    deleted when value is _DROP."""
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return doc


_DROP = object()
_LINE_FORMAT = (
    '{"alpha":0.8,"d_mode":"linear","drop_threshold":1e-12,"files":["f1"],'
    '"kind":"sensitivity-matrix","last_seq":3,"tests":["t1"],"update_mode":"ema"}\n'
    '{"file":"f1","test":"t1","value":0.5}\n'
)

_BAD_SNAPSHOTS = {
    "empty": "",
    "broken json": "{broken",
    "line format": _LINE_FORMAT,
    "array": "[]",
    "no kind": _edit(_snapshot_doc(), ("kind",), _DROP),
    "state as snapshot": _state_doc(),
    "no cols": _edit(_snapshot_doc(), ("cols",), _DROP),
    "no alpha": _edit(_snapshot_doc(), ("alpha",), _DROP),
    "files a string": _edit(_snapshot_doc(), ("files",), "f1"),
    "test id a number": _edit(_snapshot_doc(), ("tests",), [1]),
    "test id empty": _edit(_snapshot_doc(), ("tests",), ["", "t1"]),
    "file id empty": _edit(_snapshot_doc(), ("files",), ["f1", ""]),
    "alpha a string": _edit(_snapshot_doc(), ("alpha",), "0.8"),
    "alpha out of range": _edit(_snapshot_doc(), ("alpha",), 1.5),
    "cumulative alpha out of range": _edit(
        _edit(_snapshot_doc(), ("update_mode",), "cumulative"), ("alpha",), 1.5),
    "cumulative alpha NaN, last_seq negative": _edit(_edit(
        _edit(_snapshot_doc(), ("update_mode",), "cumulative"), ("alpha",), float("nan")),
        ("last_seq",), -7),
    "last_seq negative": _edit(_snapshot_doc(), ("last_seq",), -1),
    "last_seq a bool": _edit(_snapshot_doc(), ("last_seq",), True),
    "unknown update mode": _edit(_snapshot_doc(), ("update_mode",), "lazy"),
    "column a list": _edit(_snapshot_doc(), ("cols", "t1"), [0.5]),
    "entry a string": _edit(_snapshot_doc(), ("cols", "t1", "f1"), "x"),
    "entry null": _edit(_snapshot_doc(), ("cols", "t1", "f1"), None),
    "ghost column": _edit(_snapshot_doc(), ("cols", "zz_ghost"), {"f1": 5.0}),
    "entry for an unlisted file": _edit(_snapshot_doc(), ("cols", "t1", "f9"), 0.25),
    "entry NaN": _edit(_snapshot_doc(), ("cols", "t1", "f1"), float("nan")),
    "entry Infinity": _edit(_snapshot_doc(), ("cols", "t1", "f1"), float("inf")),
    "entry -Infinity": _edit(_snapshot_doc(), ("cols", "t1", "f1"), float("-inf")),
    "entry zero": _edit(_snapshot_doc(), ("cols", "t1", "f1"), 0.0),
    "entry integer zero": _edit(_snapshot_doc(), ("cols", "t1", "f1"), 0),
    "entry negative": _edit(_snapshot_doc(), ("cols", "t1", "f1"), -0.5),
    "entry a numeric string": _edit(_snapshot_doc(), ("cols", "t1", "f1"), "0.5"),
    "entry a bool": _edit(_snapshot_doc(), ("cols", "t1", "f1"), True),
    "entry below drop_threshold": _edit(
        _edit(_snapshot_doc(), ("update_mode",), "cumulative"), ("drop_threshold",), 0.75),
    "entry an integer beyond floats": _edit(_snapshot_doc(), ("cols", "t1", "f1"), 10**400),
    "entries summing to Infinity": _edit(
        _edit(_snapshot_doc(), ("files",), ["f1", "f2"]), ("cols", "t1"), {"f1": 1e308, "f2": 1e308}
    ),
    "column empty": _edit(_snapshot_doc(), ("cols", "t1"), {}),
    "drop_threshold negative": _edit(_snapshot_doc(), ("drop_threshold",), -1e-12),
    "drop_threshold NaN": _edit(_snapshot_doc(), ("drop_threshold",), float("nan")),
    "drop_threshold Infinity": _edit(_snapshot_doc(), ("drop_threshold",), float("inf")),
}

_BAD_STATES = {
    "broken json": "{broken",
    "array": "[1]",
    "snapshot as state": _snapshot_doc(),
    "record layout": {  # one record per test, as states were once written
        "kind": "schedule-state", "clock": 3, "changed_at": {"f1": 3, "f2": 1},
        "tests": {"t1": {"staleness": 2, "stable": True, "last_run": 1, "last_verdict": "pass"}},
        "failed_at": {"t1": -4},
    },
    "old format with accumulated": {  # every test's pending file list
        "kind": "schedule-state",
        "tests": {"t1": {"staleness": 2, "stable": True, "accumulated": ["f1"],
                         "last_verdict": "pass"}},
    },
    "no clock": _edit(_state_doc(), ("clock",), _DROP),
    "negative clock": _edit(_edit(_state_doc(), ("clock",), -1), ("changed_at",), {}),
    "clock a float": _edit(_state_doc(), ("clock",), 3.0),
    "no changed_at": _edit(_state_doc(), ("changed_at",), _DROP),
    "changed_at a list": _edit(_state_doc(), ("changed_at",), ["f1"]),
    "stamp a bool": _edit(_state_doc(), ("changed_at", "f1"), True),
    "stamp zero": _edit(_state_doc(), ("changed_at", "f1"), 0),
    "stamp above clock": _edit(_state_doc(), ("changed_at", "f1"), 4),
    "stamp a float": _edit(_state_doc(), ("changed_at", "f1"), 2.0),
    "changed_at file id empty": _edit(_state_doc(), ("changed_at", ""), 2),
    "no failed_at": _edit(_state_doc(), ("failed_at",), _DROP),  # written before the stamps
    "failed_at a list": _edit(_state_doc(), ("failed_at",), ["t1"]),
    "failure stamp a string": _edit(_state_doc(), ("failed_at", "t1"), "-4"),
    "failure stamp a bool": _edit(_state_doc(), ("failed_at", "t1"), True),
    "failure stamp above clock": _edit(_state_doc(), ("failed_at", "t1"), 4),
    "failed_at test id empty": _edit(_state_doc(), ("failed_at", ""), 1),
    "no staleness": _edit(_state_doc(), ("staleness",), _DROP),
    "staleness a list": _edit(_state_doc(), ("staleness",), [2]),
    "negative staleness": _edit(_state_doc(), ("staleness", "t1"), -1),
    "staleness a string": _edit(_state_doc(), ("staleness", "t1"), "2"),
    "staleness a bool": _edit(_state_doc(), ("staleness", "t1"), True),
    "no stable": _edit(_state_doc(), ("stable",), _DROP),
    "stable a number": _edit(_state_doc(), ("stable", "t1"), 1),
    "no last_run": _edit(_state_doc(), ("last_run",), _DROP),
    "last_run above clock": _edit(_state_doc(), ("last_run", "t1"), 4),
    "last_run negative": _edit(_state_doc(), ("last_run", "t1"), -1),
    "last_run a bool": _edit(_state_doc(), ("last_run", "t1"), True),
    "no last verdict": _edit(_state_doc(), ("last_verdict",), _DROP),
    "unknown verdict": _edit(_state_doc(), ("last_verdict", "t1"), "maybe"),
    "verdict null": _edit(_state_doc(), ("last_verdict", "t1"), None),  # once written for none
    "verdict a list": _edit(_state_doc(), ("last_verdict", "t1"), ["pass"]),
    "test missing from last_run": _edit(_state_doc(), ("last_run",), {}),
    "verdict for an untracked test": _edit(_state_doc(), ("last_verdict", "t2"), "fail"),
    "test id empty": _edit(_edit(_edit(_edit(
        _state_doc(), ("staleness", ""), 0), ("stable", ""), False), ("last_run", ""), 0),
        ("last_verdict", ""), "pass"),
}


_BAD_HISTORY_LINES = {
    "build a number": ({"build": 7, "changes": [], "results": {}},
                       "'build' must be a non-empty string"),
    "changes an object": ({"build": "b1", "changes": {"f1": 1}, "results": {}},
                          "'changes' must be an array of strings"),
    "results an array": ({"build": "b1", "changes": [], "results": [["t1", "pass"]]},
                         "'results' must be an object"),
}


def _write_doc(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(_BAD_SNAPSHOTS))
    def test_snapshot(self, name, changes_file, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        _write_doc(path, _BAD_SNAPSHOTS[name])
        code = main(["prioritise", "--snapshot", str(path), "--changes", str(changes_file),
                     "-n", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(_BAD_SNAPSHOTS))
    def test_snapshot_heatmap(self, name, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        _write_doc(path, _BAD_SNAPSHOTS[name])
        code = main(["heatmap", "--snapshot", str(path), "--out", str(tmp_path / "hm")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(_BAD_STATES))
    def test_state(self, name, tmp_path, capsys):
        path = tmp_path / "state.json"
        _write_doc(path, _BAD_STATES[name])
        code = main(["schedule", "cost", "--state", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(_BAD_HISTORY_LINES))
    def test_history(self, name, tmp_path, capsys):
        record, message = _BAD_HISTORY_LINES[name]
        path = tmp_path / "history.jsonl"
        path.write_text('{"build":"b0","changes":[],"results":{"t1":"pass"}}\n'
                        + json.dumps(record) + "\n", encoding="utf-8")
        assert main(["ingest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"

    @pytest.mark.parametrize("table, argv, digest", [
        (_BAD_SNAPSHOTS, ["prioritise", "--snapshot", "{doc}", "--changes", "{changes}", "-n", "1"],
         "5516b4814d2f1ac572a183a7fe0b12ef"),
        (_BAD_STATES, ["schedule", "cost", "--state", "{doc}"], "7d8dd9088de9d24d726fbf77d997cab2"),
    ], ids=["snapshot", "state"])
    def test_error_lines_are_pinned(self, table, argv, digest, changes_file, tmp_path, capsys):
        # every case's one error line, word for word; the readers' fast
        # paths for valid documents must not change what a fault reports
        path = tmp_path / "doc.json"
        lines = []
        for name in sorted(table):
            _write_doc(path, table[name])
            assert main([a.format(doc=path, changes=changes_file) for a in argv]) == 2
            lines.append(f"{name}: {capsys.readouterr().err}")
        assert hashlib.md5("".join(lines).encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("name, line", [
        ("no failed_at", "schedule-state: missing field 'failed_at'"),
        ("failed_at a list", "schedule-state: field 'failed_at' has type list"),
        ("failure stamp a string", "schedule-state: failed_at stamps must be integers up to 3"),
        ("failure stamp a bool", "schedule-state: failed_at stamps must be integers up to 3"),
        ("failure stamp above clock", "schedule-state: failed_at stamps must be integers up to 3"),
        ("failed_at test id empty", "schedule-state: ids must be non-empty strings"),
    ])
    def test_failure_stamp_lines(self, name, line, tmp_path, capsys):
        path = tmp_path / "state.json"
        _write_doc(path, _BAD_STATES[name])
        assert main(["schedule", "cost", "--state", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_valid_documents_load(self, changes_file, tmp_path, capsys):
        # the unedited documents above are accepted, so each case tests its edit
        _write_doc(tmp_path / "matrix.json", _snapshot_doc())
        _write_doc(tmp_path / "state.json", _state_doc())
        assert main(["prioritise", "--snapshot", str(tmp_path / "matrix.json"),
                     "--changes", str(changes_file), "-n", "1"]) == 0
        assert main(["schedule", "cost", "--state", str(tmp_path / "state.json")]) == 0
        assert capsys.readouterr().out == "t1\n4\n"

    def test_a_threshold_beyond_the_float_range_is_rejected(self, tmp_path, capsys):
        # 10**400 compares below math.inf but is no float; written as 1e400
        # it loads as inf and is rejected the same way
        digits = "1" + "0" * 400
        doc = _edit(_edit(_snapshot_doc(), ("drop_threshold",), 10**400), ("cols",), {})
        _write_doc(tmp_path / "big.json", doc)
        assert digits in (tmp_path / "big.json").read_text(encoding="utf-8")
        code = main(["heatmap", "--snapshot", str(tmp_path / "big.json"),
                     "--save-snapshot", str(tmp_path / "back.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: sensitivity-matrix: drop_threshold must be finite and >= 0, got {digits}\n")
        assert not (tmp_path / "back.json").exists()


_ANY_VALUES = st.one_of(
    st.floats(), st.integers(min_value=-2, max_value=2), st.just(10**400), st.booleans(),
    st.none(), st.sampled_from(["0.5", "x"]), st.just([0.5]), st.just({}),
)


@st.composite
def snapshot_texts(draw):
    """Small snapshot documents: a valid one, or one with a single flaw in
    an entry, a column, the ids or a setting, drawn from values that may
    happen to be valid."""
    files = draw(st.lists(st.sampled_from(["f1", "f2", "f3"]), min_size=1, unique=True))
    tests = draw(st.lists(st.sampled_from(["t1", "t2", "t3"]), min_size=1, unique=True))
    entries = st.one_of(st.floats(min_value=5e-324, max_value=1.7e308),
                        st.integers(min_value=1, max_value=5))
    column = st.dictionaries(st.sampled_from(files), entries, min_size=1, max_size=3)
    cols = {t: draw(column) for t in draw(st.lists(st.sampled_from(tests), unique=True))}
    doc = {
        "kind": "sensitivity-matrix",
        "d_mode": draw(st.sampled_from(["linear", "constant"])),
        "update_mode": draw(st.sampled_from(["ema", "cumulative"])),
        "alpha": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "last_seq": draw(st.integers(min_value=0, max_value=9)),
        "drop_threshold": draw(st.sampled_from([0.0, 1e-12, 0, 1e300])),
        "files": files,
        "tests": tests,
        "cols": cols,
    }
    flaw = draw(st.sampled_from([None, "entry", "column", "id", "alpha", "drop_threshold"]))
    if flaw in ("alpha", "drop_threshold"):
        doc[flaw] = draw(_ANY_VALUES)
    elif flaw == "id":
        t, f = draw(st.sampled_from(tests + ["zz"])), draw(st.sampled_from(files + ["f9"]))
        cols.setdefault(t, {})[f] = 0.5
    elif flaw and cols:
        t = draw(st.sampled_from(sorted(cols)))
        if flaw == "column":
            cols[t] = draw(_ANY_VALUES)
        else:
            cols[t][draw(st.sampled_from(files))] = draw(_ANY_VALUES)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(snapshot_texts(), st.integers(min_value=1, max_value=4))
def test_fuzz_load_matrix(text, n):
    # a snapshot either fails validation or holds only finite entries > 0 in
    # non-empty columns, and then both snapshot readers exit 0
    try:
        matrix = load_matrix(io.StringIO(text))
    except ValidationError:
        return
    for col in matrix.cols.values():
        assert col
        assert all(type(v) is float and math.isfinite(v) and v > 0.0 for v in col.values())
    with tempfile.TemporaryDirectory() as tmp:
        path, changes = os.path.join(tmp, "matrix.json"), os.path.join(tmp, "changes.txt")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        with open(changes, "w", encoding="utf-8") as fp:
            fp.write("f1\nf2\nf9\n")
        for argv in (["heatmap", "--snapshot", path, "--out", os.path.join(tmp, "hm")],
                     ["prioritise", "--snapshot", path, "--changes", changes, "-n", str(n),
                      "--show-scores"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 0 and "Traceback" not in err.getvalue(), (argv[0], err.getvalue())


@st.composite
def state_texts(draw):
    """Small state documents and their flaw: a valid one (flaw None), or one
    with a single flaw in the clock, the change or failure stamps, a
    per-test field, one of its values or the tests it maps, drawn from
    values that may happen to be valid."""
    clock = draw(st.integers(min_value=0, max_value=5))
    stamps = st.integers(min_value=1, max_value=max(clock, 1))
    changed_at = draw(st.dictionaries(st.sampled_from(["f1", "f2", "f3"]), stamps)) if clock else {}
    tests = draw(st.lists(st.sampled_from(["t1", "t2", "t3"]), unique=True))
    fields = {
        "staleness": {t: draw(st.integers(min_value=0, max_value=9)) for t in tests},
        "stable": {t: draw(st.booleans()) for t in tests},
        "last_run": {t: draw(st.integers(min_value=0, max_value=clock)) for t in tests},
        "last_verdict": draw(st.dictionaries(st.sampled_from(tests), st.sampled_from(VERDICTS)))
        if tests else {},
    }
    failed_at = draw(st.dictionaries(st.sampled_from(tests or ["t1"]),
                                     st.integers(min_value=-9, max_value=clock)))
    doc = {"kind": "schedule-state", "clock": clock, "changed_at": changed_at,
           "failed_at": failed_at, **fields}
    flaw = draw(st.sampled_from([None, "clock", "changed_at", "stamp", "failed_at",
                                 "failure stamp", "field", "value", "tests"]))
    if flaw in ("clock", "changed_at", "failed_at"):
        doc[flaw] = draw(_ANY_VALUES)
    elif flaw == "stamp":
        changed_at[draw(st.sampled_from(["f1", "f2", "f3"]))] = draw(_ANY_VALUES)
    elif flaw == "failure stamp":
        failed_at[draw(st.sampled_from(["t1", "t2", "t3"]))] = draw(_ANY_VALUES)
    elif flaw:
        name = draw(st.sampled_from(sorted(fields)))
        if flaw == "field":
            doc[name] = draw(_ANY_VALUES)
        elif flaw == "value":
            fields[name][draw(st.sampled_from(["t1", "t2", "t3"]))] = draw(_ANY_VALUES)
        elif fields[name] and draw(st.booleans()):  # a tracked test left out
            del fields[name][draw(st.sampled_from(sorted(fields[name])))]
        else:  # an untracked test mapped
            fields[name]["t4"] = {"staleness": 0, "stable": False, "last_run": 0,
                                  "last_verdict": "pass"}[name]
    return json.dumps(doc), flaw


@settings(max_examples=300, deadline=None)
@given(state_texts(), st.integers(min_value=1, max_value=4))
def test_fuzz_load_state(drawn, n):
    # a state either fails validation or holds only integer stamps in range,
    # and then the state readers exit 0; an unflawed state always loads
    text, flaw = drawn
    try:
        state = load_state(io.StringIO(text))
    except ValidationError:
        assert flaw is not None
        return
    pending = state.pending
    assert type(pending.clock) is int and pending.clock >= 0
    assert all(type(s) is int and 0 < s <= pending.clock for s in pending.changed_at.values())
    assert all(type(s) is int and 0 <= s <= pending.clock for s in pending.last_run.values())
    assert all(type(s) is int and s <= pending.clock for s in state.failed_at.values())
    assert state.staleness.keys() == state.stable.keys() == pending.last_run.keys()
    assert pending.last_verdict.keys() <= pending.last_run.keys()
    assert all(type(s) is int and s >= 0 for s in state.staleness.values())
    assert all(type(s) is bool for s in state.stable.values())
    assert all(v in VERDICTS for v in pending.last_verdict.values())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        for argv in (["schedule", "cost", "--state", path],
                     ["schedule", "stable", "--state", path, "--budget", str(n)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 0 and "Traceback" not in err.getvalue(), (argv[1], err.getvalue())


def _failing_save_matrix(matrix, fp):
    """Write half of a snapshot, then fail as a full disk would."""
    buf = io.StringIO()
    save_matrix(matrix, buf)
    fp.write(buf.getvalue()[: len(buf.getvalue()) // 2])
    raise OSError("No space left on device")


class TestAtomicWrites:
    def test_failed_snapshot_save_keeps_previous_file(
        self, history_file, tmp_path, monkeypatch, capsys
    ):
        snapshot = tmp_path / "matrix.json"
        args = ["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
                "--save-snapshot", str(snapshot)]
        assert main(args) == 0
        before = snapshot.read_text(encoding="utf-8")
        monkeypatch.setattr(sensitivity, "save_matrix", _failing_save_matrix)
        assert main(args + ["--alpha", "0.3"]) == 1
        assert snapshot.read_text(encoding="utf-8") == before
        assert not (tmp_path / "matrix.json.tmp").exists()
        with open(snapshot, encoding="utf-8") as fp:
            assert load_matrix(fp).alpha == 0.8

    def test_failed_apply_keeps_matrix_and_state(
        self, history_file, tmp_path, monkeypatch, capsys
    ):
        state, matrix = tmp_path / "state.json", tmp_path / "matrix.json"
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"t1": "fail", "a0": "pass"}), encoding="utf-8")
        before = (state.read_text(encoding="utf-8"), matrix.read_text(encoding="utf-8"))
        monkeypatch.setattr(sensitivity, "save_matrix", _failing_save_matrix)
        assert main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                     "--results", str(results)]) == 1
        assert (state.read_text(encoding="utf-8"), matrix.read_text(encoding="utf-8")) == before
        assert not list(tmp_path.glob("*.tmp"))
        with open(matrix, encoding="utf-8") as fp:
            load_matrix(fp)

    def test_temp_file_is_synced_before_the_rename(self, history_file, tmp_path, monkeypatch):
        state, matrix = tmp_path / "state.json", tmp_path / "matrix.json"
        main(["schedule", "init", "--history", str(history_file), "--state", str(state)])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", str(matrix)])
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"t1": "fail", "a0": "pass"}), encoding="utf-8")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):  # records the size it makes durable
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["schedule", "apply", "--state", str(state), "--matrix", str(matrix),
                         "--results", str(results)]) == 0
        assert calls == [("fsync", matrix.stat().st_size), ("replace", str(matrix)),
                         ("fsync", state.stat().st_size), ("replace", str(state))]


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

    def test_writes_history_to_stdout_by_default(self, tmp_path, capsys):
        argv = ["synth", "--seed", "3", "--builds", "5", "--files", "30", "--tests", "4"]
        out = tmp_path / "synth.jsonl"
        assert main([*argv, "--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

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


class TestDeeplyNestedJson:
    @pytest.mark.parametrize("command", ["ingest", "prioritise", "schedule cost", "schedule apply"])
    def test_exits_2_with_one_line(self, command, history_file, changes_file, tmp_path, capsys):
        deep = str(tmp_path / "deep.json")
        with open(deep, "w", encoding="utf-8") as fp:
            fp.write("[" * 5000)
        state, matrix = str(tmp_path / "state.json"), str(tmp_path / "matrix.json")
        main(["schedule", "init", "--history", str(history_file), "--state", state])
        main(["heatmap", "--input", str(history_file), "--out", str(tmp_path / "hm"),
              "--save-snapshot", matrix])
        capsys.readouterr()
        argv = {
            "ingest": ["ingest", deep],
            "prioritise": ["prioritise", "--snapshot", deep, "--changes", str(changes_file), "-n", "3"],
            "schedule cost": ["schedule", "cost", "--state", deep],
            "schedule apply": ["schedule", "apply", "--state", state, "--matrix", matrix,
                               "--results", deep],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def desk_history(tmp_path_factory):
    """The default synth history: 50 builds, 200 files, 100 tests."""
    root = tmp_path_factory.mktemp("desk")
    path, changes = root / "history.jsonl", root / "changes.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "7", "--out", str(path)]) == 0
    changes.write_text("f0012\nf0077\nf0150\nf0003\nf0199\n", encoding="utf-8")
    return root, str(path), str(changes)


def _stdout_md5(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.md5(out.getvalue().encode("utf-8")).hexdigest()


def _unpruned_snapshot(path, root):
    """A `heatmap --alpha 0.3 --save-snapshot` of the history with its
    "drop_threshold" edited to 0. On the 50-build desk history no alpha 0.3
    entry decays below the default threshold, so the snapshot holds every
    entry of the exact EMA and its columns are long (up to 126 of 200
    files): checked here against a fold that never prunes."""
    snapshot = root / "unpruned.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["heatmap", "--input", str(path), "--alpha", "0.3", "--out", str(root / "hm"),
                     "--save-snapshot", str(snapshot)]) == 0
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    doc["drop_threshold"] = 0
    snapshot.write_text(json.dumps(doc), encoding="utf-8")
    records = read_history(path)
    ledger = extract_flips(records)
    exact = sensitivity.empty_matrix(alpha=0.3, drop_threshold=0.0)
    for record in records[1:]:
        sensitivity.advance(exact, sensitivity.build_delta(record.changed_files, ledger.flipped(record.seq)))
    buf = io.StringIO()
    save_matrix(exact, buf)
    assert json.loads(buf.getvalue())["cols"] == doc["cols"]
    return snapshot


class TestPinnedOutputs:
    """Output bytes of `synth --seed 7`, pinned so that a refactor which
    changes any of them fails here; whatever the hash seed is."""

    def test_replay_all_and_its_tables(self, desk_history):
        root, path, _ = desk_history
        out = root / "figs"
        assert _stdout_md5(["replay", "--input", path, "--method", "all", "--alpha", "0.3",
                            "--runs", "20", "--format", "machine", "--out", str(out)]) \
            == "1e2e42610f9ad424862a377d57718e43"
        files = {p.name: hashlib.md5(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert files == {
            "f_measure.csv": "555ea92a1cefc28105093fe97e3013a0",
            "improvement.json": "66e86e6af7059d31257bb1d15a45a5b1",
            "precision.csv": "b505484c76eaea42f45c301d0ea5df6e",
            "recall.csv": "fdc8fcc5d88a1e492850bdc6e8865552",
            "reports.json": "b9f05c7e7fc9bd109a55bc9674f09b21",
            "zero_pct.csv": "6350ba852247e8b0260ad875152f233a",
        }

    @pytest.mark.parametrize("argv, digest", [
        (["sweep-alpha", "--input", "{history}", "--grid", "0:1:0.1", "--format", "machine"],
         "4707efeb8db8c620bfa4ca68231b2d21"),
        (["prioritise", "--history", "{history}", "--changes", "{changes}", "-n", "25",
          "--method", "ema", "--format", "machine"], "848925d40d00976ff7af20e1a4418101"),
        (["replay", "--input", "{history}", "--method", "cumulative", "--score-mode", "max",
          "--format", "machine"], "be48c83f38739d3441837dca5a271f6c"),
        (["replay", "--input", "{history}", "--method", "random", "--format", "machine"],
         "50069c755689775949e7a052ca0e8f09"),
        (["ingest", "{history}"], "65e68cc8b36a6cc1b065449b07c9a809"),
        (["ingest", "{history}", "--format", "machine"], "4c2139febaf3b741c8c5e0eb139f0305"),
    ], ids=["sweep-alpha", "prioritise", "replay-cumulative-max", "replay-random", "ingest",
            "ingest-machine"])
    def test_command(self, desk_history, argv, digest):
        _, path, changes = desk_history
        assert _stdout_md5([a.format(history=path, changes=changes) for a in argv]) == digest

    def test_sweep_across_the_universe_and_its_table(self, desk_history):
        # sizes 90..110 cross the 100-test universe, so sizes 100 and up
        # share one ranking length
        root, path, _ = desk_history
        out = root / "sweep"
        assert _stdout_md5(["sweep-alpha", "--input", path, "--score-mode", "max", "--d-mode",
                            "constant", "--select", "90..110", "--format", "machine",
                            "--out", str(out)]) == "d7cc6cd6cf4d8f9b6e44fb9b6d60e199"
        assert hashlib.md5((out / "sweep.csv").read_bytes()).hexdigest() \
            == "f4f1b3c1e7156974a434093919cccd8c"

    def test_schedule_init_state(self, desk_history):
        root, path, _ = desk_history
        state = root / "state.json"
        _stdout_md5(["schedule", "init", "--history", path, "--state", str(state)])
        assert hashlib.md5(state.read_bytes()).hexdigest() == "d558a41583ffa65573f31b6b367f82e9"

    @pytest.mark.parametrize("n, digest", [
        ("25", "d41c0735b0f4325af5af8dfc587998ba"),
        ("100", "f0d128db22cca0ffd1380de2c66b2498"),  # 45 zero-score padding rows, printed 0
    ])
    def test_prioritise_show_scores(self, desk_history, n, digest):
        _, path, changes = desk_history
        assert _stdout_md5(["prioritise", "--history", path, "--changes", changes, "-n", n,
                            "--show-scores"]) == digest

    def test_prioritise_long_columns(self, desk_history, tmp_path):
        _, path, changes = desk_history
        snapshot = _unpruned_snapshot(path, tmp_path)
        assert _stdout_md5(["prioritise", "--snapshot", str(snapshot), "--changes", changes,
                            "-n", "25", "--format", "machine", "--show-scores"]) \
            == "2070401be6417e3407ec734628e164f9"

    def test_schedule_office(self, desk_history, tmp_path):
        _, path, changes = desk_history
        state, matrix = tmp_path / "state.json", tmp_path / "matrix.jsonl"
        _stdout_md5(["schedule", "init", "--history", path, "--state", str(state)])
        _stdout_md5(["heatmap", "--input", path, "--alpha", "0.3", "--out", str(tmp_path / "hm"),
                     "--save-snapshot", str(matrix)])
        assert _stdout_md5(["schedule", "office", "--state", str(state), "--matrix", str(matrix),
                            "--changes", changes, "--observe", "-k", "5"]) \
            == "d52f0c553ebf58d0ab70ec5338d55315"

    @pytest.mark.parametrize("method, digest", [
        ("ema", "6dba44e661831c266303cdd0b719bafa"),  # alpha 0.3 leaves the fold's scale below 1
        ("cumulative", "2dc78086ad676677a638a53d236e6dc5"),
    ])
    def test_heatmap_snapshot(self, desk_history, tmp_path, method, digest):
        _, path, _ = desk_history
        matrix = tmp_path / "matrix.json"
        alpha = ["--alpha", "0.3"] if method == "ema" else []  # cumulative reads no alpha
        _stdout_md5(["heatmap", "--input", path, *alpha, "--method", method,
                     "--out", str(tmp_path / "hm"), "--save-snapshot", str(matrix)])
        assert hashlib.md5(matrix.read_bytes()).hexdigest() == digest

    def test_day_loop_cycle(self, desk_history, tmp_path):
        # ten days of the resource-managed loop on builds 40-49, after a
        # history of builds 0-39; schedule apply rewrites the matrix and
        # the state every day, credits t0053's flip on its first run (build
        # 40, judged against its build-39 verdict that init records), and
        # takes t0003 out of the stable pass once it sees it flip at build 44;
        # office recency reads the failures apply stamps, so the history
        # written for init is never appended to
        _, path, _ = desk_history
        records = read_history(path)
        hist, changes, state, matrix, results, executed = (
            tmp_path / name for name in
            ("history.jsonl", "changes.txt", "state.json", "matrix.json", "results.json", "executed.txt"))
        stdout = io.StringIO()

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([str(a) for a in argv]) == 0
            stdout.write(out.getvalue())
            return out.getvalue()

        with open(hist, "w", encoding="utf-8") as fp:
            write_history(records[:40], fp)
        run("schedule", "init", "--history", hist, "--state", state)
        with contextlib.redirect_stdout(io.StringIO()):  # it prints the temporary paths
            assert main(["heatmap", "--input", str(hist), "--alpha", "0.3", "--out",
                         str(tmp_path / "hm"), "--save-snapshot", str(matrix)]) == 0
        run("schedule", "stable", "--state", state, "--budget", "7")
        for record in records[40:50]:
            changes.write_text("".join(f + "\n" for f in sorted(record.changed_files)), encoding="utf-8")
            stable = json.loads(run("schedule", "stable", "--state", state, "--strategy", "round_robin",
                                    "--window", "3", "--budget", "3", "--format", "machine"))["selected"]
            office = json.loads(run("schedule", "office", "--state", state, "--matrix", matrix,
                                    "--changes", changes, "--observe", "-k", "5",
                                    "--format", "machine"))["selected"]
            ran = sorted(set(stable) | set(office))
            results.write_text(json.dumps({t: record.verdicts[t] for t in ran}), encoding="utf-8")
            executed.write_text("".join(t + "\n" for t in ran), encoding="utf-8")
            run("schedule", "apply", "--state", state, "--matrix", matrix, "--results", results)
            run("schedule", "tick", "--state", state, "--executed", executed)
            run("prioritise", "--snapshot", matrix, "--changes", changes, "-n", "25", "--format", "machine")
            run("schedule", "cost", "--state", state)
        run("schedule", "stable", "--state", state, "--budget", "9")
        assert hashlib.md5(stdout.getvalue().encode("utf-8")).hexdigest() == "9ae804e38becdaea4659873d8b6a02cf"
        assert hashlib.md5(matrix.read_bytes()).hexdigest() == "72f5a04d18e0fcb3df5e07be00466cb0"
        assert hashlib.md5(state.read_bytes()).hexdigest() == "d433bfadf941b2dd421d1d30d6f4f928"


def _canonical(text: str) -> str:
    """What the text holds, as json.dumps writes it canonically, newline included."""
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


class TestCanonicalWriters:
    """Each machine output and each replay document is the canonical form of
    what it holds. Every id carries a quote, a backslash and a non-ASCII
    letter, and the builds list their verdicts in reverse key order."""

    @pytest.fixture(scope="class")
    def odd_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("odd")
        config = SynthConfig(seed=3, n_builds=30, n_files=20, n_tests=10, change_set_size=(1, 4))
        records, _ = generate(config)
        odd = lambda i: i + 'é"\\'
        with open(root / "history.jsonl", "w", encoding="utf-8") as fp:
            for r in records:
                verdicts = {odd(t): r.verdicts[t] for t in sorted(r.verdicts, reverse=True)}
                fp.write(json.dumps({"build": r.build_id, "changes": [odd(f) for f in r.changed_files],
                                     "results": verdicts}) + "\n")
        (root / "changes.txt").write_text(odd("f0003") + "\n" + odd("f0007") + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["schedule", "init", "--history", str(root / "history.jsonl"),
                         "--state", str(root / "state.json")]) == 0
            assert main(["heatmap", "--input", str(root / "history.jsonl"), "--alpha", "0.3",
                         "--out", str(root / "hm"), "--save-snapshot", str(root / "matrix.json")]) == 0
        return root

    @pytest.mark.parametrize("argv", [
        ["ingest", "{root}/history.jsonl"],
        ["prioritise", "--history", "{root}/history.jsonl", "--changes", "{root}/changes.txt",
         "-n", "6", "--show-scores"],
        ["replay", "--input", "{root}/history.jsonl", "--method", "all", "--runs", "3"],
        ["sweep-alpha", "--input", "{root}/history.jsonl", "--grid", "0:1:0.25"],
        ["schedule", "cost", "--state", "{root}/state.json"],
        ["schedule", "stable", "--state", "{root}/state.json", "--budget", "3"],
        ["schedule", "office", "--state", "{root}/state.json", "--matrix", "{root}/matrix.json",
         "--changes", "{root}/changes.txt", "-k", "4"],
    ], ids=["ingest", "prioritise", "replay", "sweep-alpha", "schedule-cost", "schedule-stable",
            "schedule-office"])
    def test_machine_stdout(self, odd_run, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([a.format(root=odd_run) for a in argv] + ["--format", "machine"]) == 0
        assert out.getvalue() == _canonical(out.getvalue())

    def test_replay_documents(self, odd_run):
        out = odd_run / "replay"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replay", "--input", str(odd_run / "history.jsonl"), "--method", "all",
                         "--runs", "3", "--out", str(out)]) == 0
        for name in ("reports.json", "improvement.json"):
            text = (out / name).read_text(encoding="utf-8")
            assert text == _canonical(text)
