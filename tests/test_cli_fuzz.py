"""Every subcommand, run in process on malformed files and flag values,
ends with exit code 0, 1 or 2 and never with an uncaught exception.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from flipsense import evaluate, history, schedule, sensitivity
from flipsense.cli import main

from conftest import histories



def _choice(*values):
    return st.sampled_from(values)


def _mostly(valid, invalid):
    """A flag value: one of the valid ones three times in four."""
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(invalid))


INTS = _mostly(["1", "2", "3", "7"], ["-1", "0", "x", "1.5", ""])
FLOATS = _mostly(["0", "0.3", "1", "1e-300"], ["-0.5", "2", "nan", "inf", "x"])
SIZES = _mostly(["1", "3", "1..4", "2..2"], ["0", "-1", "5..2", "0..3", "x", "2..", "..3",
                                            "1..3..5", "", "1..10001", "7..1000000000"])
GRIDS = _mostly(["0:1:0.5", "0.2:0.4:0.1", "0:0:1"], ["0:1:0", "1:0:0.1", "a:b:c", "0:1", "0:inf:1",
                                                     "-1:1:0.5", "0:1:0.0001", "0:1:1e-9",
                                                     "0:1:5e-324"])
RANGES = _mostly(["1..2", "1..1", "1"], ["2..1", "0..2", "x", "1..9"])


# per subcommand, (required flags, optional flags); a flag maps to the kind of file it names,
# a strategy for its value, or None for a switch
COMMANDS = {
    "ingest": ([("input", "history")], {"--format": _choice("human", "machine", "x")}),
    "prioritise": ([("--changes", "changes"), ("-n", INTS)], {
        "--history": "history", "--snapshot": "snapshot",
        "--method": _choice("ema", "cumulative", "random"), "--alpha": FLOATS,
        "--d-mode": _choice("linear", "constant", "x"), "--score-mode": _choice("sum", "max", "x"),
        "--format": _choice("human", "machine"), "--show-scores": None,
    }),
    "replay": ([("--input", "history")], {
        "--method": _choice("ema", "cumulative", "random", "all", "ema,random", "bogus", ","),
        "--alpha": FLOATS, "--d-mode": _choice("linear", "constant"),
        "--score-mode": _choice("sum", "max"), "--select": SIZES, "--seed": INTS,
        "--runs": _choice("-1", "0", "1", "3", "10001"),
        "--baseline": _choice("ema", "random", "cumulative"),
        "--out": "outdir", "--format": _choice("human", "machine"),
    }),
    "sweep-alpha": ([("--input", "history")], {
        "--grid": GRIDS, "--select": SIZES, "--score-mode": _choice("sum", "max"),
        "--d-mode": _choice("linear", "constant"), "--out": "outdir",
        "--format": _choice("human", "machine"),
    }),
    "heatmap": ([("--out", "outdir")], {
        "--input": "history", "--snapshot": "snapshot", "--method": _choice("ema", "cumulative"),
        "--alpha": FLOATS, "--d-mode": _choice("linear", "constant"), "--save-snapshot": "outfile",
    }),
    "synth": ([("--out", "outfile")], {
        "--seed": INTS, "--builds": INTS, "--files": INTS, "--tests": INTS, "--deps": RANGES,
        "--change-size": RANGES, "--hit": FLOATS, "--noise": FLOATS, "--initial-fail": FLOATS,
        "--truth": "outfile",
    }),
    "schedule init": ([("--history", "history"), ("--state", "outfile")], {}),
    "schedule cost": ([("--state", "state")], {"--format": _choice("human", "machine")}),
    "schedule stable": ([("--state", "state"), ("--budget", INTS)], {
        "--strategy": _choice("cost_min", "round_robin", "x"), "--window": INTS,
        "--format": _choice("human", "machine"),
    }),
    "schedule office": ([("--state", "state"), ("--matrix", "snapshot"), ("--changes", "changes"),
                         ("-k", INTS)], {
        "-w": FLOATS, "--score-mode": _choice("sum", "max"), "--observe": None,
        "--format": _choice("human", "machine"),
    }),
    "schedule tick": ([("--state", "state")], {"--executed": "executed"}),
    "schedule apply": ([("--state", "state"), ("--matrix", "snapshot"), ("--results", "results")], {
        "--executed": "executed",
    }),
}

GARBAGE = st.one_of(
    _choice("", "{", "[]", "null", "1", '"x"', "{}", "\x00", "not json\n", '{"kind": 1}'),
    st.tuples(_choice("[", '{"a":', '{"build": "b", "changes": ['),
              _choice(1, 50, 900, 5000, 50_000)).map(lambda p: p[0] * p[1]),
    st.text(max_size=20),
)


def _valid_texts(records) -> dict[str, str]:
    """A history, change set, snapshot, state, results and executed list that
    all load, from one small history."""
    ledger = history.extract_flips(records)
    for matrix in evaluate.fold(records, ledger, evaluate.MethodConfig("ema", alpha=0.5)):
        pass
    matrix.tests |= ledger.universe
    snapshot, state = io.StringIO(), io.StringIO()
    sensitivity.save_matrix(matrix, snapshot)
    schedule.save_state(schedule.state_from_history(records, ledger), state)
    tests = sorted(ledger.universe)
    files = sorted({f for r in records for f in r.changed_files})
    return {
        "history": "".join(history.record_to_line(r) + "\n" for r in records),
        "changes": "".join(f + "\n" for f in files[:2]) + "# comment\n\nf_unknown\n",
        "snapshot": snapshot.getvalue(),
        "state": state.getvalue(),
        "results": json.dumps({t: "fail" if i % 2 else "pass" for i, t in enumerate(tests)}),
        "executed": "".join(t + "\n" for t in tests[:2]) + "t_unknown\n",
    }


@st.composite
def file_texts(draw, valid: str):
    """A file's text: valid, cut short, one line spoilt, or garbage."""
    how = draw(_choice("valid", "valid", "valid", "cut", "line", "garbage"))
    if how == "valid":
        return valid
    if how == "cut":
        return valid[: draw(st.integers(min_value=0, max_value=max(len(valid) - 1, 0)))]
    if how == "line":
        lines = valid.splitlines(keepends=True) or [""]
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        lines[i] = draw(GARBAGE) + "\n"
        return "".join(lines)
    return draw(GARBAGE)


@st.composite
def invocations(draw, command: str):
    """(argv template, file texts, stdin text); the template names files by
    kind as {kind}, filled in with paths in a scratch directory."""
    records = draw(histories(max_builds=6, max_files=4, max_tests=4))
    valid = _valid_texts(records)
    required, optional = COMMANDS[command]
    argv = command.split()
    chosen = [(f, v) for f, v in optional.items() if draw(_choice(True, False, False))]
    for flag, value in required + chosen:
        if value is None:
            argv.append(flag)
            continue
        if value in ("outdir", "outfile"):
            # an output: a new directory or file, one in a missing directory, or a directory
            value = draw(_choice("{outdir}", "{outfile}", "{missing}", "{dir}"))
        elif isinstance(value, str):
            # an input: the drawn text, stdin, or a path that is missing or a directory
            value = draw(_mostly(["{%s}" % value], ["-", "{missing}", "{dir}"]))
        else:
            value = draw(value)
        argv.append(value if flag == "input" else f"{flag}={value}")
    texts = {kind: draw(file_texts(valid[kind])) for kind in valid}
    stdin = draw(st.sampled_from(sorted(texts.values())))
    return argv, texts, stdin


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_every_subcommand(command, data):
    argv, texts, stdin = data.draw(invocations(command))
    env_seed = data.draw(_mostly(["0", "5"], ["-3", "x", "1.5", ""]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"missing": os.path.join(tmp, "missing", "file"), "dir": tmp,
                 "outdir": os.path.join(tmp, "out"), "outfile": os.path.join(tmp, "out.txt")}
        for kind, text in texts.items():
            paths[kind] = os.path.join(tmp, f"{kind}.txt")
            with open(paths[kind], "w", encoding="utf-8") as fp:
                fp.write(text)
        filled = [a.format(**paths) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(stdin)), \
                mock.patch.dict(os.environ, {"FLIPSENSE_SEED": env_seed}):
            try:
                code = main(filled)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
        assert code in (0, 1, 2), (filled, code)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().count("error:") == 1, (filled, err.getvalue())


@pytest.mark.parametrize("env_seed, argv, code, err", [
    ("abc", ["synth", "--seed", "3", "--builds", "2"], 0, ""),
    ("abc", ["replay", "--method", "ema"], 0, ""),
    ("abc", ["synth", "--builds", "2"], 2, "error: FLIPSENSE_SEED must be an integer, got 'abc'\n"),
    ("abc", ["replay", "--method", "random"], 2,
     "error: FLIPSENSE_SEED must be an integer, got 'abc'\n"),
    ("-3", ["synth", "--builds", "2"], 2, "error: synth needs seed >= 0, got -3\n"),
    ("3", ["synth", "--seed", "-3", "--builds", "2"], 2, "error: synth needs seed >= 0, got -3\n"),
    ("3", ["replay", "--method", "random", "--seed", "-1"], 2,
     "error: random selection needs seed >= 0, got -1\n"),
    ("-1", ["replay", "--method", "random"], 2, "error: random selection needs seed >= 0, got -1\n"),
])
def test_seed_from_flag_or_environment(tmp_path, monkeypatch, capsys, env_seed, argv, code, err):
    # the environment is read only when no --seed is given and a seed is drawn
    path = tmp_path / "history.jsonl"
    assert main(["synth", "--seed", "1", "--builds", "4", "--out", str(path)]) == 0
    monkeypatch.setenv("FLIPSENSE_SEED", env_seed)
    tail = ["--out", str(tmp_path / "out.jsonl")] if argv[0] == "synth" else ["--input", str(path)]
    assert main(argv + tail) == code
    assert capsys.readouterr().err == err
