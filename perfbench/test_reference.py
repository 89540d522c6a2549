"""Tests of the benchmark's independent checkers.

    python3 -m pytest perfbench/test_reference.py -q

Tiny histories whose scores and selections are worked out by hand, and
negative controls: a wrong selection, a wrong replay row, a wrong stable
pass and a wrong matrix must each be flagged.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402

# b0 sets the baseline; t1 flips at 1 and 3, t2 flips at 2; t2 does not
# run at build 3 and carries its 'fail' forward.
TINY = [
    ({"a"}, {"t1": "pass", "t2": "pass"}),
    ({"a", "b"}, {"t1": "fail", "t2": "pass"}),
    ({"b"}, {"t1": "fail", "t2": "fail"}),
    ({"a"}, {"t1": "pass"}),
    ({"c"}, {"t1": "pass", "t2": "fail", "t3": "pass"}),
]
TINY = [(frozenset(c), v) for c, v in TINY]


def test_read_history_and_flips(tmp_path):
    path = tmp_path / "h.jsonl"
    with open(path, "w") as fp:
        for i, (c, v) in enumerate(TINY):
            fp.write(json.dumps({"build": f"b{i}", "changes": sorted(c), "results": v}) + "\n")
    assert reference.read_history(path) == TINY
    assert reference.read_changes(path) == [c for c, _ in TINY]
    flipped, predictable, universe = reference.flips(TINY)
    assert flipped == [set(), {"t1"}, {"t2"}, {"t1"}, set()]
    assert predictable == [set(), set(), set(), {"t1"}, set()]
    assert universe == {"t1", "t2", "t3"}


def test_ema_closed_form_by_hand():
    flipped, _, _ = reference.flips(TINY)
    index = reference.CreditIndex(TINY, flipped)
    # after builds 1..2 at alpha 0.5: build 1 credits t1 with 1/2 on a and
    # b, decayed once; build 2 credits t2 with 1 on b
    assert index.ema({"a"}, 2, 0.5) == {"t1": 0.5 * 0.5 * 0.5}
    assert index.ema({"a", "b"}, 2, 0.5) == {"t1": 0.25, "t2": 0.5}
    assert index.ema({"a", "b"}, 1, 0.5) == {"t1": 0.5}
    assert index.ema({"c"}, 4, 0.5) == {}
    # after build 3 as well: t1 at a gets 0.5*1 + 0.5^3*1/2
    assert index.ema({"a"}, 3, 0.5) == {"t1": 0.5 + 0.0625}


def test_counts_by_hand():
    flipped, _, _ = reference.flips(TINY)
    index = reference.CreditIndex(TINY, flipped)
    assert index.counts({"a", "b"}, 2) == {"t1": 2, "t2": 1}
    assert index.counts({"a"}, 3) == {"t1": 2}


def test_scores_below_the_double_floor_count_as_zero():
    builds = [(frozenset({"a"}), {"t": "pass"}), (frozenset({"a"}), {"t": "fail"})]
    builds += [(frozenset({"z"}), {"t": "fail"})] * 600
    flipped, _, _ = reference.flips(builds)
    index = reference.CreditIndex(builds, flipped)
    assert reference.tie(index.ema({"a"}, 200, 0.8)["t"], 0.8 * 0.2 ** 199)
    assert index.ema({"a"}, 600, 0.8) == {}


def test_selection_ok_by_hand():
    scores = {"t1": 0.5, "t2": 0.25, "t3": 1e-300}
    universe = {"t1", "t2", "t3", "t4", "t5"}
    assert reference.selection_ok(["t1", "t2"], scores, universe, 2)
    assert reference.selection_ok(["t1", "t2", "t3", "t4"], scores, universe, 4)
    assert reference.selection_ok(["t1", "t2", "t3", "t5"], scores, universe, 4)
    # a representable score may not lose its place to zero-score padding
    assert not reference.selection_ok(["t1", "t2", "t4"], scores, universe, 3)
    # wrong size, duplicates and strangers
    assert not reference.selection_ok(["t1"], scores, universe, 2)
    assert not reference.selection_ok(["t1", "t1"], scores, universe, 2)
    assert not reference.selection_ok(["t1", "x"], scores, universe, 2)
    assert reference.selection_ok(sorted(universe), scores, universe, 9)


def test_ties_are_relative():
    universe = {"a", "b", "c"}
    near = {"a": 1.0, "b": 1.0 - 1e-12, "c": 0.1}
    assert reference.selection_ok(["b"], near, universe, 1)
    apart = {"a": 1.0, "b": 1.0 - 1e-6, "c": 0.1}
    assert not reference.selection_ok(["b"], apart, universe, 1)


@pytest.mark.parametrize("seed", range(20))
def test_negative_control_swapped_selection(seed):
    """A correct top-n with one test swapped for a lower-scored test it
    left out is flagged; the correct one passes."""
    rng = random.Random(seed)
    universe = {f"t{i:03d}" for i in range(60)}
    scores = {t: rng.random() for t in rng.sample(sorted(universe), 40)}
    n = rng.randint(2, 30)
    ranked = sorted(universe, key=lambda t: (-scores.get(t, 0.0), t))
    top = ranked[:n]
    assert reference.selection_ok(top, scores, universe, n)
    wrong = list(top)
    k = rng.randrange(n)
    wrong[k] = ranked[n + rng.randrange(40 - n)] if n < 40 else ranked[-1]
    assert scores.get(wrong[k], 0.0) < scores[top[k]]
    assert not reference.selection_ok(wrong, scores, universe, n)


def test_intersection_range_by_hand():
    scores = {"a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0}
    # n=2: a is certain, one of the tied b, c
    assert reference.intersection_range(scores, 6, 2, {"b"}) == (0, 1)
    assert reference.intersection_range(scores, 6, 2, {"a", "b", "c"}) == (2, 2)
    assert reference.intersection_range(scores, 6, 3, {"b"}) == (1, 1)
    # n=5: a..d plus one of the two zero-score tests e, f
    assert reference.intersection_range(scores, 6, 5, {"e"}) == (0, 1)
    assert reference.intersection_range(scores, 6, 6, {"e", "f"}) == (2, 2)


def test_row_matches_and_negative_control():
    row = {"seq": 3, "n_selected": 2, "n_predictable": 2, "intersection": 1.0,
           "precision": 0.5, "recall": 0.5, "f_measure": 0.5, "zero_fraction": 0.0}
    assert reference.row_matches(row, 3, 2, {"x", "y"}, 0, 1)
    assert not reference.row_matches(row, 3, 2, {"x", "y"}, 2, 2)
    assert not reference.row_matches(dict(row, recall=0.25), 3, 2, {"x", "y"}, 0, 1)
    assert not reference.row_matches(dict(row, zero_fraction=1.0), 3, 2, {"x", "y"}, 0, 1)


def test_aggregates_match():
    rows = [{"precision": 0.5, "recall": 1.0, "f_measure": 2 / 3, "zero_fraction": 0.0},
            {"precision": 0.0, "recall": 0.0, "f_measure": 0.0, "zero_fraction": 1.0}]
    report = {"evaluated_builds": 2, "aggregates": {
        "mean_precision": 0.25, "mean_recall": 0.5, "mean_f_measure": 1 / 3, "zero_pct": 0.5}}
    assert reference.aggregates_match(report, rows)
    report["aggregates"]["zero_pct"] = 0.4
    assert not reference.aggregates_match(report, rows)


def test_column_model_by_hand():
    model = reference.ColumnModel(0.5, ["t"])
    model.observe({"a", "b"})
    model.apply(["t"], {"t": "pass"})  # first verdict: no flip, no credit
    assert model.cols == {"t": {}}
    model.observe({"a"})
    model.apply(["t"], {"t": "fail"})  # flips: 0.5 / |{a}| on a
    assert model.cols == {"t": {"a": 0.5}}
    model.observe({"b", "c"})
    model.apply(["t"], {"t": "fail"})  # ran without flipping: decays
    assert model.cols == {"t": {"a": 0.25}}
    assert model.acc == {"t": set()}
    assert model.max_error({"t": {"a": 0.25}}) == 0.0
    assert model.max_error({"t": {"a": 0.25, "b": 0.1}}) == 0.1


def test_stable_pass_by_hand():
    staleness = {"a": 9, "b": 8, "c": 3, "d": 3, "e": 1, "x": 50}
    stable = {t: t != "x" for t in staleness}
    assert reference.stable_pass_ok(["a", "b", "c"], staleness, stable, 3, 7)
    assert reference.stable_pass_ok(["a", "b", "d"], staleness, stable, 3, 7)
    assert not reference.stable_pass_ok(["b", "a", "c"], staleness, stable, 3, 7)  # overdue order
    assert not reference.stable_pass_ok(["a", "c", "d"], staleness, stable, 3, 7)  # b overdue
    assert not reference.stable_pass_ok(["a", "b", "e"], staleness, stable, 3, 7)  # c staler
    assert not reference.stable_pass_ok(["a", "b", "c", "d"], staleness, stable, 3, 7)  # budget
    assert not reference.stable_pass_ok(["x", "a", "b"], staleness, stable, 3, 7)  # not stable


def test_closed_form_agrees_with_the_unpruned_program():
    """With pruning off, the program's fold gives the closed-form scores."""
    from flipsense import sensitivity
    from flipsense.history import extract_flips
    from flipsense.synth import SynthConfig, generate

    records, _ = generate(SynthConfig(seed=3, n_builds=40, n_files=60, n_tests=30))
    builds = [(r.changed_files, r.verdicts) for r in records]
    flipped, _, _ = reference.flips(builds)
    index = reference.CreditIndex(builds, flipped)
    ledger = extract_flips(records)
    matrix = sensitivity.empty_matrix(alpha=0.3, drop_threshold=0.0)
    for r in records[1:]:
        matrix = sensitivity.advance(
            matrix, sensitivity.build_delta(r.changed_files, ledger.flipped(r.seq)))
    changed = records[5].changed_files | records[9].changed_files
    program = sensitivity.slice_scores(matrix, changed).scores
    expected = index.ema(changed, len(records) - 1, 0.3)
    for t in program.keys() | expected.keys():
        assert reference.tie(program.get(t, 0.0), expected.get(t, 0.0))
