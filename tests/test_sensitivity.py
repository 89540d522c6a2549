"""Matrix deltas, EMA/cumulative folding, slicing, selection, and exports."""

import io
import json
import math
import random
from dataclasses import FrozenInstanceError, replace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from flipsense.baselines import hbtp_scores
from flipsense.errors import ConfigError, ValidationError
from flipsense.evaluate import MethodConfig, fold
from flipsense.history import extract_flips
from flipsense.sensitivity import (
    D_MODES,
    SCORE_MODES,
    UPDATE_MODES,
    Delta,
    PendingChanges,
    ScoreVector,
    SensitivityMatrix,
    advance,
    build_delta,
    empty_matrix,
    export_heatmap,
    flakiness_index,
    incremental_apply,
    incremental_observe,
    load_matrix,
    new_pending,
    save_matrix,
    select_top_n,
    slice_scores,
)
from flipsense.synth import SynthConfig, generate

from conftest import histories, sum_left_to_right, verdicts


def nnz(matrix):
    """The number of stored entries."""
    return sum(len(col) for col in matrix.cols.values())


def random_delta_sequence(rng, n_builds, file_pool, test_pool, d_mode="linear"):
    """Random per-build (changed, flipped) pairs, possibly empty."""
    deltas = []
    for _ in range(n_builds):
        changed = frozenset(rng.sample(file_pool, rng.randint(0, min(10, len(file_pool)))))
        flipped = frozenset(rng.sample(test_pool, rng.randint(0, min(8, len(test_pool)))))
        deltas.append((changed, flipped))
    return deltas


def closed_form_entry(deltas, alpha, f, t, d_mode="linear"):
    """Independent oracle: alpha * sum_j (1-alpha)^(k-j) * delta_j[f, t]."""
    k = len(deltas)
    total = 0.0
    for j, (changed, flipped) in enumerate(deltas, start=1):
        if f in changed and t in flipped:
            d = len(changed) if d_mode == "linear" else 1
            total += alpha * (1.0 - alpha) ** (k - j) * (1.0 / d)
    return total


class TestEmptyMatrix:
    @pytest.mark.parametrize("threshold", [-1e-12, float("nan"), float("inf"), float("-inf")])
    def test_bad_drop_threshold(self, threshold):
        with pytest.raises(ConfigError, match="drop_threshold"):
            empty_matrix(alpha=0.5, drop_threshold=threshold)


class TestBuildDelta:
    def test_linear_split(self):
        assert build_delta({"f1", "f2"}, {"t3"}, "linear") == \
            Delta(frozenset({"f1", "f2"}), frozenset({"t3"}), 0.5, "linear")

    def test_empty_sets_give_empty_delta(self):
        for changed, flipped in [(set(), {"t1"}), ({"f1"}, set())]:
            m = advance(empty_matrix(alpha=0.5), build_delta(changed, flipped, "linear"))
            assert nnz(m) == 0
            assert (m.files, m.tests) == (frozenset(changed), frozenset(flipped))

    def test_constant_mode_all_ones(self):
        delta = build_delta({"f1", "f2", "f3"}, {"t1", "t2"}, "constant")
        assert delta.value == 1.0
        m = advance(empty_matrix(update_mode="cumulative", d_mode="constant"), delta)
        assert nnz(m) == 6
        assert all(m.entry(f, t) == 1.0 for f in delta.files for t in delta.tests)
        with pytest.raises(ConfigError, match=r"^unknown d_mode 'x'$"):
            build_delta([], [], "x")
        with pytest.raises(ConfigError, match=r"^unknown d_mode 'x'$"):
            empty_matrix(d_mode="x")

    def test_registers_files_and_tests(self):
        delta = build_delta({"f1"}, set(), "linear")
        assert delta.files == {"f1"} and delta.tests == frozenset()

    @pytest.mark.parametrize("update_mode, alpha", [("ema", 0.5), ("cumulative", None)])
    def test_advance_leaves_the_shared_column_alone(self, update_mode, alpha):
        # one block lands in three columns, one of which already holds part of it
        delta = build_delta({"f1", "f2"}, {"t1", "t2", "t3"}, "linear")
        m = empty_matrix(alpha=alpha, update_mode=update_mode)
        advance(m, build_delta({"f1"}, {"t1"}, "linear"))
        slice_scores(m, {"f1"})  # build the row index, which advance extends
        advance(m, delta)
        advance(m, delta)
        assert delta == Delta(frozenset({"f1", "f2"}), frozenset({"t1", "t2", "t3"}), 0.5, "linear")
        assert len({id(col) for col in m.cols.values()}) == 3
        expected = {"ema": {("f1", "t1"): 0.5, ("f2", "t1"): 0.375},
                    "cumulative": {("f1", "t1"): 2.0, ("f2", "t1"): 1.0}}[update_mode]
        for t in ("t2", "t3"):
            for f in ("f1", "f2"):
                expected[(f, t)] = 0.375 if update_mode == "ema" else 1.0
        assert {(f, t): m.entry(f, t) for f in ("f1", "f2") for t in ("t1", "t2", "t3")} == \
            pytest.approx(expected, abs=1e-15)
        assert sorted(slice_scores(m, {"f2"}).positive) == ["t1", "t2", "t3"]

    def test_a_delta_refuses_assignment(self):
        delta = build_delta({"f1", "f2"}, {"t1", "t2", "t3"}, "linear")
        for name, value in [("value", 2.0), ("files", frozenset()), ("tests", frozenset()),
                            ("d_mode", "constant")]:
            with pytest.raises(FrozenInstanceError):
                setattr(delta, name, value)
        assert delta == Delta(frozenset({"f1", "f2"}), frozenset({"t1", "t2", "t3"}), 0.5, "linear")


class TestAdvance:
    def test_alpha_one_equals_delta(self):
        m = empty_matrix(alpha=1.0)
        m = advance(m, build_delta({"f1"}, {"t1"}, "linear"))
        m = advance(m, build_delta({"f2", "f3"}, {"t1"}, "linear"))
        assert m.entry("f1", "t1") == 0.0
        assert m.entry("f2", "t1") == 0.5
        assert m.entry("f3", "t1") == 0.5

    def test_alpha_zero_stays_zero(self):
        m = empty_matrix(alpha=0.0)
        for _ in range(4):
            m = advance(m, build_delta({"f1"}, {"t1"}, "linear"))
        assert nnz(m) == 0

    def test_single_blend_value(self):
        # old entry 0.5, delta entry 0.25, alpha 0.8 -> 0.8*0.25 + 0.2*0.5 = 0.3
        m = SensitivityMatrix(
            cols={"t1": {"f1": 0.5}}, files=frozenset({"f1"}), tests=frozenset({"t1"}),
            d_mode="linear", update_mode="ema", alpha=0.8, last_seq=3,
        )
        delta = build_delta({"f1", "x1", "x2", "x3"}, {"t1"}, "linear")  # entry 0.25
        out = advance(m, delta)
        assert out.entry("f1", "t1") == pytest.approx(0.3, abs=1e-15)
        assert out.last_seq == 4

    def test_d_mode_mismatch(self):
        m = empty_matrix(alpha=0.5, d_mode="linear")
        with pytest.raises(ConfigError, match="d_mode"):
            advance(m, build_delta({"f1"}, {"t1"}, "constant"))

    def test_closed_form_small(self):
        rng = random.Random(5)
        files = [f"f{i}" for i in range(12)]
        tests = [f"t{i}" for i in range(6)]
        deltas = random_delta_sequence(rng, 8, files, tests)
        for alpha in (0.2, 0.5, 0.8):
            m = empty_matrix(alpha=alpha, drop_threshold=0.0)
            for changed, flipped in deltas:
                m = advance(m, build_delta(changed, flipped, "linear"))
            for f in files:
                for t in tests:
                    expected = closed_form_entry(deltas, alpha, f, t)
                    assert m.entry(f, t) == pytest.approx(expected, abs=1e-12)

    def test_decay_law(self):
        # no flips for t after step j: column scales by (1-alpha)^(k-j)
        alpha = 0.7
        m = empty_matrix(alpha=alpha, drop_threshold=0.0)
        m = advance(m, build_delta({"f1", "f2"}, {"t1"}, "linear"))
        at_j = {f: m.entry(f, "t1") for f in ("f1", "f2")}
        steps = 5
        for _ in range(steps):
            m = advance(m, build_delta({"f3"}, {"t2"}, "linear"))
        for f, v in at_j.items():
            assert m.entry(f, "t1") == pytest.approx(v * (1 - alpha) ** steps, abs=1e-12)

    def test_cumulative_counts_cooccurrences(self):
        rng = random.Random(11)
        files = [f"f{i}" for i in range(8)]
        tests = [f"t{i}" for i in range(5)]
        deltas = random_delta_sequence(rng, 12, files, tests)
        m = empty_matrix(d_mode="constant", update_mode="cumulative")
        for changed, flipped in deltas:
            m = advance(m, build_delta(changed, flipped, "constant"))
        for f in files:
            for t in tests:
                count = sum(1 for c, fl in deltas if f in c and t in fl)
                assert m.entry(f, t) == count

    @pytest.mark.parametrize("d_mode", ["constant", "linear"])
    def test_cumulative_fold_keeps_scale_one_and_no_heap(self, d_mode):
        # decay multiplies the scale by a cumulative keep of 1.0, which
        # leaves it exactly 1.0, and a fold that never decays keeps no heap
        records, _ = generate(SynthConfig(seed=7))
        config = MethodConfig("cumulative", d_mode=d_mode)
        for matrix in fold(records, extract_flips(records), config):
            assert matrix.scale == 1.0 and matrix._heap is None

    def test_prunes_below_threshold(self):
        m = empty_matrix(alpha=0.5, drop_threshold=1e-3)
        m = advance(m, build_delta({"f1"}, {"t1"}, "linear"))  # 0.5
        for _ in range(12):  # 0.5^13 ~ 1.2e-4 < 1e-3
            m = advance(m, build_delta(set(), set(), "linear"))
        assert nnz(m) == 0
        assert "t1" in m.tests  # registry survives pruning

    def test_no_negative_and_bounded_entries(self):
        rng = random.Random(3)
        files = [f"f{i}" for i in range(10)]
        tests = [f"t{i}" for i in range(5)]
        m = empty_matrix(alpha=0.6)
        for changed, flipped in random_delta_sequence(rng, 30, files, tests):
            m = advance(m, build_delta(changed, flipped, "linear"))
            for t, col in m.cols.items():
                for f in col:
                    assert 0.0 < m.entry(f, t) <= 1.0


def reference_fold(deltas, update_mode, alpha, d_mode, threshold, start=()):
    """The copy-per-build recursion: each build decays every entry by keep,
    adds its credits and drops entries below the threshold or at 0. A build
    is a (changed, flipped) pair or a Delta of any value; ``start`` holds
    the first state's {(test, file): value}. Yields {(test, file): value}
    after each build."""
    weight, keep = (alpha, 1.0 - alpha) if update_mode == "ema" else (1.0, 1.0)
    values = dict(start)
    for delta in deltas:
        if isinstance(delta, Delta):
            credits = {(t, f): delta.value for t in delta.tests for f in delta.files}
        else:
            changed, flipped = delta
            d = len(changed) if d_mode == "linear" else 1
            credits = {(t, f): 1.0 / d for t in flipped for f in changed}
        values = {key: keep * v for key, v in values.items()}
        for key, credit in credits.items():
            values[key] = weight * credit + values.get(key, 0.0)
        values = {key: v for key, v in values.items() if v != 0.0 and v >= threshold}
        yield values


def assert_matches_reference(matrix, expected, threshold):
    """Same stored entries, except ones within 1e-12 relative of the
    threshold, and true values within 1e-12 relative."""
    assert all(matrix.cols.values()), "empty column"
    ours = {(t, f): matrix.entry(f, t) for t, col in matrix.cols.items() for f in col}
    assert all(v > 0.0 and v >= threshold for v in ours.values())
    for key in ours.keys() | expected.keys():
        if key in ours and key in expected:
            assert ours[key] == pytest.approx(expected[key], rel=1e-12, abs=0.0), key
        else:
            value = ours.get(key, expected.get(key))
            assert value == pytest.approx(threshold, rel=1e-12, abs=0.0), key


_FILE_POOL = [f"f{i}" for i in range(6)]
_TEST_POOL = [f"t{i}" for i in range(4)]
_builds = st.lists(
    st.tuples(st.frozensets(st.sampled_from(_FILE_POOL), max_size=4),
              st.frozensets(st.sampled_from(_TEST_POOL), max_size=3)),
    max_size=40,
)
# keep = 1 - alpha >= 1e-6 keeps 40 builds of decay (>= 1e-240) clear of
# subnormals, where the floor of 1e-200 can still be crossed
_update_settings = st.one_of(
    st.tuples(st.just("ema"), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0 - 1e-6))),
    st.tuples(st.just("cumulative"), st.none()),
)


class TestLazyEngine:
    """advance against the copy-per-build recursion it replaces."""

    @given(_builds, _update_settings, st.sampled_from(["linear", "constant"]),
           st.sampled_from([0.0, 1e-12, 1e-3, 0.3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_copy_per_build_recursion(self, deltas, update, d_mode, threshold):
        update_mode, alpha = update
        m = empty_matrix(alpha=alpha, d_mode=d_mode, update_mode=update_mode,
                         drop_threshold=threshold)
        expected_states = reference_fold(deltas, update_mode, alpha, d_mode, threshold)
        for k, ((changed, flipped), expected) in enumerate(zip(deltas, expected_states), 1):
            assert advance(m, build_delta(changed, flipped, d_mode)) is m
            assert_matches_reference(m, expected, threshold)
            assert m.last_seq == k
            assert m.files == frozenset().union(*(c for c, _ in deltas[:k]))
            assert m.tests == frozenset().union(*(fl for _, fl in deltas[:k]))
        if update_mode == "cumulative":
            assert m.scale == 1.0

    @pytest.mark.parametrize("threshold", [0.0, 1e-12])
    def test_long_history_crosses_the_renormalisation_floor(self, threshold):
        # 0.1^250 = 1e-250: the scale must be folded into the stored values
        rng = random.Random(17)
        deltas = random_delta_sequence(rng, 250, [f"f{i}" for i in range(15)],
                                       [f"t{i}" for i in range(6)])
        m = empty_matrix(alpha=0.9, drop_threshold=threshold)
        expected_states = reference_fold(deltas, "ema", 0.9, "linear", threshold)
        scales = []
        for (changed, flipped), expected in zip(deltas, expected_states):
            advance(m, build_delta(changed, flipped, "linear"))
            scales.append(m.scale)
            assert_matches_reference(m, expected, threshold)
        assert any(b > a for a, b in zip(scales, scales[1:]))  # renormalised
        assert min(scales) >= 1e-200 * 0.1

    def test_matrix_built_by_hand_is_pruned_as_it_decays(self):
        m = SensitivityMatrix(
            cols={"t1": {"f1": 2e-3, "f2": 0.5}}, files=frozenset({"f1", "f2"}),
            tests=frozenset({"t1"}), d_mode="linear", update_mode="ema", alpha=0.5,
            drop_threshold=1e-3,
        )
        advance(m, build_delta(set(), set(), "linear"))
        assert m.entry("f1", "t1") == 1e-3  # at the threshold: kept
        advance(m, build_delta(set(), set(), "linear"))
        assert set(m.cols["t1"]) == {"f2"} and m.entry("f2", "t1") == 0.125


def true_entries(matrix):
    return {(t, f): matrix.entry(f, t).hex() for t, col in matrix.cols.items() for f in col}


_values = st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.6, 1.0, 2.0])
# (files, tests, value) of a block built by hand, at any value
_hand_blocks = st.tuples(st.frozensets(st.sampled_from(_FILE_POOL), max_size=4),
                         st.frozensets(st.sampled_from(_TEST_POOL), max_size=3), _values)
# keep = 1 - alpha is 0, 1 or a power of two, so the lazy scale and the
# recursion's per-build decay round alike and true values agree bit for bit
_exact_settings = st.one_of(
    st.tuples(st.just("ema"), st.sampled_from([0.0, 0.5, 0.75, 0.875, 1.0])),
    st.tuples(st.just("cumulative"), st.none()),
)


class TestHandBuiltAdvance:
    """advance on blocks of any value and on matrices it did not fold,
    against the recursion bit for bit, with the row index kept current."""

    @given(st.lists(_hand_blocks, max_size=30), _exact_settings,
           st.sampled_from([0.0, 1e-3, 0.1, 0.3]),
           # start values are at least every threshold, as after an advance
           st.dictionaries(st.sampled_from(_TEST_POOL),
                           st.dictionaries(st.sampled_from(_FILE_POOL),
                                           st.sampled_from([0.3, 0.5, 0.6, 1.0, 2.0]), min_size=1),
                           max_size=4),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    # (f0, t0) falls under 0.1 in build 2 and its group's pop finds (f1, t0)
    # re-credited since the push, which survives until build 4
    @example(builds=[({"f0", "f1"}, {"t0"}, 0.25), ({"f1"}, {"t0"}, 0.5), ((), (), 1.0),
                     ((), (), 1.0)],
             update=("ema", 0.5), threshold=0.1, start={}, via_snapshot=False)
    # a loaded matrix: (f0, t0) is pruned from a column whose other entry
    # stays, t1's column empties, and t2's only credit starts under 0.3
    @example(builds=[((), (), 1.0), ({"f0"}, {"t2"}, 0.1), ((), (), 1.0)],
             update=("ema", 0.5), threshold=0.3,
             start={"t0": {"f0": 0.5, "f1": 2.0}, "t1": {"f2": 0.6}}, via_snapshot=True)
    # build 2 empties t0's column and leaves f3's row stale; build 3 gives
    # t0 the whole block, so the stale row must be compacted before the
    # credit, or it names t0 twice and a query adds its credit twice
    @example(builds=[({"f3"}, {"t0"}, 0.25), ((), (), 0.1), ({"f0", "f3"}, {"t0"}, 0.25)],
             update=("ema", 0.5), threshold=0.1, start={}, via_snapshot=False)
    def test_matches_recursion_bit_for_bit(self, builds, update, threshold, start, via_snapshot):
        update_mode, alpha = update
        m = replace(empty_matrix(alpha=alpha, update_mode=update_mode, drop_threshold=threshold),
                    cols={t: dict(col) for t, col in start.items()},
                    files=frozenset().union(*start.values()), tests=frozenset(start))
        if via_snapshot:
            buf = io.StringIO()
            save_matrix(m, buf)
            m = load_matrix(io.StringIO(buf.getvalue()))
        queries = [{"f0", "f2", "f5"}, {"f1", "g"}]
        assert_index_current(m, queries)
        deltas = [Delta(frozenset(files), frozenset(tests), value, "linear")
                  for files, tests, value in builds]
        begin = {(t, f): v for t, col in start.items() for f, v in col.items()}
        expected_states = reference_fold(deltas, update_mode, alpha, "linear", threshold, begin)
        for k, (delta, expected) in enumerate(zip(deltas, expected_states), 1):
            assert advance(m, delta) is m
            assert true_entries(m) == {key: v.hex() for key, v in expected.items()}
            assert all(m.cols.values()), "empty column"
            assert m.last_seq == k
            assert m.files == frozenset().union(*start.values(), *(d.files for d in deltas[:k]))
            assert m.tests == frozenset(start).union(*(d.tests for d in deltas[:k]))
            assert_index_current(m, queries)

    def test_a_matrix_it_did_not_fold_gets_one_heap_record_per_column(self):
        m = SensitivityMatrix(
            cols={"t0": {"f0": 0.5, "f1": 2.0}, "t1": {"f2": 0.6, "f3": 0.3}, "t2": {"f1": 1.0}},
            files=frozenset({"f0", "f1", "f2", "f3"}), tests=frozenset({"t0", "t1", "t2"}),
            d_mode="linear", update_mode="ema", alpha=0.5, drop_threshold=0.2,
        )
        advance(m, build_delta(set(), set()))  # t1's record pops: f3 goes, f2 is pushed again alone
        assert sorted((t, sorted(group)) for _, t, group in m._heap) == \
            [("t0", ["f0", "f1"]), ("t1", ["f2"]), ("t2", ["f1"])]
        advance(m, build_delta(set(), set()))  # f0 goes from t0's record, and t1's column empties
        assert true_entries(m) == {("t0", "f1"): (0.5).hex(), ("t2", "f1"): (0.25).hex()}
        assert sorted((t, sorted(group)) for _, t, group in m._heap) == \
            [("t0", ["f1"]), ("t2", ["f1"])]


def _start(kind, start):
    """A matrix holding start's entries, whose registries are sets
    (``empty`` holds none), frozensets (``frozen``, built by hand) or sets
    read back from a snapshot (``loaded``)."""
    m = empty_matrix(alpha=0.5)
    if kind != "empty":
        m = replace(m, cols={t: dict(col) for t, col in start.items()},
                    files=frozenset().union(*start.values()), tests=frozenset(start))
    if kind == "loaded":
        buf = io.StringIO()
        save_matrix(m, buf)
        m = load_matrix(io.StringIO(buf.getvalue()))
    return m


class TestRegistries:
    """``files`` and ``tests`` grow in place by each build's block."""

    @given(st.lists(_hand_blocks, max_size=20), st.sampled_from(["empty", "frozen", "loaded"]),
           st.dictionaries(st.sampled_from(_TEST_POOL),
                           st.dictionaries(st.sampled_from(_FILE_POOL), st.just(1.0), min_size=1),
                           max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_registries_are_the_union_of_the_folded_blocks(self, builds, kind, start):
        m = _start(kind, start)
        files, tests = set(m.files), set(m.tests)
        deltas = [Delta(frozenset(f), frozenset(t), value, "linear") for f, t, value in builds]
        begin = {(t, f): v for t, col in m.cols.items() for f, v in col.items()}
        registries = m.files, m.tests
        for delta, expected in zip(deltas, reference_fold(deltas, "ema", 0.5, "linear",
                                                          m.drop_threshold, begin)):
            advance(m, delta)
            files |= delta.files
            tests |= delta.tests
            assert true_entries(m) == {key: v.hex() for key, v in expected.items()}
            assert (m.files, m.tests) == (files, tests)
            if kind != "frozen":  # a set registry grows in place
                assert m.files is registries[0] and m.tests is registries[1]

    def test_replace_shares_the_registries(self):
        m = empty_matrix(alpha=0.5)
        copy = replace(m)
        assert copy.files is m.files and copy.tests is m.tests and copy.cols is m.cols

    @pytest.mark.parametrize("make", ["load_matrix", "incremental_apply"])
    def test_a_new_matrix_shares_no_registry_with_its_input(self, make):
        m = advance(empty_matrix(alpha=0.5), build_delta({"f1"}, {"t1"}))
        if make == "load_matrix":
            buf = io.StringIO()
            save_matrix(m, buf)
            made = load_matrix(io.StringIO(buf.getvalue()))
        else:
            pending = incremental_observe(new_pending(["t2"]), {"f2"})
            made, _ = incremental_apply(m, pending, ["t2"], {"t2": "pass"})
        before = set(made.files), set(made.tests)
        advance(made, build_delta({"f3"}, {"t3"}))
        assert (m.files, m.tests) == ({"f1"}, {"t1"})
        advance(m, build_delta({"f4"}, {"t4"}))
        assert (made.files, made.tests) == (before[0] | {"f3"}, before[1] | {"t3"})


def ranking(scores):
    """The positive tests as select_top_n ranks them, picked from those
    tests alone: (score desc, id asc)."""
    return select_top_n(scores, max(len(scores.positive), 1), scores.positive.keys())


def transposed(matrix):
    """file -> the sorted tests whose column holds it."""
    rows = {}
    for t in sorted(matrix.cols):
        for f in matrix.cols[t]:
            rows.setdefault(f, []).append(t)
    return rows


def assert_rows(matrix):
    """The row index, when built, names a test at most once a row, names
    only live entries outside the stale rows, and once its stale rows are
    compacted it is the transposition of cols."""
    rows, stale = matrix._rows, matrix._stale
    if rows is None:
        assert stale is None
        return
    assert stale <= rows.keys()
    for f, row in rows.items():
        assert row and len(set(row)) == len(row), f"row {f!r} is empty or names a test twice"
        if f not in stale:
            assert all(f in matrix.cols.get(t, ()) for t in row), f"row {f!r} names a pruned entry"
    compacted = {f: sorted(t for t in row if f in matrix.cols.get(t, ())) for f, row in rows.items()}
    assert {f: row for f, row in compacted.items() if row} == transposed(matrix)


def assert_index_current(matrix, queries):
    """The row index is current up to stale rows, a query leaves none of
    the rows it read stale, and every query scores as on a copy whose index
    is built afresh, bit for bit."""
    assert_rows(matrix)
    for changed in queries:
        for mode in SCORE_MODES:
            live = slice_scores(matrix, changed, mode)
            fresh = slice_scores(replace(matrix), changed, mode)
            assert {t: v.hex() for t, v in live.positive.items()} == \
                {t: v.hex() for t, v in fresh.positive.items()}
            assert ranking(live) == ranking(fresh)
        assert not matrix._stale & set(changed)
    assert_rows(matrix)


class TestRowIndex:
    """The file -> tests index that slice_scores reads, against cols."""

    @given(_builds, _update_settings, st.sampled_from([0.0, 1e-12, 0.3]),
           st.lists(st.frozensets(st.sampled_from(_FILE_POOL + ["g"]), max_size=4),
                    min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    # the second build credits (f0, t0), yet decay leaves it at 0.2508,
    # under the threshold: the heap, not the credit, deletes it
    @example(deltas=[(frozenset({"f0", "f1", "f2"}), frozenset({"t0"})),
                     (frozenset({"f0", "f1", "f2", "f3"}), frozenset({"t0"}))],
             update=("ema", 0.99), threshold=0.3, queries=[frozenset({"f0"})])
    # at alpha 1 each build empties the matrix, row index and all, through
    # the renormalisation before it adds its block
    @example(deltas=[(frozenset({"f0", "f1"}), frozenset({"t0"})),
                     (frozenset({"f1", "f2"}), frozenset({"t0", "t1"})), (frozenset(), frozenset()),
                     (frozenset({"f0"}), frozenset({"t2"}))],
             update=("ema", 1.0), threshold=0.3, queries=[frozenset({"f0"}), frozenset({"f1", "f2"})])
    def test_index_follows_advance(self, deltas, update, threshold, queries):
        update_mode, alpha = update
        m = empty_matrix(alpha=alpha, update_mode=update_mode, drop_threshold=threshold)
        assert_index_current(m, queries)
        for changed, flipped in deltas:
            advance(m, build_delta(changed, flipped, "linear"))
            assert_index_current(m, queries)

    @pytest.mark.parametrize("threshold", [0.0, 1e-12, 0.3])
    def test_index_across_the_renormalisation_floor(self, threshold):
        # at alpha 0.9 the scale crosses 1e-200 about every 200 builds; the
        # entry (f0, t0), credited once, underflows to 0 by the second
        # renormalisation when nothing prunes it first
        m = empty_matrix(alpha=0.9, drop_threshold=threshold)
        deltas = [({"f0", "f1"}, {"t0"})] + [({"f1", "f2"}, {"t1"})] * 450
        queries = [{"f0"}, {"f0", "f1", "f2"}]
        scales = []
        for changed, flipped in deltas:
            advance(m, build_delta(changed, flipped, "linear"))
            scales.append(m.scale)
            assert_index_current(m, queries)
        assert sum(b > a for a, b in zip(scales, scales[1:])) >= 2  # renormalised twice
        assert "t0" not in m.cols

    def test_index_is_not_copied_or_compared(self):
        # the second build prunes (f0, t0) after the index is built, so
        # f0's row stays, marked stale
        m = empty_matrix(alpha=0.5, drop_threshold=0.3)
        advance(m, build_delta({"f0"}, {"t0"}))
        slice_scores(m, {"f1"})
        advance(m, build_delta({"f1"}, {"t1"}))
        assert m._rows == {"f0": ["t0"], "f1": ["t1"]} and m._stale == {"f0"}
        copy = replace(m)
        assert copy._rows is None and copy._stale is None and copy == m
        buf = io.StringIO()
        save_matrix(m, buf)
        loaded = load_matrix(io.StringIO(buf.getvalue()))
        assert loaded._rows is None and loaded._stale is None
        applied, _ = incremental_apply(m, new_pending(), [], {})
        assert applied._rows is None and applied._stale is None
        slice_scores(m, {"f0"})  # reading the stale row compacts it away
        assert m._rows == {"f1": ["t1"]} and m._stale == set()

    def test_pruned_entries_credited_again_at_high_alpha(self):
        # at alpha 0.9 an entry falls under 0.3 one build after its credit
        # unless credited again, so rows go stale often and pruned entries
        # are credited again, with a query between builds
        rng = random.Random(31)
        m = empty_matrix(alpha=0.9, drop_threshold=0.3)
        files, tests = [f"f{i}" for i in range(6)], [f"t{i}" for i in range(5)]
        seen, pruned, recredited, stale_rows = set(), set(), set(), 0
        for _ in range(400):
            changed = rng.sample(files, rng.randint(1, 3))
            advance(m, build_delta(changed, rng.sample(tests, rng.randint(0, 3))))
            stale_rows += len(m._stale or ())
            entries = {(t, f) for t, col in m.cols.items() for f in col}
            recredited |= entries & pruned
            pruned |= seen - entries
            seen = entries
            assert_index_current(m, [set(rng.sample(files, rng.randint(0, 3)))])
        assert len(recredited) > 10 and stale_rows > 100


class TestSliceScores:
    def matrix(self):
        return SensitivityMatrix(
            cols={"t1": {"f1": 0.4, "f2": 0.1}, "t2": {"f2": 0.3}},
            files=frozenset({"f1", "f2"}),
            tests=frozenset({"t1", "t2"}),
            d_mode="linear",
            update_mode="ema",
            alpha=0.8,
        )

    def test_sum_mode(self):
        scores = slice_scores(self.matrix(), {"f1", "f2"}, "sum")
        assert scores.scores == {"t1": 0.5, "t2": 0.3}
        assert ranking(scores) == ["t1", "t2"]

    def test_max_mode(self):
        scores = slice_scores(self.matrix(), {"f1", "f2"}, "max")
        assert scores.scores == {"t1": 0.4, "t2": 0.3}
        with pytest.raises(ConfigError, match=r"^unknown score_mode 'x'$"):
            slice_scores(self.matrix(), [], "x")

    def test_unknown_files_score_zero(self):
        scores = slice_scores(self.matrix(), {"nope"}, "sum")
        assert scores.scores == {"t1": 0.0, "t2": 0.0}

    def test_sum_adds_left_to_right_in_file_id_order(self):
        # a compensated sum (math.fsum, or sum() from Python 3.12) gives
        # 1.0000000000000002
        col = {"f2": 1e-16, "f0": 1.0, "f1": 1e-16}
        assert math.fsum(col.values()) == 1.0000000000000002
        m = SensitivityMatrix(cols={"t1": col}, files=frozenset(col), tests=frozenset({"t1"}),
                              d_mode="linear", update_mode="ema", alpha=0.8)
        assert slice_scores(m, {"f2", "f1", "f0"}, "sum").positive == {"t1": 1.0}
        assert flakiness_index(m) == [("t1", 1.0, 1.0 / 3)]

    def test_sum_is_additive_over_disjoint_change_sets(self):
        m = self.matrix()
        both = slice_scores(m, {"f1", "f2"}, "sum").scores
        left = slice_scores(m, {"f1"}, "sum").scores
        right = slice_scores(m, {"f2"}, "sum").scores
        for t in m.tests:
            assert both[t] == pytest.approx(left[t] + right[t], abs=1e-15)


class TestSelectTopN:
    def test_argmax(self):
        assert select_top_n(ScoreVector({"a": 0.5, "b": 0.3}, frozenset("ab")), 1, {"a", "b"}) == ["a"]

    def test_lexicographic_tie(self):
        assert select_top_n(ScoreVector({"a": 0.5, "b": 0.5}, frozenset("ab")), 1, {"a", "b"}) == ["a"]

    def test_zero_score_padding(self):
        # oracle: positive scores first, then remaining universe by id
        assert select_top_n(ScoreVector({"a": 0.5}, frozenset("a")), 3, {"a", "b", "c"}) == ["a", "b", "c"]

    def test_quota_capped_by_universe(self):
        assert select_top_n(ScoreVector({"a": 1.0}, frozenset("a")), 10, {"a", "b"}) == ["a", "b"]

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            select_top_n(ScoreVector({"a": 1.0}, frozenset("a")), 0, {"a"})

    @given(st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 10), min_size=1),
           st.floats(min_value=0.1, max_value=100))
    @example(scores={"a": 0.0, "b": 5e-324}, factor=0.5)
    @settings(max_examples=50)
    def test_invariant_under_positive_rescaling(self, scores, factor):
        universe = set(scores) | {"zz"}
        rescaled = {t: v * factor for t, v in scores.items()}
        base = select_top_n(ScoreVector({t: v for t, v in scores.items() if v > 0.0},
                                        frozenset(scores)), 3, universe)
        scaled = select_top_n(ScoreVector({t: v for t, v in rescaled.items() if v > 0.0},
                                          frozenset(rescaled)), 3, universe)
        # oracle: score desc, id asc; absent ids score 0
        assert scaled == sorted(universe, key=lambda t: (-rescaled.get(t, 0.0), t))[:3]
        # Float rescaling can round a positive score to 0 or two distinct
        # scores to one; the ranking is invariant wherever it keeps them apart.
        def key(s, t):
            return (s[t] > 0.0, [s[t] < s[u] for u in sorted(s)], [s[t] == s[u] for u in sorted(s)])
        if all(key(scores, t) == key(rescaled, t) for t in scores):
            assert base == scaled


_small_ids = st.text(alphabet="abcd", min_size=1, max_size=2)
_entries = st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.integers(1, 999).map(lambda k: k / 1000))


@st.composite
def scoring_cases(draw):
    """A small matrix, a change set with unseen files, a universe with
    unknown tests, a size up to |universe| + 2 and a score mode."""
    files = sorted(draw(st.sets(_small_ids.map("f".__add__), min_size=1, max_size=6)))
    tests = sorted(draw(st.sets(_small_ids.map("t".__add__), min_size=1, max_size=6)))
    cols = {}
    for t in tests:
        col = {f: draw(_entries) for f in files if draw(st.booleans())}
        if col:
            cols[t] = col
    matrix = SensitivityMatrix(
        cols=cols, files=frozenset(files), tests=frozenset(tests), d_mode="linear",
        update_mode="ema", alpha=0.5,
    )
    changed = {f for f in files if draw(st.booleans())}
    changed |= draw(st.sets(_small_ids.map("g".__add__), max_size=2))
    universe = {t for t in tests if draw(st.booleans())}
    universe |= draw(st.sets(_small_ids.map("u".__add__), max_size=3))
    n = draw(st.integers(1, len(universe) + 2))
    return matrix, changed, universe, n, draw(st.sampled_from(SCORE_MODES))


class TestScoringOracle:
    @given(scoring_cases())
    @settings(max_examples=200)
    def test_matches_brute_force(self, case):
        matrix, changed, universe, n, mode = case
        expected = {}
        for t in matrix.tests:
            hits = [matrix.entry(f, t) for f in sorted(changed)]
            expected[t] = sum_left_to_right(hits) if mode == "sum" else max(hits, default=0.0)
        scores = slice_scores(matrix, changed, mode)
        assert scores.scores == expected
        positive = sorted((t for t, v in expected.items() if v > 0.0), key=lambda t: (-expected[t], t))
        assert ranking(scores) == positive
        ranked = [t for t in positive if t in universe]
        ranked += sorted(universe - set(ranked))
        assert select_top_n(scores, n, universe) == ranked[: min(n, len(universe))]

    @given(scoring_cases(), st.data())
    @settings(max_examples=200)
    def test_padding_matches_oracle(self, case, data):
        # known as a frozenset, a set or dict keys; set and frozenset
        # universes (padding walks the universe in id order, a set one
        # frozen first) with ids outside known or smaller than n; one known
        # with two universes; a set universe edited between two calls
        matrix, changed, universe, n, mode = case
        positive = slice_scores(matrix, changed, mode).positive
        ids = st.sets(st.sampled_from(sorted(matrix.tests | universe | {"a", "t", "zz"})))

        def oracle(scores, universe):
            ranked = sorted((t for t in scores.positive if t in universe),
                            key=lambda t: (-scores.positive[t], t))
            ranked += sorted(set(universe) - set(ranked))
            return ranked[: min(n, len(universe))]

        for known in (frozenset(matrix.tests), set(matrix.tests), dict.fromkeys(matrix.tests).keys()):
            scores = ScoreVector(positive, known)
            other = data.draw(ids)
            for u in (universe, frozenset(universe), other, frozenset(other)):
                if u:
                    assert select_top_n(scores, n, u) == oracle(scores, u)
            edited = set(universe)
            select_top_n(scores, n, edited)
            edited -= data.draw(ids)
            edited |= data.draw(ids)
            if edited:
                assert select_top_n(scores, n, edited) == oracle(scores, edited)

    @given(scoring_cases())
    @settings(max_examples=100)
    def test_selection_does_not_depend_on_universe_type(self, case):
        matrix, changed, universe, n, mode = case
        scores = slice_scores(matrix, changed, mode)
        as_dict = dict.fromkeys(universe)
        selections = [select_top_n(scores, n, u) for u in
                      (universe, frozenset(universe), sorted(universe), as_dict.keys())]
        assert selections.count(selections[0]) == 4
        assert universe == set(as_dict)  # not consumed or edited

    @given(scoring_cases())
    @settings(max_examples=50)
    def test_scores_view_is_a_copy(self, case):
        matrix, changed, _, _, mode = case
        scores = slice_scores(matrix, changed, mode)
        order, view = ranking(scores), scores.scores
        for t in list(view):
            view[t] = -1.0
        view["zz"] = 5.0
        assert ranking(scores) == order
        assert scores.scores == {t: scores.positive.get(t, 0.0) for t in matrix.tests}

    @given(histories(), st.data())
    @settings(max_examples=100)
    def test_hbtp_view_is_the_zero_filled_scores(self, records, data):
        at_seq = data.draw(st.integers(0, len(records)))
        ledger = extract_flips(records)
        expected = {t: 0.0 for t in ledger.universe}
        for record in records[:at_seq]:
            for t, verdict in record.verdicts.items():
                if verdict == "fail":
                    expected[t] = 1.0 / (1 + (at_seq - 1 - record.seq))
        scores = hbtp_scores(records, ledger, at_seq)
        assert scores.scores == expected
        assert ranking(scores) == sorted(
            (t for t, v in expected.items() if v > 0.0), key=lambda t: (-expected[t], t))


def reference_apply(matrix, pending, executed, new_verdicts):
    """The per-test loop: every executed test in id order checks its
    verdict, finds the files changed since it last ran and rebuilds its
    column, and then stamps itself."""
    weight, keep = (matrix.alpha, 1.0 - matrix.alpha) if matrix.update_mode == "ema" else (1.0, 1.0)
    cols = {}
    for t, col in matrix.cols.items():  # true values; one that underflows is left out
        col = {f: v * matrix.scale for f, v in col.items() if v * matrix.scale}
        if col:
            cols[t] = col
    files, tests = set(matrix.files), set(matrix.tests)
    last_run, last_verdict = dict(pending.last_run), dict(pending.last_verdict)
    since = pending._changed_since()
    for t in sorted(set(executed)):
        if t not in new_verdicts:
            raise ValueError(f"executed test {t!r} has no verdict")
        verdict = new_verdicts[t]
        if verdict not in ("pass", "fail"):
            raise ValueError(f"test {t!r} has verdict {verdict!r}")
        flipped = last_verdict.get(t, verdict) != verdict
        acc = since(last_run.get(t, pending.clock))
        col = {f: keep * v for f, v in cols.pop(t, {}).items()}
        if flipped and acc:
            value = weight / (float(len(acc)) if matrix.d_mode == "linear" else 1.0)
            for f in acc:
                col[f] = value + col.get(f, 0.0)
        col = {f: v for f, v in col.items() if v and v >= matrix.drop_threshold}
        if col:
            cols[t] = col
        files.update(acc)
        tests.add(t)
        last_run[t] = pending.clock
        last_verdict[t] = verdict
    new_matrix = replace(matrix, cols=cols, files=files, tests=tests, scale=1.0)
    return new_matrix, PendingChanges(pending.clock, dict(pending.changed_at), last_run, last_verdict)


def apply_bits(matrix, pending):
    """Everything an apply writes, each value as float.hex and each dict in
    its insertion order."""
    return (
        [(t, [(f, v.hex()) for f, v in col.items()]) for t, col in matrix.cols.items()],
        sorted(matrix.files), sorted(matrix.tests), matrix.scale.hex(), pending.clock,
        list(pending.changed_at.items()), list(pending.last_run.items()),
        list(pending.last_verdict.items()),
    )


_APPLY_FILES = [f"f{i}" for i in range(5)]
_APPLY_TESTS = [f"t{i}" for i in range(6)]


@st.composite
def apply_cases(draw):
    """A matrix, its pending stamps, an executed list and its verdicts. The
    test pool holds tests with a column, tests known only to the registry
    or the stamps, and tests seen nowhere; a verdict may be missing or bad."""
    update_mode, alpha = draw(st.sampled_from(
        [("ema", 0.0), ("ema", 0.3), ("ema", 0.8), ("ema", 1.0), ("cumulative", None)]))
    stored = st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
    cols = draw(st.dictionaries(st.sampled_from(_APPLY_TESTS[:4]), st.dictionaries(
        st.sampled_from(_APPLY_FILES), stored, min_size=1), max_size=4))
    matrix = SensitivityMatrix(
        cols=cols,
        files=set().union(*cols.values(), draw(st.sets(st.sampled_from(_APPLY_FILES)))),
        tests=set(cols) | draw(st.sets(st.sampled_from(_APPLY_TESTS))),
        d_mode=draw(st.sampled_from(D_MODES)), update_mode=update_mode, alpha=alpha,
        drop_threshold=draw(st.sampled_from([0.0, 1e-12, 0.1])),
        scale=draw(st.sampled_from([1.0, 0.5, 0.3**5, 1e-300])),
    )
    clock = draw(st.integers(0, 4))
    pending = PendingChanges(
        clock,
        draw(st.dictionaries(st.sampled_from(_APPLY_FILES), st.integers(min(1, clock), clock),
                             min_size=min(1, clock))),
        draw(st.dictionaries(st.sampled_from(_APPLY_TESTS), st.integers(0, clock), min_size=3)),
        draw(st.dictionaries(st.sampled_from(_APPLY_TESTS), verdicts, min_size=3)),
    )
    executed = draw(st.lists(st.sampled_from(_APPLY_TESTS), max_size=8))
    new_verdicts = {t: draw(verdicts) for t in draw(st.permutations(_APPLY_TESTS))}
    for t in draw(st.sets(st.sampled_from(_APPLY_TESTS), max_size=2)):
        bad = draw(st.sampled_from([None, "maybe", "missing"]))
        if bad == "missing":
            del new_verdicts[t]
        else:
            new_verdicts[t] = bad
    return matrix, pending, executed, new_verdicts


class TestIncremental:
    def test_observe_unions(self):
        pending = new_pending(["t1"])
        pending = incremental_observe(pending, {"f1"})
        assert pending.accumulated == {"t1": {"f1"}}
        pending = incremental_observe(pending, {"f1", "f2"})
        assert pending.accumulated == {"t1": {"f1", "f2"}}
        pending = incremental_observe(pending, set())
        assert pending.accumulated == {"t1": {"f1", "f2"}}

    def test_apply_flip_blends_column(self):
        # flipped with two accumulated files: entries 0.8 * 0.5 = 0.4
        m = empty_matrix(alpha=0.8)
        pending = new_pending(["t"])
        pending.last_verdict["t"] = "pass"
        pending = incremental_observe(pending, {"f1", "f2"})
        m2, pending2 = incremental_apply(m, pending, {"t"}, {"t": "fail"})
        assert m2.entry("f1", "t") == pytest.approx(0.4, abs=1e-15)
        assert m2.entry("f2", "t") == pytest.approx(0.4, abs=1e-15)
        assert pending2.accumulated["t"] == set()
        assert pending2.last_verdict["t"] == "fail"

    def test_apply_no_flip_decays(self):
        m = SensitivityMatrix(
            cols={"t": {"f1": 0.4}}, files=frozenset({"f1"}), tests=frozenset({"t"}),
            d_mode="linear", update_mode="ema", alpha=0.8,
        )
        pending = new_pending(["t"])
        pending.last_verdict["t"] = "fail"
        m2, _ = incremental_apply(m, pending, {"t"}, {"t": "fail"})
        assert m2.entry("f1", "t") == pytest.approx(0.08, abs=1e-15)

    def test_untouched_when_not_executed(self):
        m = SensitivityMatrix(
            cols={"t": {"f1": 0.4}, "u": {"f1": 0.2}}, files=frozenset({"f1"}),
            tests=frozenset({"t", "u"}), d_mode="linear", update_mode="ema", alpha=0.8,
        )
        pending = new_pending(["t", "u"])
        pending.last_verdict.update({"t": "fail", "u": "pass"})
        m2, _ = incremental_apply(m, pending, {"t"}, {"t": "fail"})
        assert m2.cols["u"] == {"f1": 0.2}

    def test_executed_without_verdict_rejected(self):
        m = empty_matrix(alpha=0.8)
        with pytest.raises(ValueError, match="no verdict"):
            incremental_apply(m, new_pending(["t"]), {"t"}, {})
        # the first bad verdict in id order is named, here the second
        # executed test's, and the inputs are left alone
        m = SensitivityMatrix(
            cols={"a": {"f1": 0.4}, "b": {"f2": 0.2}}, files=frozenset({"f1", "f2"}),
            tests=frozenset({"a", "b"}), d_mode="linear", update_mode="ema", alpha=0.8,
        )
        pending = new_pending(["a", "b"])
        pending.last_verdict.update({"a": "pass", "b": "pass"})
        pending = incremental_observe(pending, {"f1", "f3"})
        cols = {t: dict(col) for t, col in m.cols.items()}
        before = replace(pending, changed_at=dict(pending.changed_at), last_run=dict(pending.last_run),
                         last_verdict=dict(pending.last_verdict))
        with pytest.raises(ValueError, match="test 'b' has verdict 'maybe'"):
            incremental_apply(m, pending, ["b", "a"], {"a": "fail", "b": "maybe"})
        assert m.cols == cols and pending == before

    @given(apply_cases())
    @settings(max_examples=400, deadline=None)
    def test_apply_matches_the_per_test_loop(self, case):
        matrix, pending, executed, new_verdicts = case
        before = apply_bits(matrix, pending)
        try:
            expected = apply_bits(*reference_apply(matrix, pending, executed, new_verdicts))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                incremental_apply(matrix, pending, executed, new_verdicts)
            assert str(raised.value) == str(exc)  # the same test named
        else:
            assert apply_bits(*incremental_apply(matrix, pending, executed, new_verdicts)) \
                == expected
        assert apply_bits(matrix, pending) == before

    def test_first_execution_is_not_a_flip(self):
        m = empty_matrix(alpha=0.8)
        pending = incremental_observe(new_pending(["t"]), {"f1"})
        m2, pending2 = incremental_apply(m, pending, {"t"}, {"t": "fail"})
        assert nnz(m2) == 0
        assert pending2.last_verdict["t"] == "fail"

    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 10), st.integers(1, 8),
           st.sampled_from(D_MODES))
    @settings(max_examples=80, deadline=None)
    def test_cumulative_columns_match_the_build_wise_fold(self, seed, n_builds, n_files, n_tests,
                                                          d_mode):
        # every test runs every build, so each flip credits exactly that
        # build's changed files, as the build-wise counting fold does
        config = SynthConfig(seed=seed, n_builds=n_builds, n_files=n_files, n_tests=n_tests,
                             deps_per_test=(1, min(3, n_files)), change_set_size=(1, min(4, n_files)))
        records, _ = generate(config)
        for full in fold(records, extract_flips(records), MethodConfig("cumulative", d_mode=d_mode)):
            pass
        tests = sorted(records[0].verdicts)
        inc, pending = incremental_apply(empty_matrix(d_mode=d_mode, update_mode="cumulative"),
                                         new_pending(tests), tests, records[0].verdicts)
        for record in records[1:]:
            pending = incremental_observe(pending, record.changed_files)
            inc, pending = incremental_apply(inc, pending, tests, record.verdicts)
        assert full.scale == inc.scale == 1.0
        assert inc.cols == full.cols


class TestExports:
    def test_flakiness_fraction_and_mean(self):
        m = SensitivityMatrix(
            cols={"t1": {"f1": 0.3}}, files=frozenset({"f1", "f2"}),
            tests=frozenset({"t1"}), d_mode="linear", update_mode="ema", alpha=0.8,
        )
        assert flakiness_index(m) == [("t1", 0.5, pytest.approx(0.3))]

    def test_wide_shallow_test_ranks_first(self):
        # oracle on a 10-file matrix: coverage 0.9 at magnitude 0.05 beats
        # coverage 0.1 at magnitude 0.9
        files = frozenset(f"f{i}" for i in range(10))
        cols = {
            "t_wide": {f"f{i}": 0.05 for i in range(9)},
            "t_deep": {"f0": 0.9},
        }
        m = SensitivityMatrix(cols=cols, files=files, tests=frozenset(cols),
                              d_mode="linear", update_mode="ema", alpha=0.8)
        index = flakiness_index(m)
        assert index[0][0] == "t_wide"
        assert index[0][1] == pytest.approx(0.9)
        assert index[0][2] == pytest.approx(0.05)

    def test_heatmap_layout(self):
        m = SensitivityMatrix(
            cols={"t1": {"f1": 0.3}}, files=frozenset({"f1", "f2"}),
            tests=frozenset({"t1", "t2"}), d_mode="linear", update_mode="ema", alpha=0.8,
        )
        hm, fl = io.StringIO(), io.StringIO()
        export_heatmap(m, hm, fl)
        lines = hm.getvalue().splitlines()
        assert lines[0] == "file,t1,t2"
        assert lines[1] == "f1,0.3,0"
        assert lines[2] == "f2,0,0"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["ema", "cumulative"]),
           st.floats(0.01, 0.99))
    def test_heatmap_cells_are_the_entries(self, seed, method, alpha):
        # the table written from the nonzeros is the dense table of entry()
        records, _ = generate(SynthConfig(seed=seed, n_builds=30, n_files=40, n_tests=30))
        ledger = extract_flips(records)
        config = MethodConfig(method=method, alpha=alpha if method == "ema" else None)
        for m in fold(records, ledger, config):
            pass
        m.tests |= ledger.universe | {"t_unseen"}
        tests, files = sorted(m.tests), sorted(m.files)
        hm = io.StringIO()
        export_heatmap(m, hm, io.StringIO())
        assert hm.getvalue().splitlines() == [",".join(["file"] + tests)] + [
            ",".join([f] + [f"{m.entry(f, t):.6g}" for t in tests]) for f in files]

    def test_empty_matrix_headers_only(self):
        hm, fl = io.StringIO(), io.StringIO()
        export_heatmap(empty_matrix(alpha=0.5), hm, fl)
        assert hm.getvalue() == "file\n"
        assert fl.getvalue() == "test_id,fraction,mean_magnitude\n"

    def test_snapshot_round_trip(self):
        ema = SensitivityMatrix(
            cols={"t1": {"f1": 0.25}, "t2": {"f1": 0.5, "f2": 0.125}},
            files=frozenset({"f1", "f2", "f3"}), tests=frozenset({"t1", "t2"}),
            d_mode="linear", update_mode="ema", alpha=0.8, last_seq=9,
        )
        cumulative = SensitivityMatrix(
            cols={"t1": {"f1": 3.0, "f2": 1.0 / 3.0}}, files=frozenset({"f1", "f2"}),
            tests=frozenset({"t1", "t2"}), d_mode="constant", update_mode="cumulative",
            alpha=None, last_seq=4, drop_threshold=0.0,
        )
        for m in (ema, cumulative, empty_matrix(alpha=0.1)):
            buf = io.StringIO()
            save_matrix(m, buf)
            loaded = load_matrix(io.StringIO(buf.getvalue()))
            assert loaded == m

    def test_integer_entries_load_as_floats(self):
        text = json.dumps({
            "kind": "sensitivity-matrix", "d_mode": "constant", "update_mode": "cumulative",
            "alpha": None, "last_seq": 2, "drop_threshold": 0, "files": ["f1", "f2"],
            "tests": ["t1"], "cols": {"t1": {"f1": 2, "f2": 0.5}},
        })
        loaded = load_matrix(io.StringIO(text))
        assert loaded.cols == {"t1": {"f1": 2.0, "f2": 0.5}}
        assert [type(v) for v in loaded.cols["t1"].values()] == [float, float]

    def test_an_entry_below_the_threshold_is_rejected(self):
        # a cumulative matrix never decays, so no build would ever prune (f0, t0)
        text = json.dumps({
            "kind": "sensitivity-matrix", "d_mode": "constant", "update_mode": "cumulative",
            "alpha": None, "last_seq": 2, "drop_threshold": 0.3, "files": ["f0", "f1"],
            "tests": ["t0"], "cols": {"t0": {"f1": 0.2, "f0": 0.1}},
        })
        with pytest.raises(ValidationError) as info:
            load_matrix(io.StringIO(text))
        assert str(info.value) == \
            "sensitivity-matrix: column 't0' holds 0.1 for 'f0', below drop_threshold 0.3"


def json_dumps_snapshot(matrix):
    """The snapshot bytes as one json.dumps of the whole document, true
    values copied column by column: the reference for save_matrix."""
    cols = true_cols_of(matrix)
    doc = {
        "kind": "sensitivity-matrix",
        "d_mode": matrix.d_mode,
        "update_mode": matrix.update_mode,
        "alpha": matrix.alpha,
        "last_seq": matrix.last_seq,
        "drop_threshold": matrix.drop_threshold,
        "files": sorted(matrix.files),
        "tests": sorted(matrix.tests),
        "cols": cols,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def true_cols_of(matrix):
    """Each entry's stored value times the scale, leaving out a true value
    that underflows to 0.0 and a column left with none."""
    cols = {t: {f: v * matrix.scale for f, v in col.items() if v * matrix.scale}
            for t, col in matrix.cols.items()}
    return {t: col for t, col in cols.items() if col}


# ids that json.dumps must escape: quotes, backslashes, control, non-ASCII
# and astral characters
_IDS = st.text(st.sampled_from('ab"\\\x00\x1f\x7f/\u00e9\u2028\ud7ff\U0001f600'), min_size=1, max_size=4)
_VALUES = st.one_of(
    st.sampled_from([0.5, 1.0 / 3.0, 0.1, 5e-324, 1e-300, 1.7976931348623157e308, 1e308]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
)


@st.composite
def snapshot_matrices(draw):
    cols = draw(st.dictionaries(_IDS, st.dictionaries(_IDS, _VALUES, min_size=1, max_size=5),
                                max_size=5))
    update_mode = draw(st.sampled_from(UPDATE_MODES))
    alpha = draw(st.one_of(st.floats(0.0, 1.0), st.none()) if update_mode == "cumulative"
                 else st.floats(0.0, 1.0))
    return SensitivityMatrix(
        cols=cols,
        files=frozenset(f for col in cols.values() for f in col) | draw(st.frozensets(_IDS, max_size=2)),
        tests=frozenset(cols) | draw(st.frozensets(_IDS, max_size=2)),
        d_mode=draw(st.sampled_from(D_MODES)),
        update_mode=update_mode,
        alpha=alpha,
        last_seq=draw(st.integers(0, 10**6)),
        drop_threshold=draw(st.sampled_from([0.0, 1e-12, 0.25])),
        scale=draw(st.sampled_from([1.0, 0.7 ** 50, 0.5, 1e-200])),
    )


class TestSnapshotWriter:
    @settings(max_examples=300, deadline=None)
    @given(snapshot_matrices())
    @example(empty_matrix(alpha=0.1))
    @example(empty_matrix(update_mode="cumulative", d_mode="constant"))
    def test_bytes_and_round_trip(self, matrix):
        buf = io.StringIO()
        save_matrix(matrix, buf)
        assert buf.getvalue() == json_dumps_snapshot(matrix)
        true_cols = true_cols_of(matrix)
        if all(min(col.values()) >= matrix.drop_threshold
               and math.isfinite(sum(col.values())) for col in true_cols.values()):
            loaded = load_matrix(io.StringIO(buf.getvalue()))
            as_bits = lambda cols: {t: {f: v.hex() for f, v in col.items()} for t, col in cols.items()}
            assert as_bits(loaded.cols) == as_bits(true_cols)
            assert (loaded.files, loaded.tests, loaded.alpha) == (matrix.files, matrix.tests, matrix.alpha)
        else:  # an entry is below drop_threshold, or a column sums to infinity
            with pytest.raises(ValidationError):
                load_matrix(io.StringIO(buf.getvalue()))

    def test_underflowed_entries_are_left_out(self):
        # drop_threshold 0 deletes nothing: t1's stored value stays positive
        # while its true value, 0.9 * 0.1**324, underflows to 0.0
        m = empty_matrix(alpha=0.9, drop_threshold=0.0)
        advance(m, build_delta({"f1"}, {"t1"}))
        advance(m, build_delta({"f2"}, {"t2"}))
        for _ in range(323):
            advance(m, build_delta({"f3"}, ()))
        assert m.cols["t1"]["f1"] > 0.0 and m.entry("f1", "t1") == 0.0 and m.entry("f2", "t2") > 0.0
        buf = io.StringIO()
        save_matrix(m, buf)
        assert json.loads(buf.getvalue())["cols"] == {"t2": {"f2": m.entry("f2", "t2")}}
        loaded = load_matrix(io.StringIO(buf.getvalue()))
        assert loaded.tests == m.tests == {"t1", "t2"}
        assert flakiness_index(loaded) == flakiness_index(m) == [("t2", 1 / 3, m.entry("f2", "t2"))]

    def test_one_number_text_in_two_columns(self):
        text = ('{"alpha":0.8,"cols":{"t1":{"f1":0.1,"f2":1e-1},"t2":{"f1":0.1}},"d_mode":"linear",'
                '"drop_threshold":1e-12,"files":["f1","f2"],"kind":"sensitivity-matrix",'
                '"last_seq":1,"tests":["t1","t2"],"update_mode":"ema"}')
        cols = load_matrix(io.StringIO(text)).cols
        assert cols == {"t1": {"f1": 0.1, "f2": 0.1}, "t2": {"f1": 0.1}}
        assert [type(v) for col in cols.values() for v in col.values()] == [float] * 3

    def test_overflowing_number_text_is_rejected(self):
        text = ('{"alpha":0.8,"cols":{"t1":{"f1":1e400},"t2":{"f1":1e400}},"d_mode":"linear",'
                '"drop_threshold":1e-12,"files":["f1"],"kind":"sensitivity-matrix",'
                '"last_seq":1,"tests":["t1","t2"],"update_mode":"ema"}')
        with pytest.raises(ValidationError, match="column 't1' entries must be finite"):
            load_matrix(io.StringIO(text))


class TestSnapshotScoresAsItsMatrix:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.1, 0.3, 0.8]) | st.floats(0.01, 0.99),
           st.data())
    def test_live_and_reloaded_give_the_same_bits(self, seed, alpha, data):
        # a snapshot holds each entry's true value, stored * scale; the live
        # matrix must add exactly those, not scale a sum of stored values
        records, _ = generate(SynthConfig(seed=seed, n_builds=40, n_files=60, n_tests=40))
        for live in fold(records, extract_flips(records), MethodConfig(method="ema", alpha=alpha)):
            pass
        buf = io.StringIO()
        save_matrix(live, buf)
        loaded = load_matrix(io.StringIO(buf.getvalue()))
        files = sorted(live.files)
        for _ in range(10):
            changed = data.draw(st.sets(st.sampled_from(files), min_size=1, max_size=12))
            for mode in SCORE_MODES:
                live_bits, loaded_bits = (
                    {t: v.hex() for t, v in slice_scores(m, changed, mode).positive.items()}
                    for m in (live, loaded))
                assert live_bits == loaded_bits
        live_index, loaded_index = (
            [(t, fraction.hex(), mean.hex()) for t, fraction, mean in flakiness_index(m)]
            for m in (live, loaded))
        assert live_index == loaded_index
        tables = []
        for m in (live, loaded):
            heatmap, flakiness = io.StringIO(), io.StringIO()
            export_heatmap(m, heatmap, flakiness)
            tables.append((heatmap.getvalue(), flakiness.getvalue()))
        assert tables[0] == tables[1]
