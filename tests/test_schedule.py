"""Staleness cost, stable-test strategies, day ticks, and the office blend."""

import io
import json
import random
import re
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from flipsense.baselines import dissimilarity_order
from flipsense.history import VERDICTS, extract_flips
from flipsense.schedule import (
    ScheduleState,
    cost,
    day_tick,
    load_state,
    office_hours_tick,
    save_state,
    select_stable,
    state_from_history,
)
from flipsense.sensitivity import (
    PendingChanges,
    ScoreVector,
    SensitivityMatrix,
    empty_matrix,
    incremental_apply,
    incremental_observe,
    new_pending,
    select_top_n,
    slice_scores,
)

from conftest import rec


def state_of(staleness, stable=None):
    stable = stable if stable is not None else {t: True for t in staleness}
    return ScheduleState(staleness=dict(staleness), stable=stable, pending=new_pending(staleness))


class TestCost:
    def test_examples(self):
        assert cost(state_of({"a": 3, "b": 1, "c": 2})) == 14
        assert cost(state_of({"a": 0, "b": 0})) == 0
        assert cost(state_of({"a": 5})) == 25


class TestDayTick:
    def test_executed_reset_others_age(self):
        state = day_tick(state_of({"a": 2, "b": 0}), {"a"})
        assert state.staleness == {"a": 0, "b": 1}

    def test_empty_execution_ages_all(self):
        state = day_tick(state_of({"a": 2, "b": 0}), set())
        assert state.staleness == {"a": 3, "b": 1}

    def test_full_execution_resets_all(self):
        state = day_tick(state_of({"a": 2, "b": 7}), {"a", "b"})
        assert state.staleness == {"a": 0, "b": 0}


class TestSelectStable:
    def test_cost_min_picks_stalest(self):
        state = state_of({"a": 3, "b": 1, "c": 2})
        assert select_stable(state, 1, "cost_min") == ["a"]
        # post-execution cost: 0 + 1 + 4 = 5, the brute-force optimum
        best = min(
            (sum(s * s for t, s in state.staleness.items() if t != picked), picked)
            for picked in state.staleness
        )
        assert best[0] == 5 and best[1] == "a"

    def test_round_robin_overdue_first(self):
        state = state_of({"a": 8, "b": 2})
        assert select_stable(state, 2, "round_robin", window_days=7) == ["a", "b"]

    def test_round_robin_overdue_tier_in_id_order(self):
        # dissimilarity would put ui_login second; an overdue tier keeps id order
        state = state_of({"net_tx_a": 5, "net_tx_b": 5, "ui_login": 5, "db_init": 0})
        assert dissimilarity_order(["net_tx_a", "net_tx_b", "ui_login"])[1] == "ui_login"
        assert select_stable(state, 2, "round_robin", window_days=3) == ["net_tx_a", "net_tx_b"]

    def test_round_robin_fresh_tier_ordered_against_overdue_picks(self):
        # alone, the fresh tier would start at net_tx_b (smallest id); against
        # the overdue pick net_tx_a, ui_login is farther (1.0 vs 0.5)
        state = state_of({"net_tx_a": 5, "net_tx_b": 1, "ui_login": 1})
        assert select_stable(state, 2, "round_robin", window_days=3) == ["net_tx_a", "ui_login"]

    def test_budget_covers_all(self):
        state = state_of({"a": 1, "b": 0, "c": 4})
        assert select_stable(state, 10, "cost_min") == ["c", "a", "b"]

    def test_only_stable_tests_are_candidates(self):
        state = state_of({"a": 9, "b": 1}, stable={"a": False, "b": True})
        assert select_stable(state, 5, "cost_min") == ["b"]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            select_stable(state_of({"a": 1}), 0)
        with pytest.raises(ValueError, match=r"^unknown strategy 'x'$"):
            select_stable(state_of({"a": 1}), 1, strategy="x")

    @pytest.mark.parametrize("window", [0, -5])
    def test_invalid_window(self, window):
        with pytest.raises(ValueError, match="window"):
            select_stable(state_of({"a": 1, "b": 2}), 1, "round_robin", window_days=window)

    def test_greedy_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(80):
            n = rng.randint(1, 10)
            tests = {f"t{i}": rng.randint(0, 6) for i in range(n)}
            state = state_of(tests)
            for budget in range(1, min(3, n) + 1):
                picked = select_stable(state, budget, "cost_min")
                greedy_cost = sum(
                    s * s for t, s in tests.items() if t not in set(picked)
                )
                brute = min(
                    sum(s * s for t, s in tests.items() if t not in set(subset))
                    for subset in combinations(sorted(tests), budget)
                )
                assert greedy_cost == brute

    def test_greedy_never_worse_than_any_other_set(self):
        rng = random.Random(29)
        tests = {f"t{i}": rng.randint(0, 9) for i in range(8)}
        state = state_of(tests)
        picked = set(select_stable(state, 3, "cost_min"))
        greedy_cost = sum(s * s for t, s in tests.items() if t not in picked)
        for subset in combinations(sorted(tests), 3):
            other = sum(s * s for t, s in tests.items() if t not in set(subset))
            assert greedy_cost <= other

    def test_round_robin_window_coverage(self):
        # budget ceil(N / w) guarantees every stable test runs in any w-day
        # horizon once the rotation is underway
        n, window = 100, 7
        budget = -(-n // window)
        state = state_of({f"t{i:03d}": 0 for i in range(n)})
        last_run = {t: None for t in state.staleness}
        horizon = 4 * window
        for day in range(horizon):
            picked = select_stable(state, budget, "round_robin", window_days=window)
            for t in picked:
                last_run[t] = day
            state = day_tick(state, picked)
        for t, day in last_run.items():
            assert day is not None and horizon - day <= window, (t, day)
        # steady state: no test is ever older than the window
        assert max(state.staleness.values()) <= window


class TestStableTests:
    def history(self):
        return [
            rec(0, [], {"flippy": "pass", "always_fail": "fail", "always_pass": "pass"}),
            rec(1, [], {"flippy": "fail", "always_fail": "fail", "always_pass": "pass"}),
        ]

    def test_never_flipped_rule(self):
        records = self.history()
        ledger = extract_flips(records)
        assert state_from_history(records, ledger).stable_tests() == ["always_fail", "always_pass"]

    def test_state_from_history(self):
        records = self.history()
        state = state_from_history(records, extract_flips(records))
        assert state.stable == {"flippy": False, "always_fail": True, "always_pass": True}
        assert set(state.pending.accumulated) == set(state.staleness)
        assert state.failed_at == {"always_fail": 0, "flippy": 0}


class TestOfficeHoursTick:
    def matrix(self):
        return SensitivityMatrix(
            cols={"a": {"f1": 1.0}}, files=frozenset({"f1"}), tests=frozenset({"a"}),
            d_mode="linear", update_mode="ema", alpha=0.8,
        )

    def test_pure_sensitivity_at_w_one(self):
        m = self.matrix()
        hbtp = ScoreVector({"b": 1.0}, frozenset({"b"}))
        assert office_hours_tick(m, new_pending(), {"f1"}, hbtp, 1, w=1.0) == ["a"]

    def test_pure_recency_at_w_zero(self):
        m = self.matrix()
        hbtp = ScoreVector({"b": 1.0}, frozenset({"b"}))
        assert office_hours_tick(m, new_pending(), {"f1"}, hbtp, 1, w=0.0) == ["b"]

    def test_even_blend_ties_break_by_id(self):
        # by hand: both normalise to 1.0, so a and b tie at 0.5
        m = self.matrix()
        hbtp = ScoreVector({"b": 1.0}, frozenset({"b"}))
        assert office_hours_tick(m, new_pending(), {"f1"}, hbtp, 2, w=0.5) == ["a", "b"]

    def test_all_zero_recency_equals_sensitivity_path(self):
        rng = random.Random(41)
        files = [f"f{i}" for i in range(6)]
        tests = [f"t{i}" for i in range(8)]
        cols = {
            t: {f: rng.random() for f in rng.sample(files, rng.randint(1, 4))}
            for t in rng.sample(tests, 5)
        }
        m = SensitivityMatrix(cols=cols, files=frozenset(files), tests=frozenset(tests),
                              d_mode="linear", update_mode="ema", alpha=0.8)
        changed = set(rng.sample(files, 3))
        hbtp = ScoreVector({}, frozenset(tests))
        blended = office_hours_tick(m, new_pending(tests), changed, hbtp, 4, w=0.6)
        pure = select_top_n(slice_scores(m, changed, "sum"), 4, set(tests))
        assert blended == pure

    def test_weight_bounds(self):
        # w is checked first; select_top_n checks the size
        for k, w, err in [
            (1, 1.5, "blend weight must be in [0, 1], got 1.5"),
            (0, 1.5, "blend weight must be in [0, 1], got 1.5"),
            (0, 0.5, "selection size must be >= 1, got 0"),
        ]:
            with pytest.raises(ValueError, match=re.escape(err)):
                office_hours_tick(self.matrix(), new_pending(), set(), ScoreVector({}, frozenset()), k, w=w)


class TestStatePersistence:
    def test_round_trip(self):
        records = [
            rec(0, [], {"a": "pass", "b": "fail"}),
            rec(1, [], {"a": "fail", "b": "fail"}),
        ]
        state = state_from_history(records, extract_flips(records))
        state.staleness["b"] = 4
        pending = incremental_observe(state.pending, {"f1", "f2"})
        _, pending = incremental_apply(empty_matrix(alpha=0.8), pending, {"b"}, {"b": "fail"})
        state.pending = incremental_observe(pending, {"f3"})
        state.pending.last_verdict["a"] = "fail"
        assert state.pending.accumulated == {"a": {"f1", "f2", "f3"}, "b": {"f3"}}
        buf = io.StringIO()
        save_state(state, buf)
        loaded = load_state(io.StringIO(buf.getvalue()))
        assert loaded == state
        assert loaded.pending.accumulated == state.pending.accumulated


class SetPerTestModel:
    """The pending-change bookkeeping as one file set per tracked test, with
    the column-wise EMA updates it drives and the day counter."""

    def __init__(self, alpha, tests):
        self.alpha = alpha
        self.acc = {t: set() for t in tests}
        self.last = {}
        self.cols, self.files, self.tests = {}, set(), set()
        self.staleness = dict.fromkeys(tests, 0)

    def observe(self, changed):
        for acc in self.acc.values():
            acc |= changed

    def apply(self, verdicts):
        for t in sorted(verdicts):
            acc = self.acc.get(t, set())
            col = {f: (1.0 - self.alpha) * v for f, v in self.cols.pop(t, {}).items()}
            if self.last.get(t, verdicts[t]) != verdicts[t] and acc:
                for f in acc:
                    col[f] = self.alpha / len(acc) + col.get(f, 0.0)
            col = {f: v for f, v in col.items() if v}
            if col:
                self.cols[t] = col
            self.files |= acc
            self.tests.add(t)
            self.acc[t] = set()
            self.last[t] = verdicts[t]

    def tick(self, executed):
        self.staleness = {t: 0 if t in executed else s + 1 for t, s in self.staleness.items()}
        self.staleness.update(dict.fromkeys(executed, 0))

    def reload(self, saved):
        # a saved state lists every test it knows, and each loads as tracked
        for t in saved:
            self.acc.setdefault(t, set())
            self.staleness.setdefault(t, 0)


_FILES = [f"f{i}" for i in range(5)]
_TESTS = [f"t{i}" for i in range(5)]
_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("observe"), st.sets(st.sampled_from(_FILES), max_size=3)),
            st.tuples(st.just("apply"), st.dictionaries(
                st.sampled_from(_TESTS), st.sampled_from(["pass", "fail"]), max_size=4)),
            st.tuples(st.just("tick"), st.sets(st.sampled_from(_TESTS), max_size=3)),
        ),
        st.booleans(),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.3, 0.8, 1.0]), st.sets(st.sampled_from(_TESTS)), _STEPS)
def test_pending_changes_match_a_file_set_per_test(alpha, tracked, steps):
    # two clocks give the file-set-per-test semantics step for step: the
    # accumulated view, the matrix columns they feed, and a saved state;
    # no step changes the state it was given
    model = SetPerTestModel(alpha, sorted(tracked))
    matrix = empty_matrix(alpha=alpha, drop_threshold=0.0)
    state = ScheduleState(staleness=dict.fromkeys(tracked, 0),
                          stable=dict.fromkeys(tracked, True), pending=new_pending(tracked))
    for (op, arg), reload in steps:
        before, seen = state.pending, state.pending.accumulated
        if op == "observe":
            state.pending = incremental_observe(state.pending, arg)
            model.observe(arg)
        elif op == "apply":
            matrix, state.pending = incremental_apply(matrix, state.pending, sorted(arg), arg)
            model.apply(arg)
        else:
            state = day_tick(state, arg)
            model.tick(arg)
        assert before.accumulated == seen
        if state.pending is not before:
            assert not {id(before.changed_at), id(before.last_run), id(before.last_verdict)} & {
                id(state.pending.changed_at), id(state.pending.last_run),
                id(state.pending.last_verdict)}
        assert state.pending.accumulated == model.acc
        assert state.pending.last_verdict == model.last
        assert (matrix.cols, matrix.files, matrix.tests) == (model.cols, model.files, model.tests)
        assert state.staleness == model.staleness
        buf = io.StringIO()
        save_state(state, buf)
        loaded = load_state(io.StringIO(buf.getvalue()))
        saved = state.staleness.keys() | state.stable.keys() | model.acc.keys()
        assert loaded.pending.accumulated == {t: model.acc.get(t, set()) for t in saved}
        assert loaded.pending.last_verdict == model.last
        assert loaded.staleness == {t: state.staleness.get(t, 0) for t in saved}
        assert loaded.stable == {t: state.stable.get(t, False) for t in saved}
        if reload:
            state = loaded
            model.reload(saved)


def json_dumps_state(state):
    """The state bytes as one json.dumps of the whole document, each
    per-test field an object keyed by test id: the reference for save_state."""
    pending = state.pending
    tests = state.staleness.keys() | state.stable.keys() | pending.tests()
    doc = {
        "kind": "schedule-state",
        "clock": pending.clock,
        "changed_at": pending.changed_at,
        "failed_at": state.failed_at,
        "staleness": {t: state.staleness.get(t, 0) for t in tests},
        "stable": {t: state.stable.get(t, False) for t in tests},
        "last_run": {t: pending.last_run.get(t, pending.clock) for t in tests},
        "last_verdict": pending.last_verdict,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ids that json.dumps must escape: quotes, backslashes, control, non-ASCII
# and astral characters
_STATE_IDS = st.text(st.sampled_from('ab"\\\x00\x1f\x7f/é \U0001f600'), min_size=1, max_size=4)


@st.composite
def schedule_states(draw):
    """States whose tests may be known to any subset of the four maps, with
    failure stamps at or before the clock."""
    clock = draw(st.integers(0, 10**6))
    stamps = st.integers(1, clock) if clock else st.nothing()
    changed_at = draw(st.dictionaries(_STATE_IDS, stamps, max_size=5)) if clock else {}
    return ScheduleState(
        staleness=draw(st.dictionaries(_STATE_IDS, st.integers(0, 10**9), max_size=5)),
        stable=draw(st.dictionaries(_STATE_IDS, st.booleans(), max_size=5)),
        pending=PendingChanges(
            clock, changed_at,
            draw(st.dictionaries(_STATE_IDS, st.integers(0, clock), max_size=5)),
            draw(st.dictionaries(_STATE_IDS, st.sampled_from(VERDICTS), max_size=5)),
        ),
        failed_at=draw(st.dictionaries(_STATE_IDS, st.integers(-10**6, clock), max_size=5)),
    )


class TestStateWriter:
    @settings(max_examples=300, deadline=None)
    @given(schedule_states())
    @example(ScheduleState())
    def test_bytes_and_load(self, state):
        buf = io.StringIO()
        save_state(state, buf)
        assert buf.getvalue() == json_dumps_state(state)
        loaded = load_state(io.StringIO(buf.getvalue()))
        tests = state.staleness.keys() | state.stable.keys() | state.pending.tests()
        assert loaded.staleness == {t: state.staleness.get(t, 0) for t in tests}
        assert loaded.stable == {t: state.stable.get(t, False) for t in tests}
        assert loaded.pending.last_run == {t: state.pending.last_run.get(t, state.pending.clock)
                                           for t in tests}
        assert loaded.pending.changed_at == state.pending.changed_at
        assert loaded.pending.last_verdict == state.pending.last_verdict
        assert loaded.failed_at == state.failed_at
