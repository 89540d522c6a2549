"""Replay metrics, the replay protocol, the alpha sweep, and figure tables."""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from flipsense.baselines import RandomPolicy
from flipsense.errors import ConfigError, UndefinedMetricError, ValidationError
from flipsense.evaluate import (
    FIGURE_METRICS,
    EvalReport,
    MethodConfig,
    f_measure,
    figure_data,
    fold,
    improvement_summary,
    precision,
    recall,
    replay,
    replay_sizes,
    report_to_json,
    sweep_alpha,
)
from flipsense.history import extract_flips
from flipsense.synth import SynthConfig, generate

from conftest import rec


class TestMetrics:
    def test_precision_examples(self):
        sel = {f"s{i}" for i in range(6)} | {"a", "b", "c", "d"}
        assert precision(sel, {"a", "b", "c", "d"}) == pytest.approx(0.4)
        assert precision({"a"}, {"b"}) == 0.0
        assert precision({"a", "b", "c", "d", "e"}, {"a", "b", "c", "d", "e"}) == 1.0

    def test_recall_examples(self):
        sel = {"a", "b", "c", "d", "x", "y"}
        assert recall(sel, {"a", "b", "c", "d"}) == 1.0  # predictable subset of selected
        assert recall({"a", "b"}, {"a", "b", "c", "d"}) == 0.5
        assert recall({"x"}, {"a"}) == 0.0

    def test_undefined_metrics(self):
        with pytest.raises(UndefinedMetricError):
            precision(set(), {"a"})
        with pytest.raises(UndefinedMetricError):
            recall({"a"}, set())

    def test_f_measure_examples(self):
        assert f_measure(0.3, 0.3) == pytest.approx(0.3)
        assert f_measure(0.4, 1.0) == pytest.approx(4 / 7)
        assert f_measure(0.0, 0.0) == 0.0

    def test_identities_against_brute_force(self):
        # oracle: explicit membership loop, no set operators
        rng = random.Random(17)
        pool = [f"t{i}" for i in range(30)]
        for _ in range(1000):
            sel = set(rng.sample(pool, rng.randint(1, 20)))
            pred = set(rng.sample(pool, rng.randint(1, 20)))
            inter = sum(1 for t in pool if t in sel and t in pred)
            p = precision(sel, pred)
            r = recall(sel, pred)
            assert p * len(sel) == pytest.approx(inter, abs=1e-12)
            assert r * len(pred) == pytest.approx(inter, abs=1e-12)
            f = f_measure(p, r)
            assert 0.0 <= f <= max(p, r) + 1e-15
            assert max(p, r) <= 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100)
    def test_f_between_min_and_max(self, p, r):
        # harmonic mean of two positives sits between them; 0 if either is 0
        f = f_measure(p, r)
        if p > 0 and r > 0:
            assert min(p, r) - 1e-15 <= f <= max(p, r) + 1e-15
        else:
            assert f == 0.0


def two_flip_history():
    """t1 flips at build 1 (after f1 changes) and again at build 2."""
    return [
        rec(0, [], {"t1": "pass"}),
        rec(1, ["f1"], {"t1": "fail"}),
        rec(2, ["f1"], {"t1": "pass"}),
    ]


class TestReplay:
    def test_hand_run_two_build_history(self):
        # by hand: delta at build 1 puts (f1, t1) = 1; matrix = 0.8 after the
        # EMA step; slicing {f1} at build 2 ranks t1 first, and t1 is
        # predictable there -> precision = recall = 1
        records = two_flip_history()
        ledger = extract_flips(records)
        report = replay(records, ledger, MethodConfig(method="ema", alpha=0.8), 1)
        assert report.evaluated_builds == 1
        row = report.per_build[0]
        assert (row.seq, row.precision, row.recall, row.f_measure) == (2, 1.0, 1.0, 1.0)
        assert report.zero_pct == 0.0

    def test_no_predictable_builds(self):
        records = [rec(0, [], {"t1": "pass"}), rec(1, ["f1"], {"t1": "fail"})]
        ledger = extract_flips(records)
        report = replay(records, ledger, MethodConfig(method="ema", alpha=0.8), 1)
        assert report.evaluated_builds == 0
        assert report.mean_precision is None
        assert report.zero_pct is None

    def test_selection_precedes_update(self):
        # only build 2's own flip could rank t2; a leak would select t2
        records = [
            rec(0, [], {"a1": "pass", "t2": "pass"}),
            rec(1, [], {"a1": "pass", "t2": "fail"}),
            rec(2, ["f2"], {"a1": "pass", "t2": "pass"}),
        ]
        ledger = extract_flips(records)
        assert ledger.predictable(2) == {"t2"}
        report = replay(records, ledger, MethodConfig(method="ema", alpha=0.8), 1)
        row = report.per_build[0]
        assert row.zero_fraction == 1.0  # padding picked a1, not t2

    def test_identity_holds_per_row(self):
        records = two_flip_history()
        ledger = extract_flips(records)
        for config in (
            MethodConfig(method="ema", alpha=0.5),
            MethodConfig(method="cumulative"),
            MethodConfig(method="random", policy=RandomPolicy(seed=3, runs=25)),
        ):
            report = replay(records, ledger, config, 1)
            for row in report.per_build:
                assert row.precision * row.n_selected == pytest.approx(row.intersection, abs=1e-12)
                assert row.recall * row.n_predictable == pytest.approx(row.intersection, abs=1e-12)

    def test_mean_f_is_mean_of_per_build_f(self):
        records = two_flip_history() + [
            rec(3, ["f9"], {"t1": "fail", "zz": "pass"}),
        ]
        ledger = extract_flips(records)
        report = replay(records, ledger, MethodConfig(method="ema", alpha=0.8), 1)
        expected = sum(r.f_measure for r in report.per_build) / report.evaluated_builds
        assert report.mean_f_measure == pytest.approx(expected, abs=1e-15)

    def test_replay_serialisation_deterministic(self):
        records = two_flip_history()
        ledger = extract_flips(records)
        config = MethodConfig(method="random", policy=RandomPolicy(seed=11, runs=10))
        a = report_to_json(replay(records, ledger, config, 1))
        b = report_to_json(replay(records, ledger, config, 1))
        assert a == b

    def test_random_zero_fraction_is_run_average(self):
        # universe {a1, t1}; n=1 -> each run hits t1 with probability 1/2
        records = [
            rec(0, [], {"a1": "pass", "t1": "pass"}),
            rec(1, [], {"a1": "pass", "t1": "fail"}),
            rec(2, [], {"a1": "pass", "t1": "pass"}),
        ]
        ledger = extract_flips(records)
        config = MethodConfig(method="random", policy=RandomPolicy(seed=5, runs=400))
        report = replay(records, ledger, config, 1)
        assert report.evaluated_builds == 1
        assert report.per_build[0].zero_fraction == pytest.approx(0.5, abs=0.1)

    def test_nested_selection_monotonicity(self):
        # predictable inside both selections: growing the selection never
        # helps the F-measure
        rng = random.Random(23)
        pool = [f"t{i}" for i in range(40)]
        for _ in range(200):
            pred = set(rng.sample(pool, rng.randint(1, 5)))
            small = pred | set(rng.sample(pool, rng.randint(0, 10)))
            large = small | set(rng.sample(pool, rng.randint(1, 20)))
            if len(large) == len(small):
                continue
            f_small = f_measure(precision(small, pred), recall(small, pred))
            f_large = f_measure(precision(large, pred), recall(large, pred))
            assert f_large <= f_small + 1e-15


class TestMethodConfig:
    def test_random_requires_policy(self):
        with pytest.raises(ConfigError):
            MethodConfig(method="random")

    def test_ema_requires_valid_alpha(self):
        with pytest.raises(ConfigError):
            MethodConfig(method="ema", alpha=1.5)
        with pytest.raises(ConfigError):
            MethodConfig(method="ema")

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            MethodConfig(method="bayesian")

    def test_d_mode_defaults_per_method(self):
        assert MethodConfig(method="ema", alpha=0.5).resolved_d_mode() == "linear"
        assert MethodConfig(method="cumulative").resolved_d_mode() == "constant"


class TestSweepAlpha:
    def history_with_signal(self):
        # a0 always passes and absorbs the zero-score padding slot, so the
        # zero matrix at alpha=0 misses the predictable test
        return [
            rec(0, [], {"t1": "pass", "a0": "pass"}),
            rec(1, ["f1"], {"t1": "fail", "a0": "pass"}),
            rec(2, ["f1"], {"t1": "pass", "a0": "pass"}),
        ]

    def test_singleton_grid(self):
        records = self.history_with_signal()
        ledger = extract_flips(records)
        best, _ = sweep_alpha(records, ledger, [0.5], [1])
        assert best == 0.5

    def test_zero_alpha_loses_to_informative_alpha(self):
        records = self.history_with_signal()
        ledger = extract_flips(records)
        best, table = sweep_alpha(records, ledger, [0.0, 0.8], [1])
        assert best == 0.8
        by_alpha = {p.alpha: p.total_zero for p in table}
        assert by_alpha[0.0] == 1 and by_alpha[0.8] == 0

    def test_tie_prefers_smaller_alpha(self):
        records = self.history_with_signal()
        ledger = extract_flips(records)
        best, _ = sweep_alpha(records, ledger, [0.9, 0.3, 0.6], [1])
        assert best == 0.3  # all three select t1; tie on zero count

    def test_matches_exhaustive_minimisation(self):
        rng = random.Random(31)
        records = [rec(0, [], {"t1": "pass", "t2": "pass", "a0": "pass"})]
        verdicts = {"t1": "pass", "t2": "pass", "a0": "pass"}
        for seq in range(1, 12):
            changed = set(rng.sample(["f1", "f2", "f3"], rng.randint(1, 2)))
            for t in ("t1", "t2"):
                if rng.random() < 0.5:
                    verdicts[t] = "fail" if verdicts[t] == "pass" else "pass"
            records.append(rec(seq, changed, dict(verdicts)))
        ledger = extract_flips(records)
        grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        sizes = [1, 2]
        best, table = sweep_alpha(records, ledger, grid, sizes)
        # oracle: recompute every grid point independently via replay()
        totals = {}
        for a in grid:
            config = MethodConfig(method="ema", alpha=a)
            totals[a] = sum(replay(records, ledger, config, n).zero_count() for n in sizes)
        assert {p.alpha: p.total_zero for p in table} == totals
        assert best == min(grid, key=lambda a: (totals[a], a))

    def test_invalid_grid(self):
        records = self.history_with_signal()
        ledger = extract_flips(records)
        with pytest.raises(ValueError):
            sweep_alpha(records, ledger, [], [1])
        with pytest.raises(ValueError):
            sweep_alpha(records, ledger, [1.5], [1])


class TestFigureData:
    def reports(self, method, sizes, recall_by_n=None):
        records = two_flip_history()
        ledger = extract_flips(records)
        if method == "random":
            config = MethodConfig(method="random", policy=RandomPolicy(seed=1, runs=5))
        elif method == "ema":
            config = MethodConfig(method="ema", alpha=0.8)
        else:
            config = MethodConfig(method=method)
        return replay_sizes(records, ledger, config, sizes)

    def test_single_method_two_sizes(self):
        data = figure_data({"ema": self.reports("ema", [5, 10])})
        csv = data.to_csv("recall")
        lines = csv.strip().splitlines()
        assert lines[0] == "n,ema"
        assert len(lines) == 3

    def test_three_methods_three_columns(self):
        reports = {m: self.reports(m, [5]) for m in ("ema", "cumulative", "random")}
        data = figure_data(reports)
        assert data.to_csv("precision").splitlines()[0] == "n,ema,cumulative,random"
        for metric in FIGURE_METRICS:
            assert set(data.values[metric][5]) == {"ema", "cumulative", "random"}

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValidationError, match="sizes"):
            figure_data({"ema": self.reports("ema", [5]), "cumulative": self.reports("cumulative", [5, 10])})

    def test_improvement_avg_of_averages(self):
        # recall aggregates 0.168 vs 0.089 -> +88.8% relative on the
        # averaged aggregates
        def fake_report(n, rec_value):
            return EvalReport(
                method="x", score_mode="sum", n=n, alpha=None, d_mode="linear",
                seed=None, runs=None, per_build=(), evaluated_builds=1,
                mean_precision=0.3, mean_recall=rec_value, mean_f_measure=0.1,
                zero_pct=0.4,
            )

        sizes = [5, 10]
        reports = {
            "better": {n: fake_report(n, 0.168) for n in sizes},
            "base": {n: fake_report(n, 0.089) for n in sizes},
        }
        data = figure_data(reports)
        summary = improvement_summary(data, "base", "better")
        rel = summary.relative["recall"]
        assert rel["avg_of_averages"] == pytest.approx((0.168 - 0.089) / 0.089)
        assert rel["avg_of_averages"] == pytest.approx(0.8876, abs=5e-4)
        assert summary.absolute["recall"]["avg"] == pytest.approx(0.079)

    def test_improvement_per_size_extremes(self):
        def fake_report(n, rec_value):
            return EvalReport(
                method="x", score_mode="sum", n=n, alpha=None, d_mode="linear",
                seed=None, runs=None, per_build=(), evaluated_builds=1,
                mean_precision=0.3, mean_recall=rec_value, mean_f_measure=0.1,
                zero_pct=0.4,
            )

        reports = {
            "better": {5: fake_report(5, 0.2), 10: fake_report(10, 0.3)},
            "base": {5: fake_report(5, 0.1), 10: fake_report(10, 0.2)},
        }
        summary = improvement_summary(figure_data(reports), "base", "better")
        rel = summary.relative["recall"]
        assert rel["min"] == pytest.approx(0.5)
        assert rel["max"] == pytest.approx(1.0)
        assert rel["avg"] == pytest.approx(0.75)


DESK_SIZES = range(5, 26)
DESK_CONFIGS = (
    MethodConfig(method="ema", alpha=0.3),
    MethodConfig(method="cumulative"),
    MethodConfig(method="random", policy=RandomPolicy(seed=7, runs=20)),
)


@pytest.fixture(scope="module")
def desk_history():
    records, _ = generate(SynthConfig(seed=7))
    return records, extract_flips(records)


class TestFold:
    @pytest.mark.parametrize("config", DESK_CONFIGS[:2], ids=lambda c: c.method)
    def test_yields_m0_then_one_matrix_per_build(self, desk_history, config):
        records, ledger = desk_history
        matrices = list(fold(records, ledger, config))
        assert len(matrices) == len(records)
        assert matrices[0].cols == {} and not matrices[0].files and not matrices[0].tests
        assert [m.last_seq for m in matrices] == list(range(len(records)))
        assert {m.update_mode for m in matrices} == {config.method}
        assert {m.d_mode for m in matrices} == {config.resolved_d_mode()}

    def test_random_has_no_matrix(self, desk_history):
        records, ledger = desk_history
        with pytest.raises(ConfigError):
            next(fold(records, ledger, DESK_CONFIGS[2]))


class TestSizesAgree:
    @pytest.mark.parametrize("config", DESK_CONFIGS, ids=lambda c: c.method)
    def test_multi_size_replay_equals_single_size(self, desk_history, config):
        records, ledger = desk_history
        reports = replay_sizes(records, ledger, config, DESK_SIZES)
        for n in DESK_SIZES:
            assert reports[n].to_dict() == replay(records, ledger, config, n).to_dict()
