"""Replay metrics, the replay protocol, the alpha sweep, and figure tables."""

import json
import math
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from flipsense import evaluate
from flipsense.baselines import RandomPolicy, shuffled_universe
from flipsense.errors import ConfigError, UndefinedMetricError, ValidationError
from flipsense.evaluate import (
    FIGURE_FIELDS,
    BuildMetrics,
    EvalReport,
    MethodConfig,
    f_measure,
    figure_csv,
    figure_data,
    fold,
    improvement_summary,
    precision,
    recall,
    replay,
    replay_sizes,
    sweep_alpha,
    _mean,
    _size_rows,
)
from flipsense.history import extract_flips
from flipsense.synth import SynthConfig, generate

from conftest import rec, sum_left_to_right


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

    def test_mean_adds_left_to_right(self):
        # a compensated sum (math.fsum, or sum() from Python 3.12) gives
        # 1.0000000000000002 and a mean of 0.3333333333333334
        assert _mean([1.0, 1e-16, 1e-16]) == 1.0 / 3
        assert _mean([1e-16, 1e-16, 1.0]) == 1.0000000000000002 / 3

    def test_mean_of_no_values_is_none(self):
        assert _mean([]) is None

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
        a = json.dumps(replay(records, ledger, config, 1).to_dict(), sort_keys=True)
        b = json.dumps(replay(records, ledger, config, 1).to_dict(), sort_keys=True)
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

    def test_duplicate_sizes_rejected(self):
        records = two_flip_history()
        ledger = extract_flips(records)
        config = MethodConfig(method="ema", alpha=0.8)
        with pytest.raises(ValueError, match=r"distinct, got \[1, 3\] more than once"):
            replay_sizes(records, ledger, config, [3, 1, 2, 3, 1])
        with pytest.raises(ValueError, match=r"\[1\] more than once"):
            sweep_alpha(records, ledger, [0.5], [1, 1])
        with pytest.raises(ValueError, match=r"^selection sizes must be >= 1, got \[0\]$"):
            replay_sizes(records, ledger, config, [0])


def _oracle_row(seq, selections, predictable):
    """One evaluated build by the set-intersection definition: every metric
    is the mean over the selections, in their order."""
    def mean(values):
        return sum_left_to_right(values) / len(values)

    inter = [len(set(selected) & predictable) for selected in selections]
    p = [i / len(selected) for i, selected in zip(inter, selections)]
    r = [i / len(predictable) for i in inter]
    return BuildMetrics(
        seq=seq,
        n_selected=len(selections[0]),
        n_predictable=len(predictable),
        intersection=mean(inter),
        precision=mean(p),
        recall=mean(r),
        f_measure=mean([f_measure(pi, ri) for pi, ri in zip(p, r)]),
        zero_fraction=mean([0.0 if i else 1.0 for i in inter]),
    )


def _total_row(seq, selections, predictable):
    """One evaluated build by integer totals: each selection's set
    intersection, summed; P and R are that total over |selected| (and
    |predictable|) times the number of selections, and F is their F."""
    runs, k, m = len(selections), len(selections[0]), len(predictable)
    inter = [len(set(selected) & predictable) for selected in selections]
    total = sum(inter)
    p, r = total / (k * runs), total / (m * runs)
    return BuildMetrics(seq, k, m, total / runs, p, r, f_measure(p, r), inter.count(0) / runs)


def _ulps(x, exact):
    """How far x lies from the rational ``exact``, in ulps of ``exact``."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


def _check_row(row, seq, selections, predictable):
    """A row is the integer-total row bit for bit. Its intersection and
    zero share are the oracle's, one selection gives the oracle's row, and
    P, R and F stay within 2, 2 and 4 ulps of the exact mean over the
    selections, each F taken as 2PR/(P+R) in rationals."""
    assert _hex_row(row) == _hex_row(_total_row(seq, selections, predictable))
    oracle = _oracle_row(seq, selections, predictable)
    assert (row.intersection, row.zero_fraction) == (oracle.intersection, oracle.zero_fraction)
    if len(selections) == 1:
        assert _hex_row(row) == _hex_row(oracle)
    k, m = len(selections[0]), len(predictable)
    ps = [Fraction(len(set(selected) & predictable), k) for selected in selections]
    rs = [p * k / m for p in ps]
    fs = [2 * p * r / (p + r) if p else Fraction(0) for p, r in zip(ps, rs)]
    for value, exact, bound in ((row.precision, ps, 2), (row.recall, rs, 2),
                                (row.f_measure, fs, 4)):
        assert _ulps(value, sum(exact) / len(exact)) <= bound


@st.composite
def ranked_builds(draw):
    """(rankings, predictable, sizes) as replay_sizes hands them to a row:
    one ranking or several runs, each min(max(sizes), |universe|) distinct
    ids long; the universe may be shorter than the largest size, and the
    predictable tests may fall inside or outside the rankings. Several runs
    over a small universe often hold a hit at the same position."""
    universe = draw(st.lists(st.sampled_from([f"t{i:02d}" for i in range(30)]),
                             min_size=1, max_size=20, unique=True))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=6,
                          unique=True))
    predictable = frozenset(draw(st.sets(st.sampled_from(universe), min_size=1)))
    length = min(max(sizes), len(universe))
    runs = draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=16)))
    rankings = [draw(st.permutations(universe))[:length] for _ in range(runs)]
    return rankings, predictable, sizes


class TestSizeRowsOracle:
    @settings(max_examples=400, deadline=None)
    @given(ranked_builds(), st.integers(min_value=1, max_value=99))
    @example(([["t00", "t01", "t02"], ["t02", "t01", "t00"], ["t00", "t02", "t01"]],
              frozenset({"t00", "t01"}), [1, 2, 5]), 4)
    def test_every_field_equals_set_intersection(self, build, seq):
        rankings, predictable, sizes = build
        positions = [[i for i, t in enumerate(r) if t in predictable] for r in rankings]
        hits = sorted(chain.from_iterable(positions))
        firsts = sorted(p[0] for p in positions if p)
        ks = sorted({min(n, len(rankings[0])) for n in sizes})
        rows = _size_rows(seq, hits, firsts, len(rankings), len(predictable), ks)
        assert len(rows) == len(ks)
        by_k = dict(zip(ks, rows))
        for n in sizes:
            _check_row(by_k[min(n, len(rankings[0]))], seq, [r[:n] for r in rankings], predictable)


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
        assert MethodConfig(method="ema", alpha=0.5).d_mode == "linear"
        assert MethodConfig(method="cumulative").d_mode == "constant"
        assert MethodConfig(method="random", policy=RandomPolicy(seed=1, runs=2)).d_mode == "linear"
        assert MethodConfig(method="cumulative", d_mode="linear").d_mode == "linear"


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


def padding_history():
    """Two builds whose predictable test scores 0, so that only zero-score
    padding, in id order (a0, t1, t2, z9), can select it: at build 3 no
    changed file was ever credited, and at alpha 0 the matrix stays empty."""
    tests = ("a0", "t1", "t2", "z9")
    fails = {1: {"t2"}, 2: {"t1", "t2"}, 3: {"t1"}, 4: set()}
    changes = {1: ["f1"], 2: ["f2"], 3: ["f3"], 4: ["f2"]}
    return [rec(0, [], dict.fromkeys(tests, "pass"))] + [
        rec(seq, changes[seq], {t: "fail" if t in fails[seq] else "pass" for t in tests})
        for seq in range(1, 5)
    ]


@st.composite
def sweep_cases(draw):
    """(records, grid, score_mode, d_mode, sizes): a small synth history, a
    grid holding alpha 0 and 1, and sizes up to three past the universe's."""
    n_files, n_tests = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    config = SynthConfig(seed=draw(st.integers(0, 10**6)), n_builds=draw(st.integers(2, 14)),
                         n_files=n_files, n_tests=n_tests, deps_per_test=(1, 2),
                         change_set_size=(1, min(3, n_files)), flip_probability_noise=0.2)
    records, _ = generate(config)
    grid = [0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    sizes = draw(st.lists(st.integers(1, n_tests + 3), min_size=1, max_size=6, unique=True))
    return (records, grid, draw(st.sampled_from(["sum", "max"])),
            draw(st.sampled_from(["linear", "constant"])), sizes)


class TestSweepOracle:
    """Every zero count of the sweep against a full replay at its alpha."""

    @settings(max_examples=200, deadline=None)
    @given(sweep_cases())
    @example((padding_history(), [0.0, 0.5, 1.0], "sum", "linear", [3, 1, 2, 4, 6]))
    @example((padding_history(), [0.0, 0.5, 1.0], "max", "constant", [5, 2]))
    def test_zero_counts_equal_each_replay(self, case):
        records, grid, score_mode, d_mode, sizes = case
        ledger = extract_flips(records)
        _, table = sweep_alpha(records, ledger, grid, sizes, score_mode, d_mode)
        assert [p.alpha for p in table] == sorted(set(grid))
        for point in table:
            config = MethodConfig(method="ema", alpha=point.alpha, d_mode=d_mode,
                                  score_mode=score_mode)
            reports = replay_sizes(records, ledger, config, sizes)
            assert list(point.zero_counts) == sizes
            assert point.zero_counts == {n: reports[n].zero_count() for n in sizes}, point.alpha
            assert point.total_zero == sum(point.zero_counts.values())

    def test_padding_alone_selects_a_zero_score_test(self):
        # build 3 ranks t2 third by id at every alpha; at alpha 0 build 4
        # ranks t1 second, and at alpha 0.5 first, by its credit from f2
        records = padding_history()
        ledger = extract_flips(records)
        assert ledger.predictable_at == {3: {"t2"}, 4: {"t1"}}
        _, table = sweep_alpha(records, ledger, [0.0, 0.5], [1, 2, 3, 5])
        assert [p.zero_counts for p in table] == [{1: 2, 2: 1, 3: 0, 5: 0}, {1: 1, 2: 1, 3: 0, 5: 0}]


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
        csv = figure_csv(data, "recall")
        lines = csv.strip().splitlines()
        assert lines[0] == "n,ema"
        assert len(lines) == 3
        with pytest.raises(ValueError, match=r"^unknown metric 'x'$"):
            figure_csv(data, "x")

    def test_three_methods_three_columns(self):
        reports = {m: self.reports(m, [5]) for m in ("ema", "cumulative", "random")}
        data = figure_data(reports)
        assert figure_csv(data, "precision").splitlines()[0] == "n,ema,cumulative,random"
        for metric in FIGURE_FIELDS:
            assert set(data["values"][metric]["5"]) == {"ema", "cumulative", "random"}

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValidationError, match="sizes"):
            figure_data({"ema": self.reports("ema", [5]), "cumulative": self.reports("cumulative", [5, 10])})
        with pytest.raises(ValidationError, match=r"^no reports given$"):
            figure_data({})

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
        summary = improvement_summary(reports, "base", "better")
        rel = summary["relative"]["recall"]
        assert rel["avg_of_averages"] == pytest.approx((0.168 - 0.089) / 0.089)
        assert rel["avg_of_averages"] == pytest.approx(0.8876, abs=5e-4)
        assert summary["absolute"]["recall"]["avg"] == pytest.approx(0.079)

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
        summary = improvement_summary(reports, "base", "better")
        rel = summary["relative"]["recall"]
        assert rel["min"] == pytest.approx(0.5)
        assert rel["max"] == pytest.approx(1.0)
        assert rel["avg"] == pytest.approx(0.75)

    def test_improvement_inconsistent_sizes_rejected(self):
        reports = {"ema": self.reports("ema", [5]), "cumulative": self.reports("cumulative", [5, 10])}
        with pytest.raises(ValidationError, match="sizes") as from_figures:
            figure_data(reports)
        with pytest.raises(ValidationError, match="sizes") as from_summary:
            improvement_summary(reports, "cumulative", "ema")
        assert str(from_summary.value) == str(from_figures.value)
        with pytest.raises(ValidationError, match=r"^methods 'cumulative'/'ema' not among the reports$"):
            improvement_summary({"ema": self.reports("ema", [5])}, "cumulative", "ema")


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


class TestBuildMetricsRows:
    FIELDS = ["seq", "n_selected", "n_predictable", "intersection", "precision", "recall",
              "f_measure", "zero_fraction"]

    def test_row_is_immutable(self, desk_history):
        records, ledger = desk_history
        row = replay(records, ledger, DESK_CONFIGS[0], 5).per_build[0]
        with pytest.raises(AttributeError):
            row.precision = 1.0
        assert list(BuildMetrics._fields) == self.FIELDS

    @pytest.mark.parametrize("config", DESK_CONFIGS, ids=lambda c: c.method)
    def test_json_writes_each_row_as_an_object(self, desk_history, config):
        # a named tuple would otherwise serialise as an array
        records, ledger = desk_history
        report = replay(records, ledger, config, 5)
        doc = json.loads(json.dumps(report.to_dict()))
        assert len(doc["per_build"]) == report.evaluated_builds > 0
        for entry, row in zip(doc["per_build"], report.per_build):
            assert list(entry) == self.FIELDS
            assert list(entry.values()) == list(row)


class TestFold:
    @pytest.mark.parametrize("config", DESK_CONFIGS[:2], ids=lambda c: c.method)
    def test_yields_m0_then_one_matrix_per_build(self, desk_history, config):
        records, ledger = desk_history
        # fold yields one live matrix: record each state before the next build
        states = [
            (m.cols == {} and not m.files and not m.tests, m.last_seq, m.update_mode, m.d_mode)
            for m in fold(records, ledger, config)
        ]
        assert len(states) == len(records)
        assert states[0][0]
        assert [s[1] for s in states] == list(range(len(records)))
        assert {s[2] for s in states} == {config.method}
        assert {s[3] for s in states} == {config.d_mode}

    def test_random_has_no_matrix(self, desk_history):
        records, ledger = desk_history
        with pytest.raises(ConfigError):
            next(fold(records, ledger, DESK_CONFIGS[2]))


class TestRandomReplayOracle:
    """The random method against intersecting every run's prefix as a set,
    row by row as ``_check_row`` states."""

    @pytest.mark.parametrize("synth, sizes, short", [
        (SynthConfig(seed=7), range(5, 26), False),
        (SynthConfig(seed=3, n_files=30, n_tests=12), range(1, 21), True),
    ], ids=["desk", "short-universe"])
    def test_equals_dense_oracle_bit_for_bit(self, synth, sizes, short):
        records, _ = generate(synth)
        ledger = extract_flips(records)
        assert (len(ledger.universe) < max(sizes)) == short
        policy = RandomPolicy(seed=5, runs=100)
        permutations = shuffled_universe(ledger.universe, policy)
        reports = replay_sizes(records, ledger, MethodConfig(method="random", policy=policy), sizes)
        predictable = [(r.seq, ledger.predictable(r.seq)) for r in records[1:]]
        predictable = [(seq, pred) for seq, pred in predictable if pred]
        assert predictable
        for n in sizes:
            assert len(reports[n].per_build) == len(predictable)
            for row, (seq, pred) in zip(reports[n].per_build, predictable):
                _check_row(row, seq, [p[:n] for p in permutations], pred)


    def test_draws_through_one_shuffled_universe_call(self, desk_history, monkeypatch):
        # a tracer times the random draws by wrapping evaluate.shuffled_universe
        records, ledger = desk_history
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return shuffled_universe(*args, **kwargs)

        monkeypatch.setattr(evaluate, "shuffled_universe", counting)
        config = MethodConfig(method="random", policy=RandomPolicy(seed=5, runs=10))
        reports = replay_sizes(records, ledger, config, [1, 5, 25])
        assert len(calls) == 1
        assert reports[25].evaluated_builds > 0


def _hex_row(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


class TestSizesAgree:
    @pytest.mark.parametrize("config", DESK_CONFIGS, ids=lambda c: c.method)
    def test_multi_size_replay_equals_single_size(self, desk_history, config):
        records, ledger = desk_history
        reports = replay_sizes(records, ledger, config, DESK_SIZES)
        for n in DESK_SIZES:
            assert reports[n].to_dict() == replay(records, ledger, config, n).to_dict()

    @pytest.mark.parametrize("config", DESK_CONFIGS[:2], ids=lambda c: c.method)
    def test_sizes_beyond_the_universe(self, config):
        # every size from the universe's up selects the whole universe, and
        # the sizes come in no order
        records, _ = generate(SynthConfig(seed=3, n_files=30, n_tests=12))
        ledger = extract_flips(records)
        sizes = [*range(20, 10, -1), *range(1, 11)]
        assert len(ledger.universe) < max(sizes)
        reports = replay_sizes(records, ledger, config, sizes)
        assert reports[20].evaluated_builds > 0
        for n in sizes:
            assert reports[n].to_dict() == replay(records, ledger, config, n).to_dict()

    @pytest.mark.parametrize("config", DESK_CONFIGS, ids=lambda c: c.method)
    def test_sizes_beyond_the_universe_share_each_row(self, config):
        # one row a build per distinct selection length, shared by every size
        # that selects the whole universe
        records, _ = generate(SynthConfig(seed=3, n_files=30, n_tests=12))
        ledger = extract_flips(records)
        length = len(ledger.universe)
        sizes = [length + 5, length - 1, length, length + 1]
        reports = replay_sizes(records, ledger, config, sizes)
        whole = reports[length].per_build
        assert whole
        for n in (length + 1, length + 5):
            assert len(reports[n].per_build) == len(whole)
            assert all(a is b for a, b in zip(reports[n].per_build, whole))
        assert not any(a is b for a, b in zip(reports[length - 1].per_build, whole))
