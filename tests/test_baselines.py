"""Random selection (a prefix of a seeded permutation), failure-recency
scores, and dissimilarity ordering."""

import math
import random
import types

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from flipsense import baselines
from flipsense.baselines import (
    RandomPolicy,
    dissimilarity_order,
    hbtp_scores,
    identifier_tokens,
    shuffled_universe,
)
from flipsense.errors import ConfigError
from flipsense.history import extract_flips

from conftest import rec


class TestRandomSelect:
    def test_forced_single(self):
        assert shuffled_universe({"a"}, RandomPolicy(seed=1, runs=1))[0][:1] == ["a"]

    def test_deterministic_per_seed_and_run(self):
        policy = RandomPolicy(seed=99, runs=10)
        universe = {f"t{i}" for i in range(20)}
        first = shuffled_universe(universe, policy)[3][:5]
        assert shuffled_universe(universe, policy)[3][:5] == first
        assert shuffled_universe(universe, policy)[4][:5] != first

    def test_run_index_out_of_range(self):
        runs = shuffled_universe({"a"}, RandomPolicy(seed=1, runs=2))
        assert len(runs) == 2
        with pytest.raises(IndexError):
            runs[2]

    def test_nested_prefixes_across_sizes(self):
        policy = RandomPolicy(seed=4, runs=1)
        universe = {f"t{i}" for i in range(10)}
        small = shuffled_universe(universe, policy)[0][:3]
        large = shuffled_universe(universe, policy)[0][:7]
        assert large[:3] == small

    @given(
        st.sets(st.text(alphabet="abc", max_size=4), max_size=12),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=8).flatmap(
            lambda runs: st.tuples(st.just(runs), st.integers(min_value=0, max_value=runs - 1))),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=150)
    def test_shorter_length_is_a_prefix(self, universe, seed, runs_and_run, a, b):
        runs, run = runs_and_run
        policy = RandomPolicy(seed=seed, runs=runs)
        short, long = sorted((a, b))
        whole = shuffled_universe(universe, policy)[run]
        assert sorted(whole) == sorted(universe)
        prefix = shuffled_universe(universe, policy, short)[run]
        assert len(prefix) == min(short, len(universe))
        assert shuffled_universe(universe, policy, long)[run][:len(prefix)] == prefix
        assert whole[:len(prefix)] == prefix

    def test_a_prefix_draws_only_its_positions(self, monkeypatch):
        calls = {"randrange": 0, "_randbelow": 0}

        class CountingRandom(random.Random):
            def randrange(self, *args):
                calls["randrange"] += 1
                return super().randrange(*args)

            def _randbelow(self, n):
                calls["_randbelow"] += 1
                return super()._randbelow(n)

        monkeypatch.setattr(baselines, "random", types.SimpleNamespace(Random=CountingRandom))
        universe = [f"t{i:04d}" for i in range(1000)]
        [picked] = shuffled_universe(universe, RandomPolicy(seed=3, runs=1), 25)
        assert len(set(picked)) == 25
        assert calls == {"randrange": 25, "_randbelow": 25}

    def test_negative_length(self):
        with pytest.raises(ValueError, match="length must be >= 0"):
            shuffled_universe({"a"}, RandomPolicy(seed=1, runs=1), -1)

    def test_negative_seed(self):
        # random.Random(-1) draws what random.Random(1) draws
        with pytest.raises(ConfigError, match="seed >= 0, got -1"):
            RandomPolicy(seed=-1)

    def test_two_element_frequency(self):
        # binomial bound: 10000 draws of n=1 from {a,b}, freq(a) in 0.5 +- 0.02
        policy = RandomPolicy(seed=2024, runs=10_000)
        hits = sum(run[:1] == ["a"] for run in shuffled_universe({"a", "b"}, policy))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_uniform_coverage_within_3_sigma(self):
        runs = 5000
        universe = [f"t{i}" for i in range(5)]
        policy = RandomPolicy(seed=7, runs=runs)
        counts = {t: 0 for t in universe}
        for run in shuffled_universe(universe, policy):
            counts[run[0]] += 1
        expected = runs / len(universe)
        sigma = math.sqrt(runs * 0.2 * 0.8)
        for t, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, (t, c)


class TestHbtpScores:
    def history(self):
        return [
            rec(0, [], {"t": "pass", "u": "pass"}),
            rec(1, [], {"t": "pass", "u": "pass"}),
            rec(2, [], {"t": "fail", "u": "pass"}),
            rec(3, [], {"t": "pass", "u": "pass"}),
            rec(4, [], {"t": "pass", "u": "pass"}),
            rec(5, [], {"t": "fail", "u": "pass"}),
            rec(6, [], {"t": "pass", "u": "pass"}),
            rec(7, [], {"t": "pass", "u": "pass"}),
        ]

    def test_failed_just_before(self):
        records = [rec(0, [], {"t": "fail"}), rec(1, [], {"t": "pass"})]
        ledger = extract_flips(records)
        assert hbtp_scores(records, ledger, 1).scores["t"] == 1.0

    def test_never_failed_scores_zero(self):
        records = self.history()
        ledger = extract_flips(records)
        assert hbtp_scores(records, ledger, 8).scores["u"] == 0.0

    def test_gap_weighting(self):
        # failures at seq 2 and 5 scored at seq 8: two builds since the last
        # failure -> 1/(1+2)
        records = self.history()
        ledger = extract_flips(records)
        assert hbtp_scores(records, ledger, 8).scores["t"] == pytest.approx(1 / 3)

    def test_monotone_in_gap(self):
        records = self.history()
        ledger = extract_flips(records)
        scores = [hbtp_scores(records, ledger, k).scores["t"] for k in range(6, 9)]
        assert scores == sorted(scores, reverse=True)

    def test_at_seq_bounds(self):
        records = self.history()
        ledger = extract_flips(records)
        with pytest.raises(ValueError):
            hbtp_scores(records, ledger, 9)
        with pytest.raises(ValueError):
            hbtp_scores(records, ledger, -1)


def quadratic_dissimilarity_order(candidates, already_chosen=(), limit=None):
    """The plain greedy: after every pick, lower each remaining
    candidate's nearest distance and take the largest, ties by id."""
    remaining = sorted(set(candidates))
    tokens = {t: identifier_tokens(t) for t in remaining}
    chosen = [identifier_tokens(t) for t in already_chosen]
    nearest = {
        t: min((baselines._jaccard_distance(tokens[t], c) for c in chosen), default=math.inf)
        for t in remaining
    }
    ordered = []
    while remaining and len(ordered) != limit:
        best = max(remaining, key=nearest.__getitem__)
        ordered.append(best)
        remaining.remove(best)
        for t in remaining:
            nearest[t] = min(nearest[t], baselines._jaccard_distance(tokens[t], tokens[best]))
    return ordered


class TestDissimilarityOrder:
    def test_worked_example(self):
        # oracle (pairwise Jaccard distances on token sets):
        #   net_tx_a vs net_tx_b: 1 - 2/4 = 0.5
        #   net_tx_a vs ui_login: 1 - 0/5 = 1.0
        # first pick is the smallest id, then the farthest candidate
        order = dissimilarity_order({"net_tx_a", "net_tx_b", "ui_login"})
        assert order[:2] == ["net_tx_a", "ui_login"]
        assert order[2] == "net_tx_b"

    def test_single_candidate(self):
        assert dissimilarity_order({"only"}) == ["only"]

    def test_identical_tokens_lexicographic(self):
        # same token multiset -> every distance 0 -> pure id order
        order = dissimilarity_order({"a_b", "b_a", "a_b_b"})
        assert order == ["a_b", "a_b_b", "b_a"]

    def test_respects_already_chosen(self):
        order = dissimilarity_order({"net_tx_b", "ui_login"}, already_chosen=["net_tx_a"])
        assert order[0] == "ui_login"

    def test_tokenizer_splits_both_separators(self):
        assert identifier_tokens("suite/net_tx") == {"suite", "net", "tx"}

    @given(st.sets(st.text(alphabet="ab_/", min_size=1, max_size=6), min_size=1, max_size=7))
    @settings(max_examples=60)
    def test_permutation_and_prefix_determinism(self, candidates):
        first = dissimilarity_order(candidates)
        second = dissimilarity_order(candidates)
        assert first == second
        assert sorted(first) == sorted(candidates)

    def test_greedy_maximises_min_distance(self):
        # brute-force check of the second pick on a small instance
        candidates = {"net_tx_a", "net_tx_b", "db_init", "db_load", "ui_login"}
        order = dissimilarity_order(candidates)
        first = order[0]

        def dist(x, y):
            tx, ty = identifier_tokens(x), identifier_tokens(y)
            union = tx | ty
            return 1.0 - (len(tx & ty) / len(union) if union else 1.0)

        best = max(sorted(candidates - {first}), key=lambda c: dist(c, first))
        assert dist(order[1], first) == dist(best, first)

    @given(
        st.sets(st.text(alphabet="ab_/", min_size=1, max_size=6), min_size=1, max_size=7),
        st.lists(st.text(alphabet="ab_/", max_size=6), max_size=3),
    )
    @settings(max_examples=100)
    def test_every_pick_is_farthest_first(self, candidates, already_chosen):
        # brute force at every step: the pick maximises the minimum distance
        # to already_chosen plus the earlier picks, ties to the smallest id
        def dist(x, y):
            tx, ty = identifier_tokens(x), identifier_tokens(y)
            union = tx | ty
            return 1.0 - (len(tx & ty) / len(union) if union else 1.0)

        order = dissimilarity_order(candidates, already_chosen)
        assert sorted(order) == sorted(candidates)
        chosen = list(already_chosen)
        for i, pick in enumerate(order):
            nearest = {c: min((dist(c, x) for x in chosen), default=math.inf) for c in order[i:]}
            best = max(nearest.values())
            assert pick == min(c for c, d in nearest.items() if d == best)
            chosen.append(pick)

    @given(
        st.sets(st.text(alphabet="ab_/", min_size=1, max_size=6), min_size=1, max_size=7),
        st.lists(st.text(alphabet="ab_/", max_size=6), max_size=3),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=100)
    def test_limited_order_is_a_prefix(self, candidates, already_chosen, limit):
        full = dissimilarity_order(candidates, already_chosen)
        assert dissimilarity_order(candidates, already_chosen, limit=limit) == full[:limit]

    @given(
        st.sets(st.text(alphabet="abc_/", min_size=1, max_size=8), min_size=1, max_size=25),
        st.lists(st.text(alphabet="abc_/", max_size=8), max_size=4),
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    )
    @settings(max_examples=200)
    def test_lazy_greedy_matches_the_quadratic_one(self, candidates, already_chosen, limit):
        assert dissimilarity_order(candidates, already_chosen, limit) == \
            quadratic_dissimilarity_order(candidates, already_chosen, limit)
