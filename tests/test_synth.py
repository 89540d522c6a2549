"""Synthetic history generation: determinism and planted dynamics."""

import io

import pytest

from flipsense.errors import ConfigError, ValidationError
from flipsense.history import extract_flips, ingest_history, summarise, write_history
from flipsense.cli import main
from flipsense.synth import MAX_CELLS, SynthConfig, generate


def small(**kw):
    defaults = dict(seed=1, n_builds=10, n_files=8, n_tests=5,
                    deps_per_test=(1, 2), change_set_size=(1, 3))
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValidationError,
                           match=r"^flip_probability_hit must be in \[0, 1\], got 1\.5$"):
            small(flip_probability_hit=1.5)

    def test_deps_exceed_files(self):
        with pytest.raises(ValidationError, match="^deps_per_test max 99 exceeds n_files 8$"):
            small(deps_per_test=(1, 99))

    def test_bad_range(self):
        with pytest.raises(ValidationError,
                           match=r"^change_set_size must be a range 1 <= lo <= hi, got 3\.\.1$"):
            small(change_set_size=(3, 1))

    def test_zero_counts(self):
        with pytest.raises(ValidationError, match="^n_builds, n_files, and n_tests must all be >= 1$"):
            small(n_tests=0)

    def test_negative_seed(self):
        # random.Random(-3) draws what random.Random(3) draws
        with pytest.raises(ConfigError, match="seed >= 0, got -3"):
            small(seed=-3)

    # no config here is generated, so the cap is tested without allocating
    def test_size_cap(self):
        with pytest.raises(ValidationError, match=r"^synth holds at most 10000000 verdicts and "
                                                  r"file ids, got 9999 x 1000 \+ 1001$"):
            SynthConfig(n_builds=9_999, n_files=1_001, n_tests=1_000)
        assert 9_999 * 1_000 + 1_000 == MAX_CELLS
        SynthConfig(n_builds=9_999, n_files=1_000, n_tests=1_000)  # at the cap
        SynthConfig(n_builds=1_400, n_files=2_000, n_tests=1_000)  # the largest benchmark history

    def test_size_cap_on_the_command_line(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["synth", "--seed", "1", "--builds", "100000000", "--tests", "100000000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: synth holds at most 10000000 verdicts and file "
                                           "ids, got 100000000 x 100000000 + 200\n")
        assert not out.exists()


class TestDynamics:
    def test_forced_flipping(self):
        # one file, one dependency, guaranteed hit: the test flips every build
        config = small(n_files=1, n_tests=1, deps_per_test=(1, 1),
                       change_set_size=(1, 1), flip_probability_hit=1.0,
                       flip_probability_noise=0.0)
        records, truth = generate(config)
        verdicts = [r.verdicts["t0000"] for r in records]
        assert all(a != b for a, b in zip(verdicts, verdicts[1:]))
        assert truth["t0000"] == ("f0000",)

    def test_no_flips_when_probabilities_zero(self):
        config = small(flip_probability_hit=0.0, flip_probability_noise=0.0)
        records, _ = generate(config)
        ledger = extract_flips(records)
        assert not ledger.flipped_at
        assert not ledger.predictable_at

    def test_determinism(self):
        a, truth_a = generate(small(seed=42))
        b, truth_b = generate(small(seed=42))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_history(a, buf_a)
        write_history(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        assert truth_a == truth_b

    def test_different_seeds_differ(self):
        a, _ = generate(small(seed=1))
        b, _ = generate(small(seed=2))
        assert a != b

    def test_noise_free_flips_touch_dependencies(self):
        config = small(seed=3, n_builds=30, flip_probability_noise=0.0)
        records, truth = generate(config)
        ledger = extract_flips(records)
        by_seq = {r.seq: r for r in records}
        assert ledger.flipped_at  # hit probability high enough to flip something
        for seq, tests in ledger.flipped_at.items():
            for t in tests:
                assert set(truth[t]) & by_seq[seq].changed_files

    def test_output_passes_ingestion(self):
        records, _ = generate(small())
        buf = io.StringIO()
        write_history(records, buf)
        re_records = ingest_history(io.StringIO(buf.getvalue()))
        doc = summarise(re_records)
        assert doc["builds"] == 10
        assert doc["tests"] == 5
        assert re_records == records

    def test_every_test_runs_every_build(self):
        records, _ = generate(small())
        for r in records:
            assert len(r.verdicts) == 5
        # one build is one record: build 0, with the initial verdicts
        assert generate(small(n_builds=1))[0] == records[:1]
