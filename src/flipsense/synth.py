"""Deterministic synthetic build histories with planted file->test links.

Each test depends on a few files; when a build's change set touches a
dependency the test flips its verdict with the hit probability, otherwise
with the (small) noise probability. The ground-truth dependency map is
returned alongside the history for diagnostics. Everything is a pure
function of the config, so the same seed always yields byte-identical
output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import IO

from .errors import ConfigError, ValidationError
from .history import BuildRecord

# generate holds a verdict per build and test and an id per file
MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale default: a three-method replay finishes in seconds."""

    seed: int = 0
    n_builds: int = 50
    n_files: int = 200
    n_tests: int = 100
    deps_per_test: tuple[int, int] = (1, 5)
    change_set_size: tuple[int, int] = (1, 20)
    flip_probability_hit: float = 0.7
    flip_probability_noise: float = 0.01
    initial_fail_fraction: float = 0.1

    def __post_init__(self):
        # random.Random seeds from |seed|, so -s would generate what s does
        if self.seed < 0:
            raise ConfigError(f"synth needs seed >= 0, got {self.seed}")
        if min(self.n_builds, self.n_files, self.n_tests) < 1:
            raise ValidationError("n_builds, n_files, and n_tests must all be >= 1")
        if self.n_builds * self.n_tests + self.n_files > MAX_CELLS:
            raise ValidationError(f"synth holds at most {MAX_CELLS} verdicts and file ids, got "
                                  f"{self.n_builds} x {self.n_tests} + {self.n_files}")
        for name, (lo, hi) in (
            ("deps_per_test", self.deps_per_test),
            ("change_set_size", self.change_set_size),
        ):
            if lo < 1 or hi < lo:
                raise ValidationError(f"{name} must be a range 1 <= lo <= hi, got {lo}..{hi}")
            if hi > self.n_files:
                raise ValidationError(f"{name} max {hi} exceeds n_files {self.n_files}")
        for name, p in (
            ("flip_probability_hit", self.flip_probability_hit),
            ("flip_probability_noise", self.flip_probability_noise),
            ("initial_fail_fraction", self.initial_fail_fraction),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {p}")


def _flip(verdict: str) -> str:
    return "fail" if verdict == "pass" else "pass"


def generate(config: SynthConfig) -> tuple[list[BuildRecord], dict[str, tuple[str, ...]]]:
    """Build the history and the planted dependency map."""
    rng = random.Random(config.seed)
    files = [f"f{i:04d}" for i in range(config.n_files)]
    tests = [f"t{i:04d}" for i in range(config.n_tests)]

    deps = {
        t: frozenset(rng.sample(files, rng.randint(*config.deps_per_test)))
        for t in tests
    }
    verdicts = {
        t: "fail" if rng.random() < config.initial_fail_fraction else "pass"
        for t in tests
    }

    records = []
    for seq in range(config.n_builds):
        changed = frozenset(rng.sample(files, rng.randint(*config.change_set_size)))
        if seq:  # build 0 keeps the initial verdicts
            new_verdicts = {}
            for t, v in verdicts.items():
                p = config.flip_probability_hit if deps[t] & changed else config.flip_probability_noise
                new_verdicts[t] = _flip(v) if rng.random() < p else v
            verdicts = new_verdicts
        records.append(BuildRecord(f"b{seq:04d}", seq, changed, verdicts))

    truth = {t: tuple(sorted(deps[t])) for t in tests}
    return records, truth


def write_truth(truth: dict[str, tuple[str, ...]], fp: IO[str]) -> None:
    json.dump({t: list(fs) for t, fs in truth.items()}, fp, sort_keys=True, separators=(",", ":"))
    fp.write("\n")
