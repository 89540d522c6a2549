"""Comparison selectors: seeded random, failure recency, and dissimilarity.

These are the non-sensitivity legs of the evaluation and of the
resource-managed loop: random selection as the evaluation floor, a
history-based scorer (HBTP) that weights tests by how recently they failed,
and a greedy farthest-first ordering that spreads a selection across
dissimilar tests.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError
from .history import BuildRecord, FlipLedger
from .sensitivity import ScoreVector

_TOKEN_SPLIT = re.compile(r"[/_]")


@dataclass(frozen=True)
class RandomPolicy:
    """Seeded multi-run random selection; same seed + run -> same sample."""

    seed: int
    runs: int = 100

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError(f"random selection needs runs >= 1, got {self.runs}")


def shuffled_universe(universe: Iterable[str], policy: RandomPolicy, run_index: int) -> list[str]:
    """One deterministic permutation of the universe per (seed, run_index);
    its first n tests are a uniform random selection of n, so the
    selections of one run are nested prefixes."""
    if not 0 <= run_index < policy.runs:
        raise ValueError(f"run_index {run_index} outside 0..{policy.runs - 1}")
    pool = sorted(universe)
    rng = random.Random(policy.seed * (1 << 20) + run_index)
    rng.shuffle(pool)
    return pool


def hbtp_scores(
    records: Sequence[BuildRecord], ledger: FlipLedger, at_seq: int
) -> ScoreVector:
    """History-based prioritisation: weight by recency of the last failure.

    score(t) = 1 / (1 + g) with g = builds since t's most recent failure
    strictly before at_seq; tests that never failed score 0.
    """
    if not 0 <= at_seq <= len(records):
        raise ValueError(f"at_seq {at_seq} outside history of {len(records)} builds")
    last_fail: dict[str, int] = {}
    for record in records[:at_seq]:
        for test_id, verdict in record.verdicts.items():
            if verdict == "fail":
                last_fail[test_id] = record.seq
    positive = {t: 1.0 / (1 + (at_seq - 1 - seq)) for t, seq in last_fail.items()}
    return ScoreVector(positive, ledger.universe)


def identifier_tokens(test_id: str) -> frozenset[str]:
    return frozenset(tok for tok in _TOKEN_SPLIT.split(test_id) if tok)


def _jaccard_distance(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union


def dissimilarity_order(
    candidates: Iterable[str], already_chosen: Sequence[str] = (), limit: int | None = None
) -> list[str]:
    """Greedy farthest-first ordering under token-set Jaccard distance.

    Identifiers are tokenised on '/' and '_'; each step picks the candidate
    with the largest minimum distance to everything chosen so far, ties by
    id. With nothing chosen yet every distance is infinite, so the first
    pick is the smallest id. A pick never depends on later ones, so the
    first `limit` picks, when a limit is given, are a prefix of the whole
    order.
    """
    remaining = sorted(set(candidates))
    tokens = {t: identifier_tokens(t) for t in remaining}
    chosen = [identifier_tokens(t) for t in already_chosen]
    nearest = {
        t: min((_jaccard_distance(tokens[t], c) for c in chosen), default=math.inf)
        for t in remaining
    }
    ordered: list[str] = []
    while remaining and len(ordered) != limit:
        # max() keeps the first of equal keys; remaining is id-ascending,
        # so distance ties resolve to the smallest id.
        best = max(remaining, key=nearest.__getitem__)
        ordered.append(best)
        remaining.remove(best)
        for t in remaining:
            nearest[t] = min(nearest[t], _jaccard_distance(tokens[t], tokens[best]))
    return ordered
