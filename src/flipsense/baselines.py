"""Comparison selectors: seeded random, failure recency, and dissimilarity.

These are the non-sensitivity legs of the evaluation and of the
resource-managed loop: random selection as the evaluation floor, a
history-based scorer (HBTP) that weights tests by how recently they failed,
and a greedy farthest-first ordering that spreads a selection across
dissimilar tests.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

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
        # random.Random seeds from |seed|, so -s would draw what s draws
        if self.seed < 0:
            raise ConfigError(f"random selection needs seed >= 0, got {self.seed}")
        if self.runs < 1:
            raise ConfigError(f"random selection needs runs >= 1, got {self.runs}")


def shuffled_universe(
    universe: Iterable[str], policy: RandomPolicy, length: int | None = None
) -> list[list[str]]:
    """One list per run of the policy, in run order: the first ``length``
    tests (all of them if None) of one deterministic permutation of the
    universe per (seed, run), a uniform random ordered selection of
    min(length, |universe|) tests.

    A forward partial Fisher-Yates shuffle (Knuth, Algorithm P) of the
    universe, sorted once and only read, draws one position per test
    returned, and position i depends only on draws 0..i, so the selections
    of one run are nested prefixes. A run's swaps live in a map of the
    positions they moved, so a run costs its length.
    """
    if length is not None and length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    pool = sorted(universe)
    n = len(pool)
    length = n if length is None else min(length, n)
    runs = []
    for run in range(policy.runs):
        rng = random.Random(policy.seed * (1 << 20) + run)
        moved: dict[int, int] = {}  # position -> the pool index now there, if swapped
        drawn = []
        for i in range(length):
            j = rng.randrange(i, n)
            drawn.append(pool[moved.get(j, j)])
            moved[j] = moved.get(i, i)
        runs.append(drawn)
    return runs


def recency_scores(last_fail: Mapping[str, int], now: int, known: AbstractSet[str]) -> ScoreVector:
    """Failure recency on one clock: score(t) = 1 / (1 + now - last_fail[t]),
    so a failure at now scores 1; tests that never failed score 0."""
    return ScoreVector({t: 1.0 / (1 + (now - s)) for t, s in last_fail.items()}, known)


def hbtp_scores(
    records: Sequence[BuildRecord], ledger: FlipLedger, at_seq: int
) -> ScoreVector:
    """History-based prioritisation: recency_scores at seq at_seq - 1 of
    each test's most recent failing seq before at_seq."""
    if not 0 <= at_seq <= len(records):
        raise ValueError(f"at_seq {at_seq} outside history of {len(records)} builds")
    last_fail = {t: r.seq for r in records[:at_seq] for t, v in r.verdicts.items() if v == "fail"}
    return recency_scores(last_fail, at_seq - 1, ledger.universe)


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
    tokens = {t: identifier_tokens(t) for t in set(candidates)}
    chosen = [identifier_tokens(t) for t in already_chosen]
    # (-nearest, id, picks seen): nearest is the minimum distance to
    # already_chosen and to the first `seen` picks. Nearest only falls as
    # picks are added, so a stale key never ranks a candidate below where
    # its current key would; a popped candidate that has seen every pick
    # is the farthest, ties to the smallest id.
    heap = [
        (-min((_jaccard_distance(tok, c) for c in chosen), default=math.inf), t, 0)
        for t, tok in tokens.items()
    ]
    heapq.heapify(heap)
    ordered: list[str] = []
    while heap and len(ordered) != limit:
        key, t, seen = heap[0]
        if seen == len(ordered):
            heapq.heappop(heap)
            ordered.append(t)
            continue
        nearest = min(-key, *(_jaccard_distance(tokens[t], tokens[p]) for p in ordered[seen:]))
        heapq.heapreplace(heap, (-nearest, t, len(ordered)))
    return ordered
