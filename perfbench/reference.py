"""Independent checkers for the benchmark: closed forms, brute force and
properties, computed from the generated files without the program.

Nothing here imports flipsense. The history is read with plain ``json``,
flips are extracted by carry-forward comparison, EMA scores come from the
closed form and counting scores from brute-force co-occurrence counts.
"""

from __future__ import annotations

import json
import math
import sys

# Two scores closer than this share of the larger one count as a tie.
TIE_REL = 1e-9
# Exact scores below the smallest normal double count as zero: the
# recursion cannot represent them either.
FLOOR = sys.float_info.min


def read_history(path):
    """[(changes frozenset, verdicts dict)] in file order."""
    builds = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                obj = json.loads(line)
                builds.append((frozenset(obj["changes"]), dict(obj["results"])))
    return builds


def read_changes(path):
    """[changes frozenset] in file order, verdicts dropped as read."""
    with open(path, encoding="utf-8") as fp:
        return [frozenset(json.loads(line)["changes"]) for line in fp if line.strip()]


def flips(builds):
    """(flipped, predictable, universe) per carry-forward comparison.

    flipped[k] is the set of tests whose verdict at build k differs from
    their last known verdict; predictable[k] keeps those that flipped at
    some earlier build too.
    """
    last = {}
    seen_flip = set()
    flipped, predictable = [], []
    universe = set()
    for _, verdicts in builds:
        now = set()
        for t, v in verdicts.items():
            universe.add(t)
            if t in last and last[t] != v:
                now.add(t)
            last[t] = v
        flipped.append(frozenset(now))
        predictable.append(frozenset(now & seen_flip))
        seen_flip |= now
    return flipped, predictable, frozenset(universe)


class CreditIndex:
    """file -> [(build, |changes|)] over builds that flipped something.

    Scores are read against the matrix folded from builds 1..upto, the
    state the program has before it selects at build upto + 1.
    """

    def __init__(self, builds, flipped):
        self.flipped = flipped
        self.n_changed = [len(c) for c, _ in builds]
        self.by_file = {}
        for j, (changes, _) in enumerate(builds):
            if j == 0 or not flipped[j] or not changes:
                continue
            for f in changes:
                self.by_file.setdefault(f, []).append(j)

    def _overlaps(self, changed, upto):
        overlap = {}
        for f in changed:
            for j in self.by_file.get(f, ()):
                if j > upto:
                    break
                overlap[j] = overlap.get(j, 0) + 1
        return overlap

    def ema(self, changed, upto, alpha):
        """alpha * sum_j (1-alpha)^(upto-j) * |C & C_j| / |C_j| per flipped t."""
        terms = {}
        for j, k in self._overlaps(changed, upto).items():
            w = alpha * (1.0 - alpha) ** (upto - j) * k / self.n_changed[j]
            for t in self.flipped[j]:
                terms.setdefault(t, []).append(w)
        scores = {}
        for t, ws in terms.items():
            s = math.fsum(ws)
            if s >= FLOOR:
                scores[t] = s
        return scores

    def counts(self, changed, upto):
        """sum over f in C of #{j <= upto: f in C_j, t flipped at j}."""
        scores = {}
        for j, k in self._overlaps(changed, upto).items():
            for t in self.flipped[j]:
                scores[t] = scores.get(t, 0) + k
        return scores


def tie(a, b):
    return abs(a - b) <= TIE_REL * max(abs(a), abs(b))


def selection_ok(selected, scores, universe, n):
    """A size-n selection is valid when it has min(n, |universe|) distinct
    members of the universe and the best test it leaves out does not score
    above the worst test it keeps (beyond a tie)."""
    picked = set(selected)
    if len(picked) != len(selected) or len(picked) != min(n, len(universe)):
        return False
    if not picked <= universe:
        return False
    worst_kept = min(scores.get(t, 0.0) for t in picked)
    best_left = max(
        (s for t, s in scores.items() if t not in picked and t in universe), default=0.0
    )
    return best_left <= worst_kept or tie(best_left, worst_kept)


def intersection_range(scores, universe_size, n, predictable):
    """(lo, hi) of |S & predictable| over the valid size-n selections S.

    Tests that score clearly above the n-th best score are in every valid
    selection; the rest are drawn from the tests tied with it.
    """
    n_eff = min(n, universe_size)
    ranked = sorted(scores.values(), reverse=True)
    ranked += [0.0] * max(0, n_eff - len(ranked))
    thr = ranked[n_eff - 1]
    above = tied = above_pred = tied_pred = 0
    for t, s in scores.items():
        if tie(s, thr):
            tied += 1
            tied_pred += t in predictable
        elif s > thr:
            above += 1
            above_pred += t in predictable
    if thr == 0.0:
        # every test without a score is tied at zero
        tied = universe_size - above
        tied_pred = len(predictable) - above_pred
    need = n_eff - above
    lo = above_pred + max(0, need - (tied - tied_pred))
    hi = above_pred + min(need, tied_pred)
    return lo, hi


def f_measure(p, r):
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def row_matches(row, seq, n_eff, predictable, lo, hi):
    """A matrix-method per-build row against its intersection range."""
    inter = row["intersection"]
    if row["seq"] != seq or row["n_selected"] != n_eff:
        return False
    if row["n_predictable"] != len(predictable) or inter != int(inter):
        return False
    if not lo <= inter <= hi:
        return False
    p = inter / n_eff
    r = inter / len(predictable)
    return (
        row["precision"] == p
        and row["recall"] == r
        and row["f_measure"] == f_measure(p, r)
        and row["zero_fraction"] == (0.0 if inter else 1.0)
    )


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def aggregates_match(report, rows):
    """Report means recomputed from its per-build rows."""
    if report["evaluated_builds"] != len(rows):
        return False
    agg = report["aggregates"]
    if not rows:
        return all(v is None for v in agg.values())
    pairs = (
        ("mean_precision", "precision"),
        ("mean_recall", "recall"),
        ("mean_f_measure", "f_measure"),
        ("zero_pct", "zero_fraction"),
    )
    return all(
        close(agg[a], math.fsum(r[k] for r in rows) / len(rows)) for a, k in pairs
    )


def random_recall_tolerance(universe_size, n, pred_sizes, runs):
    """Six standard deviations of the mean recall of uniform size-n draws.

    Each run reuses one permutation for every build, so only the runs are
    taken as independent; the largest per-build variance bounds the rest.
    """
    n_eff = min(n, universe_size)
    worst = 0.0
    for m in pred_sizes:
        p = m / universe_size
        fpc = (universe_size - n_eff) / max(1, universe_size - 1)
        worst = max(worst, n_eff * p * (1 - p) * fpc / (m * m))
    return 6.0 * math.sqrt(worst / runs)


class ColumnModel:
    """Column-wise EMA updates kept apart from the program: a test that
    flips against its last verdict gets alpha / |accumulated| on each file
    accumulated since it last ran; any executed test first decays by
    (1 - alpha)."""

    def __init__(self, alpha, tests):
        self.alpha = alpha
        self.cols = {}
        self.acc = {t: set() for t in tests}
        self.last = {}

    def observe(self, changed):
        for s in self.acc.values():
            s |= changed

    def apply(self, executed, verdicts):
        keep = 1.0 - self.alpha
        for t in executed:
            v = verdicts[t]
            acc = self.acc.get(t, set())
            col = {f: keep * x for f, x in self.cols.get(t, {}).items()}
            if t in self.last and self.last[t] != v and acc:
                add = self.alpha / len(acc)
                for f in acc:
                    col[f] = col.get(f, 0.0) + add
            self.cols[t] = col
            self.acc[t] = set()
            self.last[t] = v

    def max_error(self, cols):
        """Largest |program - model| over every entry either side holds."""
        worst = 0.0
        for t in self.cols.keys() | cols.keys():
            mine = self.cols.get(t, {})
            theirs = cols.get(t, {})
            for f in mine.keys() | theirs.keys():
                worst = max(worst, abs(mine.get(f, 0.0) - theirs.get(f, 0.0)))
        return worst


def stable_pass_ok(picked, staleness, stable, budget, window):
    """Budget, membership, overdue-first and staleness-major properties."""
    candidates = [t for t, s in stable.items() if s]
    if len(set(picked)) != len(picked) or not set(picked) <= set(candidates):
        return False
    if len(picked) != min(budget, len(candidates)):
        return False
    overdue = sorted(
        (t for t in candidates if staleness[t] >= window), key=lambda t: (-staleness[t], t)
    )
    head = overdue[: len(picked)]
    if picked[: len(head)] != head:
        return False
    rest = picked[len(head):]
    if rest:
        floor = min(staleness[t] for t in rest)
        left = set(candidates) - set(picked)
        if any(staleness[t] > floor for t in left):
            return False
    return True
