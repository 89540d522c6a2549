"""Sparse file-by-test sensitivity matrix and its update/scoring operations.

For each build, every changed file is credited with 1/d(|changed|) towards
every test that flipped in that build (d(n)=n in linear mode, d(n)=1 in
constant mode). Per-build credit matrices are folded into a prioritisation
matrix either by exponential moving average,

    M_k = alpha * delta_k + (1 - alpha) * M_{k-1},        M_0 = 0,

or by plain accumulation (M_k = delta_k + M_{k-1}), which together with
constant d reproduces the classic co-occurrence counting baseline.

Scoring a change set slices the rows of the changed files and reduces the
columns (sum or max); higher score = more likely to flip. An incremental
mode updates single columns when individual tests run, decaying columns of
tests that ran without flipping.

All values here are treated as immutable; update operations return new
objects and never mutate their inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Mapping

from .errors import ConfigError, ValidationError

D_MODES = ("linear", "constant")
UPDATE_MODES = ("ema", "cumulative")
SCORE_MODES = ("sum", "max")

# EMA decay leaves stale near-zero entries forever; anything below this is
# pruned after an update. Set drop_threshold=0.0 to keep all nonzero entries.
DEFAULT_DROP_THRESHOLD = 1e-12


@dataclass(frozen=True)
class SensitivityMatrix:
    """Sparse non-negative matrix keyed (test -> file -> value).

    ``files`` and ``tests`` record every id ever seen by an update, even if
    all its entries have decayed away or been pruned; heat-map fractions and
    zero-score ranking depend on that registry. No stored entry is 0.
    """

    cols: dict[str, dict[str, float]]
    files: frozenset[str]
    tests: frozenset[str]
    d_mode: str
    update_mode: str | None = None  # None for bare per-build deltas
    alpha: float | None = None      # ema mode only
    last_seq: int = 0
    drop_threshold: float = DEFAULT_DROP_THRESHOLD

    def entry(self, file_id: str, test_id: str) -> float:
        return self.cols.get(test_id, {}).get(file_id, 0.0)

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())


@dataclass(frozen=True)
class ScoreVector:
    """Test scores with a deterministic (score desc, id asc) ordering."""

    scores: dict[str, float]
    order: tuple[str, ...]


@dataclass
class PendingChanges:
    """Per-test bookkeeping for the incremental update mode.

    ``accumulated`` holds the files changed since each test last ran; it only
    grows between executions and resets to empty when the test runs.
    """

    accumulated: dict[str, set[str]] = field(default_factory=dict)
    last_verdict: dict[str, str] = field(default_factory=dict)

    def tests(self) -> frozenset[str]:
        return frozenset(self.accumulated) | frozenset(self.last_verdict)


def new_pending(tests: Iterable[str] = ()) -> PendingChanges:
    return PendingChanges(accumulated={t: set() for t in tests}, last_verdict={})


def empty_matrix(
    alpha: float | None = None,
    d_mode: str = "linear",
    update_mode: str = "ema",
    drop_threshold: float = DEFAULT_DROP_THRESHOLD,
) -> SensitivityMatrix:
    """The all-zero starting matrix (M_0 = 0)."""
    if d_mode not in D_MODES:
        raise ConfigError(f"unknown d_mode {d_mode!r}")
    if update_mode not in UPDATE_MODES:
        raise ConfigError(f"unknown update_mode {update_mode!r}")
    if update_mode == "ema":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"ema mode requires alpha in [0, 1], got {alpha!r}")
    return SensitivityMatrix(
        cols={},
        files=frozenset(),
        tests=frozenset(),
        d_mode=d_mode,
        update_mode=update_mode,
        alpha=alpha,
        last_seq=0,
        drop_threshold=drop_threshold,
    )


def _d(d_mode: str, n_changed: int) -> float:
    return float(n_changed) if d_mode == "linear" else 1.0


def build_delta(
    changed_files: Iterable[str], flipped: Iterable[str], d_mode: str = "linear"
) -> SensitivityMatrix:
    """Per-build credit matrix: (f, t) = 1/d(|changed|) for every changed file
    f and flipped test t; empty when either set is empty."""
    if d_mode not in D_MODES:
        raise ConfigError(f"unknown d_mode {d_mode!r}")
    changed = frozenset(changed_files)
    flipped_set = frozenset(flipped)
    cols: dict[str, dict[str, float]] = {}
    if changed and flipped_set:
        value = 1.0 / _d(d_mode, len(changed))
        for t in flipped_set:
            cols[t] = dict.fromkeys(changed, value)
    return SensitivityMatrix(
        cols=cols, files=changed, tests=flipped_set, d_mode=d_mode
    )


def _prune(col: dict[str, float], threshold: float) -> dict[str, float]:
    return {f: v for f, v in col.items() if v != 0.0 and v >= threshold}


def advance(matrix: SensitivityMatrix, delta: SensitivityMatrix) -> SensitivityMatrix:
    """Fold one build's delta into the matrix, M = weight * delta + keep * M:
    (alpha, 1 - alpha) blends an EMA, (1, 1) is a plain sum."""
    if matrix.d_mode != delta.d_mode:
        raise ConfigError(
            f"d_mode mismatch: matrix is {matrix.d_mode!r}, delta is {delta.d_mode!r}"
        )
    if matrix.update_mode == "ema":
        weight, keep = matrix.alpha, 1.0 - matrix.alpha
    else:  # cumulative
        weight, keep = 1.0, 1.0
    cols: dict[str, dict[str, float]] = {}
    for t in matrix.cols.keys() | delta.cols.keys():
        col = {f: keep * v for f, v in matrix.cols.get(t, {}).items()}
        for f, v in delta.cols.get(t, {}).items():
            col[f] = weight * v + col.get(f, 0.0)
        col = _prune(col, matrix.drop_threshold)
        if col:
            cols[t] = col
    return replace(
        matrix,
        cols=cols,
        files=matrix.files | delta.files,
        tests=matrix.tests | delta.tests,
        last_seq=matrix.last_seq + 1,
    )


def make_scores(scores: Mapping[str, float]) -> ScoreVector:
    order = tuple(sorted(scores, key=lambda t: (-scores[t], t)))
    return ScoreVector(scores=dict(scores), order=order)


def slice_scores(
    matrix: SensitivityMatrix, changed_files: Iterable[str], score_mode: str = "sum"
) -> ScoreVector:
    """Score every known test against a change set.

    Sum mode adds the changed files' entries per test column; max mode takes
    the largest. Files the matrix has never seen contribute nothing, and
    tests with no contribution score 0 (they stay rankable via tie-break).
    """
    if score_mode not in SCORE_MODES:
        raise ConfigError(f"unknown score_mode {score_mode!r}")
    changed = set(changed_files)
    scores: dict[str, float] = {}
    for t in matrix.tests:
        col = matrix.cols.get(t)
        if not col:
            scores[t] = 0.0
        elif score_mode == "sum":
            scores[t] = sum(col.get(f, 0.0) for f in changed)
        else:
            scores[t] = max((col.get(f, 0.0) for f in changed), default=0.0)
    return make_scores(scores)


def select_top_n(scores: ScoreVector, n: int, universe: Iterable[str]) -> list[str]:
    """Pick min(n, |universe|) tests: positive scores first (score desc, id
    asc), then zero-score universe members by id until the quota is filled.

    Padding keeps the selection size fixed even when the matrix knows
    nothing about the change set.
    """
    if n < 1:
        raise ValueError(f"selection size must be >= 1, got {n}")
    pool = set(universe)
    positive = [t for t in scores.order if scores.scores[t] > 0.0 and t in pool]
    padding = sorted(pool - set(positive))
    return (positive + padding)[: min(n, len(pool))]


def incremental_observe(
    pending: PendingChanges, changed_files: Iterable[str]
) -> PendingChanges:
    """Record a change set against every tracked test (sets only grow)."""
    changed = set(changed_files)
    return PendingChanges(
        accumulated={t: acc | changed for t, acc in pending.accumulated.items()},
        last_verdict=dict(pending.last_verdict),
    )


def incremental_apply(
    matrix: SensitivityMatrix,
    pending: PendingChanges,
    executed: Iterable[str],
    new_verdicts: Mapping[str, str],
) -> tuple[SensitivityMatrix, PendingChanges]:
    """Column-wise update after a subset of tests ran.

    A test that flipped against its last known verdict gets an EMA blend of
    a delta built from the files accumulated since it last ran; a test that
    ran without flipping has its column decayed by (1 - alpha). Either way
    its accumulated set resets. Tests that did not run are untouched.
    """
    if matrix.update_mode != "ema":
        raise ConfigError("incremental updates require an ema matrix")
    executed_set = set(executed)
    for t in executed_set:
        if t not in new_verdicts:
            raise ValueError(f"executed test {t!r} has no verdict")
    for t in executed_set:
        if new_verdicts[t] not in ("pass", "fail"):
            raise ValueError(f"test {t!r} has verdict {new_verdicts[t]!r}")

    alpha = matrix.alpha
    keep = 1.0 - alpha
    cols = {t: dict(col) for t, col in matrix.cols.items()}
    files = set(matrix.files)
    tests = set(matrix.tests)
    accumulated = {t: set(acc) for t, acc in pending.accumulated.items()}
    last_verdict = dict(pending.last_verdict)

    for t in sorted(executed_set):
        verdict = new_verdicts[t]
        prev = last_verdict.get(t)
        flipped = prev is not None and prev != verdict
        acc = accumulated.get(t, set())
        col = {f: keep * v for f, v in cols.pop(t, {}).items()}
        if flipped and acc:
            value = alpha / _d(matrix.d_mode, len(acc))
            for f in acc:
                col[f] = value + col.get(f, 0.0)
        col = _prune(col, matrix.drop_threshold)
        if col:
            cols[t] = col
        files.update(acc)
        tests.add(t)
        accumulated[t] = set()
        last_verdict[t] = verdict

    new_matrix = replace(
        matrix, cols=cols, files=frozenset(files), tests=frozenset(tests)
    )
    return new_matrix, PendingChanges(accumulated=accumulated, last_verdict=last_verdict)


def top_files_for_test(
    matrix: SensitivityMatrix, test_id: str, k: int
) -> list[tuple[str, float]]:
    """The k largest entries in a test's column (entry desc, file id asc)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    col = matrix.cols.get(test_id, {})
    ranked = sorted(col.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def flakiness_index(matrix: SensitivityMatrix) -> list[tuple[str, float, float]]:
    """Per-test (coverage fraction, mean nonzero magnitude), widest first.

    A test touching most of the files with small values is sensitive to
    nearly any modification -- the classic smell of a flaky or bad test.
    """
    n_files = len(matrix.files)
    rows = []
    for t, col in matrix.cols.items():
        fraction = len(col) / n_files if n_files else 0.0
        mean = sum(col.values()) / len(col)
        rows.append((t, fraction, mean))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def export_heatmap(matrix: SensitivityMatrix, heatmap_fp: IO[str], flakiness_fp: IO[str]) -> None:
    """Write the dense file-by-test table and the flakiness index as CSV.

    Values carry 6 significant digits; absent entries are written as 0.
    """
    tests = sorted(matrix.tests)
    files = sorted(matrix.files)
    writer = csv.writer(heatmap_fp, lineterminator="\n")
    writer.writerow(["file"] + tests)
    for f in files:
        writer.writerow([f] + [f"{matrix.entry(f, t):.6g}" for t in tests])

    fwriter = csv.writer(flakiness_fp, lineterminator="\n")
    fwriter.writerow(["test_id", "fraction", "mean_magnitude"])
    for t, fraction, mean in flakiness_index(matrix):
        fwriter.writerow([t, f"{fraction:.6g}", f"{mean:.6g}"])


def save_matrix(matrix: SensitivityMatrix, fp: IO[str]) -> None:
    """Persist as one meta line followed by (file, test, value) lines."""
    meta = {
        "kind": "sensitivity-matrix",
        "d_mode": matrix.d_mode,
        "update_mode": matrix.update_mode,
        "alpha": matrix.alpha,
        "last_seq": matrix.last_seq,
        "drop_threshold": matrix.drop_threshold,
        "files": sorted(matrix.files),
        "tests": sorted(matrix.tests),
    }
    fp.write(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    fp.write("\n")
    entries = sorted(
        (f, t, v) for t, col in matrix.cols.items() for f, v in col.items()
    )
    for f, t, v in entries:
        fp.write(json.dumps({"file": f, "test": t, "value": v}, sort_keys=True, separators=(",", ":")))
        fp.write("\n")


def load_matrix(fp: IO[str]) -> SensitivityMatrix:
    lines = [line for line in fp if line.strip()]
    if not lines:
        raise ValidationError("matrix snapshot is empty")
    meta = json.loads(lines[0])
    if meta.get("kind") != "sensitivity-matrix":
        raise ValidationError("not a sensitivity-matrix snapshot")
    cols: dict[str, dict[str, float]] = {}
    for line in lines[1:]:
        entry = json.loads(line)
        cols.setdefault(entry["test"], {})[entry["file"]] = float(entry["value"])
    return SensitivityMatrix(
        cols=cols,
        files=frozenset(meta["files"]),
        tests=frozenset(meta["tests"]),
        d_mode=meta["d_mode"],
        update_mode=meta["update_mode"],
        alpha=meta["alpha"],
        last_seq=meta["last_seq"],
        drop_threshold=meta["drop_threshold"],
    )
