"""Sparse file-by-test sensitivity matrix and its update/scoring operations.

For each build, every changed file is credited with 1/d(|changed|) towards
every test that flipped in that build (d(n)=n in linear mode, d(n)=1 in
constant mode). Per-build credit matrices are folded into a prioritisation
matrix either by exponential moving average,

    M_k = alpha * delta_k + (1 - alpha) * M_{k-1},        M_0 = 0,

or by plain accumulation (M_k = delta_k + M_{k-1}), which together with
constant d reproduces the classic co-occurrence counting baseline.

Scoring a change set slices the rows of the changed files and reduces the
columns (sum or max); higher score = more likely to flip. A score vector
holds only the scores above 0, and ``select_top_n`` alone ranks one: those
scores by (score desc, id asc), then zero-score tests by id. An incremental
mode blends single columns the same way when individual tests run, so a
test that ran without flipping only decays (an EMA column) or keeps its
values (a cumulative one).

The EMA fold is lazy: ``cols`` holds every entry divided by one running
``scale``, so a build decays the whole matrix with one multiply and costs
only its own credits, and pruning keeps one heap record per column a build
extends, not one per entry; that heap is the one place an entry whose true
value is above 0 is deleted. A build's credits are one block, a frozen
``Delta`` of its changed files, its flipped tests and the one value
1/d(|changed|), so a build costs one scaled value and a C-level update of
each column it reaches. Every score and mean of a matrix adds ``stored *
scale`` per entry, as a snapshot holds it, left to right: ``sum`` varies
by version. ``advance`` therefore updates its matrix in place; every other
operation returns a new object and leaves its inputs alone, except that
``slice_scores`` fills in the matrix's derived row index (file -> tests),
the one cache an operation builds. ``advance`` keeps it current up to
stale rows: pruning only marks a row, which is compacted when next read.
Replay and the alpha sweep fold no matrix: they score the exact, unpruned
credits of ``evaluate.CreditIndex``.
"""

from __future__ import annotations

import bisect
import csv
import functools
import heapq
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from typing import IO, AbstractSet, Iterable, Mapping

from .errors import ConfigError, ValidationError
from .history import CANONICAL, VERDICTS, flipped_tests

D_MODES = ("linear", "constant")
UPDATE_MODES = ("ema", "cumulative")
SCORE_MODES = ("sum", "max")

# EMA decay leaves stale near-zero entries forever; anything below this is
# pruned after an update. Set drop_threshold=0.0 to keep all nonzero entries.
DEFAULT_DROP_THRESHOLD = 1e-12

# advance folds the scale into the stored values once it falls below this,
# long before stored values (true value / scale) could overflow
_SCALE_FLOOR = 1e-200


@dataclass
class SensitivityMatrix:
    """Sparse non-negative matrix keyed (test -> file -> stored value).

    An entry's true value is its stored value times ``scale``, which only
    ``advance`` moves off 1; every reader multiplies each entry on its own,
    never a sum of stored values. ``files`` and ``tests`` record every id
    ever seen by an update, even if all its entries have decayed away or
    been pruned; heat-map fractions and zero-score ranking depend on that
    registry: sets the matrix owns and ``advance`` grows in place, which
    ``replace`` shares as it shares ``cols``. No stored entry is 0.
    """

    cols: dict[str, dict[str, float]]
    files: set[str]
    tests: set[str]
    d_mode: str
    update_mode: str
    alpha: float | None = None      # ema mode only
    last_seq: int = 0
    drop_threshold: float = DEFAULT_DROP_THRESHOLD
    scale: float = 1.0
    # min-heap of (lowest stored, test, files) records, one per group of EMA
    # entries that decay towards drop_threshold, each entry in one; None
    # until advance next needs it
    _heap: list | None = field(default=None, init=False, repr=False, compare=False)
    # file -> the tests whose column holds it: the transposition of cols,
    # built by slice_scores, current up to stale rows and never saved
    _rows: dict[str, list[str]] | None = field(default=None, init=False, repr=False, compare=False)
    # files whose row may name a test pruned from that file; made and dropped with _rows
    _stale: set[str] | None = field(default=None, init=False, repr=False, compare=False)

    def entry(self, file_id: str, test_id: str) -> float:
        return self.cols.get(test_id, {}).get(file_id, 0.0) * self.scale


@dataclass(frozen=True)
class Delta:
    """A build's credits as one block: ``value`` at every pair of a file in
    ``files`` and a test in ``tests``. Both sets join a matrix's registry
    when the block is folded, even if the other is empty."""

    files: frozenset[str]
    tests: frozenset[str]
    value: float
    d_mode: str


@dataclass(frozen=True)
class ScoreVector:
    """Scores of the ``known`` tests: ``positive`` holds every score above
    0, and every other known test scores 0. ``known`` is held by reference,
    so a vector costs the tests it credits, not the tests known; nothing
    is ranked until ``select_top_n`` picks from it. ``slice_scores`` hands
    it the live ``matrix.tests``: read it before the next ``advance``."""

    positive: dict[str, float]
    known: AbstractSet[str] = field(repr=False)

    @property
    def scores(self) -> dict[str, float]:
        """A computed copy: every known test's score, zeros included. Hot
        paths read ``positive`` instead."""
        scores = dict.fromkeys(self.known, 0.0)
        scores.update(self.positive)
        return scores


@dataclass
class PendingChanges:
    """Per-test bookkeeping for the incremental update mode, as two clocks:
    each observe ticks ``clock`` and stamps the files it changed, and each
    run stamps its tests, so the files changed since test t last ran are
    exactly ``{f : changed_at[f] > last_run[t]}``."""

    clock: int = 0
    changed_at: dict[str, int] = field(default_factory=dict)
    last_run: dict[str, int] = field(default_factory=dict)
    last_verdict: dict[str, str] = field(default_factory=dict)

    def tests(self) -> frozenset[str]:
        return frozenset(self.last_run) | frozenset(self.last_verdict)

    @property
    def accumulated(self) -> dict[str, set[str]]:
        """A computed copy: each tracked test's files changed since it ran."""
        since = self._changed_since()
        return {t: since(stamp) for t, stamp in self.last_run.items()}

    def _changed_since(self):
        """Stamp -> the set of files stamped after it: one sort, then a bisect a call."""
        files = sorted(self.changed_at, key=self.changed_at.__getitem__)
        stamps = [self.changed_at[f] for f in files]
        return lambda stamp: set(files[bisect.bisect_right(stamps, stamp):])


def new_pending(tests: Iterable[str] = ()) -> PendingChanges:
    return PendingChanges(last_run=dict.fromkeys(tests, 0))


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
    if update_mode == "ema" and alpha is None:
        raise ConfigError("ema mode requires alpha in [0, 1], got None")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be null or in [0, 1], got {alpha!r}")
    if not 0.0 <= drop_threshold <= sys.float_info.max:  # also an int beyond the float range
        raise ConfigError(f"drop_threshold must be finite and >= 0, got {drop_threshold!r}")
    return SensitivityMatrix(
        cols={},
        files=set(),
        tests=set(),
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
) -> Delta:
    """One build's credits: (f, t) = 1/d(|changed|) for every changed file f
    and flipped test t, none when either set is empty."""
    if d_mode not in D_MODES:
        raise ConfigError(f"unknown d_mode {d_mode!r}")
    changed = frozenset(changed_files)
    return Delta(changed, frozenset(flipped), 1.0 / _d(d_mode, len(changed) or 1), d_mode)


def _true_cols(matrix: SensitivityMatrix) -> dict[str, dict[str, float]]:
    """A fresh copy of the columns holding true values, leaving out one that
    underflows to 0.0 and a column left with none."""
    s = matrix.scale
    if s == 1.0:
        return {t: dict(col) for t, col in matrix.cols.items()}
    cols = ({f: w for f, v in col.items() if (w := v * s)} for col in matrix.cols.values())
    return {t: col for t, col in zip(matrix.cols, cols) if col}


def _blend(matrix: SensitivityMatrix) -> tuple[float, float]:
    """(weight, keep) of M = weight * delta + keep * M: (alpha, 1 - alpha)
    blends an EMA, (1, 1) is a plain sum."""
    if matrix.update_mode == "ema":
        return matrix.alpha, 1.0 - matrix.alpha
    return 1.0, 1.0


def advance(matrix: SensitivityMatrix, delta: Delta) -> SensitivityMatrix:
    """Fold one build's block into the matrix in place and return it,
    blended as ``_blend`` says.

    Decay multiplies ``scale`` by keep: at keep 0 that is 0, and the
    renormalisation empties the matrix; at a cumulative fold's keep of 1
    it never moves. The block adds one stored value, s = weight / scale *
    value, to each of its entries, so a build costs O(|delta|). A column
    holding none of the block's files takes them all in one
    ``dict.update``. An entry the block creates under ``drop_threshold``
    is never stored, and a credit only adds.

    So an entry falls below the threshold only by decay, and a min-heap is
    the one place one above 0 is deleted: afterwards none remains if none
    did before, as ``load_matrix`` checks of a snapshot. Each EMA entry is
    in one group on the heap, keyed by its lowest stored value: the entries
    a column gains in a build, or a whole column of a matrix ``advance``
    did not fold. Between renormalisations a stored value only rises, so no
    member is ever below its key. A group popped below the threshold
    deletes its members now below it and is pushed again, keyed by its
    survivors' lowest value.
    """
    if matrix.d_mode != delta.d_mode:
        raise ConfigError(
            f"d_mode mismatch: matrix is {matrix.d_mode!r}, delta is {delta.d_mode!r}"
        )
    weight, keep = _blend(matrix)
    cols, threshold = matrix.cols, matrix.drop_threshold
    matrix.scale *= keep
    if matrix.scale < _SCALE_FLOOR:
        _renormalise(matrix)
    # entries decay onto the threshold: one group per column to begin with
    if threshold > 0.0 and keep < 1.0 and matrix._heap is None:
        matrix._heap = [(min(col.values()), t, tuple(col)) for t, col in cols.items() if col]
        heapq.heapify(matrix._heap)
    scale, rows, stale, heap = matrix.scale, matrix._rows, matrix._stale, matrix._heap
    if rows is not None:  # before the credits, which would make a pruned name look live
        for f in stale.intersection(delta.files):
            _compact_row(matrix, f)

    s = weight / scale * delta.value
    if s and delta.files:
        fresh = s * scale >= threshold  # whether the block may create entries
        files = tuple(delta.files)
        block, taken = dict.fromkeys(files, s), []  # taken: the tests that took all of it
        for t in delta.tests:
            col = cols.setdefault(t, {})
            if col.keys().isdisjoint(files):
                if fresh:
                    col.update(block)
                    taken.append(t)
                    if heap is not None:
                        heapq.heappush(heap, (s, t, files))
                elif not col:
                    del cols[t]
                continue
            created = []
            for f in files:
                stored = col.get(f)
                if stored is not None:
                    col[f] = stored + s
                elif fresh:
                    col[f] = s
                    created.append(f)
            if created:
                if heap is not None:
                    heapq.heappush(heap, (s, t, tuple(created)))
                if rows is not None:
                    for f in created:
                        rows.setdefault(f, []).append(t)
        if rows is not None and taken:
            for f in files:
                rows.setdefault(f, []).extend(taken)
    while heap and heap[0][0] * scale < threshold:
        _, t, group = heapq.heappop(heap)
        col, survivors = cols[t], []
        for f in group:
            if col[f] * scale < threshold:
                del col[f]
            else:
                survivors.append(f)
        if stale is not None:
            stale.update(group)
        if survivors:
            heapq.heappush(heap, (min(map(col.__getitem__, survivors)), t, tuple(survivors)))
        elif not col:
            del cols[t]

    matrix.files |= delta.files
    matrix.tests |= delta.tests
    matrix.last_seq += 1
    return matrix


def _renormalise(matrix: SensitivityMatrix) -> None:
    """Multiply the stored values by the scale and reset it to 1; values
    that underflow to 0 are dropped, and the heap and the row index, stale
    marks and all, are rebuilt when next needed."""
    cols = _true_cols(matrix)
    matrix.cols.clear()  # in place: advance holds the dict
    matrix.cols.update(cols)
    matrix.scale, matrix._heap, matrix._rows, matrix._stale = 1.0, None, None, None


def _compact_row(matrix: SensitivityMatrix, f: str) -> None:
    """Unmark f's stale row, keeping the tests whose column still holds f."""
    row = [t for t in matrix._rows.pop(f) if f in matrix.cols.get(t, ())]
    if row:
        matrix._rows[f] = row
    matrix._stale.discard(f)


def slice_scores(
    matrix: SensitivityMatrix, changed_files: Iterable[str], score_mode: str = "sum"
) -> ScoreVector:
    """Score every known test against a change set.

    Sum mode adds the true values (``stored * scale``, per entry) of the
    changed files' entries per test column left to right, in file id
    order, to one running total a test; max mode keeps the largest.
    Files the matrix has never seen contribute nothing, and tests with no
    contribution score 0 (they stay rankable via tie-break) without being
    stored.

    A query reads only the rows of the changed files: the first one
    transposes ``cols`` into the matrix's row index (file -> tests), which
    later queries reuse; it is current up to stale rows, compacted when read.
    """
    if score_mode not in SCORE_MODES:
        raise ConfigError(f"unknown score_mode {score_mode!r}")
    add = operator.add if score_mode == "sum" else max
    cols, rows, changed = matrix.cols, matrix._rows, set(changed_files)
    if rows is None:
        rows = matrix._rows = {}
        matrix._stale = set()
        for t, col in cols.items():
            for f in col:
                rows.setdefault(f, []).append(t)
    for f in matrix._stale.intersection(changed):
        _compact_row(matrix, f)
    scale, totals = matrix.scale, {}
    total = totals.get
    for f in sorted({f for f in changed if f in rows}):
        for t in rows[f]:
            totals[t] = add(total(t, 0.0), cols[t][f] * scale)  # 0.0 + v and max(0.0, v) are v
    # a total is 0 only if each of its products underflowed
    return ScoreVector({t: v for t, v in totals.items() if v}, matrix.tests)


@functools.lru_cache(maxsize=8)
def _id_order(ids: frozenset[str]) -> tuple[str, ...]:
    """The ids sorted, once per distinct frozenset (a frozen universe, such
    as replay's, is sorted once for all its selections)."""
    return tuple(sorted(ids))


def select_top_n(scores: ScoreVector, n: int, universe: Iterable[str]) -> list[str]:
    """Pick min(n, |universe|) tests: the universe's positive scores first
    (score desc, id asc), then its zero-score members by id until the quota
    is filled.

    Padding keeps the selection size fixed even when the matrix knows
    nothing about the change set. Only the universe's positive tests are
    sorted. Padding walks the universe in id order, sorted once per
    distinct frozenset, and stops at its quota; a set universe is frozen,
    and so copied, only on a call that pads.
    """
    if n < 1:
        raise ValueError(f"selection size must be >= 1, got {n}")
    pool = universe if isinstance(universe, (set, frozenset)) else set(universe)
    quota = min(n, len(pool))
    picked = sorted(t for t in scores.positive if t in pool)
    picked.sort(key=scores.positive.__getitem__, reverse=True)  # stable: ties stay by id
    del picked[quota:]
    if len(picked) < quota:  # then every positive member is picked
        for t in _id_order(frozenset(pool)):
            if t not in scores.positive:
                picked.append(t)
                if len(picked) == quota:
                    break
    return picked


def incremental_observe(
    pending: PendingChanges, changed_files: Iterable[str]
) -> PendingChanges:
    """Record a change set: tick the clock and stamp the changed files."""
    clock = pending.clock + 1
    changed_at = {**pending.changed_at, **dict.fromkeys(changed_files, clock)}
    return PendingChanges(clock, changed_at, dict(pending.last_run), dict(pending.last_verdict))


def incremental_apply(
    matrix: SensitivityMatrix,
    pending: PendingChanges,
    executed: Iterable[str],
    new_verdicts: Mapping[str, str],
) -> tuple[SensitivityMatrix, PendingChanges]:
    """Column-wise update after a subset of tests ran.

    Each executed test's column is blended as ``_blend`` says: it decays by
    keep, and a test that flipped against its last known verdict also gains
    weight / d(|accumulated|) on each file accumulated since it last ran.
    So an EMA column decays by (1 - alpha) and a cumulative one, which
    counts, only gains. Either way its accumulated set resets. Tests that
    did not run are untouched.

    Only the executed tests that flipped or hold a column cost a step of
    their own, in id order; only a flipped test's files are found. The
    verdicts are checked in one pass, the file registry grows by one slice
    of the sorted stamps (the files changed since the earliest executed
    test last ran), and the stamps are two dict merges.
    """
    run = sorted(set(executed))
    verdicts = dict(zip(run, map(new_verdicts.get, run)))  # a missing verdict reads None
    values = list(verdicts.values())
    if sum(map(values.count, VERDICTS)) != len(values):  # counted in C, not a test at a time
        t = next(t for t, v in verdicts.items() if v not in VERDICTS)
        if t not in new_verdicts:
            raise ValueError(f"executed test {t!r} has no verdict")
        raise ValueError(f"test {t!r} has verdict {verdicts[t]!r}")

    weight, keep = _blend(matrix)
    cols, threshold = _true_cols(matrix), matrix.drop_threshold
    since = pending._changed_since()
    clock, last_run = pending.clock, pending.last_run
    flips = set(flipped_tests(pending.last_verdict, verdicts))
    for t in sorted(flips.union(cols.keys() & verdicts.keys())):
        old, credit = cols.pop(t, {}), {}
        # a test seen first starts now, with nothing accumulated
        if t in flips and (acc := since(last_run.get(t, clock))):
            credit = dict.fromkeys(acc, weight / _d(matrix.d_mode, len(acc)))
        col = {f: v for f in {**old, **credit}
               if (v := credit.get(f, 0.0) + keep * old.get(f, 0.0)) and v >= threshold}
        if col:
            cols[t] = col

    files = set(matrix.files)
    files.update(since(min(map(last_run.get, run, itertools.repeat(clock)), default=clock)))
    tests = set(matrix.tests)
    tests.update(run)
    new_matrix = replace(matrix, cols=cols, files=files, tests=tests, scale=1.0)
    return new_matrix, PendingChanges(clock, dict(pending.changed_at),
                                      last_run | dict.fromkeys(run, clock),
                                      pending.last_verdict | verdicts)


def flakiness_index(matrix: SensitivityMatrix) -> list[tuple[str, float, float]]:
    """Per-test (coverage fraction, mean nonzero magnitude), widest first.

    A test touching most of the files with small values is sensitive to
    nearly any modification -- the classic smell of a flaky or bad test.
    The mean adds a column's true values left to right, in file id order.
    """
    n_files = len(matrix.files)
    rows = []
    for t, col in _true_cols(matrix).items():
        fraction = len(col) / n_files if n_files else 0.0
        mean = functools.reduce(operator.add, map(col.__getitem__, sorted(col)), 0.0) / len(col)
        rows.append((t, fraction, mean))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def export_heatmap(matrix: SensitivityMatrix, heatmap_fp: IO[str], flakiness_fp: IO[str]) -> None:
    """Write the dense file-by-test table and the flakiness index as CSV.

    Values carry 6 significant digits; absent entries are written as 0.
    """
    tests, cols = sorted(matrix.tests), _true_cols(matrix)
    # file -> (test position, cell) of each entry's true value; every other
    # cell, an underflowed entry's too, is "0", as 0.0 prints
    nonzeros: dict[str, list[tuple[int, str]]] = {}
    for i, t in enumerate(tests):
        for f, v in cols.get(t, {}).items():
            nonzeros.setdefault(f, []).append((i, f"{v:.6g}"))
    writer = csv.writer(heatmap_fp, lineterminator="\n")
    writer.writerow(["file"] + tests)
    for f in sorted(matrix.files):
        row = ["0"] * len(tests)
        for i, cell in nonzeros.get(f, ()):
            row[i] = cell
        writer.writerow([f] + row)

    fwriter = csv.writer(flakiness_fp, lineterminator="\n")
    fwriter.writerow(["test_id", "fraction", "mean_magnitude"])
    for t, fraction, mean in flakiness_index(matrix):
        fwriter.writerow([t, f"{fraction:.6g}", f"{mean:.6g}"])


def read_document(
    fp: IO[str], kind: str, fields: Mapping[str, type | tuple[type, ...]]
) -> dict:
    """Parse one JSON object whose "kind" is `kind` and which holds each
    given field with a value of its type; anything else raises
    ValidationError. Each distinct number text is converted to a float once."""
    try:
        doc = json.load(fp, parse_float=_Memo(float).__getitem__)
    except (ValueError, RecursionError) as exc:  # invalid JSON or text, or nested too deeply
        raise ValidationError(f"{kind}: not one JSON document ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValidationError(f"not a {kind} document")
    for name, types in fields.items():
        if name not in doc:
            raise ValidationError(f"{kind}: missing field {name!r}")
        value = doc[name]
        # JSON true/false load as bool, a subclass of int: never a number here
        if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
            raise ValidationError(f"{kind}: field {name!r} has type {type(value).__name__}")
    return doc


def check_ids(ids: list, where: str) -> None:
    if not all(isinstance(i, str) and i for i in ids):
        raise ValidationError(f"{where}: ids must be non-empty strings")


_NUMBER = (int, float)
_MATRIX_FIELDS = {
    "d_mode": str,
    "update_mode": str,
    "alpha": (*_NUMBER, type(None)),
    "last_seq": int,
    "drop_threshold": _NUMBER,
    "files": list,
    "tests": list,
    "cols": dict,
}


class _Memo(dict):
    """fn(key), computed once per distinct key for the life of the memo."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def save_matrix(matrix: SensitivityMatrix, fp: IO[str]) -> None:
    """Persist as one JSON document: the settings, the known files and
    tests, and the columns (test -> file -> true value), leaving out an
    entry whose true value underflows to 0.0, which no snapshot may hold.

    The bytes are ``history.CANONICAL``'s, but ``cols`` is written here,
    so that each distinct true value is printed once with ``repr``, as the
    encoder prints a float; stored values are floats, as every operation
    here makes them.
    """
    encode, number = json.encoder.encode_basestring_ascii, _Memo(repr)
    true_cols = matrix.cols if matrix.scale == 1.0 else _true_cols(matrix)
    cols = ",".join(
        encode(t) + ":{" + ",".join([encode(f) + ":" + number[col[f]] for f in sorted(col)]) + "}"
        for t, col in sorted(true_cols.items())
    )
    rest = {
        "kind": "sensitivity-matrix",
        "d_mode": matrix.d_mode,
        "update_mode": matrix.update_mode,
        "last_seq": matrix.last_seq,
        "drop_threshold": matrix.drop_threshold,
        "files": sorted(matrix.files),
        "tests": sorted(matrix.tests),
    }
    # "alpha" and "cols" sort before every other key
    fp.write('{"alpha":' + CANONICAL.encode(matrix.alpha) + ',"cols":{' + cols + "},"
             + CANONICAL.encode(rest)[1:] + "\n")


def _check_column(t: str, col: object, threshold: float) -> dict[str, float]:
    """The column as floats, or ValidationError unless it is a non-empty
    object of finite numbers > 0 and >= threshold with a finite sum. Every
    check is one C-level pass over the entries: their types, their sum (NaN
    and infinities stay NaN or infinite) and their minimum."""
    if not isinstance(col, dict) or not col:
        raise ValidationError(f"sensitivity-matrix: column {t!r} is not a non-empty object")
    types = set(map(type, col.values()))
    if not types <= {float, int}:  # also rejects bool, a subclass of int
        raise ValidationError(f"sensitivity-matrix: column {t!r} holds a non-number entry")
    try:
        if int in types:
            col = dict(zip(col, map(float, col.values())))
        low = min(col.values())
        ok = math.isfinite(sum(col.values())) and low > 0.0
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValidationError(
            f"sensitivity-matrix: column {t!r} entries must be finite numbers > 0 with a finite sum"
        )
    if low < threshold:
        f = min(sorted(col), key=col.__getitem__)
        raise ValidationError(f"sensitivity-matrix: column {t!r} holds {low!r} for {f!r}, "
                              f"below drop_threshold {threshold!r}")
    return col


def load_matrix(fp: IO[str]) -> SensitivityMatrix:
    """Read a save_matrix snapshot; a malformed one, one with a column for
    an unlisted test or an entry for an unlisted file, or one with an entry
    not finite, > 0 and >= its drop_threshold raises ValidationError."""
    doc = read_document(fp, "sensitivity-matrix", _MATRIX_FIELDS)
    check_ids(doc["files"] + doc["tests"], "sensitivity-matrix")
    if doc["last_seq"] < 0:
        raise ValidationError(f"sensitivity-matrix: negative last_seq {doc['last_seq']}")
    try:
        settings = empty_matrix(doc["alpha"], doc["d_mode"], doc["update_mode"], doc["drop_threshold"])
    except ConfigError as exc:
        raise ValidationError(f"sensitivity-matrix: {exc}") from exc
    files, tests = set(doc["files"]), set(doc["tests"])
    cols = doc["cols"]
    for t, col in cols.items():
        if t not in tests:
            raise ValidationError(f"sensitivity-matrix: column {t!r} is not a listed test")
        col = cols[t] = _check_column(t, col, settings.drop_threshold)
        if not files.issuperset(col):
            unlisted = min(set(col) - files)
            raise ValidationError(
                f"sensitivity-matrix: column {t!r} holds an entry for unlisted file {unlisted!r}"
            )
    return replace(settings, cols=cols, files=files, tests=tests, last_seq=doc["last_seq"])
