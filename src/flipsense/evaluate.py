"""History replay: score a selection method against the predictable tests.

For every build k >= 1 with at least one predictable test, the method
selects n tests using only information available before k (the matrix state
from builds 1..k-1); the selection is scored by

    precision = |selected & predictable| / |selected|
    recall    = |selected & predictable| / |predictable|
    F         = 2 P R / (P + R)          (0 when P + R = 0)

and the matrix is only then advanced with build k's delta. Builds without
predictable tests never enter any average. A build where the selection
misses every predictable test is a zero result; the fraction of those is
the headline robustness number, and the decay weight alpha is tuned by
minimising it over the whole history. The random method scores the mean
over its runs from the hits h summed over them: P = h / (n runs) and
R = h / (|predictable| runs), and since F = 2h / (n + |predictable|) is
linear in h, the F of those is the mean F.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .baselines import RandomPolicy, shuffled_universe
from .errors import ConfigError, UndefinedMetricError, ValidationError
from .history import BuildRecord, FlipLedger
from .sensitivity import SensitivityMatrix, advance, build_delta, empty_matrix, select_top_n, slice_scores

METHODS = ("ema", "cumulative", "random")
# figure metric -> the EvalReport aggregate that fills its table
FIGURE_FIELDS = {
    "zero_pct": "zero_pct",
    "precision": "mean_precision",
    "recall": "mean_recall",
    "f_measure": "mean_f_measure",
}


def precision(selected: Iterable[str], predictable: Iterable[str]) -> float:
    selected_set = set(selected)
    if not selected_set:
        raise UndefinedMetricError("precision is undefined for an empty selection")
    return len(selected_set & set(predictable)) / len(selected_set)


def recall(selected: Iterable[str], predictable: Iterable[str]) -> float:
    predictable_set = set(predictable)
    if not predictable_set:
        raise UndefinedMetricError("recall is undefined for an empty predictable set")
    return len(set(selected) & predictable_set) / len(predictable_set)


def f_measure(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class MethodConfig:
    """What to replay: a matrix method (ema/cumulative) or the random floor.

    d_mode, unless given, resolves per method when the config is made:
    constant for cumulative (constant d plus plain accumulation is the
    co-occurrence counting baseline), linear otherwise.
    """

    method: str
    alpha: float | None = None
    d_mode: str | None = None
    score_mode: str = "sum"
    policy: RandomPolicy | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method == "ema":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ConfigError(f"ema requires alpha in [0, 1], got {self.alpha!r}")
        if self.method == "random" and self.policy is None:
            raise ConfigError("random method requires a RandomPolicy")
        if self.d_mode is None:
            object.__setattr__(self, "d_mode", "constant" if self.method == "cumulative" else "linear")


class BuildMetrics(NamedTuple):
    """One evaluated build. For the random method the intersection size,
    metrics, and zero indicator are means over the policy's runs. A named
    tuple: replay builds many, and a frozen dataclass costs 3.5x as much."""

    seq: int
    n_selected: int
    n_predictable: int
    intersection: float
    precision: float
    recall: float
    f_measure: float
    zero_fraction: float


@dataclass(frozen=True)
class EvalReport:
    method: str
    score_mode: str
    n: int
    alpha: float | None
    d_mode: str
    seed: int | None
    runs: int | None
    per_build: tuple[BuildMetrics, ...]
    evaluated_builds: int
    mean_precision: float | None
    mean_recall: float | None
    mean_f_measure: float | None
    zero_pct: float | None

    def zero_count(self) -> int:
        return sum(1 for row in self.per_build if row.zero_fraction == 1.0)

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict: before Python 3.12 that deep-copies every float
        doc = dict(vars(self), per_build=[row._asdict() for row in self.per_build])
        doc["aggregates"] = {field: doc.pop(field) for field in FIGURE_FIELDS.values()}
        return doc


def _mean(values: Sequence[float]) -> float | None:
    """The mean, added left to right; None for no values."""
    return reduce(add, values, 0) / len(values) if values else None


def _finish_report(config: MethodConfig, n: int, rows: list[BuildMetrics]) -> EvalReport:
    return EvalReport(
        method=config.method,
        score_mode=config.score_mode,
        n=n,
        alpha=config.alpha,
        d_mode=config.d_mode,
        seed=config.policy.seed if config.policy else None,
        runs=config.policy.runs if config.policy else None,
        per_build=tuple(rows),
        evaluated_builds=len(rows),
        mean_precision=_mean([r.precision for r in rows]),
        mean_recall=_mean([r.recall for r in rows]),
        mean_f_measure=_mean([r.f_measure for r in rows]),
        zero_pct=_mean([r.zero_fraction for r in rows]),
    )


def fold(
    records: Sequence[BuildRecord], ledger: FlipLedger, config: MethodConfig
) -> Iterator[SensitivityMatrix]:
    """Yield one live matrix: M_0, then the same object after each build of
    records[1:], since advance updates it in place. Read each state before
    asking for the next.

    The method names the update (ema blends by alpha, cumulative sums) and
    the config its d_mode; random has no matrix and is rejected.
    """
    matrix = empty_matrix(alpha=config.alpha, d_mode=config.d_mode, update_mode=config.method)
    yield matrix
    for record in records[1:]:
        delta = build_delta(record.changed_files, ledger.flipped(record.seq), config.d_mode)
        yield advance(matrix, delta)


def _size_rows(seq: int, hits: list[int], firsts: list[int], runs: int, m: int,
               ks: Sequence[int]) -> list[BuildMetrics]:
    """One evaluated build at each selection length k in ``ks``. ``hits``
    pools, sorted, the positions of the predictable tests in every run's
    ranking, so the count under k is the total intersection of the length-k
    selections; ``firsts`` holds, sorted, the first such position of each
    run that has one. Each field is the mean over ``runs``, taken from
    these integer totals as the module docstring states."""
    rows = []
    for k in ks:
        h = bisect_left(hits, k)
        p, r = h / (k * runs), h / (m * runs)
        rows.append(BuildMetrics(seq, k, m, h / runs, p, r, f_measure(p, r),
                                 (runs - bisect_left(firsts, k)) / runs))
    return rows


def _largest_size(sizes: Sequence[int]) -> int:
    """Check the selection sizes and return the largest."""
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"selection sizes must be >= 1, got {list(sizes)}")
    if len(set(sizes)) != len(sizes):
        repeated = sorted(n for n, count in Counter(sizes).items() if count > 1)
        raise ValueError(f"selection sizes must be distinct, got {repeated} more than once")
    return max(sizes)


def _build_hits(records: Sequence[BuildRecord], ledger: FlipLedger, config: MethodConfig,
                largest: int) -> Iterator[tuple[int, int, list[int], list[int]]]:
    """Yield (seq, |predictable|, hits, firsts) per evaluated build, as ``_size_rows``
    reads them: the predictable tests' positions pooled over every ranking (one
    for a matrix method, one per run for random) and each ranking's first hit."""
    if config.method == "random":
        # test -> (position, run) of every place it holds in a ranking
        places: dict[str, list[tuple[int, int]]] = {}
        for run, ranking in enumerate(shuffled_universe(ledger.universe, config.policy, largest)):
            for pos, t in enumerate(ranking):
                places.setdefault(t, []).append((pos, run))
        matrices = repeat(None)
    else:
        matrices = fold(records, ledger, config)

    # zip pairs build k with the state after build k-1, so selection
    # strictly precedes the update with build k's delta.
    for record, matrix in zip(records[1:], matrices):
        predictable = ledger.predictable(record.seq)
        if not predictable:
            continue
        if matrix is None:
            pairs = sorted(pair for t in predictable for pair in places.get(t, ()))
            hits = [pos for pos, _ in pairs]
            # walked from the back, each run's last write is its first hit
            firsts = sorted({run: pos for pos, run in reversed(pairs)}.values())
        else:
            scores = slice_scores(matrix, record.changed_files, config.score_mode)
            ranking = select_top_n(scores, largest, ledger.universe)
            hits = [pos for pos, t in enumerate(ranking) if t in predictable]
            firsts = hits[:1]
        yield record.seq, len(predictable), hits, firsts


def replay_sizes(records: Sequence[BuildRecord], ledger: FlipLedger, config: MethodConfig,
                 sizes: Sequence[int]) -> dict[int, EvalReport]:
    """Replay once, reporting every selection size from the same pass: each
    evaluated build is ranked once at the largest size (once per random run),
    and a size-n selection is each ranking's first n entries."""
    largest = _largest_size(sizes)
    length = min(largest, len(ledger.universe))
    ks = sorted({min(n, length) for n in sizes})  # sizes >= length share k = length
    rows: dict[int, list[BuildMetrics]] = {k: [] for k in ks}
    runs = config.policy.runs if config.method == "random" else 1
    for seq, m, hits, firsts in _build_hits(records, ledger, config, largest):
        for k, row in zip(ks, _size_rows(seq, hits, firsts, runs, m, ks)):
            rows[k].append(row)
    return {n: _finish_report(config, n, rows[min(n, length)]) for n in sizes}


def replay(
    records: Sequence[BuildRecord],
    ledger: FlipLedger,
    config: MethodConfig,
    n: int,
) -> EvalReport:
    return replay_sizes(records, ledger, config, [n])[n]


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    zero_counts: dict[int, int]
    total_zero: int


def sweep_alpha(records: Sequence[BuildRecord], ledger: FlipLedger, grid: Sequence[float],
                sizes: Sequence[int], score_mode: str = "sum",
                d_mode: str = "linear") -> tuple[float, list[SweepPoint]]:
    """Pick the alpha that minimises zero results, summed over the sizes.

    Ties go to the smaller alpha. The full table is returned for plotting. A
    build is a zero result at size n exactly when its first hit stands at n
    or later, or it has none, so each alpha builds no row.
    """
    if not grid:
        raise ValueError("alpha grid is empty")
    for a in grid:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha {a} outside [0, 1]")
    largest = _largest_size(sizes)
    table: list[SweepPoint] = []
    for a in sorted(set(grid)):
        config = MethodConfig(method="ema", alpha=a, d_mode=d_mode, score_mode=score_mode)
        starts = sorted(firsts[0] if firsts else largest
                        for *_, firsts in _build_hits(records, ledger, config, largest))
        zero_counts = {n: len(starts) - bisect_left(starts, n) for n in sizes}
        table.append(SweepPoint(alpha=a, zero_counts=zero_counts, total_zero=sum(zero_counts.values())))
    best = min(table, key=lambda p: (p.total_zero, p.alpha))
    return best.alpha, table


def _common_sizes(reports: Mapping[str, Mapping[int, EvalReport]]) -> list[int]:
    """The selection sizes, ascending, that every method's reports cover."""
    if not reports:
        raise ValidationError("no reports given")
    first = next(iter(reports))
    sizes = sorted(reports[first])
    for m, by_size in reports.items():
        if sorted(by_size) != sizes:
            raise ValidationError(f"inconsistent selection sizes: {first} covers {tuple(sizes)}, "
                                  f"{m} covers {tuple(sorted(by_size))}")
    return sizes


def figure_data(reports: Mapping[str, Mapping[int, EvalReport]]) -> dict:
    """The figure document: per metric, a table over the sizes with one
    column per method, ``values[metric][str(n)][method]``.

    Every method must cover the same selection sizes.
    """
    sizes = _common_sizes(reports)
    return {
        "methods": list(reports),
        "sizes": sizes,
        "values": {
            metric: {str(n): {m: getattr(reports[m][n], field) for m in reports} for n in sizes}
            for metric, field in FIGURE_FIELDS.items()
        },
    }


def figure_csv(figures: dict, metric: str) -> str:
    """One metric's table of a figure document: a row per size, a column
    per method, and an empty cell where a method has no value."""
    if metric not in FIGURE_FIELDS:
        raise ValueError(f"unknown metric {metric!r}")
    methods = figures["methods"]
    lines = ["n," + ",".join(methods)]
    for n in figures["sizes"]:
        row = figures["values"][metric][str(n)]
        lines.append(f"{n}," + ",".join("" if row[m] is None else repr(row[m]) for m in methods))
    return "\n".join(lines) + "\n"


def _spread(deltas: list[float], avg_of_averages: float | None) -> dict[str, float | None]:
    return {
        "min": min(deltas, default=None),
        "max": max(deltas, default=None),
        "avg": _mean(deltas),
        "avg_of_averages": avg_of_averages,
    }


def improvement_summary(reports: Mapping[str, Mapping[int, EvalReport]], baseline: str,
                        target: str) -> dict:
    """Relative and absolute deltas of ``target`` over ``baseline`` per
    figure metric: the per-size extremes and average, and the coarser
    delta of the aggregates averaged over the sizes. A size where either
    method has no value is left out."""
    sizes = _common_sizes(reports)
    if baseline not in reports or target not in reports:
        raise ValidationError(f"methods {baseline!r}/{target!r} not among the reports")
    relative: dict[str, dict[str, float | None]] = {}
    absolute: dict[str, dict[str, float | None]] = {}
    for metric, field in FIGURE_FIELDS.items():
        pairs = [(getattr(reports[baseline][n], field), getattr(reports[target][n], field))
                 for n in sizes]
        pairs = [(b, t) for b, t in pairs if b is not None and t is not None]
        rel_of_means = abs_of_means = None
        if pairs:
            base_mean, target_mean = (_mean(v) for v in zip(*pairs))
            abs_of_means = target_mean - base_mean
            rel_of_means = None if base_mean == 0.0 else abs_of_means / base_mean
        relative[metric] = _spread([(t - b) / b for b, t in pairs if b != 0.0], rel_of_means)
        absolute[metric] = _spread([t - b for b, t in pairs], abs_of_means)
    return {"baseline": baseline, "target": target, "relative": relative, "absolute": absolute}
