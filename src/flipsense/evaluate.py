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
minimising it over the whole history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .baselines import RandomPolicy, shuffled_universe
from .errors import ConfigError, UndefinedMetricError, ValidationError
from .history import BuildRecord, FlipLedger
from .sensitivity import SensitivityMatrix, advance, build_delta, empty_matrix, select_top_n, slice_scores

METHODS = ("ema", "cumulative", "random")
FIGURE_METRICS = ("zero_pct", "precision", "recall", "f_measure")


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

    d_mode defaults per method: linear for ema, constant for cumulative
    (constant d plus plain accumulation is the co-occurrence counting
    baseline).
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

    def resolved_d_mode(self) -> str:
        if self.d_mode is not None:
            return self.d_mode
        return "constant" if self.method == "cumulative" else "linear"


@dataclass(frozen=True)
class BuildMetrics:
    """One evaluated build. For the random method the intersection size,
    metrics, and zero indicator are means over the policy's runs."""

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
        return {
            "method": self.method,
            "score_mode": self.score_mode,
            "n": self.n,
            "alpha": self.alpha,
            "d_mode": self.d_mode,
            "seed": self.seed,
            "runs": self.runs,
            "evaluated_builds": self.evaluated_builds,
            "aggregates": {
                "mean_precision": self.mean_precision,
                "mean_recall": self.mean_recall,
                "mean_f_measure": self.mean_f_measure,
                "zero_pct": self.zero_pct,
            },
            "per_build": [
                {
                    "seq": row.seq,
                    "n_selected": row.n_selected,
                    "n_predictable": row.n_predictable,
                    "intersection": row.intersection,
                    "precision": row.precision,
                    "recall": row.recall,
                    "f_measure": row.f_measure,
                    "zero_fraction": row.zero_fraction,
                }
                for row in self.per_build
            ],
        }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _finish_report(config: MethodConfig, n: int, rows: list[BuildMetrics]) -> EvalReport:
    has_rows = bool(rows)
    return EvalReport(
        method=config.method,
        score_mode=config.score_mode,
        n=n,
        alpha=config.alpha,
        d_mode=config.resolved_d_mode(),
        seed=config.policy.seed if config.policy else None,
        runs=config.policy.runs if config.policy else None,
        per_build=tuple(rows),
        evaluated_builds=len(rows),
        mean_precision=_mean([r.precision for r in rows]) if has_rows else None,
        mean_recall=_mean([r.recall for r in rows]) if has_rows else None,
        mean_f_measure=_mean([r.f_measure for r in rows]) if has_rows else None,
        zero_pct=_mean([r.zero_fraction for r in rows]) if has_rows else None,
    )


def fold(
    records: Sequence[BuildRecord], ledger: FlipLedger, config: MethodConfig
) -> Iterator[SensitivityMatrix]:
    """Yield M_0, then the matrix after each build of records[1:].

    The method names the update (ema blends by alpha, cumulative sums) and,
    unless set, the d_mode; random has no matrix and is rejected.
    """
    d_mode = config.resolved_d_mode()
    matrix = empty_matrix(alpha=config.alpha, d_mode=d_mode, update_mode=config.method)
    yield matrix
    for record in records[1:]:
        delta = build_delta(record.changed_files, ledger.flipped(record.seq), d_mode)
        matrix = advance(matrix, delta)
        yield matrix


def _build_row(seq: int, selections: list[Sequence[str]], predictable: frozenset[str]) -> BuildMetrics:
    """One evaluated build; each metric is the mean over the selections."""
    inter = [len(set(selected) & predictable) for selected in selections]
    p = [i / len(selected) for i, selected in zip(inter, selections)]
    r = [i / len(predictable) for i in inter]
    return BuildMetrics(
        seq=seq,
        n_selected=len(selections[0]),
        n_predictable=len(predictable),
        intersection=_mean(inter),
        precision=_mean(p),
        recall=_mean(r),
        f_measure=_mean([f_measure(pi, ri) for pi, ri in zip(p, r)]),
        zero_fraction=_mean([0.0 if i else 1.0 for i in inter]),
    )


def replay_sizes(
    records: Sequence[BuildRecord],
    ledger: FlipLedger,
    config: MethodConfig,
    sizes: Sequence[int],
) -> dict[int, EvalReport]:
    """Replay once, reporting every selection size from the same pass.

    Each evaluated build has a list of rankings: the random method's fixed
    permutations, one per run, or a matrix method's single ranking at the
    largest size. Every size-n selection is a prefix of each ranking, and a
    row is the mean over the rankings.
    """
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"selection sizes must be >= 1, got {list(sizes)}")
    universe = sorted(ledger.universe)
    largest = max(sizes)
    rows: dict[int, list[BuildMetrics]] = {n: [] for n in sizes}
    if config.method == "random":
        policy = config.policy
        permutations = [shuffled_universe(universe, policy, run) for run in range(policy.runs)]
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
            rankings = permutations
        else:
            scores = slice_scores(matrix, record.changed_files, config.score_mode)
            rankings = [select_top_n(scores, largest, universe)]
        for n in sizes:
            rows[n].append(_build_row(record.seq, [r[:n] for r in rankings], predictable))

    return {n: _finish_report(config, n, rows[n]) for n in sizes}


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


def sweep_alpha(
    records: Sequence[BuildRecord],
    ledger: FlipLedger,
    grid: Sequence[float],
    sizes: Sequence[int],
    score_mode: str = "sum",
    d_mode: str = "linear",
) -> tuple[float, list[SweepPoint]]:
    """Pick the alpha that minimises zero results, summed over the sizes.

    Ties go to the smaller alpha. The full table is returned for plotting.
    """
    if not grid:
        raise ValueError("alpha grid is empty")
    for a in grid:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha {a} outside [0, 1]")
    table: list[SweepPoint] = []
    for a in sorted(set(grid)):
        config = MethodConfig(method="ema", alpha=a, d_mode=d_mode, score_mode=score_mode)
        reports = replay_sizes(records, ledger, config, sizes)
        zero_counts = {n: reports[n].zero_count() for n in sizes}
        table.append(SweepPoint(alpha=a, zero_counts=zero_counts, total_zero=sum(zero_counts.values())))
    best = min(table, key=lambda p: (p.total_zero, p.alpha))
    return best.alpha, table


@dataclass(frozen=True)
class FigureData:
    """Per-size aggregate tables, one column per method, for the four
    replay metrics (zero_pct, precision, recall, f_measure)."""

    methods: tuple[str, ...]
    sizes: tuple[int, ...]
    values: dict[str, dict[int, dict[str, float | None]]]  # metric -> n -> method -> value

    def to_csv(self, metric: str) -> str:
        if metric not in FIGURE_METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        lines = ["n," + ",".join(self.methods)]
        for n in self.sizes:
            cells = []
            for m in self.methods:
                v = self.values[metric][n][m]
                cells.append("" if v is None else repr(v))
            lines.append(f"{n}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "sizes": list(self.sizes),
            "values": {
                metric: {str(n): self.values[metric][n] for n in self.sizes}
                for metric in FIGURE_METRICS
            },
        }


def figure_data(reports_by_method: Mapping[str, Mapping[int, EvalReport]]) -> FigureData:
    """Reshape per-method reports into per-metric tables over the sizes.

    Every method must cover the same selection sizes.
    """
    if not reports_by_method:
        raise ValidationError("no reports given")
    methods = tuple(reports_by_method)
    sizes_per_method = {m: tuple(sorted(reports_by_method[m])) for m in methods}
    sizes = sizes_per_method[methods[0]]
    for m, s in sizes_per_method.items():
        if s != sizes:
            raise ValidationError(
                f"inconsistent selection sizes: {methods[0]} covers {sizes}, {m} covers {s}"
            )
    values: dict[str, dict[int, dict[str, float | None]]] = {
        metric: {n: {} for n in sizes} for metric in FIGURE_METRICS
    }
    for m in methods:
        for n in sizes:
            report = reports_by_method[m][n]
            values["zero_pct"][n][m] = report.zero_pct
            values["precision"][n][m] = report.mean_precision
            values["recall"][n][m] = report.mean_recall
            values["f_measure"][n][m] = report.mean_f_measure
    return FigureData(methods=methods, sizes=sizes, values=values)


@dataclass(frozen=True)
class ImprovementSummary:
    """Relative and absolute deltas of one method over a baseline, per
    metric: per-size extremes plus the average across sizes, and the
    coarser ratio of the averaged aggregates."""

    baseline: str
    target: str
    relative: dict[str, dict[str, float | None]]  # metric -> {min, max, avg, avg_of_averages}
    absolute: dict[str, dict[str, float | None]]

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "target": self.target,
            "relative": self.relative,
            "absolute": self.absolute,
        }


def improvement_summary(data: FigureData, baseline: str, target: str) -> ImprovementSummary:
    if baseline not in data.methods or target not in data.methods:
        raise ValidationError(f"methods {baseline!r}/{target!r} not present in the tables")
    relative: dict[str, dict[str, float | None]] = {}
    absolute: dict[str, dict[str, float | None]] = {}
    for metric in FIGURE_METRICS:
        rel_deltas: list[float] = []
        abs_deltas: list[float] = []
        base_vals: list[float] = []
        target_vals: list[float] = []
        for n in data.sizes:
            b = data.values[metric][n][baseline]
            t = data.values[metric][n][target]
            if b is None or t is None:
                continue
            base_vals.append(b)
            target_vals.append(t)
            abs_deltas.append(t - b)
            if b != 0.0:
                rel_deltas.append((t - b) / b)
        base_mean = _mean(base_vals) if base_vals else None
        target_mean = _mean(target_vals) if target_vals else None
        avg_of_averages = None
        if base_mean not in (None, 0.0) and target_mean is not None:
            avg_of_averages = (target_mean - base_mean) / base_mean
        relative[metric] = {
            "min": min(rel_deltas) if rel_deltas else None,
            "max": max(rel_deltas) if rel_deltas else None,
            "avg": _mean(rel_deltas) if rel_deltas else None,
            "avg_of_averages": avg_of_averages,
        }
        absolute[metric] = {
            "min": min(abs_deltas) if abs_deltas else None,
            "max": max(abs_deltas) if abs_deltas else None,
            "avg": _mean(abs_deltas) if abs_deltas else None,
            "avg_of_averages": None
            if base_mean is None or target_mean is None
            else target_mean - base_mean,
        }
    return ImprovementSummary(baseline=baseline, target=target, relative=relative, absolute=absolute)


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
