"""Command-line surface: ingest, prioritise, replay, sweep-alpha, heatmap,
schedule, synth.

Exit codes: 0 success, 1 runtime/IO failure, 2 validation or usage error.
All randomness flows from --seed (or FLIPSENSE_SEED); machine-format output
is schema-stable and byte-identical across runs with equal inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import baselines, evaluate, history, schedule, sensitivity, synth
from .errors import (
    ConfigError,
    FlipsenseError,
    HistoryParseError,
    UndefinedMetricError,
    ValidationError,
)

DEFAULT_ALPHA = 0.8


def _env_seed() -> int:
    return int(os.environ.get("FLIPSENSE_SEED", "0"))


def _env_out() -> str:
    return os.environ.get("FLIPSENSE_OUT", ".")


def _read_history(path: str) -> list[history.BuildRecord]:
    if path == "-":
        return history.ingest_history(sys.stdin)
    return history.read_history(path)


def _read_ids(path: str) -> list[str]:
    """One id per line, blank lines and # comments skipped; - reads stdin."""
    if path == "-":
        lines = sys.stdin.readlines()
    else:
        with open(path, encoding="utf-8") as fp:
            lines = fp.readlines()
    return [s for s in (line.strip() for line in lines) if s and not s.startswith("#")]


def _parse_size_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad size range {text!r}")
        return list(range(lo, hi + 1))
    n = int(text)
    if n < 1:
        raise ValueError(f"selection size must be >= 1, got {n}")
    return [n]


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid {text!r}")
    count = int(round((hi - lo) / step)) + 1
    grid = [round(lo + i * step, 10) for i in range(count)]
    return [a for a in grid if lo <= a <= hi + 1e-12]


def _parse_int_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        return int(lo_s), int(hi_s)
    n = int(text)
    return n, n


def _machine(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _fold_history(path: str, args) -> tuple[sensitivity.SensitivityMatrix, history.FlipLedger]:
    """The matrix after the whole history, for --method/--alpha/--d-mode."""
    records = _read_history(path)
    ledger = history.extract_flips(records)
    config = evaluate.MethodConfig(
        method=args.method,
        alpha=args.alpha if args.method == "ema" else None,
        d_mode=args.d_mode,
    )
    for matrix in evaluate.fold(records, ledger, config):
        pass
    return matrix, ledger


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    records = _read_history(args.input)
    stats = history.history_stats(records)
    ledger = history.extract_flips(records)
    buckets = history.predictable_build_stats(ledger)
    if args.format == "machine":
        _machine(
            {
                "builds": stats.n_builds,
                "files": stats.n_files,
                "tests": stats.n_tests,
                "flip_events": len(ledger.events),
                "predictable_builds": buckets.qualifying_builds,
                "predictable_buckets": {
                    "le_5": buckets.bucket_le_5,
                    "6_to_25": buckets.bucket_6_to_25,
                    "gt_25": buckets.bucket_gt_25,
                },
            }
        )
    else:
        print(f"builds:              {stats.n_builds}")
        print(f"distinct files:      {stats.n_files}")
        print(f"distinct tests:      {stats.n_tests}")
        print(f"flip events:         {len(ledger.events)}")
        print(f"predictable builds:  {buckets.qualifying_builds}")
        print(f"  with <=5 predictable:   {buckets.bucket_le_5}")
        print(f"  with 6..25 predictable: {buckets.bucket_6_to_25}")
        print(f"  with >25 predictable:   {buckets.bucket_gt_25}")
    return 0


def cmd_prioritise(args) -> int:
    changed = set(_read_ids(args.changes))
    if args.snapshot:
        with open(args.snapshot, encoding="utf-8") as fp:
            matrix = sensitivity.load_matrix(fp)
        universe = set(matrix.tests)
    elif args.history:
        matrix, ledger = _fold_history(args.history, args)
        universe = set(ledger.universe)
    else:
        raise ValidationError("prioritise needs --history or --snapshot")
    scores = sensitivity.slice_scores(matrix, changed, args.score_mode)
    selected = sensitivity.select_top_n(scores, args.n, universe)
    if args.format == "machine":
        _machine(
            {
                "selected": selected,
                "scores": {t: scores.scores.get(t, 0.0) for t in selected},
            }
        )
    else:
        for t in selected:
            if args.show_scores:
                print(f"{t}\t{scores.scores.get(t, 0.0):.6g}")
            else:
                print(t)
    return 0


def _method_list(text: str) -> list[str]:
    if text == "all":
        return list(evaluate.METHODS)
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in evaluate.METHODS:
            raise ValueError(f"unknown method {m!r}; expected {', '.join(evaluate.METHODS)} or all")
    if not methods:
        raise ValueError("no method given")
    return methods


def _method_config(method: str, args) -> evaluate.MethodConfig:
    return evaluate.MethodConfig(
        method=method,
        alpha=args.alpha if method == "ema" else None,
        d_mode=args.d_mode if method == "ema" else None,
        score_mode=args.score_mode,
        policy=baselines.RandomPolicy(seed=args.seed, runs=args.runs) if method == "random" else None,
    )


def cmd_replay(args) -> int:
    records = _read_history(args.input)
    ledger = history.extract_flips(records)
    sizes = _parse_size_range(args.select)
    methods = _method_list(args.method)

    reports = {m: evaluate.replay_sizes(records, ledger, _method_config(m, args), sizes) for m in methods}
    figures = evaluate.figure_data(reports)

    improvement = None
    if len(methods) > 1:
        baseline = args.baseline or ("cumulative" if "cumulative" in methods else methods[0])
        if baseline not in methods:
            raise ValidationError(f"baseline {baseline!r} is not among the replayed methods")
        improvement = {
            m: evaluate.improvement_summary(figures, baseline, m)
            for m in methods
            if m != baseline
        }

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for metric in evaluate.FIGURE_METRICS:
            (out / f"{metric}.csv").write_text(figures.to_csv(metric), encoding="utf-8")
        doc = {m: {str(n): reports[m][n].to_dict() for n in sizes} for m in methods}
        (out / "reports.json").write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        if improvement:
            (out / "improvement.json").write_text(
                json.dumps({m: s.to_dict() for m, s in improvement.items()},
                           sort_keys=True, separators=(",", ":")) + "\n",
                encoding="utf-8",
            )

    if args.format == "machine":
        _machine(
            {
                "figures": figures.to_dict(),
                "reports": {m: {str(n): reports[m][n].to_dict() for n in sizes} for m in methods},
                "improvement": {m: s.to_dict() for m, s in improvement.items()} if improvement else None,
            }
        )
    else:
        for m in methods:
            for n in sizes:
                r = reports[m][n]
                if r.evaluated_builds == 0:
                    print(f"{m} n={n}: no predictable builds to evaluate")
                    continue
                print(
                    f"{m} n={n}: builds={r.evaluated_builds} "
                    f"zero={r.zero_pct:.1%} precision={r.mean_precision:.3f} "
                    f"recall={r.mean_recall:.3f} f={r.mean_f_measure:.3f}"
                )
        if improvement:
            for m, s in improvement.items():
                rec = s.relative["recall"]["avg"]
                zero = s.relative["zero_pct"]["avg"]
                rec_s = "n/a" if rec is None else f"{rec:+.1%}"
                zero_s = "n/a" if zero is None else f"{zero:+.1%}"
                print(f"{m} vs {s.baseline}: recall {rec_s}, zero results {zero_s} (avg over sizes)")
        if args.out:
            print(f"tables written to {args.out}")
    return 0


def cmd_sweep_alpha(args) -> int:
    records = _read_history(args.input)
    ledger = history.extract_flips(records)
    sizes = _parse_size_range(args.select)
    grid = _parse_grid(args.grid)
    best, table = evaluate.sweep_alpha(
        records, ledger, grid, sizes, score_mode=args.score_mode, d_mode=args.d_mode
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["alpha," + ",".join(f"zero_n{n}" for n in sizes) + ",total"]
        for point in table:
            lines.append(
                f"{point.alpha!r},"
                + ",".join(str(point.zero_counts[n]) for n in sizes)
                + f",{point.total_zero}"
            )
        (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.format == "machine":
        _machine(
            {
                "best_alpha": best,
                "sizes": sizes,
                "table": [
                    {
                        "alpha": p.alpha,
                        "zero_counts": {str(n): c for n, c in p.zero_counts.items()},
                        "total_zero": p.total_zero,
                    }
                    for p in table
                ],
            }
        )
    else:
        print(f"best alpha: {best}")
        for p in table:
            print(f"  alpha={p.alpha:<6} total zero results={p.total_zero}")
    return 0


def cmd_heatmap(args) -> int:
    if args.snapshot:
        with open(args.snapshot, encoding="utf-8") as fp:
            matrix = sensitivity.load_matrix(fp)
    elif args.input:
        matrix, _ = _fold_history(args.input, args)
    else:
        raise ValidationError("heatmap needs --input or --snapshot")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "heatmap.csv", "w", encoding="utf-8") as hm, open(
        out / "flakiness.csv", "w", encoding="utf-8"
    ) as fl:
        sensitivity.export_heatmap(matrix, hm, fl)
    if args.save_snapshot:
        with open(args.save_snapshot, "w", encoding="utf-8") as fp:
            sensitivity.save_matrix(matrix, fp)
    print(f"heat map written to {out / 'heatmap.csv'}")
    print(f"flakiness index written to {out / 'flakiness.csv'}")
    return 0


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        seed=args.seed,
        n_builds=args.builds,
        n_files=args.files,
        n_tests=args.tests,
        deps_per_test=_parse_int_range(args.deps),
        change_set_size=_parse_int_range(args.change_size),
        flip_probability_hit=args.hit,
        flip_probability_noise=args.noise,
        initial_fail_fraction=args.initial_fail,
    )
    records, truth = synth.generate(config)
    if args.out == "-":
        history.write_history(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            history.write_history(records, fp)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fp:
            synth.write_truth(truth, fp)
    return 0


# ------------------------------------------------------------- schedule


def _load_state(path: str) -> schedule.ScheduleState:
    with open(path, encoding="utf-8") as fp:
        return schedule.load_state(fp)


def _save_state(state: schedule.ScheduleState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        schedule.save_state(state, fp)


def cmd_schedule_init(args) -> int:
    records = _read_history(args.history)
    ledger = history.extract_flips(records)
    state = schedule.state_from_history(
        records, ledger, always_passed_only=(args.stable_rule == "always-passed")
    )
    _save_state(state, args.state)
    print(f"{len(state.staleness)} tests tracked, {len(state.stable_tests())} stable")
    return 0


def cmd_schedule_cost(args) -> int:
    state = _load_state(args.state)
    if args.format == "machine":
        _machine({"cost": schedule.cost(state)})
    else:
        print(schedule.cost(state))
    return 0


def cmd_schedule_stable(args) -> int:
    state = _load_state(args.state)
    selected = schedule.select_stable(
        state, args.budget, strategy=args.strategy, window_days=args.window
    )
    if args.format == "machine":
        _machine({"selected": selected})
    else:
        for t in selected:
            print(t)
    return 0


def cmd_schedule_office(args) -> int:
    state = _load_state(args.state)
    changed = set(_read_ids(args.changes))
    with open(args.matrix, encoding="utf-8") as fp:
        matrix = sensitivity.load_matrix(fp)
    records = _read_history(args.history)
    ledger = history.extract_flips(records)
    recency = baselines.hbtp_scores(records, ledger, len(records))
    if args.observe:
        state.pending = sensitivity.incremental_observe(state.pending, changed)
        _save_state(state, args.state)
    selected = schedule.office_hours_tick(
        matrix, state.pending, changed, recency, args.k, w=args.weight, score_mode=args.score_mode
    )
    if args.format == "machine":
        _machine({"selected": selected})
    else:
        for t in selected:
            print(t)
    return 0


def cmd_schedule_tick(args) -> int:
    state = _load_state(args.state)
    executed = _read_ids(args.executed) if args.executed else []
    state = schedule.day_tick(state, executed)
    _save_state(state, args.state)
    print(f"cost after tick: {schedule.cost(state)}")
    return 0


def cmd_schedule_apply(args) -> int:
    state = _load_state(args.state)
    with open(args.matrix, encoding="utf-8") as fp:
        matrix = sensitivity.load_matrix(fp)
    with open(args.results, encoding="utf-8") as fp:
        verdicts = json.load(fp)
    executed = _read_ids(args.executed) if args.executed else sorted(verdicts)
    matrix, pending = sensitivity.incremental_apply(matrix, state.pending, executed, verdicts)
    state.pending = pending
    with open(args.matrix, "w", encoding="utf-8") as fp:
        sensitivity.save_matrix(matrix, fp)
    _save_state(state, args.state)
    print(f"applied {len(executed)} verdicts")
    return 0


# --------------------------------------------------------------- parser


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("human", "machine"), default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipsense",
        description="Select regression tests likely to flip, from change sets and verdict history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a history file and print summary stats")
    p.add_argument("input", help="history file (JSON lines), or - for stdin")
    _add_format(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("prioritise", help="rank tests against a change set")
    p.add_argument("--history", help="history file to fold into a matrix")
    p.add_argument("--snapshot", help="previously saved matrix snapshot")
    p.add_argument("--changes", required=True, help="change-set file, one file id per line, or - for stdin")
    p.add_argument("-n", type=int, required=True, help="how many tests to select")
    p.add_argument("--method", choices=("ema", "cumulative"), default="ema")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--d-mode", choices=sensitivity.D_MODES, default=None,
                   help="default: linear for ema, constant for cumulative")
    p.add_argument("--score-mode", choices=sensitivity.SCORE_MODES, default="sum")
    p.add_argument("--show-scores", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_prioritise)

    p = sub.add_parser("replay", help="replay a history and score selection methods")
    p.add_argument("--input", required=True, help="history file, or - for stdin")
    p.add_argument("--method", default="ema", help="ema, cumulative, random, a comma list, or all")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--d-mode", choices=sensitivity.D_MODES, default=None)
    p.add_argument("--score-mode", choices=sensitivity.SCORE_MODES, default="sum")
    p.add_argument("--select", default="5..25", help="selection size n or range lo..hi")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--runs", type=int, default=100, help="random-method averaging runs")
    p.add_argument("--baseline", default=None, help="baseline method for improvement summary")
    p.add_argument("--out", default=None, help="directory for figure tables and reports")
    _add_format(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sweep-alpha", help="choose alpha by minimising zero results")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", default="0:1:0.01", help="alpha grid lo:hi:step")
    p.add_argument("--select", default="5..25")
    p.add_argument("--score-mode", choices=sensitivity.SCORE_MODES, default="sum")
    p.add_argument("--d-mode", choices=sensitivity.D_MODES, default="linear")
    p.add_argument("--out", default=None)
    _add_format(p)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("heatmap", help="export the matrix heat map and flakiness index")
    p.add_argument("--input", help="history file to fold into a matrix")
    p.add_argument("--snapshot", help="previously saved matrix snapshot")
    p.add_argument("--method", choices=("ema", "cumulative"), default="ema")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--d-mode", choices=sensitivity.D_MODES, default=None,
                   help="default: linear for ema, constant for cumulative")
    p.add_argument("--out", default=_env_out())
    p.add_argument("--save-snapshot", default=None, help="also save the matrix snapshot here")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("schedule", help="resource-managed scheduling of stable tests")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    sp = ssub.add_parser("init", help="build schedule state from a history")
    sp.add_argument("--history", required=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("--stable-rule", choices=("never-flipped", "always-passed"), default="never-flipped")
    sp.set_defaults(func=cmd_schedule_init)

    sp = ssub.add_parser("cost", help="current staleness cost sum(s_i^2)")
    sp.add_argument("--state", required=True)
    _add_format(sp)
    sp.set_defaults(func=cmd_schedule_cost)

    sp = ssub.add_parser("stable", help="pick stable tests for the after-hours pass")
    sp.add_argument("--state", required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--strategy", choices=schedule.STRATEGIES, default="cost_min")
    sp.add_argument("--window", type=int, default=7)
    _add_format(sp)
    sp.set_defaults(func=cmd_schedule_stable)

    sp = ssub.add_parser("office", help="office-hours selection: sensitivity + failure recency")
    sp.add_argument("--state", required=True)
    sp.add_argument("--matrix", required=True, help="matrix snapshot file")
    sp.add_argument("--history", required=True, help="history for the recency scores")
    sp.add_argument("--changes", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-w", "--weight", type=float, default=0.5)
    sp.add_argument("--score-mode", choices=sensitivity.SCORE_MODES, default="sum")
    sp.add_argument("--observe", action="store_true", help="record the change set into pending state")
    _add_format(sp)
    sp.set_defaults(func=cmd_schedule_office)

    sp = ssub.add_parser("tick", help="advance the day counter")
    sp.add_argument("--state", required=True)
    sp.add_argument("--executed", default=None, help="file listing tests executed today")
    sp.set_defaults(func=cmd_schedule_tick)

    sp = ssub.add_parser("apply", help="apply verdicts test-case-wise to the matrix")
    sp.add_argument("--state", required=True)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--results", required=True, help="JSON object test -> pass|fail")
    sp.add_argument("--executed", default=None, help="subset that actually ran (default: all results)")
    sp.set_defaults(func=cmd_schedule_apply)

    p = sub.add_parser("synth", help="generate a deterministic synthetic history")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--builds", type=int, default=50)
    p.add_argument("--files", type=int, default=200)
    p.add_argument("--tests", type=int, default=100)
    p.add_argument("--deps", default="1..5", help="dependencies per test, lo..hi")
    p.add_argument("--change-size", default="1..20", help="change-set size, lo..hi")
    p.add_argument("--hit", type=float, default=0.7)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--initial-fail", type=float, default=0.1)
    p.add_argument("--out", default="-", help="history output path, or - for stdout")
    p.add_argument("--truth", default=None, help="write the planted dependency map here")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HistoryParseError, ValidationError, ConfigError, UndefinedMetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlipsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
