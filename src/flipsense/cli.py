"""Command-line surface: ingest, prioritise, replay, sweep-alpha, heatmap,
schedule, synth.

Exit codes: 0 success, 1 runtime/IO failure, 2 validation or usage error.
All randomness flows from --seed (or FLIPSENSE_SEED); machine-format output
is schema-stable and byte-identical across runs with equal inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

from . import baselines, evaluate, history, schedule, sensitivity, synth
from .errors import FlipsenseError, ValidationError

DEFAULT_ALPHA = 0.8

# the most entries a --select range, an alpha --grid or replay --runs may ask for
MAX_ENTRIES = 10_000


def _seed(args) -> int:
    """--seed, else FLIPSENSE_SEED, else 0; read only by a command that
    draws, so a bad FLIPSENSE_SEED fails only where it would be used."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("FLIPSENSE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"FLIPSENSE_SEED must be an integer, got {text!r}") from None


def _read_history(path: str) -> list[history.BuildRecord]:
    return history.read_history(sys.stdin if path == "-" else path)


def _read_ids(path: str) -> list[str]:
    """One id per line, blank lines and # comments skipped; - reads stdin."""
    if path == "-":
        lines = sys.stdin.readlines()
    else:
        with open(path, encoding="utf-8") as fp:
            lines = fp.readlines()
    return [s for s in (line.strip() for line in lines) if s and not s.startswith("#")]


def _load(path: str, load):
    with open(path, encoding="utf-8") as fp:
        return load(fp)


def _write_atomic(path: str, save, value) -> None:
    """save(value, fp) into path + ".tmp", then rename it over path, so a
    save that fails halfway leaves the previous file as it was and no
    temp file behind. The temp file is on disk before the rename, so a
    crash cannot leave path renamed but empty."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            save(value, fp)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _parse_int_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    return int(lo), int(hi if dots else lo)


def _parse_size_range(text: str) -> list[int]:
    lo, hi = _parse_int_range(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad size range {text!r}" if ".." in text
                         else f"selection size must be >= 1, got {lo}")
    if hi - lo + 1 > MAX_ENTRIES:
        raise ValueError(f"size range {text!r} has more than {MAX_ENTRIES} sizes")
    return list(range(lo, hi + 1))


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid {text!r}")
    # clamped, so that a tiny step overflows neither round() nor the list
    count = round(min((hi - lo) / step, MAX_ENTRIES)) + 1
    if count > MAX_ENTRIES:
        raise ValueError(f"grid {text!r} has more than {MAX_ENTRIES} points")
    grid = [round(lo + i * step, 10) for i in range(count)]
    return [a for a in grid if lo <= a <= hi + 1e-12]


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(args, doc: dict, lines) -> None:
    """Print the machine document or the human lines, as --format asks."""
    if args.format == "machine":
        print(_dumps(doc))
        return
    for line in lines:
        print(line)


def _method_config(method: str, args, score_mode: str = "sum") -> evaluate.MethodConfig:
    """The config the flags name: --alpha (else DEFAULT_ALPHA) for ema only,
    so a cumulative snapshot keeps "alpha": null, and --d-mode for every
    matrix method, which otherwise keeps its own default."""
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    return evaluate.MethodConfig(
        method=method,
        alpha=alpha if method == "ema" else None,
        d_mode=None if method == "random" else args.d_mode,
        score_mode=score_mode,
        policy=baselines.RandomPolicy(seed=_seed(args), runs=args.runs) if method == "random" else None,
    )


def _check_alpha(args, methods: list[str]) -> None:
    """--alpha sets the EMA alone, so it needs ema among the methods."""
    if args.alpha is not None and "ema" not in methods:
        raise ValidationError(f"--alpha {args.alpha} needs --method ema, got {','.join(methods)}")


def _check_snapshot_flags(args, matrix: sensitivity.SensitivityMatrix) -> None:
    """Each of --method, --alpha and --d-mode that is given must name the
    snapshot's own setting; a cumulative snapshot has no alpha."""
    for flag, given, held in (
        ("--method", args.method, matrix.update_mode),
        ("--alpha", args.alpha, matrix.alpha if matrix.update_mode == "ema" else None),
        ("--d-mode", args.d_mode, matrix.d_mode),
    ):
        if given is not None and given != held:
            holds = f"{flag[2:]} {held}" if held is not None else f"no {flag[2:]}"
            raise ValidationError(f"{flag} {given} contradicts the snapshot, which holds {holds}")


def _matrix(args, path: str | None, flag: str) -> sensitivity.SensitivityMatrix:
    """--snapshot loaded, or else the history at path folded for
    --method (else ema), --alpha and --d-mode, knowing every test in the
    history, as its snapshot would; one source, never both."""
    if args.snapshot:
        if path is not None:
            raise ValidationError(f"{args.command} takes {flag} or --snapshot, not both")
        matrix = _load(args.snapshot, sensitivity.load_matrix)
        _check_snapshot_flags(args, matrix)
        return matrix
    if not path:
        raise ValidationError(f"{args.command} needs {flag} or --snapshot")
    _check_alpha(args, [args.method or "ema"])
    records = _read_history(path)
    ledger = history.extract_flips(records)
    for matrix in evaluate.fold(records, ledger, _method_config(args.method or "ema", args)):
        pass
    matrix.tests |= ledger.universe
    return matrix


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    doc = history.summarise(_read_history(args.input))
    buckets = doc["predictable_buckets"]
    _emit(args, doc, [
        f"builds:              {doc['builds']}",
        f"distinct files:      {doc['files']}",
        f"distinct tests:      {doc['tests']}",
        f"flip events:         {doc['flip_events']}",
        f"predictable builds:  {doc['predictable_builds']}",
        f"  with <=5 predictable:   {buckets['le_5']}",
        f"  with 6..25 predictable: {buckets['6_to_25']}",
        f"  with >25 predictable:   {buckets['gt_25']}",
    ])
    return 0


def cmd_prioritise(args) -> int:
    changed = set(_read_ids(args.changes))
    matrix = _matrix(args, args.history, "--history")
    scores = sensitivity.slice_scores(matrix, changed, args.score_mode)
    selected = sensitivity.select_top_n(scores, args.n, matrix.tests)
    top = {t: scores.positive.get(t, 0.0) for t in selected}
    _emit(args, {"selected": selected, "scores": top},
          [f"{t}\t{s:.6g}" if args.show_scores else t for t, s in top.items()])
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
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"methods must be distinct, got {repeated} more than once")
    return methods


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value:+.1%}"


def cmd_replay(args) -> int:
    sizes = _parse_size_range(args.select)
    methods = _method_list(args.method)
    _check_alpha(args, methods)
    if "random" in methods and args.runs > MAX_ENTRIES:  # a drawn prefix per run, held up front
        raise ValueError(f"random selection takes at most {MAX_ENTRIES} runs, got {args.runs}")
    if "random" in methods and args.runs * len(sizes) > MAX_ENTRIES:  # and a row per run and size
        raise ValueError(f"random runs x sizes must be at most {MAX_ENTRIES}, got {args.runs} x {len(sizes)}")
    baseline = args.baseline or ("cumulative" if "cumulative" in methods else methods[0])
    if baseline not in methods:
        raise ValidationError(f"baseline {baseline!r} is not among the replayed methods")
    configs = {m: _method_config(m, args, args.score_mode) for m in methods}

    records = _read_history(args.input)
    ledger = history.extract_flips(records)
    reports = {m: evaluate.replay_sizes(records, ledger, configs[m], sizes) for m in methods}
    figures = evaluate.figure_data(reports)
    improvement = {
        m: evaluate.improvement_summary(reports, baseline, m) for m in methods if m != baseline
    }
    doc = {
        "figures": figures,
        "reports": {m: {str(n): r.to_dict() for n, r in reports[m].items()} for m in methods},
        "improvement": improvement or None,
    }

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for metric in evaluate.FIGURE_FIELDS:
            (out / f"{metric}.csv").write_text(evaluate.figure_csv(figures, metric), encoding="utf-8")
        for name in ("reports", "improvement"):
            if doc[name]:
                (out / f"{name}.json").write_text(_dumps(doc[name]) + "\n", encoding="utf-8")

    lines = []
    for m in methods:
        for n, r in reports[m].items():
            lines.append(
                f"{m} n={n}: no predictable builds to evaluate" if r.evaluated_builds == 0
                else f"{m} n={n}: builds={r.evaluated_builds} "
                f"zero={r.zero_pct:.1%} precision={r.mean_precision:.3f} "
                f"recall={r.mean_recall:.3f} f={r.mean_f_measure:.3f}"
            )
    for m, s in improvement.items():
        lines.append(f"{m} vs {s['baseline']}: recall {_pct(s['relative']['recall']['avg'])}, "
                     f"zero results {_pct(s['relative']['zero_pct']['avg'])} (avg over sizes)")
    if args.out:
        lines.append(f"tables written to {args.out}")
    _emit(args, doc, lines)
    return 0


def cmd_sweep_alpha(args) -> int:
    sizes = _parse_size_range(args.select)
    grid = _parse_grid(args.grid)
    evaluate.check_grid(grid)
    records = _read_history(args.input)
    ledger = history.extract_flips(records)
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
    doc = {
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
    _emit(args, doc, [f"best alpha: {best}"]
          + [f"  alpha={p.alpha:<6} total zero results={p.total_zero}" for p in table])
    return 0


def cmd_heatmap(args) -> int:
    matrix = _matrix(args, args.input, "--input")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "heatmap.csv", "w", encoding="utf-8") as hm, open(
        out / "flakiness.csv", "w", encoding="utf-8"
    ) as fl:
        sensitivity.export_heatmap(matrix, hm, fl)
    if args.save_snapshot:
        _write_atomic(args.save_snapshot, sensitivity.save_matrix, matrix)
    print(f"heat map written to {out / 'heatmap.csv'}")
    print(f"flakiness index written to {out / 'flakiness.csv'}")
    return 0


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        seed=_seed(args),
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


def cmd_schedule_init(args) -> int:
    records = _read_history(args.history)
    ledger = history.extract_flips(records)
    state = schedule.state_from_history(records, ledger)
    state.pending.last_verdict.update(ledger.last_verdict)  # so the first apply can see a flip
    _write_atomic(args.state, schedule.save_state, state)
    print(f"{len(state.staleness)} tests tracked, {len(state.stable_tests())} stable")
    return 0


def cmd_schedule_cost(args) -> int:
    cost = schedule.cost(_load(args.state, schedule.load_state))
    _emit(args, {"cost": cost}, [str(cost)])
    return 0


def cmd_schedule_stable(args) -> int:
    state = _load(args.state, schedule.load_state)
    selected = schedule.select_stable(
        state, args.budget, strategy=args.strategy, window_days=args.window
    )
    _emit(args, {"selected": selected}, selected)
    return 0


def cmd_schedule_office(args) -> int:
    state = _load(args.state, schedule.load_state)
    changed = set(_read_ids(args.changes))
    matrix = _load(args.matrix, sensitivity.load_matrix)
    pending = state.pending
    recency = baselines.recency_scores(state.failed_at, pending.clock, pending.tests())
    # select first, so that a rejected -k or -w records no change set
    selected = schedule.office_hours_tick(
        matrix, pending, changed, recency, args.k, w=args.weight, score_mode=args.score_mode
    )
    if args.observe:
        state.pending = sensitivity.incremental_observe(state.pending, changed)
        _write_atomic(args.state, schedule.save_state, state)
    _emit(args, {"selected": selected}, selected)
    return 0


def cmd_schedule_tick(args) -> int:
    state = _load(args.state, schedule.load_state)
    executed = _read_ids(args.executed) if args.executed else []
    state = schedule.day_tick(state, executed)
    _write_atomic(args.state, schedule.save_state, state)
    print(f"cost after tick: {schedule.cost(state)}")
    return 0


def _read_results(path: str) -> dict[str, str]:
    """A --results document: one JSON object of test id -> pass/fail."""
    with open(path, encoding="utf-8") as fp:
        try:
            verdicts = json.load(fp)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: not one JSON document ({exc})") from exc
    if not isinstance(verdicts, dict):
        raise ValidationError(
            f"{path}: expected an object of test id -> pass/fail, got {type(verdicts).__name__}"
        )
    sensitivity.check_ids(list(verdicts), path)
    for t, verdict in verdicts.items():
        if verdict not in history.VERDICTS:
            raise ValidationError(f"{path}: test {t!r} has verdict {verdict!r}, not pass/fail")
    return verdicts


def cmd_schedule_apply(args) -> int:
    state = _load(args.state, schedule.load_state)
    matrix = _load(args.matrix, sensitivity.load_matrix)
    verdicts = _read_results(args.results)
    executed = _read_ids(args.executed) if args.executed else sorted(verdicts)
    before = state.pending.last_verdict
    matrix, state.pending = sensitivity.incremental_apply(matrix, state.pending, executed, verdicts)
    ran = {t: verdicts[t] for t in executed}  # the apply has checked each one
    for t in history.flipped_tests(before, ran):  # stable means never flipped
        state.stable[t] = False
    for t, verdict in ran.items():
        if verdict == "fail":
            state.failed_at[t] = state.pending.clock
    _write_atomic(args.matrix, sensitivity.save_matrix, matrix)
    _write_atomic(args.state, schedule.save_state, state)
    print(f"applied {len(ran)} verdicts")
    return 0


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipsense",
        description="Select regression tests likely to flip, from change sets and verdict history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("human", "machine"), default="human")
    score = argparse.ArgumentParser(add_help=False)
    score.add_argument("--score-mode", choices=sensitivity.SCORE_MODES, default="sum")
    decay = argparse.ArgumentParser(add_help=False)
    decay.add_argument("--alpha", type=float, default=None, help=f"default: {DEFAULT_ALPHA}")
    decay.add_argument("--d-mode", choices=sensitivity.D_MODES, default=None,
                       help="default: linear for ema, constant for cumulative")
    matrix = argparse.ArgumentParser(add_help=False, parents=[decay])
    matrix.add_argument("--method", choices=("ema", "cumulative"), default=None,
                        help="default: ema")
    matrix.add_argument("--snapshot", help="previously saved matrix snapshot")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", required=True)

    p = sub.add_parser("ingest", parents=[fmt], help="validate a history file and print summary stats")
    p.add_argument("input", help="history file (JSON lines), or - for stdin")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("prioritise", parents=[fmt, score, matrix], help="rank tests against a change set")
    p.add_argument("--history", help="history file to fold into a matrix")
    p.add_argument("--changes", required=True, help="change-set file, one file id per line, or - for stdin")
    p.add_argument("-n", type=int, required=True, help="how many tests to select")
    p.add_argument("--show-scores", action="store_true")
    p.set_defaults(func=cmd_prioritise)

    p = sub.add_parser("replay", parents=[fmt, score, decay],
                       help="replay a history and score selection methods")
    p.add_argument("--input", required=True, help="history file, or - for stdin")
    p.add_argument("--method", default="ema", help="ema, cumulative, random, a comma list, or all")
    p.add_argument("--select", default="5..25", help="selection size n or range lo..hi")
    p.add_argument("--seed", type=int, default=None, help="default: FLIPSENSE_SEED, else 0")
    p.add_argument("--runs", type=int, default=100, help="random-method averaging runs")
    p.add_argument("--baseline", default=None, help="baseline method for improvement summary")
    p.add_argument("--out", default=None, help="directory for figure tables and reports")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sweep-alpha", parents=[fmt, score], help="choose alpha by minimising zero results")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", default="0:1:0.01", help="alpha grid lo:hi:step")
    p.add_argument("--select", default="5..25")
    p.add_argument("--d-mode", choices=sensitivity.D_MODES, default="linear")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("heatmap", parents=[matrix], help="export the matrix heat map and flakiness index")
    p.add_argument("--input", help="history file to fold into a matrix")
    p.add_argument("--out", default=os.environ.get("FLIPSENSE_OUT", "."),
                   help="default: FLIPSENSE_OUT, else the current directory")
    p.add_argument("--save-snapshot", default=None, help="also save the matrix snapshot here")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("schedule", help="resource-managed scheduling of stable tests")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    sp = ssub.add_parser("init", parents=[state], help="build schedule state from a history")
    sp.add_argument("--history", required=True)
    sp.set_defaults(func=cmd_schedule_init)

    sp = ssub.add_parser("cost", parents=[fmt, state], help="current staleness cost sum(s_i^2)")
    sp.set_defaults(func=cmd_schedule_cost)

    sp = ssub.add_parser("stable", parents=[fmt, state],
                         help="pick stable tests for the after-hours pass")
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--strategy", choices=schedule.STRATEGIES, default="cost_min")
    sp.add_argument("--window", type=int, default=7)
    sp.set_defaults(func=cmd_schedule_stable)

    sp = ssub.add_parser("office", parents=[fmt, score, state],
                         help="office-hours selection: sensitivity + failure recency")
    sp.add_argument("--matrix", required=True, help="matrix snapshot file")
    sp.add_argument("--changes", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-w", "--weight", type=float, default=0.5)
    sp.add_argument("--observe", action="store_true", help="record the change set into pending state")
    sp.set_defaults(func=cmd_schedule_office)

    sp = ssub.add_parser("tick", parents=[state], help="advance the day counter")
    sp.add_argument("--executed", default=None, help="file listing tests executed today")
    sp.set_defaults(func=cmd_schedule_tick)

    sp = ssub.add_parser("apply", parents=[state],
                         help="apply verdicts test-case-wise to the matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--results", required=True, help="JSON object test -> pass|fail")
    sp.add_argument("--executed", default=None, help="subset that actually ran (default: all results)")
    sp.set_defaults(func=cmd_schedule_apply)

    p = sub.add_parser("synth", help="generate a deterministic synthetic history")
    p.add_argument("--seed", type=int, default=None, help="default: FLIPSENSE_SEED, else 0")
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
    except (FlipsenseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
