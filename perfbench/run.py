#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Inputs are generated with ``flipsense synth`` before any timing. Set-up is
timed in ``setup_repeats`` samples of ``setup_batch`` set-ups each, and
``setup_s`` is the median sample divided by the batch. The pass runs whole
rounds of the workload's operations until ``--seconds`` have passed, and
``builds_per_s`` is the builds of the pass over its time, less the time
the benchmark spends keeping and comparing outputs between operations.
Both times are read from ``pace.Clock``, which scales wall time by the
machine's speed as calibrated every 25 ms during the run. Every round must
reproduce the first round's outputs, and those are checked (see
``reference.py``); ``correct`` is false if a check fails for a reason
other than a counted failed operation.

With ``--trace 0`` the line holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one set-up plus one round, from wrappers around
the program's public functions, timed with the same clock. ``--details
FILE`` also writes per-operation times, set-up times, the calibrations
and, for replay, the figure table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from pace import Clock
from tracer import SELF_TIMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("replay", "query", "dayloop"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--details", default=None, help="also write run details as JSON here")
    return p.parse_args(argv)


def invoke(workload, seed, seconds, trace, details=None, env=None):
    """Run this script as its own process from ROOT and return its result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if details:
        cmd += ["--details", details]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setup_times, builds, pass_s):
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "builds_per_s": {"value": builds / pass_s, "unit": "builds/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(tracer, pass_start, setup_counts, n, pass_s):
    """Layer figures of one set-up plus one of the n rounds of the pass
    (pass totals / n)."""
    setup = tracer.self_times(0, pass_start)
    passed = tracer.self_times(pass_start)
    metrics = {}
    for metric, names in SELF_TIMES.items():
        value = sum(setup.get(s, 0.0) + passed.get(s, 0.0) / n for s in names)
        metrics[metric] = {"value": value, "unit": "s"}
    replay_names = {"evaluate.replay_sizes", "evaluate.sweep_alpha"}
    metrics["evaluate.replay_s"] = {
        "value": tracer.inclusive(replay_names, pass_start) / n, "unit": "s"}
    units = {"history.parse_mb": "MB", "sensitivity.snapshot_mb": "MB",
             "schedule.state_mb": "MB"}
    for name, value in tracer.counts.items():
        if name != "sensitivity.nnz_final":
            value = setup_counts[name] + (value - setup_counts[name]) / n
        metrics[name] = {"value": value, "unit": units.get(name, "count")}
    round_s = pass_s / n
    layers = sum(t for name, t in passed.items() if name != "tracer") / n
    metrics["bench.round_s"] = {"value": round_s, "unit": "s"}
    metrics["bench.tracer_s"] = {"value": passed.get("tracer", 0.0) / n, "unit": "s"}
    metrics["bench.other_s"] = {
        "value": round_s - layers - passed.get("tracer", 0.0) / n, "unit": "s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    from flipsense import baselines, evaluate, history, schedule, sensitivity

    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    attempted = failed = 0
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        repeats, batch = (1, 1) if args.trace else (wl.setup_repeats, wl.setup_batch)
        rounds, op_times, setup_times, first = [], [], [], {}
        hook_s = 0.0
        clock = Clock()

        def hook(i, out):
            """Keep round 1's outputs, checking them as they come; later
            rounds must reproduce them. Not part of the pass's time."""
            nonlocal hook_s
            t0 = clock.now()
            if not rounds:
                first[i] = wl.first_round(i, out)
            elif wl.digest(i, out) != first[i]:
                raise AssertionError(f"operation {i} gave another output than in round 1")
            hook_s += clock.now() - t0

        with clock:
            tracer = None
            if args.trace:
                tracer = Tracer(clock.now)
                tracer.install({"history": history, "sensitivity": sensitivity,
                                "evaluate": evaluate, "baselines": baselines,
                                "schedule": schedule})
            for _ in range(repeats):
                ctx = None
                gc.collect()
                t0 = clock.now()
                for _ in range(batch):
                    ctx = None  # one set-up's state alive at a time, as in one set-up
                    ctx = wl.setup()
                setup_times.append((clock.now() - t0) / batch)
            pass_start = len(tracer.spans) if tracer else 0
            setup_counts = dict(tracer.counts) if tracer else None

            start, real_start = clock.now(), time.perf_counter()
            while not rounds or time.perf_counter() - real_start < args.seconds:
                builds, times = wl.round(ctx, hook, clock.now)
                rounds.append((builds, sum(times)))
                op_times.extend(times)
            pass_s = clock.now() - start - hook_s
        attempted = sum(builds for builds, _ in rounds)
        if tracer:
            tracer.uninstall()
            metrics = per_layer(tracer, pass_start, setup_counts, len(rounds), pass_s)
            tracer.dump(os.path.join(HERE, "results",
                                     f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = end_to_end(setup_times, attempted, pass_s)
        failed = wl.check(ctx, first) * len(rounds)
        if args.details:
            doc = {"workload": args.workload, "seed": args.seed, "setup_times": setup_times,
                   "rounds": rounds, "pass_s": pass_s, "calibrations": clock.calibrations,
                   "op_times": op_times,
                   "figures": getattr(wl, "figures", None)}
            with open(args.details, "w", encoding="utf-8") as fp:
                json.dump(doc, fp)
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
