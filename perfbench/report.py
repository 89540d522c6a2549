#!/usr/bin/env python3
"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/report.py

For each workload it makes one untraced run with per-operation times and
one traced run, both with ``--seed 1``, then times whole CLI commands on the same generated
inputs, and prints the tables as Markdown. The two-set end-to-end figures
come from the newest perfbench/results/steady-*.json, written by
``steady.py``. Raw records go to perfbench/results/report-<time>.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import invoke

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("replay", "query", "dayloop")
LADDER = (50, 90, 99, 99.9)
SEED = 1


def percentiles(samples):
    """Median, plus the highest percentile of LADDER with at least ten
    samples beyond it; the median alone under forty samples."""
    xs = sorted(samples)
    out = {"n": len(xs), "p50": statistics.median(xs)}
    p = max(p for p in LADDER if len(xs) * (1 - p / 100) >= 10) if len(xs) >= 40 else 50
    if p > 50:
        out[f"p{p:g}"] = xs[min(len(xs) - 1, int(len(xs) * p / 100))]
    return out


def cli_time(args, repeats=3):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "flipsense.cli", *args], env=env, check=True,
                       capture_output=True, timeout=900)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_timings(seed, alpha):
    """Whole CLI commands on the inputs the replay and query workloads
    generate for this seed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    made = {}
    for name in ("replay", "query"):
        work = os.path.join(RESULTS, "inputs", name)
        os.makedirs(work, exist_ok=True)
        made[name] = workloads.WORKLOADS[name](ROOT, work, seed)
    r, q = made["replay"], made["query"]
    changes = os.path.join(RESULTS, "inputs", "changes.txt")
    with open(changes, "w", encoding="utf-8") as fp:
        fp.write("\n".join(sorted(q.changesets[0])) + "\n")
    grid = f"{min(r.GRID)}:{max(r.GRID)}:0.2"
    return {
        "replay --method all": cli_time(
            ["replay", "--input", r.path, "--method", "all", "--alpha", str(alpha),
             "--select", "5..25", "--seed", str(seed), "--runs", str(r.RANDOM_RUNS)]),
        f"sweep-alpha --grid {grid}": cli_time(
            ["sweep-alpha", "--input", r.path, "--grid", grid, "--select", "5..25"]),
        "prioritise --history": cli_time(
            ["prioritise", "--history", q.path, "--changes", changes, "-n", "25"]),
    }


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    seconds = bench["run_seconds"]
    os.makedirs(RESULTS, exist_ok=True)

    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "seed": SEED, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        details = os.path.join(RESULTS, f"details-{w}.json")
        plain = invoke(w, SEED, seconds, 0, details)
        traced = invoke(w, SEED, seconds, 1)
        with open(details, encoding="utf-8") as fp:
            d = json.load(fp)
        untraced_round = d["pass_s"] / len(d["rounds"])
        record["workloads"][w] = {
            "plain": plain, "traced": traced, "ops": percentiles(d["op_times"]),
            "round_s": untraced_round, "figures": d["figures"],
            "tracing_overhead": traced["metrics"]["bench.round_s"]["value"] / untraced_round - 1,
        }
    record["cli"] = cli_timings(SEED, record["workloads"]["replay"]["figures"]["alpha"])
    path = os.path.join(RESULTS, time.strftime("report-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)

    print(f"nproc {record['nproc']}, Python {record['python']}, run_seconds {seconds}\n")
    print("| workload | ops | op p50 | op tail | failed/attempted | round (untraced) | "
          "round (traced) | tracing overhead |")
    print("|---|---|---|---|---|---|---|---|")
    for w, r in record["workloads"].items():
        ops = r["ops"]
        tail = next(((k, v) for k, v in ops.items() if k not in ("n", "p50")), None)
        tail_s = f"{tail[0]} {tail[1] * 1e3:.1f} ms" if tail else "(too few samples)"
        print(f"| {w} | {ops['n']} | {ops['p50'] * 1e3:.1f} ms | {tail_s} | "
              f"{r['plain']['failed']}/{r['plain']['attempted']} | {r['round_s']:.3f} s | "
              f"{r['traced']['metrics']['bench.round_s']['value']:.3f} s | "
              f"{r['tracing_overhead']:+.1%} |")
    print("\nPer-layer figures, one set-up plus one round (traced run):\n")
    names = [m["name"] for m in bench["per_layer"]]
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name in names:
        vals = [record["workloads"][w]["traced"]["metrics"][name] for w in WORKLOADS]
        print(f"| {name} | {vals[0]['unit']} | "
              + " | ".join(f"{v['value']:.4g}" for v in vals) + " |")
    figures = record["workloads"]["replay"]["figures"]
    print(f"\nReplay figures (chosen alpha {figures['alpha']}):\n")
    print("| n | " + " | ".join(f"{m} recall | {m} zero" for m in ("ema", "cumulative", "random"))
          + " |")
    print("|---|" + "---|---|" * 3)
    for n in figures["ema"]:
        cells = []
        for m in ("ema", "cumulative", "random"):
            f = figures[m][n]
            cells += [f"{f['recall']:.4f}", f"{f['zero_pct']:.1%}"]
        print(f"| {n} | " + " | ".join(cells) + " |")
    print("\nWhole CLI runs on the same inputs (median of 3):\n")
    for name, t in record["cli"].items():
        print(f"- `flipsense {name}`: {t:.2f} s")

    steady = sorted(glob.glob(os.path.join(RESULTS, "steady-*.json")))
    if steady:
        with open(steady[-1], encoding="utf-8") as fp:
            s = json.load(fp)
        print(f"\nTwo sets of runs ({os.path.basename(steady[-1])}, "
              f"{s['seconds']} s each):\n")
        print("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | "
              "B worse by | agree |")
        print("|---|---|---|---|---|---|")
        for w, metrics in s["summary"].items():
            for name, m in metrics.items():
                a, b = m["sets"]["A"], m["sets"]["B"]
                print(f"| {w} | {name} | {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] | "
                      f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] | "
                      f"{m['b_worse_by']:+.2%} | {'yes' if m['agree'] else 'no'} |")
    print(f"\nrecord in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
