#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/steady.py

Each set runs every workload RUNS times, each run with its own
``--seed``, one process after another. Set A runs under PYTHONHASHSEED=1,
set B under PYTHONHASHSEED=2, so the failed-operation counts of the two
sets also show whether the outcome depends on the hash seed. For each set
and workload the command prints each end-to-end metric's median and
quartiles and its spread (quartile distance over median), then whether
the sets agree: every spread within the metric's bound in BENCHMARK.json,
the medians of the two sets apart by no more than the bound in either
direction, and the same share of failed operations. Workloads and run
length are those of BENCHMARK.json. The whole record goes to
perfbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from run import invoke

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEEDS = {"A": "1", "B": "2"}
RUNS = 10


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {s: {w: [] for w in workloads} for s in HASH_SEEDS}
    for offset, (set_name, hash_seed) in enumerate(HASH_SEEDS.items()):
        for i in range(RUNS):
            for w in workloads:
                seed = offset * RUNS + i + 1
                out = invoke(w, seed, seconds, 0,
                             env=dict(os.environ, PYTHONHASHSEED=hash_seed))
                if not out["correct"]:
                    raise SystemExit(f"{w} seed {seed}: outputs are not correct")
                results[set_name][w].append({"seed": seed, **out})
                print(f"set {set_name} {w} seed {seed}: attempted {out['attempted']} "
                      f"failed {out['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                      flush=True)

    summary, ok = {}, True
    for w in workloads:
        summary[w] = {}
        shares = {s: {r["failed"] / r["attempted"] for r in results[s][w]} for s in HASH_SEEDS}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print(f"\n{w}: failed share per run, set A {sorted(shares['A'])} set B "
              f"{sorted(shares['B'])} -> {'identical' if same_share else 'DIFFERENT'}")
        for m in metrics:
            name = m["name"]
            stats = {s: quartiles([r["metrics"][name]["value"] for r in results[s][w]])
                     for s in HASH_SEEDS}
            shift = worse_by(m, stats["A"]["median"], stats["B"]["median"])
            spread_ok = all(st["spread"] <= m["bound"] for st in stats.values())
            agree = spread_ok and abs(shift) <= m["bound"]
            ok &= agree
            summary[w][name] = {"sets": stats, "b_worse_by": shift, "agree": agree}
            for s, st in stats.items():
                print(f"  {name:13s} set {s}: median {st['median']:.6g} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.2%}")
            print(f"  {name:13s} B worse than A by {shift:+.2%} (bound {m['bound']:.0%})"
                  f" -> {'agree' if agree else 'DISAGREE'}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"runs": results, "summary": summary, "seconds": seconds,
                   "hash_seeds": HASH_SEEDS, "agree": ok}, fp, indent=1)
    print(f"\n{'the two sets agree' if ok else 'the two sets DISAGREE'}; record in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
