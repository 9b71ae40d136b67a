#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: sets of runs in alternating order.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 10 --tree ../parent --tree .

Each set is ten (--runs) runs of every workload in BENCHMARK.json. Run
i of a tree's j-th set (--sets per tree) has seed 1 + j * runs + i, so
the sets of one tree run different inputs, and with two trees (for a
parent/change comparison) the trees' j-th sets run the same inputs pair
by pair. Round i runs the sets in order when i is even and in reverse
order when it is odd, so drift in the machine falls on both.

For every workload and metric it prints each set's median and quartiles
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, how much worse the last set's median is than the
first's, and the spread of the same metric from the raw wall-clock
times (from the runs' result files; not gated). A summary is written to
perfbench/out/steady-<time>.json. Exit code 0 when every spread and
every shift is within its bound, every run was correct and the failed
shares agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(tree, workload, seed, seconds):
    """One run's result line, and its metrics from the raw times."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {done.returncode}")
    result_file = os.path.join(tree, "perfbench", "out", "results",
                               f"{workload}-seed{seed}-trace0.json")
    with open(result_file, encoding="utf-8") as fh:
        raw = json.load(fh)["raw_metrics"]
    return json.loads(lines[-1]), raw


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    change = second / first - 1.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, help="sets per tree")
    parser.add_argument("--tree", action="append", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    trees = [os.path.abspath(t) for t in (args.tree or [ROOT])]
    sets = [(tree, j) for tree in trees for j in range(args.sets)]
    results = {(s, w): [] for s in range(len(sets)) for w in workloads}
    raws = {(s, w): [] for s in range(len(sets)) for w in workloads}
    for i in range(args.runs):
        order = range(len(sets)) if i % 2 == 0 else reversed(range(len(sets)))
        for s in order:
            tree, j = sets[s]
            for w in workloads:
                seed = 1 + j * args.runs + i
                result, raw = run_once(tree, w, seed, bench["run_seconds"])
                results[(s, w)].append(result)
                raws[(s, w)].append(raw)
                print(f"set {s} run {i} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)

    summary = {"trees": trees, "runs": args.runs, "workloads": {}}
    steady = True
    for w in workloads:
        print(f"\n{w}")
        rows = {}
        for name, meta in metrics.items():
            per_set = []
            for s in range(len(sets)):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results[(s, w)]])
                r1, rmed, r3 = quartiles([r[name] for r in raws[(s, w)]])
                per_set.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                "raw_spread": (r3 - r1) / rmed})
            line = f"  {name:14s} bound {meta['bound']:.2f}"
            for s, st in enumerate(per_set):
                line += (f" | set {s}: median {st['median']:.5g} q1 {st['q1']:.5g}"
                         f" q3 {st['q3']:.5g} spread {st['spread']:.3f}"
                         f" (raw {st['raw_spread']:.3f})")
                if st["spread"] > meta["bound"]:
                    steady = False
            if len(per_set) > 1:
                worse = worse_by(per_set[0]["median"], per_set[-1]["median"], meta["better"])
                line += f" | last set worse by {worse:+.3f}"
                steady &= worse <= meta["bound"]
            print(line)
            rows[name] = per_set
        shares = [sum(r["failed"] for r in results[(s, w)])
                  / sum(r["attempted"] for r in results[(s, w)]) for s in range(len(sets))]
        correct = all(r["correct"] for s in range(len(sets)) for r in results[(s, w)])
        print(f"  failed share per set {shares}; all correct {correct}")
        steady &= correct and len(set(shares)) == 1
        summary["workloads"][w] = {"metrics": rows, "failed_share": shares,
                                   "correct": correct}
    summary["steady"] = steady
    out = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsteady: {steady}; summary in {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
