#!/usr/bin/env python3
"""Repeatability check of the benchmark.

Runs perfbench/run.py on each workload once per seed and reports, for every
end-to-end metric, the median over the seeds and the inter-quartile
distance as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds s]
                                [--save runs.json]

--seconds defaults to BENCHMARK.json's run_seconds.

A spread above a third of the bound is flagged; setup_s is reported but
not held to its bound (its bound limits the median's drift between two
sets of runs, not the spread within one).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import quartiles, spread  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", default="")
    ap.add_argument("--save", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            p = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            out = json.loads(p.stdout.strip().splitlines()[-1])
            if p.returncode != 0 or not out["correct"]:
                print(f"{w} seed {seed}: run failed or incorrect", flush=True)
            runs[w].append(out)
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)

    worst = 0.0
    for w, outs in runs.items():
        print(f"\n{w}")
        for name, bound in bounds.items():
            vals = [o["metrics"][name]["value"] for o in outs]
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = ""
            if name != "setup_s":
                worst = max(worst, s / bound)
                flag = "  <-- above bound/3" if s > bound / 3 else ""
            print(f"  {name:26s} median {med:14.6g}  spread {s:7.4f}"
                  f"  bound {bound:.2f}{flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
