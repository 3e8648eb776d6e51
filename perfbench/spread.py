"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed for each workload, then prints, per
metric, the median of the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of
that median, next to the bound BENCHMARK.json fixes.  Run from the root
of a checkout:

    python3 perfbench/spread.py --workloads ganet11-fwsc-fwd,cli-small --seeds 1-10 \\
        [--seconds S] [--out results.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None, help="also write every run's result here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs[w].append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"{res['failed']}/{res['attempted']} failed {vals}", flush=True)
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {w:<22} {name:<12} median {med:.4f}  iqr/median {(q3 - q1) / med:.4f}"
                  f"  bound {bound}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
