#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload lake-plan --seeds 1-10

For every end-to-end metric it prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json: a steady benchmark keeps the spread below that third.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, ok = {}, True
    for seed in seeds_of(args.seeds):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        took = time.monotonic() - t0
        if out.returncode != 0:
            print(f"seed {seed}: exit code {out.returncode}")
            ok = False
            continue
        result = json.loads(out.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        shown = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
                         if k in bounds)
        print(f"seed {seed}: {took:.1f} s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, vs in values.items():
        if len(vs) < 2 or (args.trace and k not in bounds and not k.endswith("_s")):
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        limit = f" (bound/3 = {bound / 3:.4f})" if bound else ""
        print(f"{k:40s} median {med:.6g}  spread {spread:.4f}{limit}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
