#!/usr/bin/env python3
"""Run-to-run spread and count determinism of the benchmark.

Spread: runs one workload once per seed and prints, for every end-to-end
metric, the median over the runs and the distance between the first and
third quartiles as a share of that median, next to the metric's bound in
BENCHMARK.json (a spread under a third of the bound is steady).

    python3 perfbench/spread.py spread WORKLOAD [--seeds 1,2,...] [--seconds S]

Determinism: runs the benchmark twice with one seed, traced and untraced,
and names every count (per-layer counts and the simulated end-to-end
metrics) that differs.

    python3 perfbench/spread.py counts WORKLOAD [--seed N] [--seconds S]

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

CMD = ["bash", "perfbench/run.sh"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        CMD + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct: {res}")
    return res


def spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    values = {}
    for seed in seeds:
        t0 = time.time()
        res = run(args.workload, seed, args.seconds, 0)
        wall = time.time() - t0
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            flush=True)
    print(f"\n{args.workload}: {len(seeds)} runs")
    print(f"{'metric':28} {'median':>14} {'iqr/median':>11} {'bound':>7}  steady")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        steady = "-" if bound is None else ("yes" if rel < bound / 3 else "NO")
        print(f"{name:28} {med:14.6g} {rel:11.4f} {bound!s:>7}  {steady}")


# metrics that must repeat exactly for one seed: per-layer counts (and the
# hit ratios made of them) and the simulated end-to-end metrics
SIMULATED = {"model_cycles_geomean", "fleet_p99_latency_cycles",
             "fleet_goodput_ratio"}


def exact(name, unit):
    return (unit in ("count", "B") or name.endswith("hit_ratio")
            or name in SIMULATED)


def counts(args, bench):
    differ, checked = [], 0
    for trace in (1, 0):
        a = run(args.workload, args.seed, args.seconds, trace)["metrics"]
        b = run(args.workload, args.seed, args.seconds, trace)["metrics"]
        names = [k for k, m in a.items() if exact(k, m["unit"])]
        checked += len(names)
        differ += [(k, a[k]["value"], b[k]["value"]) for k in names
                   if a[k]["value"] != b[k]["value"]]
    print(f"{args.workload} seed {args.seed}: {checked} exact metrics, "
          f"{len(differ)} differ between two runs")
    for k, x, y in differ:
        print(f"  {k}: {x} vs {y}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["spread", "counts"])
    p.add_argument("workload")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    (spread if args.mode == "spread" else counts)(args, bench)


if __name__ == "__main__":
    main()
