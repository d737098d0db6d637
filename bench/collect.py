"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --out bench/out/runs.json
    python3 bench/collect.py --seeds 1-10 --workloads mc_readout --trace-seed 0

Runs execute one after another, as BENCHMARK.json's command does them.
For every workload and end-to-end metric the summary holds the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and the spread, the
distance between the quartiles as a share of the median.  With
``--trace-seed`` one traced run per workload adds the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: all in BENCHMARK.json")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    result = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            report, line = run_once(spec, name, seed, 0)
            runs.append({"seed": seed, "correct": line["correct"],
                         "attempted": line["attempted"],
                         "failed": line["failed"],
                         "iterations": len(report["iteration_scaled_s"]),
                         "metrics": {k: v["value"]
                                     for k, v in line["metrics"].items()},
                         "derived": report["derived"],
                         "flip_rate_estimates":
                             report["notes"].get("flip_rate_estimates")})
            result.setdefault("environment", report["environment"])
            print(name, seed, runs[-1]["correct"], runs[-1]["metrics"],
                  flush=True)
        entry = {"runs": runs, "summary": {
            m: summarize([r["metrics"][m] for r in runs])
            for m in runs[0]["metrics"]}}
        if args.trace_seed is not None:
            _, line = run_once(spec, name, args.trace_seed, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "correct": line["correct"],
                                  "metrics": {k: v["value"] for k, v
                                              in line["metrics"].items()}}
        result["workloads"][name] = entry
        for metric, s in entry["summary"].items():
            print(f"{name:14s} {metric:12s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f}", flush=True)
    result["environment"].pop("workload_seed", None)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
