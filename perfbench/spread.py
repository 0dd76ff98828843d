"""Run the benchmark over several seeds and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads analyze-loops,...] [--out FILE]

For every workload it runs the command of BENCHMARK.json once per seed
(seeds 1..runs, or from --first-seed), each for the file's `run_seconds`, and
prints the median of each end-to-end metric and its spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`) as
a share of the median, next to the metric's bound.  With --trace it adds one
traced run per workload.  With --out it writes all of this as one JSON record
of the trajectory, with the host's CPU count and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default=None, help="write the record as JSON here")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    record = {
        "os.cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        results = [_run(bench, name, seed, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in results], "end_to_end": {}}
        print(f"{name}: calls per run {entry['attempted']}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": spread, "unit": results[0]["metrics"][metric]["unit"], "values": values,
            }
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {metric:16s} median {med:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  {flag}")
        if args.trace:
            traced = _run(bench, name, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    medians = {n: e["end_to_end"]["accesses_per_s"]["median"] for n, e in record["workloads"].items()}
    if {"analyze-loops", "analyze-loops-mc-only"} <= medians.keys():
        # ROADMAP headline: above 1 when ai+mc beats mc-only in wall time.
        record["headline_ai_mc_over_mc_only"] = medians["analyze-loops"] / medians["analyze-loops-mc-only"]
        print(f"headline accesses_per_s ratio ai+mc / mc-only: {record['headline_ai_mc_over_mc_only']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
