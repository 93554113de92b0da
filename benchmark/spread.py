#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 benchmark/spread.py --seeds 1-10 [--workloads a,b] [--seconds S]

Runs ``run.py --trace 0`` once per (seed, workload), interleaving the
workloads so that host drift hits all of them alike, then prints for each
metric its median and its quartile spread (Q3 - Q1) / median, next to the
bound in BENCHMARK.json; the raw ``wall_s`` median each run prints is
summarised the same way.  Every run's result line is also printed, so the
figures can be checked by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values = {w: {} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            calib = next((ln.split("median=")[1].split()[0] for ln in lines
                          if "host.calib_s" in ln), "?")
            raw_wall = next(float(ln.split("median=")[1].split()[0]) for ln in lines
                            if ln.strip().startswith("wall_s median="))
            values[workload].setdefault("raw wall_s", []).append(raw_wall)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} calib_s={calib} "
                  f"raw_wall_s={raw_wall:.4f} "
                  + " ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    worst = 0.0
    for workload in workloads:
        for name, series in values[workload].items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:16s} {name:14s} median={median:.4f} spread={spread:.4f} "
                  f"bound={bound} n={len(series)}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
