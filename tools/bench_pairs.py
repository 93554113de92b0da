#!/usr/bin/env python3
"""Compare two checkouts on the benchmark: alternating pairs of runs.

Usage::

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json

Each checkout is a directory holding ``benchmark/run.py`` and ``src/``.  For
each of ten pairs (seeds 1 to 10) every workload of ``BENCHMARK.json`` runs
once on each side with ``--trace 0`` for the benchmark's ``run_seconds``;
even pairs run the parent first, odd pairs the change first, so host drift
hits both sides alike.  Then ``TRACED_RUNS`` (five) traced runs per side
and workload (``--trace 1``, seed 1, sides alternating the same way) give
the per-layer metrics: the median of each self time, check wall time and
per-command median latency, and each count, which must read the same in
every run or the command fails.

The JSON written to ``--out`` holds, per workload and side, every run's
end-to-end metrics with their median, quartiles and IQR; per workload and
end-to-end metric of ``BENCHMARK.json`` (``end_to_end``), the pairs the
change won in the metric's ``better`` direction (ties count for neither
side) and the change's relative median shift, (change median − parent
median) / parent median, next to the metric's ``bound``, with a
``beyond bound`` line printed for each metric worse by more than its bound;
and the traced ``site.pullback.*``, ``site.check_bcp.*``,
``site.validate_fibration.*``, ``site.validate_category.*``,
``morphisms.classify.*`` and ``harness.suite.*`` metrics (the suite's
instance count and the wall time of its two largest checks), the E∪M sweep
``morphisms.check_pullback_transfer.*``, the per-order statements
``morphisms.crosscheck_operator_classes.*`` and
``morphisms.weakly_final_formulas.*``, the order predicates and conversions
``structures.predicates.*``, ``structures.closure_from_topogenous.*`` and
``structures.interior_from_topogenous.*``, the
enumeration layers ``harness.enumeration.*``, ``structures.validate_structure.*``
and ``harness.fileformat.*`` (so ``enumerate_structures.yielded`` must repeat),
the extremality checks ``constructions.check_extremality.*``, which the
(co)unit continuity constraints feed, the finite-space fibration builder
``instances.topology.fintop_fibration.*`` and set-level map oracle
``instances.topology.map_predicates.*``, the set-up layers
``instances.registry.builtin_fibration.*``, ``instances.groups.fingrp_fibration.*``
and ``lattice.right_adjoint_of.*``,
and the CLI layer ``cli.*`` (``cli.main``'s calls and self time, and each
command's median latency ``cli.<command>.p50_ms``).
The pullback sweep over E and M reads its legs off fibre relations and
builds no ``site.pullback``, so ``site.pullback.*`` reads 0 on suite-medium;
its layer evidence is ``morphisms.check_pullback_transfer.self_s`` and
``harness.suite.pullback-transfer.wall_s``.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_PREFIXES = (
    "site.pullback.", "site.check_bcp.", "site.validate_fibration.", "site.validate_category.",
    "morphisms.check_pullback_transfer.", "morphisms.classify.",
    "morphisms.crosscheck_operator_classes.", "morphisms.weakly_final_formulas.",
    "harness.suite.", "harness.enumeration.", "structures.predicates.",
    "structures.closure_from_topogenous.", "structures.interior_from_topogenous.",
    "structures.validate_structure.", "harness.fileformat.",
    "constructions.check_extremality.", "instances.topology.fintop_fibration.", "cli.",
    "lattice.right_adjoint_of.", "instances.groups.fingrp_fibration.",
    "instances.registry.builtin_fibration.", "instances.topology.map_predicates.",
)
SEEDS = list(range(1, 11))
# one traced run cannot tell a self time from host noise, and three leave
# a layer's median self time at the mercy of one slow run
TRACED_RUNS = 5


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON result line of one ``benchmark/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed={seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles and IQR of a series, with the series itself."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def change_wins(parent: list[float], change: list[float], better: str = "lower") -> int:
    """Pairs in which the change's value is strictly better: lower, or
    higher when ``better`` is ``"higher"``."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def end_to_end(entry: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json``: the change's wins in its
    ``better`` direction, its relative median shift (change − parent) /
    parent, its ``bound``, and whether it is worse than the parent by more
    than the bound.  The benchmark's end-to-end medians are never 0."""
    checks = {}
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent, change = entry["parent"][name], entry["change"][name]
        shift = (change["median"] - parent["median"]) / parent["median"]
        wins = change_wins(parent["runs"], change["runs"], better)
        checks[name] = {
            "better": better,
            "change_wins": f"{wins}/{len(parent['runs'])}",
            "relative_change": shift,
            "bound": bound,
            "beyond_bound": (shift if better == "lower" else -shift) > bound,
        }
    return checks


def traced_metrics(results: list[dict]) -> dict:
    """The ``TRACED_PREFIXES`` metrics of repeated traced runs: the median of
    each ``*.self_s``, ``*.wall_s`` and ``*.p50_ms``, and every other metric,
    a count that must repeat exactly (``SystemExit`` naming it if it does
    not)."""
    traced = {}
    for name in results[0]["metrics"]:
        if not name.startswith(TRACED_PREFIXES):
            continue
        values = [r["metrics"][name]["value"] for r in results]
        if name.endswith((".self_s", ".wall_s", ".p50_ms")):
            traced[name] = statistics.median(values)
        elif len(set(values)) > 1:
            raise SystemExit(f"traced {name} differs between runs: {values}")
        else:
            traced[name] = values[0]
    return traced


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i, seed in enumerate(SEEDS):
        for workload in workloads:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run_benchmark(checkouts[side], workload, seed, seconds, 0)
                runs[workload][side].append(result)
                wall = result["metrics"]["wall_ref_s"]["value"]
                print(f"pair {i + 1} seed={seed} {workload} {side}: wall_ref_s={wall:.4f} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    report = {
        "command": " ".join(["python3 tools/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0))},
        "seeds": SEEDS,
        "traced_runs": TRACED_RUNS,
        "workloads": {},
    }
    for workload in workloads:
        traced = {side: [] for side in SIDES}
        for i in range(TRACED_RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                traced[side].append(run_benchmark(checkouts[side], workload, SEEDS[0], seconds, 1))
        entry = {}
        for side in SIDES:
            results = runs[workload][side]
            entry[side] = {
                name: summary([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]
            }
            entry[side]["failed_ops"] = sum(r["failed"] for r in results)
            entry[side]["traced"] = traced_metrics(traced[side])
        entry["end_to_end"] = end_to_end(entry, config["end_to_end"])
        report["workloads"][workload] = entry
        for name, check in entry["end_to_end"].items():
            print(f"{workload}: {name} parent median={entry['parent'][name]['median']:.4f} "
                  f"iqr={entry['parent'][name]['iqr']:.4f}, change "
                  f"median={entry['change'][name]['median']:.4f} "
                  f"iqr={entry['change'][name]['iqr']:.4f}, shift "
                  f"{check['relative_change']:+.3f} (bound {check['bound']}), change wins "
                  f"{check['change_wins']} ({check['better']} is better)", flush=True)
            if check["beyond_bound"]:
                print(f"beyond bound: {workload} {name} shift {check['relative_change']:+.3f} "
                      f"against bound {check['bound']}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
