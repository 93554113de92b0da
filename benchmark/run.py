#!/usr/bin/env python3
"""topogen benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout::

    python3 benchmark/run.py --workload suite-medium|user-queries|enumerate-sweep \
        --seed N --seconds S --trace 0|1

Every pass runs in a fresh worker process (worker.py), one at a time: a
closed loop with one caller.  With ``--trace 0`` passes repeat until
``--seconds`` have elapsed (always at least one) and the run reports the
end-to-end metrics; with ``--trace 1`` it runs ``TRACE_PASSES`` traced passes
on fixed inputs, so every count repeats exactly for a seed, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  Exits 2 without a result when the
checkout holds no ``src/topogen``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import write_input
from worker import REFERENCE_LOOP_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Medians of set-up time come from at least this many fresh processes.
SETUP_SAMPLES = 5
TRACE_PASSES = 1
# A run must end within 180 s: start no pass that could end after this.
PASS_DEADLINE_S = 150.0
WORKER_TIMEOUT_S = 170.0

# Both times are seconds at the reference host's speed: raw seconds scaled
# by worker.REFERENCE_LOOP_S over the host speed read around the set-up and
# during the pass (worker.HostSampler).  On a shared host raw times drift by
# a quarter and more within minutes, beyond any useful regression bound.
END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

# (metric, unit); every name below is derived by layer_metrics().
PER_LAYER = (
    ("site.pullback.calls", "count"),
    ("site.pullback.skipped", "count"),
    ("site.pullback.self_s", "s"),
    ("site.check_bcp.calls", "count"),
    ("site.check_bcp.per_square", "calls/square"),
    ("site.check_bcp.self_s", "s"),
    ("morphisms.check_pullback_transfer.calls", "count"),
    ("morphisms.check_pullback_transfer.self_s", "s"),
    ("site.validate_fibration.calls", "count"),
    ("site.validate_fibration.self_s", "s"),
    ("site.validate_category.self_s", "s"),
    ("structures.predicates.calls", "count"),
    ("structures.predicates.self_s", "s"),
    ("structures.closure_from_topogenous.self_s", "s"),
    ("structures.interior_from_topogenous.self_s", "s"),
    ("morphisms.crosscheck_operator_classes.self_s", "s"),
    ("morphisms.weakly_final_formulas.self_s", "s"),
    ("harness.enumeration.enumerate_structures.calls", "count"),
    ("harness.enumeration.enumerate_structures.yielded", "count"),
    ("harness.enumeration.enumerate_structures.self_s", "s"),
    ("structures.validate_structure.calls", "count"),
    ("structures.validate_structure.self_s", "s"),
    ("constructions.check_extremality.self_s", "s"),
    ("instances.topology.fintop_fibration.calls", "count"),
    ("instances.topology.fintop_fibration.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.predicates.p50_ms", "ms"),
    ("cli.convert.p50_ms", "ms"),
    ("cli.classify.p50_ms", "ms"),
    ("instances.registry.builtin_fibration.self_s", "s"),
    ("instances.groups.fingrp_fibration.self_s", "s"),
    ("lattice.right_adjoint_of.calls", "count"),
    ("lattice.right_adjoint_of.self_s", "s"),
    ("harness.fileformat.parse_document.calls", "count"),
    ("harness.fileformat.parse_document.self_s", "s"),
    ("harness.fileformat.serialize_record.calls", "count"),
    ("harness.fileformat.serialize_record.self_s", "s"),
    ("harness.fileformat.serialize_document.calls", "count"),
    ("harness.fileformat.serialize_document.self_s", "s"),
    ("morphisms.classify.calls", "count"),
    ("morphisms.classify.self_s", "s"),
    ("instances.topology.map_predicates.self_s", "s"),
    ("harness.suite.instances", "count"),
    ("harness.suite.pullback-transfer.wall_s", "s"),
    ("harness.suite.instance-validity.wall_s", "s"),
    ("host.calib_s", "s"),
    ("trace.wall_s", "s"),
)


class WorkerError(Exception):
    pass


def run_worker(workload: str, trace: int, deadline: float, manifest=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--trace", str(trace)]
    cmd += ["--input", manifest] if manifest else ["--setup-only"]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerError(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def aggregate(passes: list[dict]) -> dict:
    """Sum the layer aggregates and per-pass details of the given passes."""
    layers, command_ms, check_walls = {}, {}, {}
    instances = 0
    for p in passes:
        for label, s in p["layers"].items():
            acc = layers.setdefault(label, {"calls": 0, "self": 0.0, "yielded": 0, "raised": {}})
            acc["calls"] += s["calls"]
            acc["self"] += s["self"]
            acc["yielded"] += s["yielded"]
            for exc, n in s["raised"].items():
                acc["raised"][exc] = acc["raised"].get(exc, 0) + n
        details = p["details"]
        for cmd, values in details.get("command_ms", {}).items():
            command_ms.setdefault(cmd, []).extend(values)
        for check, wall in details.get("check_walls", {}).items():
            check_walls[check] = check_walls.get(check, 0.0) + wall
        instances += details.get("instances", 0)
    return {"layers": layers, "command_ms": command_ms, "check_walls": check_walls,
            "instances": instances}


def layer_metrics(passes: list[dict]) -> dict:
    agg = aggregate(passes)
    layers = agg["layers"]
    empty = {"calls": 0, "self": 0.0, "yielded": 0, "raised": {}}

    def layer(label):
        return layers.get(label, empty)

    values = {}
    for name, unit in PER_LAYER:
        label, _, field = name.rpartition(".")
        if name == "site.pullback.skipped":
            value = layer(label)["raised"].get("CapabilityError", 0)
        elif name == "site.check_bcp.per_square":
            pb = layer("site.pullback")
            built = pb["calls"] - pb["raised"].get("CapabilityError", 0)
            value = layer("site.check_bcp")["calls"] / built if built else 0.0
        elif name.startswith("cli.") and field == "p50_ms":
            ms = agg["command_ms"].get(label[len("cli."):], [])
            value = statistics.median(ms) if ms else 0.0
        elif name == "harness.suite.instances":
            value = agg["instances"]
        elif name.startswith("harness.suite."):
            value = agg["check_walls"].get(label[len("harness.suite."):], 0.0)
        elif name == "host.calib_s":
            value = statistics.median(p["calib_s"] for p in passes)
        elif name == "trace.wall_s":
            value = sum(p["wall_s"] for p in passes)
        else:
            value = layer(label)[{"self_s": "self"}.get(field, field)]
        values[name] = {"value": value, "unit": unit}
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "topogen" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'topogen'} is missing",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    hard_deadline = started + WORKER_TIMEOUT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    passes, crashes = [], []
    try:
        index = 0
        while True:
            manifest = write_input(args.workload, args.seed, index, workdir)
            try:
                passes.append(run_worker(args.workload, args.trace, hard_deadline, manifest))
            except WorkerError as exc:
                crashes.append(f"pass {index}: {exc}")
            index += 1
            elapsed = time.monotonic() - started
            longest = max((p["setup_s"] + p["wall_s"] for p in passes), default=elapsed)
            if (args.trace and index >= TRACE_PASSES) or crashes \
                    or (not args.trace and elapsed >= args.seconds) \
                    or elapsed + 1.5 * longest > PASS_DEADLINE_S:
                break
        setups = list(passes)
        while not args.trace and not crashes and len(setups) < SETUP_SAMPLES:
            try:
                setups.append(run_worker(args.workload, 0, hard_deadline))
            except WorkerError as exc:
                crashes.append(f"setup: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in passes) + len(crashes)
    failed_ops = {op: names for p in passes for op, names in p["failed"].items()}
    failed = len(failed_ops) + len(crashes)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} elapsed_s={time.monotonic() - started:.1f}")
    for crash in crashes:
        print(f"FAILED {crash}")
    for op, names in sorted(failed_ops.items()):
        print(f"FAILED op {op}: {', '.join(names)}")
    if not passes:
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(passes)
    else:
        walls = [p["wall_s"] for p in passes]
        raw_setups = [p["setup_s"] for p in setups]
        metrics = {
            "wall_ref_s": statistics.median(
                p["wall_s"] * REFERENCE_LOOP_S / p["calib_s"] for p in passes),
            "setup_s": statistics.median(
                p["setup_s"] * REFERENCE_LOOP_S / p["setup_calib_s"] for p in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        print(f"  wall_s median={statistics.median(walls):.4f} s over n={len(walls)} "
              f"passes (min {min(walls):.4f}, max {max(walls):.4f}); "
              f"at reference speed {metrics['wall_ref_s']['value']:.4f} s")
        print(f"  raw setup median={statistics.median(raw_setups):.4f} s over "
              f"n={len(setups)}; at reference speed {metrics['setup_s']['value']:.4f} s")
        print(f"  peak_rss_mb median={metrics['peak_rss_mb']['value']:.1f} MB")
        print(f"  error_rate={failed}/{attempted} failed ops")
        print(f"  host.calib_s median={statistics.median(p['calib_s'] for p in passes):.4f} s")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name}={metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(passes),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
