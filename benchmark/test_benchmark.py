"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the root of a checkout::

    python3 -m pytest -q benchmark/test_benchmark.py              # ~2 min
    python3 -m pytest -q benchmark/test_benchmark.py -k "not suite"   # ~30 s
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402

COUNT_UNITS = ("count", "calls/square")

# Counts of a traced medium suite, recorded at the commit that added the
# benchmark; any change to them is a change in what the suite checks.
SUITE_MEDIUM_COUNTS = {
    "site.pullback.calls": 726193,
    "site.pullback.skipped": 53611,
    "site.check_bcp.calls": 2017746,
    "site.check_bcp.per_square": 3.0,
    "morphisms.check_pullback_transfer.calls": 1345164,
    "morphisms.classify.calls": 25298,
    "harness.enumeration.enumerate_structures.yielded": 102,
    "harness.suite.instances": 7120813,
}


def bench(workload: str, seed: int, trace: int, seconds: int = 1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def test_topology_catalogs_match_known_counts():
    assert [len(inputs.topologies(n)) for n in range(5)] == [1, 1, 4, 29, 355]


@pytest.mark.parametrize("workload", ["user-queries", "enumerate-sweep"])
def test_inputs_are_byte_identical_per_seed(tmp_path, workload):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    for index in range(3):
        inputs.write_input(workload, 7, index, first)
        inputs.write_input(workload, 7, index, second)
        inputs.write_input(workload, 8, index, other)

    def contents(d):
        return sorted(
            p.read_bytes().replace(str(d).encode(), b"") for p in d.iterdir()
        )

    assert contents(first) == contents(second)
    assert contents(first) != contents(other)


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", ["user-queries", "enumerate-sweep"])
def test_traced_counts_repeat_exactly(workload):
    first = result(bench(workload, 3, trace=1))
    second = result(bench(workload, 3, trace=1))
    assert first["correct"] and second["correct"]
    assert counts(first["metrics"]) == counts(second["metrics"])
    assert {m for m, _ in PER_LAYER} == set(first["metrics"])


@pytest.mark.parametrize("workload", ["user-queries", "enumerate-sweep"])
def test_untraced_run_reports_end_to_end_metrics(workload):
    res = result(bench(workload, 4, trace=0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m for m, _ in END_TO_END}
    assert res["metrics"]["success_rate"]["value"] == 1.0


def test_suite_medium_traced_counts_match_record():
    res = result(bench("suite-medium", 1, trace=1))
    assert res["correct"] and res["attempted"] == 16
    got = counts(res["metrics"])
    assert {k: got[k] for k in SUITE_MEDIUM_COUNTS} == SUITE_MEDIUM_COUNTS


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("user-queries", 1, trace=0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
