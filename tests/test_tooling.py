"""Guards for the tooling that lives next to the package."""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from topogen import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "topogen"
TRACING = ROOT / "benchmark" / "tracing.py"
RUN = ROOT / "benchmark" / "run.py"
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"
README = ROOT / "README.md"


def _assigned(path, name):
    """The literal assigned to ``name`` at the top of ``path``, read from its
    source without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


def _tracing_targets():
    """``TARGETS`` of the benchmark's tracer."""
    return _assigned(TRACING, "TARGETS")


def test_every_traced_function_resolves():
    # the tracer rebinds each target with a bare getattr, so a renamed
    # function would break every traced benchmark run
    targets = _tracing_targets()
    assert targets
    missing = [
        f"topogen.{module}.{name}" for module, name in targets
        if not callable(getattr(importlib.import_module(f"topogen.{module}"), name, None))
    ]
    assert missing == []


def _readme_cli_commands():
    """Argument lists of the ``topogen`` lines in README's CLI code block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines() if line.startswith("topogen ")
    ]


def test_readme_cli_examples_exit_zero(capsys):
    # the examples that read or write no file and are not the suite
    runnable = [
        argv for argv in _readme_cli_commands()
        if argv[0] != "suite" and not any(re.search(r"\.[a-z]+$", arg) for arg in argv)
    ]
    assert len(runnable) >= 9
    for argv in runnable:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out, argv


def _src_modules():
    """``(dotted name under topogen, parsed tree)`` of each module in ``src``."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts), ast.parse(path.read_text(encoding="utf-8"))


def _unreferenced_src_definitions():
    """``module.qualname`` of each top-level function and class, and each
    method, under ``src/topogen`` whose name no ``src/`` module but the
    package's ``__init__`` uses as a name or an attribute; dunder methods are
    called implicitly and left out."""
    defined, used = [], set()
    for module, tree in _src_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, f"{node.name}.{item.name}", item.name)
                    for item in node.body if isinstance(item, ast.FunctionDef)
                )
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{module}.{qualname}" for module, qualname, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_src_function_has_a_src_caller():
    # code only the tests call belongs in the tests; the exceptions are the
    # functions the benchmark's tracer names while no program path calls them
    allowed = {"morphisms.check_pullback_transfer", "site.pullback"}
    assert allowed <= {f"{module}.{name}" for module, name in _tracing_targets()}
    assert sorted(set(_unreferenced_src_definitions()) - allowed) == []


def test_src_imports_only_at_module_level():
    local = [
        f"{module}:{inner.lineno}"
        for module, tree in _src_modules()
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))
        for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


_IMPORT_EACH_ALONE = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "topogen"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_every_module_imports_alone():
    # with no function-local imports, every import cycle would show here
    names = [
        "topogen" + ("" if module == "__init__" else "." + module.removesuffix(".__init__"))
        for module, _ in _src_modules()
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_ALONE, *names],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert len(names) == len(set(names)) > 10


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_and_wins():
    bench_pairs = _bench_pairs()
    runs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert bench_pairs.summary(runs) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "iqr": 3.0, "runs": runs,
    }
    assert bench_pairs.summary([2.0]) == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0, "runs": [2.0],
    }
    # lower wins; a tie counts for neither side
    assert bench_pairs.change_wins([5.0, 5.0, 5.0], [4.0, 5.0, 6.0]) == 1
    # every traced prefix selects some per-layer metric of the benchmark
    per_layer = [name for name, _ in _assigned(RUN, "PER_LAYER")]
    assert all(any(m.startswith(p) for m in per_layer) for p in bench_pairs.TRACED_PREFIXES)
    assert {
        "morphisms.classify.", "harness.suite.", "harness.enumeration.",
        "structures.validate_structure.", "harness.fileformat.",
        "constructions.check_extremality.", "instances.topology.fintop_fibration.", "cli.",
        "lattice.right_adjoint_of.", "instances.groups.fingrp_fibration.",
        "instances.registry.builtin_fibration.", "instances.topology.map_predicates.",
    } <= set(bench_pairs.TRACED_PREFIXES)
    # the CLI layer: cli.main's count must repeat, each command's p50 is a
    # latency and takes the median over the traced runs
    runs = [
        {"metrics": {"cli.main.calls": {"value": 20, "unit": "count"},
                     "cli.convert.p50_ms": {"value": ms, "unit": "ms"}}}
        for ms in (31.0, 12.5, 20.0)
    ]
    assert bench_pairs.traced_metrics(runs) == {"cli.main.calls": 20, "cli.convert.p50_ms": 20.0}


def _traced_result(classify_calls, classify_self_s, instances=9, check_wall_s=1.0):
    return {"metrics": {
        "morphisms.classify.calls": {"value": classify_calls, "unit": "count"},
        "morphisms.classify.self_s": {"value": classify_self_s, "unit": "s"},
        "harness.suite.instances": {"value": instances, "unit": "count"},
        "harness.suite.pullback-transfer.wall_s": {"value": check_wall_s, "unit": "s"},
        "structures.predicates.calls": {"value": classify_self_s, "unit": "count"},
    }}


def test_bench_pairs_traced_metrics_take_median_times_and_equal_counts():
    bench_pairs = _bench_pairs()
    assert bench_pairs.TRACED_RUNS >= 3
    runs = [
        _traced_result(7, 0.3, check_wall_s=2.0),
        _traced_result(7, 0.1, check_wall_s=1.5),
        _traced_result(7, 0.2, check_wall_s=2.5),
    ]
    # the median self and check wall times, the counts, and nothing outside
    # the traced prefixes
    assert bench_pairs.traced_metrics(runs) == {
        "morphisms.classify.calls": 7, "morphisms.classify.self_s": 0.2,
        "harness.suite.instances": 9, "harness.suite.pullback-transfer.wall_s": 2.0,
    }
    runs[1] = _traced_result(8, 0.1)
    with pytest.raises(SystemExit, match=r"morphisms\.classify\.calls differs.*\[7, 8, 7\]"):
        bench_pairs.traced_metrics(runs)
    runs[1] = _traced_result(7, 0.1, instances=10)
    with pytest.raises(SystemExit, match=r"harness\.suite\.instances differs.*\[9, 10, 9\]"):
        bench_pairs.traced_metrics(runs)
    # the enumeration counts must repeat too
    runs = [_traced_result(7, 0.1) for _ in range(3)]
    for run, yielded in zip(runs, (31, 30, 31)):
        run["metrics"]["harness.enumeration.enumerate_structures.yielded"] = {
            "value": yielded, "unit": "count"}
    with pytest.raises(SystemExit, match=r"enumerate_structures\.yielded differs.*\[31, 30, 31\]"):
        bench_pairs.traced_metrics(runs)
