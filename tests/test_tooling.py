"""Guards for the tooling that lives next to the package."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import types
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
    allowed = {"site.pullback", "morphisms.classify"}
    assert allowed <= {f"{module}.{name}" for module, name in _tracing_targets()}
    assert sorted(set(_unreferenced_src_definitions()) - allowed) == []


def test_only_the_lattice_module_constructs_lattices():
    # every other module takes its lattices from FiniteLattice.powerset, one
    # per point count and process, or from_order, so the row facts memoised
    # on a powerset are shared by every fibration over it
    direct = [
        f"{module}:{node.lineno}"
        for module, tree in _src_modules() if module != "lattice"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "FiniteLattice" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert direct == []


def test_src_imports_only_at_module_level():
    local = [
        f"{module}:{inner.lineno}"
        for module, tree in _src_modules()
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))
        for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def _unused_imports(tree):
    """Each name a module imports and neither reads nor lists in ``__all__``;
    ``from __future__`` imports are directives, not names."""
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name}:{line}" for name, line in imported.items() if name not in used)


def test_src_imports_only_names_it_uses():
    # a name imported and never read is a leftover of deleted code
    unused = {
        module: names for module, tree in _src_modules() if (names := _unused_imports(tree))
    }
    assert unused == {}


def test_one_weak_keyed_memo_per_fibration():
    # every per-(fibration, kind) record hangs off the validation plan
    # (structures.plan_of), so a second weak-keyed memo would fork one off
    holders = [
        path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
        if "WeakKeyDictionary" in path.read_text(encoding="utf-8")
    ]
    assert holders == ["structures.py"]


def test_the_enumerator_decides_no_law_itself():
    # the kind's plan (structures.plan_of) builds its order space from its
    # own laws, so a law decided here, or a law's pairs or lookups or a
    # plan's laws read outside structures.py, would fork from it
    text = (SRC / "harness" / "enumeration.py").read_text(encoding="utf-8")
    assert ".holds(" not in text
    internals = {"rhs", "lhs", "cod_index", "dom_index", "laws"}
    readers = [
        f"{module}:{node.lineno}"
        for module, tree in _src_modules() if module != "structures"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in internals
    ]
    assert readers == []


def test_one_routine_builds_every_classification():
    # morphisms._classifier decides the four classes; a second constructor
    # call would be a second classifier
    calls = [
        path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
        for _ in range(path.read_text(encoding="utf-8").count("MorphismClassification("))
    ]
    assert calls == ["morphisms.py"]


def _chooses_representatives(node):
    """A call of ``isomorphisms()``, or a store into a table named ``rep``
    or ``iota``: the least-index scan over the isos."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) == "isomorphisms"
    return (
        isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) in {"rep", "iota"})


def test_one_routine_chooses_the_class_representatives():
    # site.symmetry is the one record of the isos, the representatives, the
    # isos ι_A and each map's f~; the pullback sweep, the class calculus,
    # the skeleton and the stand-ins read it, and a second scan would fork
    # from it
    choosers = {
        f"{module}.{node.name}"
        for module, tree in _src_modules()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        if any(map(_chooses_representatives, ast.walk(node)))
    }
    assert choosers == {"site._symmetry"}


def _calls(node, name):
    """Whether ``node`` holds a call of the function or class ``name``."""
    return any(
        isinstance(call, ast.Call) and name in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))
        for call in ast.walk(node))


def _src_functions():
    """``(module.name, node)`` of each function under ``src/topogen``."""
    return [
        (f"{module}.{node.name}", node)
        for module, tree in _src_modules()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]


def test_one_routine_builds_the_automorphism_orbits():
    # site.symmetry is also the one record of each map's orbit under the
    # automorphisms of its ends; the stand-ins, the carry check and the
    # pullback sweep read it, and a second walk would fork from it.  Its
    # letters are the closure certificate's, from one routine
    functions = _src_functions()
    builders = {name for name, node in functions if _calls(node, "Symmetry")}
    assert builders == {"site._symmetry"}
    readers = {name for name, node in functions if _calls(node, "_permutation_letters")}
    assert readers == {"site._symmetry", "site._closure_certificate"}


def test_one_routine_chooses_the_stand_ins():
    # site.stand_ins decides whether a verdict reads the head of each map's
    # orbit or the map itself; outside site, only the pullback sweep's
    # weights read the heads, to weigh each orbit by its size
    readers = {
        name for name, node in _src_functions() if not name.startswith("site.")
        for attribute in ast.walk(node)
        if isinstance(attribute, ast.Attribute) and attribute.attr == "head"
    }
    assert readers == {"morphisms._class_weights"}


def test_one_fold_finds_every_unclosed_family():
    # structures._fold is the per-object fold that the order predicates and
    # the conversions share; a second caller would decide a row table again
    callers = [
        f"{module}.{node.name}"
        for module, tree in _src_modules()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_unclosed_family"
    ]
    assert callers == ["structures._fold"]


# per plain class, the fields concrete_category and subset_fibration
# tabulate on first read
_MORPHISM_FIELDS = {
    "FiniteCategory": (
        "mor_dom", "mor_cod", "mor_names", "identities", "graphs",
        "_by_graph", "_name_index", "morphisms_from", "morphisms_to",
    ),
    "SubobjectFibration": ("img", "pre", "eclass", "mclass", "fstar"),
}


@pytest.mark.parametrize("name", _MORPHISM_FIELDS)
def test_the_plain_fibration_classes_keep_specialised_attribute_reads(name):
    # CPython 3.11 specialises no attribute read on a class with __getattr__,
    # and none of a property or cached_property: each made every read of
    # these classes about 3x slower; only their untabulated twins may
    # tabulate on read
    from topogen import site

    cls = getattr(site, name)
    assert "__slots__" in vars(cls)
    assert not any("__getattr__" in vars(klass) for klass in cls.__mro__)
    for field in _MORPHISM_FIELDS[name]:
        found = inspect.getattr_static(cls, field)
        assert isinstance(found, types.MemberDescriptorType) and found.__objclass__ is cls, field


# the structure kinds' names, the order predicates that pick the closures'
# and the interiors' orders, and the conversions to and from orders
_KIND_NAMES = {"topogenous", "closure", "interior", "neighbourhood"}
_PRESERVATION = {"is_meet_preserving", "is_join_preserving"}
_CONVERSION = re.compile(r"\w+_from_topogenous|topogenous_from_\w+")


def test_each_kinds_correspondence_is_stated_once():
    # structures.CORRESPONDENCE pairs each kind's predicate with its
    # conversions, and structures.KINDS maps its name to its class; a module
    # that names both a predicate and a conversion, or compares against a
    # kind's name, would restate them
    pairings, branches = [], []
    for module, tree in _src_modules():
        if module == "structures":
            continue
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
        }
        if names & _PRESERVATION and any(_CONVERSION.fullmatch(name) for name in names):
            pairings.append(module)
        branches += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            if _KIND_NAMES & {
                leaf.value for side in (node.left, *node.comparators)
                for leaf in ast.walk(side) if isinstance(leaf, ast.Constant)
            }
        ]
    assert (pairings, branches) == ([], [])


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


def _run_on_src_modules(script, *args):
    """``script`` run in a fresh process on ``src``, with ``args`` and then
    every module's dotted name as its arguments, and the modules' names."""
    names = [
        "topogen" + ("" if module == "__init__" else "." + module.removesuffix(".__init__"))
        for module, _ in _src_modules()
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args, *names],
        capture_output=True, text=True, env=env, check=False,
    )
    return proc, names


def test_every_module_imports_alone():
    # with no function-local imports, every import cycle would show here
    proc, names = _run_on_src_modules(_IMPORT_EACH_ALONE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert len(names) == len(set(names)) > 10


_COMPILES_AT_IMPORT = """
import importlib, re, sys
src, names = sys.argv[1], sys.argv[2:]
compile_, callers = re.compile, []

def compile(pattern, flags=0):
    callers.append(sys._getframe(1).f_code.co_filename)
    return compile_(pattern, flags)

re.compile = compile
for name in names:
    importlib.import_module(name)
print(sorted({c for c in callers if c.startswith(src)}))
importlib.import_module("topogen.harness.fileformat")._canonical_patterns("order")
print(sum(c.startswith(src) for c in callers) > 0)
"""


def test_no_src_pattern_compiles_at_import():
    # a pattern compiled at import would cost every process, the ones that
    # read only spaces and maps too; src compiles its patterns on first use
    proc, _ = _run_on_src_modules(_COMPILES_AT_IMPORT, str(SRC))
    # none at import, and the hook sees a compile made later
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nTrue\n", "")


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
    assert bench_pairs.change_wins([5.0, 5.0, 5.0], [4.0, 6.0, 7.0], "higher") == 2
    # every traced prefix selects some per-layer metric of the benchmark, and
    # every per-layer metric BENCHMARK.json names but the host's calibration
    # and the tracer's own wall time starts with a traced prefix
    per_layer = [name for name, _ in _assigned(RUN, "PER_LAYER")]
    assert all(any(m.startswith(p) for m in per_layer) for p in bench_pairs.TRACED_PREFIXES)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    untraced = [
        m["name"] for m in declared
        if m["name"] not in ("host.calib_s", "trace.wall_s")
        and not m["name"].startswith(bench_pairs.TRACED_PREFIXES)
    ]
    assert untraced == []
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


def test_bench_pairs_checks_every_end_to_end_metric_against_its_bound():
    bench_pairs = _bench_pairs()
    summary = bench_pairs.summary
    entry = {
        "parent": {"wall_ref_s": summary([1.0, 1.0, 1.0]), "peak_rss_mb": summary([10.0] * 3),
                   "success_rate": summary([1.0, 1.0, 1.0])},
        "change": {"wall_ref_s": summary([0.5, 1.2, 0.9]), "peak_rss_mb": summary([11.5] * 3),
                   "success_rate": summary([0.9, 1.0, 1.0])},
    }
    metrics = [
        {"name": "wall_ref_s", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "success_rate", "better": "higher", "bound": 0.01},
    ]
    checks = bench_pairs.end_to_end(entry, metrics)
    assert checks["wall_ref_s"] == {
        "better": "lower", "change_wins": "2/3", "relative_change": pytest.approx(-0.1),
        "bound": 0.24, "beyond_bound": False,
    }
    # 15% more memory is past a 10% bound
    assert checks["peak_rss_mb"]["relative_change"] == pytest.approx(0.15)
    assert checks["peak_rss_mb"]["beyond_bound"] and checks["peak_rss_mb"]["change_wins"] == "0/3"
    # a higher-is-better metric is worse when it falls; its median did not
    assert checks["success_rate"]["change_wins"] == "0/3"
    assert checks["success_rate"]["relative_change"] == 0.0
    assert not checks["success_rate"]["beyond_bound"]
    entry["change"]["success_rate"] = summary([0.9, 0.9, 1.0])
    assert bench_pairs.end_to_end(entry, metrics)["success_rate"]["beyond_bound"]
    # every end-to-end metric the benchmark declares has a direction it reads
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert {m["better"] for m in declared} <= {"lower", "higher"}


def _traced_result(classify_calls, classify_self_s, instances=9, check_wall_s=1.0):
    return {"metrics": {
        "morphisms.classify.calls": {"value": classify_calls, "unit": "count"},
        "morphisms.classify.self_s": {"value": classify_self_s, "unit": "s"},
        "harness.suite.instances": {"value": instances, "unit": "count"},
        "harness.suite.pullback-transfer.wall_s": {"value": check_wall_s, "unit": "s"},
        "host.calib_s": {"value": classify_self_s, "unit": "s"},
    }}


def test_bench_pairs_traced_metrics_take_median_times_and_equal_counts():
    bench_pairs = _bench_pairs()
    assert bench_pairs.TRACED_RUNS >= 5
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
