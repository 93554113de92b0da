"""Guards for the tooling that lives next to the package."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import topogen
from topogen import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "topogen"
TRACING = ROOT / "benchmark" / "tracing.py"
README = ROOT / "README.md"


def _tracing_targets():
    """``TARGETS`` of the benchmark's tracer, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


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


def _unreferenced_src_functions():
    """``(module, qualname)`` of each top-level function and method under
    ``src/topogen`` whose name no ``src/`` module uses as a name or an
    attribute; dunder methods are called implicitly and left out."""
    defined, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, f"{node.name}.{item.name}", item.name)
                    for item in node.body if isinstance(item, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        (module, qualname) for module, qualname, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_src_function_has_a_src_caller():
    # code only the tests call belongs in the tests; the exceptions are the
    # benchmark's traced functions, the package's public names (and their
    # classes' methods) and endofunctor_record_of, the inverse of
    # resolve_endofunctor
    allowed = {f"{module}.{name}" for module, name in _tracing_targets()}
    allowed.add("harness.fileformat.endofunctor_record_of")
    unreferenced = _unreferenced_src_functions()
    assert ("harness.fileformat", "endofunctor_record_of") in unreferenced
    stray = [
        f"{module}.{qualname}" for module, qualname in unreferenced
        if f"{module}.{qualname}" not in allowed and qualname.split(".")[0] not in topogen.__all__
    ]
    assert stray == []
