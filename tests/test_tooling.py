"""Guards for the tooling that lives next to the package."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from topogen import cli

ROOT = Path(__file__).resolve().parent.parent
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
