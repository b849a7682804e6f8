"""The library imports nothing outside the standard library and itself, and
`conespec.cli` starts up without the modules only some calls need."""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "conespec")


def imported_top_level_modules(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            names.add("conespec" if node.level else node.module.split(".")[0])
    return names


def test_library_imports_only_the_standard_library():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        outside = {m for m in imported_top_level_modules(path)
                   if m != "conespec" and m not in sys.stdlib_module_names}
        assert not outside, f"{os.path.basename(path)} imports {sorted(outside)}"


def test_cli_import_loads_every_layer_and_nothing_it_does_not_use():
    # -S: a site .pth file may import modules of its own; PYTHONPATH is set
    # here because pytest's pythonpath setting does not reach a child process
    code = ("import sys, conespec.cli; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    ).stdout.split()
    for name in ("dataclasses", "inspect", "random", "conespec.corpus"):
        assert name not in out, f"importing conespec.cli loads {name}"
    # bench/traced.py reads these from sys.modules right after importing cli
    for layer in ("io", "tables", "contexts", "spectrum", "reduction",
                  "hypercover", "glue"):
        assert f"conespec.{layer}" in out
