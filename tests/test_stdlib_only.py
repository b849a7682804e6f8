"""The library imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "conespec")


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
