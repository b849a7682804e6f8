"""The kind of an input algebra is checked in one module: `cli.py` is the
only module of `src/conespec/` that calls `.accepts(`, so the contexts and
the layers above them take the kind as given."""

from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "conespec")


def accepts_calls(src: str) -> list[str]:
    """"module:line" of each call of an attribute named `accepts` in the
    modules of `src`."""
    out = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        out.extend(f"{module}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "accepts")
    return out


def test_only_the_cli_checks_the_kind_of_an_algebra():
    calls = accepts_calls(SRC)
    assert calls, "no module checks the kind of an input algebra"
    outside = [c for c in calls if not c.startswith("cli:")]
    assert not outside, f"{outside} check a kind outside cli.py"


def test_the_boundary_check_finds_a_call_outside_the_cli(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def main(ctx, A):\n    ctx.accepts(A)\n", encoding="utf-8")
    (tmp_path / "contexts.py").write_text(
        "class C:\n    def is_local(self, A):\n"
        "        self.accepts(A)\n        return accepts(A)\n",
        encoding="utf-8")
    assert accepts_calls(str(tmp_path)) == ["cli:2", "contexts:3"]
