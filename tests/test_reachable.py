"""Every function, class and method in `src/conespec/` is one that some
command can run, as far as names tell.

Reachability starts from the body of `cli.main` and from the module-level
statements of every module, and grows to a fixpoint: a module-level
function or class is reached once a reached body names it (as a name or as
an attribute), a method once its class is reached and a reached body reads
an attribute of its name.  A reached class runs its bases, decorators and
class-level statements; its dunder methods are reached with it, as Python
calls them implicitly.  So the check over-approximates what runs: a
function named only in a branch that no caller takes still counts as
reached.  Code that only tests call lives under `tests/`.
"""

from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "conespec")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def references(nodes) -> set[str]:
    """The names read in `nodes`, and each attribute read as ".attr"."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
    return out


def unreachable(src: str) -> list[str]:
    """The functions, classes and non-dunder methods of the modules in
    `src` that no command reaches by name, as "module.name" or
    "module.Class.method"."""
    roots = []
    # "module.name" -> (the names that reach it, its class or None, the
    # nodes that run once it is reached)
    defs = {}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if not isinstance(node, DEFS):
                roots.append(node)
            elif module == "cli" and node.name == "main":
                roots.append(node)
            elif isinstance(node, ast.ClassDef):
                key = f"{module}.{node.name}"
                runs = node.bases + node.keywords + node.decorator_list
                for item in node.body:
                    if isinstance(item, DEFS) and not is_dunder(item.name):
                        defs[f"{key}.{item.name}"] = (
                            {"." + item.name}, key, [item])
                    else:
                        runs.append(item)
                defs[key] = ({node.name, "." + node.name}, None, runs)
            else:
                defs[f"{module}.{node.name}"] = (
                    {node.name, "." + node.name}, None, [node])
    seen = references(roots)
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for key, (names, owner, runs) in defs.items():
            if key not in reached and names & seen and \
                    (owner is None or owner in reached):
                reached.add(key)
                seen |= references(runs)
                grew = True
    return sorted(set(defs) - reached)


def test_every_definition_in_the_library_is_reachable_from_a_command():
    dead = unreachable(SRC)
    assert not dead, f"no command reaches {dead}; move them to tests/"


def test_the_reachability_check_finds_an_unused_function(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import tables\n\n\n"
        "def main():\n    return tables.used()\n", encoding="utf-8")
    (tmp_path / "tables.py").write_text(
        "class A:\n    def __init__(self):\n        self.x = helper()\n\n"
        "    def method(self):\n        return unused()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def used():\n    return A().x\n\n\n"
        "def unused():\n    return used()\n", encoding="utf-8")
    assert unreachable(str(tmp_path)) == ["tables.A.method", "tables.unused"]
