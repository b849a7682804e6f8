"""The library imports nothing outside the standard library and itself, and
`conespec.cli` starts up without the modules only some calls need: it runs
`reduction`, `hypercover` and `glue` on their first use."""

from __future__ import annotations

import ast
import glob
import os
import shutil
import subprocess
import sys

import pytest

from test_golden import CASES, read_expected, resolve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "conespec")

# a few public functions of each layer, which bench/traced.py wraps after
# reading the layer's names with vars() right after importing conespec.cli
PUBLIC = {
    "io": ("algebra_from_dict", "hom_from_dict", "space_to_dict"),
    "tables": ("validate", "quotient_by_sig", "congruence_closure", "pushout",
               "limit", "all_homs"),
    "contexts": ("enumerate_localizations", "local_forms", "factorize"),
    "spectrum": ("build_spec", "spec_map", "enumerate_apmaps"),
    "reduction": ("geometric_iso", "reduce", "check_flat_wrt_cover"),
    "hypercover": ("cech_h0", "pushout_opcover"),
    "glue": ("glue", "is_affine", "nerve"),
}

# the modules `import conespec.cli` loads, then the module functions that
# vars() lists for each layer named in argv
IMPORT_PROBE = """
import sys
import conespec.cli
print(*sorted(sys.modules))
import types
for layer in sys.argv[1:]:
    mod = sys.modules["conespec." + layer]
    print(layer, *sorted(name for name, value in vars(mod).items()
                         if isinstance(value, types.FunctionType)
                         and value.__module__ == mod.__name__))
"""

# one command; prints its exit code and the library modules that have run
# (a deferred module that has not run is not a plain module yet)
LAYER_PROBE = """
import contextlib, io, sys, types
from conespec import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name for name, mod in sys.modules.items()
                    if name.startswith("conespec.")
                    and type(mod) is types.ModuleType))
"""

# the layers imported before cli: is each the module cli runs, and does a
# glue command call a function patched on it?
REUSE_PROBE = """
import contextlib, io, sys
import conespec.glue, conespec.hypercover, conespec.reduction
before = {name: sys.modules["conespec." + name]
          for name in ("glue", "hypercover", "reduction")}
from conespec import cli
print(cli.gl is before["glue"], cli.hc is before["hypercover"],
      cli.red is before["reduction"])
calls = []
glue = before["glue"].glue
before["glue"].glue = lambda *args: calls.append(args) or glue(*args)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, len(calls))
"""

# the layers each golden case runs besides io, tables, contexts and
# spectrum; hypercover runs only where a command builds an opcover
EXECUTES = {
    "spec-zariski-z12": (),
    "check-reduced-zariski-z12": ("reduction",),
    "check-flat-cover-z6": ("reduction", "hypercover"),
    "glue-doubled-z6": ("glue",),
    "nerve-p1-f1": ("glue",),
}


def run_child(code: str, *argv: str, src: str = os.path.join(ROOT, "src")):
    """`code` in a child `python -S` with `argv` and the package under `src`.

    -S: a site .pth file may import modules of its own; PYTHONPATH is set
    here because pytest's pythonpath setting does not reach a child process.
    """
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))


# every golden command in one interpreter; prints the module-level dicts,
# lists and sets of the library that differ afterwards
STATE_PROBE = """
import copy, sys
import conespec.cli, conespec.corpus
from test_golden import CASES, run_case

def containers():
    return {f"{name}.{attr}": value for name, mod in sys.modules.items()
            if name.startswith("conespec.")
            for attr, value in vars(mod).items()
            if isinstance(value, (dict, list, set))}

before = {key: copy.copy(value) for key, value in containers().items()}
for argv in CASES.values():
    run_case(argv)
after = containers()
print(*sorted(key for key in before.keys() | after.keys()
              if before.get(key) != after.get(key)))
"""


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
    proc = run_child(IMPORT_PROBE, *PUBLIC)
    assert proc.returncode == 0, proc.stderr
    modules, *layers = proc.stdout.splitlines()
    out = modules.split()
    for name in ("dataclasses", "inspect", "random", "conespec.corpus"):
        assert name not in out, f"importing conespec.cli loads {name}"
    # bench/traced.py reads these from sys.modules right after importing cli
    for layer in PUBLIC:
        assert f"conespec.{layer}" in out
    # ... and wraps the functions that vars() lists, so that read runs the
    # body of a deferred layer
    listed = {layer: names for layer, *names in map(str.split, layers)}
    for layer, names in PUBLIC.items():
        missing = set(names) - set(listed[layer])
        assert not missing, f"vars(conespec.{layer}) lacks {sorted(missing)}"


@pytest.mark.parametrize("case", sorted(EXECUTES))
def test_each_subcommand_runs_only_the_layers_it_uses(case, tmp_path):
    proc = run_child(LAYER_PROBE, *resolve(CASES[case], str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert f"{code}\n".encode() == read_expected(case)["exit"]
    ran = {name.removeprefix("conespec.") for name in modules} & set(PUBLIC)
    assert ran == {"io", "tables", "contexts", "spectrum", *EXECUTES[case]}


def test_cli_runs_the_layer_modules_imported_before_it(tmp_path):
    proc = run_child(REUSE_PROBE,
                     *resolve(CASES["glue-doubled-z6"], str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True True", "0 1"]


def test_a_deferred_layer_that_fails_to_run_is_one_line_and_exit_4(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src / "conespec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    glue_py = src / "conespec" / "glue.py"
    glue_py.write_text(glue_py.read_text(encoding="utf-8")
                       + "raise RuntimeError('glue does not load')\n",
                       encoding="utf-8")
    cli = "import sys; from conespec.cli import main; sys.exit(main())"
    out = str(tmp_path / "out")
    spec = run_child(cli, *resolve(CASES["spec-zariski-z12"], out),
                     src=str(src))
    assert (spec.returncode, spec.stderr) == (0, "")
    glue = run_child(cli, *resolve(CASES["glue-doubled-z6"], out),
                     src=str(src))
    assert (glue.returncode, glue.stdout) == (4, "")
    assert glue.stderr == \
        "internal error: RuntimeError('glue does not load')\n"


def test_commands_leave_the_library_modules_as_they_found_them():
    """What a command builds lives in the workspace it owns: running every
    golden case in one fresh interpreter changes no module-level dict, list
    or set of the library."""
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            os.path.join(ROOT, "tests")])
    changed = subprocess.run(
        [sys.executable, "-c", STATE_PROBE], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path)).stdout.split()
    assert changed == []
