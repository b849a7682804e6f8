"""The library imports nothing outside the standard library and itself, and
`conespec.cli` starts up without the modules only some calls need: it runs
`spectrum`, `reduction`, `hypercover`, `glue` and the hom search `homs` on
their first use, imports only the context a command names, and reads
well-formed argv without argparse, which prints help and usage errors as it
did when it read every command line."""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import cli
from test_golden import CASES, HERE, read_expected, resolve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "conespec")

# a few public functions of each layer that importing conespec.cli loads or
# registers, which bench/traced.py wraps after reading the layer's names with
# vars() right after importing conespec.cli (its LAYERS lacks homs)
PUBLIC = {
    "io": ("algebra_from_dict", "hom_from_dict", "space_to_dict"),
    "tables": ("validate", "quotient_by_sig", "congruence_closure", "pushout",
               "limit"),
    "homs": ("all_homs", "iter_isomorphisms"),
    "contexts": ("get_context", "factorize"),
    "spectrum": ("build_spec", "spec_map", "enumerate_apmaps"),
    "reduction": ("geometric_iso", "reduce_admissible",
                  "check_flat_wrt_cover"),
    "hypercover": ("h0", "pushout_opcover"),
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

# the context modules: get_context imports the one it is asked for
CONTEXTS = ("zariski", "domain", "deitmar")

# the modules that only argparse needs: help and usage errors load them
ARGPARSE = ("argparse", "gettext", "locale")

# one command; prints its exit code, the library modules that have run (a
# deferred module that has not run is not a plain module yet) and those of
# ARGPARSE that are loaded
LAYER_PROBE = """
import contextlib, io, sys, types
from conespec import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name for name, mod in sys.modules.items()
                    if name.startswith("conespec.")
                    and type(mod) is types.ModuleType
                    or name in ("argparse", "gettext", "locale")))
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

# the context and the layers each golden case runs besides io, tables and
# contexts: of the checks only fixed-point reads a spectrum, hypercover runs
# only where a command builds an opcover, and homs only where one searches
# for maps or isomorphisms (not where a glue document gives its overlaps)
EXECUTES = {
    "spec-zariski-z12": ("zariski", "spectrum"),
    "spec-domain-z6": ("domain", "spectrum"),
    "spec-deitmar-e2xe2": ("deitmar", "spectrum"),
    "spec-deitmar-chain3xe2": ("deitmar", "spectrum"),
    "check-reduced-domain-f2x2": ("domain", "reduction"),
    "check-reduced-zariski-z12": ("zariski", "reduction"),
    "check-reduced-domain-z12": ("domain", "reduction"),
    "check-mono-reduced-domain-z12": ("domain", "reduction"),
    "check-geometric-iso-z6-z2": ("zariski", "reduction"),
    "check-geometric-iso-domain-z12-z6": ("domain", "reduction"),
    "check-geometric-iso-domain-z12-z4": ("domain", "reduction"),
    "check-fixed-point-deitmar-e2xe2": ("deitmar", "reduction", "spectrum"),
    "check-flat-cover-z6": ("zariski", "reduction", "hypercover", "homs"),
    "check-flat-cover-zariski-multistep": ("zariski", "reduction",
                                           "hypercover", "homs"),
    "glue-doubled-z6": ("zariski", "glue", "spectrum", "homs"),
    "glue-deitmar-doubled-e2xe2": ("deitmar", "glue", "spectrum", "homs"),
    "glue-zariski-doubled-z12": ("zariski", "glue", "spectrum", "homs"),
    "glue-deitmar-twisted-c3xe2": ("deitmar", "glue", "spectrum"),
    "glue-deitmar-three-charts-c3xe2": ("deitmar", "glue", "spectrum"),
    "nerve-p1-f1": ("deitmar", "glue", "spectrum", "homs"),
    "nerve-deitmar-e2-three-charts": ("deitmar", "glue", "spectrum", "homs"),
    "nerve-deitmar-doubled-chain3": ("deitmar", "glue", "spectrum", "homs"),
    "nerve-zariski-z12": ("zariski", "glue", "spectrum", "hypercover",
                          "homs"),
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
# lists and sets of the library that differ afterwards.  Every library module
# is loaded first, so that one a command loads is not new state
STATE_PROBE = """
import copy, importlib, pkgutil, sys
import conespec.cli
for info in pkgutil.iter_modules(conespec.__path__):
    importlib.import_module("conespec." + info.name)
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
    for name in ("dataclasses", "inspect", "random", "conespec.corpus",
                 *(f"conespec.{c}" for c in CONTEXTS), *ARGPARSE):
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


def test_executes_names_every_golden_case():
    """A golden case that EXECUTES leaves out would go unchecked below."""
    assert sorted(EXECUTES) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(EXECUTES))
def test_each_subcommand_runs_only_the_layers_it_uses(case, tmp_path):
    proc = run_child(LAYER_PROBE, *resolve(CASES[case], str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert f"{code}\n".encode() == read_expected(case)["exit"]
    ran = {name.removeprefix("conespec.") for name in modules} & \
        {*PUBLIC, *CONTEXTS}
    assert ran == {"io", "tables", "contexts", *EXECUTES[case]}
    assert not set(ARGPARSE) & set(modules)


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


# ---------------------------------------------------------------------------
# the command line: read directly when well formed, else by argparse

# argv values per option, valid for its type and choices
VALID = {"--size-bound": ("1", "4096", "+5", " 12", "1_000"),
         "--site-max": ("3", "4")}
PLAIN = ("in.json", "out dir", "", "x=1", "default", "zariski")


@st.composite
def command_lines(draw):
    """(argv, regular): argv built from COMMANDS with every required option
    and some others, then, unless `regular`, changed in one to three ways
    that argparse may or may not accept."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    pairs = []
    for name, kw in cli.COMMANDS[command][2]:
        if kw.get("required") or draw(st.booleans()):
            pairs.append([name, draw(st.sampled_from(
                kw.get("choices") or VALID.get(name, PLAIN)))])
    pairs = draw(st.permutations(pairs))
    changes = draw(st.lists(st.sampled_from((
        "abbreviate", "equals", "repeat", "help", "dash value", "bad int",
        "bad choice", "drop", "unknown", "stray", "command")), max_size=3))
    for change in changes:
        k = draw(st.integers(0, len(pairs)))
        # an option and its value, if k names one
        pair = pairs[k] if k < len(pairs) and len(pairs[k]) == 2 else None
        if change == "abbreviate" and pair and len(pair[0]) > 3:
            pair[0] = pair[0][:draw(st.integers(3, len(pair[0]) - 1))]
        elif change == "equals" and pair:
            pairs[k] = [f"{pair[0]}={pair[1]}"]
        elif change == "repeat" and pair:
            # before the pair, so that a bad first value is not overwritten
            pairs.insert(k, [pair[0], draw(st.sampled_from(
                PLAIN + VALID["--site-max"] + ("affine",)))])
        elif change == "help":
            pairs.insert(k, [draw(st.sampled_from(("-h", "--help")))])
        elif change == "dash value" and pair:
            pair[1:] = [draw(st.sampled_from(("-1", "-x", "--", "-")))]
        elif change == "bad int" and pair:
            pair[1:] = [draw(st.sampled_from(("x", "1.5", "", "0x10")))]
        elif change == "bad choice" and pair:
            pair[1:] = [draw(st.sampled_from(("affine", "", "Zariski")))]
        elif change == "drop" and pair:
            del pairs[k]
        elif change == "unknown":
            pairs.insert(k, ["--rounds", "2"])
        elif change == "stray":
            pairs.insert(k, ["extra"])
        elif change == "command":
            command = draw(st.sampled_from(("spe", "", "-h", "Spec", "--input")))
    return [command, *(t for pair in pairs for t in pair)], not changes


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_the_direct_read_of_argv_is_argparse_s_read(case):
    argv, regular = case
    direct = cli.read_argv(argv)
    if regular:
        assert direct is not None
    if direct is not None:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)
        assert vars(parsed) == vars(direct)


# help and usage errors -> argv; golden/usage/<name> holds the exit code,
# stdout and stderr of each with COLUMNS=80, recorded when argparse read
# every command line
USAGE = {
    "help": ["-h"],
    "help-spec": ["spec", "-h"],
    "help-check": ["check", "-h"],
    "help-glue": ["glue", "-h"],
    "help-nerve": ["nerve", "--help"],
    "no-command": [],
    "rounds": ["spec", "--input", "z12.json", "--rounds", "2"],
    "bad-context": ["spec", "--context", "affine", "--input", "z12.json"],
    "missing-input": ["glue", "--context", "deitmar"],
    "size-bound-not-int": ["nerve", "--input", "p1.json", "--size-bound", "x"],
}


@pytest.mark.parametrize("name", sorted(USAGE))
def test_help_and_usage_errors_keep_their_bytes(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit) as exit_:
            cli.main(USAGE[name])
    got = {"exit": f"{exit_.value.code}\n", "stdout": stdout.getvalue(),
           "stderr": stderr.getvalue()}
    for stream, text in got.items():
        with open(os.path.join(HERE, "usage", name, stream), "rb") as fh:
            assert text.encode() == fh.read(), stream
