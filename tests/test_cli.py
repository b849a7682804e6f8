"""Serialization round-trips and the command-line front-end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from argparse import Namespace

import pytest

from conespec import contexts as C
from conespec import cli, corpus, glue as gl, hypercover as hc, io as cio
from conespec import reduction as red, spectrum as sp
from conespec.homs import all_homs
from conespec.tables import identity
from helpers import (corpus_by_context, enumerate_localizations, hom_to_dict,
                     large_nonassociative_monoid, path_to_dict,
                     subprocess_env)
from test_golden import CASES, read_expected, resolve, run_case

ZAR = C.get_context("zariski")
Z6 = corpus.zn(6)
GOLDEN_GLUING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden", "inputs", "doubled-z6.json")


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else cio.dumps(payload))
    return str(path)


# -------------------------------------------------------------------------- io


def test_algebra_json_roundtrip_bit_exact():
    for A in corpus.zariski_corpus() + corpus.deitmar_corpus():
        d = cio.algebra_to_dict(A)
        B = cio.algebra_from_dict(json.loads(cio.dumps(d)))
        assert B == A
        assert cio.dumps(cio.algebra_to_dict(B)) == cio.dumps(d)


def test_hom_roundtrip_and_named_algebras():
    f = all_homs(Z6, corpus.zn(2))[0]
    g = cio.hom_from_dict(hom_to_dict(f))
    assert g == f
    h = cio.hom_from_dict({"source": "z6", "target": "z2", "map": list(f.map)})
    assert h == f


def test_path_roundtrip():
    """Reading the oracle's steps of each localization gives its map."""
    for ctx, A in corpus_by_context():
        steps = {}
        for sig, k in enumerate_localizations(ctx, A, steps=steps).items():
            assert cio.path_from_dict(ctx, A, path_to_dict(steps[sig])) == k


def test_dot_output_lists_points_and_arrows():
    X = sp.build_spec(C.get_context("deitmar"), corpus.flag_monoid())
    dot = cio.specialization_dot(X)
    assert dot.startswith("digraph specialization {")
    assert dot.count("->") == 1


# ------------------------------------------------------------------------- cli


def test_cli_spec_z6(tmp_path, capsys):
    inp = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    assert cli.main(["spec", "--context", "zariski", "--input", inp,
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert "points=2" in capsys.readouterr().out
    assert (tmp_path / "out" / "z6.topology.dot").exists()
    sections = json.loads((tmp_path / "out" / "z6.sections.json").read_text())
    assert len(sections["points"]) == 2


def test_cli_spec_deterministic(tmp_path):
    inp = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["spec", "--input", inp, "--out-dir", str(out)]) == 0
        outs.append((out / "z6.sections.json").read_text()
                    + (out / "z6.topology.dot").read_text())
    assert outs[0] == outs[1]


def test_cli_spec_empty_space(tmp_path, capsys):
    inp = write(tmp_path, "trivial.json",
                cio.algebra_to_dict(corpus.trivial_ring()))
    assert cli.main(["spec", "--input", inp, "--out-dir", str(tmp_path)]) == 0
    assert "points=0" in capsys.readouterr().out


def test_cli_check_properties(tmp_path, capsys):
    f2 = write(tmp_path, "f2x2.json", cio.algebra_to_dict(corpus.f2x2()))
    z6 = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    assert cli.main(["check", "--context", "domain", "--property", "reduced",
                     "--input", f2]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] is False and verdict["certificate"]["witness"]
    assert cli.main(["check", "--property", "fixed-point", "--input", z6]) == 0


def test_cli_check_geometric_iso(tmp_path, capsys):
    hom = write(tmp_path, "id.json", hom_to_dict(identity(Z6)))
    assert cli.main(["check", "--property", "geometric-iso",
                     "--hom", hom]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True and "isos" in out["certificate"]
    f = all_homs(Z6, corpus.zn(2))[0]
    hom2 = write(tmp_path, "proj.json", hom_to_dict(f))
    assert cli.main(["check", "--property", "geometric-iso",
                     "--hom", hom2]) == 1


def test_cli_glue_and_nerve(tmp_path, capsys):
    inp = write(tmp_path, "p1.json", e2_gluing())
    assert cli.main(["glue", "--input", inp, "--out-dir", str(tmp_path)]) == 0
    assert "affine=false" in capsys.readouterr().out
    assert cli.main(["nerve", "--input", inp, "--site-max", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sheaf_condition"] == "PASS"


def test_cli_input_error_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["spec", "--input", missing]) == 2
    bad = write(tmp_path, "bad.json", "{not json")
    assert cli.main(["spec", "--input", bad]) == 2
    nonassoc = write(tmp_path, "na.json", {
        "kind": "monoid", "elements": ["1", "a"],
        "mul": [[0, 1], [1, 0]], "one": 1,
    })
    assert cli.main(["spec", "--input", nonassoc]) == 2


def test_cli_unusable_file_arguments_are_input_errors(tmp_path, capsys):
    """A file argument that exists but cannot be read as JSON, and an
    --out-dir that cannot be written, are input errors: exit 2, one line
    naming the path."""
    z6 = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    not_json = write(tmp_path, "cover.json", "{not json")
    folder = str(tmp_path / "folder")
    os.mkdir(folder)
    plain = write(tmp_path, "plain.txt", "")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for argv, path in (
            (["spec", "--input", folder], folder),
            (["spec", "--input", z6, "--out-dir", plain], plain),
            (["spec", "--input", z6, "--out-dir", os.path.join(plain, "out")],
             os.path.join(plain, "out")),
            (["check", "--property", "reduced", "--input", folder], folder),
            (["check", "--property", "reduced", "--input", str(binary)],
             str(binary)),
            (["check", "--property", "geometric-iso", "--hom", folder], folder),
            (["check", "--property", "flat-cover", "--input", z6,
              "--cover", folder], folder),
            (["check", "--property", "flat-cover", "--input", z6,
              "--cover", not_json], not_json)):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert repr(path) in err


def run_capped(mib: int, *argv):
    """The command line in a child whose address space is capped at `mib`
    MiB, so that a command that would fill memory fails fast instead."""
    capped = ("import resource, sys; "
              f"resource.setrlimit(resource.RLIMIT_AS, ({mib << 20},) * 2); "
              "from conespec.cli import main; sys.exit(main())")
    return subprocess.run([sys.executable, "-c", capped, *argv],
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=60)


def test_cli_glue_decides_affine_from_the_point_count(tmp_path):
    """The golden doubled e2xe2 with a third, disjoint e2xe2 chart has 11
    points, and its global sections e2^6 have 64 local forms: the counts
    decide, without Spec e2^6 and its millions of opens, in a child whose
    address space is capped at 512 MiB."""
    with open(os.path.join(GOLDEN_INPUTS, "doubled-e2xe2.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["charts"].append(doc["charts"][0])
    inp = write(tmp_path, "three-charts.json", doc)
    proc = run_capped(512, "glue", "--context", "deitmar", "--input", inp,
                      "--out-dir", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "points=11 affine=false\n", "")


def e2_power(tmp_path, k: int) -> str:
    return write(tmp_path, f"e2-{k}.json",
                 cio.algebra_to_dict(corpus.monoid_product(*["e2"] * k)))


def test_cli_spec_refuses_past_search_max_opens(tmp_path):
    """Spec e2^6 has 64 points and 7,828,354 opens: an antichain of 20
    points gives 2^20 > SEARCH_MAX of them, so listing them is refused
    before any is listed and before any file is written, in under a second
    in a child whose address space is capped at 128 MiB."""
    out = tmp_path / "out"
    inp = e2_power(tmp_path, 6)
    start = time.perf_counter()
    proc = run_capped(128, "spec", "--context", "deitmar",
                      "--input", inp, "--out-dir", str(out))
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (3, "", "resource bound: too many opens to list\n")
    assert not out.exists()


@pytest.mark.parametrize("k", [6, 7])
def test_cli_fixed_point_of_e2_powers_skips_the_opens(tmp_path, k):
    """In deitmar the closed point's minimal open of Spec e2^k is the whole
    space, so the global sections are its stalk, e2^k, and the counit is the
    identity.  Decided in a child whose address space is capped at 384 MiB,
    which listing the opens of Spec e2^6 would overrun."""
    proc = run_capped(384, "check", "--context", "deitmar", "--property",
                      "fixed-point", "--input", e2_power(tmp_path, k))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "certificate": {"counit": list(range(2 ** k)),
                        "global_sections": 2 ** k},
        "property": "fixed-point", "verdict": True}


def test_cli_glue_refuses_a_chart_product_past_the_search_bound(tmp_path,
                                                                 capsys):
    """Glued sections are families of chart sections: four Z/6 charts, with
    6^4 = 1296 families at most, exceed the 1000 whose tables fit in
    SEARCH_MAX entries, and three (216) do not."""
    with open(GOLDEN_GLUING, encoding="utf-8") as fh:
        doc = json.load(fh)
    for n_charts, code in ((4, 3), (3, 0)):
        doc["charts"] = doc["charts"][:1] * n_charts
        inp = write(tmp_path, "z6-charts.json", doc)
        assert cli.main(["glue", "--input", inp,
                         "--out-dir", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == ("resource bound: gluing chart "
                                           "product too large\n"
                                           if code else "")


def test_cli_size_bound_exit_3(tmp_path):
    inp = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    assert cli.main(["spec", "--input", inp, "--size-bound", "4"]) == 3


GOLDEN_INPUTS = os.path.dirname(GOLDEN_GLUING)

# one command per subcommand and input kind; each input algebra has 6 elements
# (z6, and the charts of doubled-z6) or 2 (e2, the charts of p1-f1)
BOUNDED_COMMANDS = {
    "check-input": (["check", "--property", "reduced", "--input", "z6.json"], 6),
    "check-hom": (["check", "--property", "geometric-iso",
                   "--hom", "z6-to-z2.json"], 6),
    "glue": (["glue", "--input", "doubled-z6.json"], 6),
    "nerve-charts": (["nerve", "--input", "p1-f1.json"], 2),
}


def _golden_argv(argv, tmp_path):
    files = {"--input", "--hom", "--cover"}
    return [os.path.join(GOLDEN_INPUTS, a) if prev in files else a
            for prev, a in zip([None] + argv, argv)] + (
        ["--out-dir", str(tmp_path)] if argv[0] == "glue" else [])


@pytest.mark.parametrize("name", sorted(BOUNDED_COMMANDS))
def test_cli_size_bound_applies_to_every_input_algebra(tmp_path, capsys, name):
    argv, size = BOUNDED_COMMANDS[name]
    argv = _golden_argv(argv, tmp_path)
    assert cli.main(argv + ["--size-bound", str(size - 1)]) == 3
    assert "exceeds the size bound" in capsys.readouterr().err
    assert cli.main(argv + ["--size-bound", "0"]) == 2
    assert "bounds must be at least 1" in capsys.readouterr().err
    assert cli.main(argv + ["--size-bound", str(size)]) in (0, 1)


def test_cli_nerve_of_an_algebra_applies_the_size_bound(tmp_path):
    inp = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    assert cli.main(["nerve", "--input", inp, "--size-bound", "5"]) == 3
    assert cli.main(["nerve", "--input", inp, "--size-bound", "0"]) == 2


def test_cli_nerve_rejects_site_arguments_before_any_work(monkeypatch, capsys):
    inp = os.path.join(GOLDEN_INPUTS, "p1-f1.json")
    real = cli._space_from_input

    def no_work(*args):
        raise AssertionError("the input was built before the site was checked")

    monkeypatch.setattr(cli, "_space_from_input", no_work)
    for bad, message in ((["--site", "tiny"], "unknown site 'tiny'"),
                         (["--site-max", "0"], "--site-max must be at least 1"),
                         (["--site-max", "-2"], "--site-max must be at least 1")):
        assert cli.main(["nerve", "--input", inp] + bad) == 2
        assert message in capsys.readouterr().err
    monkeypatch.setattr(cli, "_space_from_input", real)
    assert cli.main(["nerve", "--input", inp, "--site-max", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["sheaf_condition"] == "PASS"


def _count_localization_searches(monkeypatch) -> list:
    """Record each call of the search over every localization class, which
    only the tests keep; src/ no longer has it."""
    import helpers

    calls = []
    real_search = helpers.enumerate_localizations

    def counting(*args, **kwargs):
        calls.append(args)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(helpers, "enumerate_localizations", counting)
    assert not hasattr(C, "enumerate_localizations")
    return calls


def _assert_rounds_is_a_usage_error(argv):
    """`--rounds`, which bounded the localization search, is an unknown
    option: one usage message, exit 2, no traceback."""
    proc = subprocess.run([sys.executable, "-m", "conespec.cli", *argv,
                           "--rounds", "2"],
                          env=subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("usage: conespec") == 1
    assert proc.stderr.endswith(
        "error: unrecognized arguments: --rounds 2\n")
    assert "Traceback" not in proc.stderr


def test_cli_flat_cover_applies_rounds(tmp_path, monkeypatch):
    """`flat-cover` checks the cover at each local form and pushes it along
    each by replaying its steps, so it runs no localization search and has
    no `--rounds` left to apply."""
    calls = _count_localization_searches(monkeypatch)
    name = "check-flat-cover-z6"
    assert run_case(CASES[name]) == read_expected(name)
    assert calls == []
    _assert_rounds_is_a_usage_error(resolve(CASES[name], str(tmp_path)))


def test_cli_rejects_maps_that_are_not_homs_exit_2(tmp_path):
    f = all_homs(Z6, corpus.zn(2))[0]
    too_long = hom_to_dict(f)
    too_long["map"].append(0)
    constant = {"source": "z6", "target": "z2", "map": [0] * 6}
    for name, doc in [("long.json", too_long), ("const.json", constant)]:
        hom = write(tmp_path, name, doc)
        assert cli.main(["check", "--property", "geometric-iso",
                         "--hom", hom]) == 2


def test_cli_rejects_65_element_nonassociative_table(tmp_path):
    labels, mul = large_nonassociative_monoid(65)
    inp = write(tmp_path, "na65.json", {"kind": "monoid", "elements": labels,
                                        "mul": mul, "one": 0})
    assert cli.main(["check", "--context", "deitmar", "--property",
                     "reduced", "--input", inp]) == 2


def test_cli_kind_mismatch_exit_2_without_traceback(tmp_path):
    inp = write(tmp_path, "e2.json", cio.algebra_to_dict(corpus.flag_monoid()))
    out = subprocess.run(
        [sys.executable, "-m", "conespec.cli", "spec", "--context", "zariski",
         "--input", inp, "--out-dir", str(tmp_path)],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


E2 = cio.algebra_to_dict(corpus.flag_monoid())

# every route by which an input algebra reaches a context: (context, argv
# after the subcommand with "{name}" for a file written from FILES)
WRONG_KIND = {
    "spec": ("deitmar", ["spec", "--input", "{z6}"]),
    "check-reduced": ("zariski", ["check", "--property", "reduced",
                                  "--input", "{e2}"]),
    "check-mono-reduced": ("domain", ["check", "--property", "mono-reduced",
                                      "--input", "{e2}"]),
    "check-fixed-point": ("deitmar", ["check", "--property", "fixed-point",
                                      "--input", "{z6}"]),
    "check-flat-cover": ("zariski", ["check", "--property", "flat-cover",
                                     "--input", "{e2}", "--cover", "{cover}"]),
    "check-geometric-iso": ("domain", ["check", "--property", "geometric-iso",
                                       "--hom", "{hom}"]),
    "glue-corpus-chart": ("zariski", ["glue", "--input", "{named}"]),
    "glue-inline-chart": ("deitmar", ["glue", "--input", "{inline}"]),
    "nerve-algebra": ("domain", ["nerve", "--input", "{e2}"]),
    "nerve-gluing": ("deitmar", ["nerve", "--input", "{inline}"]),
}
FILES = {
    "z6": cio.algebra_to_dict(Z6),
    "e2": E2,
    "cover": {"components": [{"steps": []}]},
    "hom": {"source": "e2", "target": E2, "map": [0, 1]},
    "named": {"charts": [{"algebra": "z6"}, {"algebra": "e2"}],
              "overlaps": []},
    "inline": {"charts": [{"algebra": cio.algebra_to_dict(Z6)}],
               "overlaps": []},
}


@pytest.mark.parametrize("route", sorted(WRONG_KIND))
def test_cli_checks_the_kind_of_every_input_once_after_the_size_bound(
        tmp_path, capsys, route):
    """An input algebra of the wrong kind is an input error with the one
    message of `accepts`, and past the size bound still a resource bound."""
    context, argv = WRONG_KIND[route]
    files = {name: write(tmp_path, f"{name}.json", doc)
             for name, doc in FILES.items()}
    argv = [a.format(**files) for a in argv] + ["--context", context]
    if argv[0] in ("spec", "glue"):
        argv += ["--out-dir", str(tmp_path / "out")]
    kind = "monoid" if context == "deitmar" else "ring"
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", f"input error: context {context} expects a {kind}\n")
    assert cli.main(argv + ["--size-bound", "1"]) == 3
    assert capsys.readouterr().err == ("resource bound: input algebra "
                                       "exceeds the size bound\n")
    assert not (tmp_path / "out").exists()


def e2_gluing(**overlap) -> dict:
    """Two e2 charts glued where e is invertible; `overlap` overrides fields."""
    steps = {}
    locs = enumerate_localizations(C.get_context("deitmar"),
                                   corpus.flag_monoid(), steps=steps)
    ko = next(steps[sig] for sig, k in locs.items() if k.target.size == 1)
    ov = {"i": 0, "j": 1, "k_i": path_to_dict(ko), "k_j": path_to_dict(ko)}
    ov.update(overlap)
    return {"context": "deitmar",
            "charts": [{"algebra": "e2"}, {"algebra": "e2"}], "overlaps": [ov]}


def test_cli_glue_rejects_overlap_index_out_of_range(tmp_path, capsys):
    for bad in ({"j": 5}, {"i": -1}, {"j": "1"}, {"i": True}):
        inp = write(tmp_path, "bad.json", e2_gluing(**bad))
        assert cli.main(["glue", "--input", inp, "--out-dir", str(tmp_path)]) == 2
        assert "overlap chart index" in capsys.readouterr().err


def test_cli_path_rejects_unknown_branch(tmp_path, capsys):
    step = {"datum": [1], "branch": "sideways"}
    inp = write(tmp_path, "bad.json", e2_gluing(k_j={"steps": [step]}))
    assert cli.main(["glue", "--input", inp, "--out-dir", str(tmp_path)]) == 2
    assert "unknown branch 'sideways'" in capsys.readouterr().err


def test_cli_path_rejects_datum_wrong_for_context(tmp_path, capsys):
    # deitmar data have one element index; e2 has two elements
    for datum in ([1, 0], [], [2], [0.0], "1"):
        step = {"datum": datum, "branch": "right"}
        inp = write(tmp_path, "bad.json", e2_gluing(k_i={"steps": [step]}))
        assert cli.main(["glue", "--input", inp,
                         "--out-dir", str(tmp_path)]) == 2
        assert "datum" in capsys.readouterr().err
    # zariski data are pairs (r, s) with r + s = 1
    z6 = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    cover = write(tmp_path, "cover.json", {"components": [
        {"steps": [{"datum": [2, 2], "branch": "left"}]}]})
    assert cli.main(["check", "--property", "flat-cover", "--input", z6,
                     "--cover", cover]) == 2


def test_cli_rejects_wrongly_shaped_gluing_documents(tmp_path, capsys):
    z6 = {"algebra": "z6"}
    for doc in ([1, 2], {"charts": 5, "overlaps": []},
                {"charts": [5], "overlaps": []}, {"charts": [], "overlaps": []},
                {"context": ["zariski"], "charts": [z6], "overlaps": []},
                {"context": {"name": "zariski"}, "charts": [z6], "overlaps": []}):
        inp = write(tmp_path, "bad.json", doc)
        for command in ("glue", "nerve"):
            assert cli.main([command, "--input", inp]) == 2
            assert capsys.readouterr().err.startswith("input error")


def test_cli_rejects_inconsistent_overlaps(tmp_path, capsys):
    whole = {"steps": []}
    e2xe2 = {"algebra": "e2xe2"}
    # Spec Z/6 has two points, the open where 3 is inverted only one
    one_point = {"context": "zariski", "charts": [{"algebra": "z6"}] * 2,
                 "overlaps": [{"i": 0, "j": 1, "k_i": whole, "k_j": {
                     "steps": [{"branch": "left", "datum": [3, 4]}]}}]}
    # gluing along the identity and along the swap identifies two points
    twice = {"context": "deitmar", "charts": [e2xe2, e2xe2],
             "overlaps": [{"i": 0, "j": 1, "k_i": whole, "k_j": whole},
                          {"i": 0, "j": 1, "k_i": whole, "k_j": whole,
                           "iso": {"map": [0, 2, 1, 3]}}]}
    for doc, message in ((one_point, "overlap spectra are not isomorphic"),
                         (twice, "overlap identifications collapse a chart")):
        inp = write(tmp_path, "bad.json", doc)
        for command in ("glue", "nerve"):
            assert cli.main([command, "--input", inp]) == 2
            assert capsys.readouterr().err == f"input error: {message}\n"


def test_cli_glue_overlap_iso(tmp_path, capsys):
    with open(GOLDEN_GLUING, encoding="utf-8") as fh:
        doc = json.load(fh)
    ov = doc["overlaps"][0]
    n = cio.path_from_dict(ZAR, Z6, ov["k_i"]).target.size
    for bad in (5, {"map": 7}, {"map": [0, "a"]}, {"map": [0] * n}):
        ov["iso"] = bad
        inp = write(tmp_path, "bad.json", doc)
        assert cli.main(["glue", "--input", inp, "--out-dir", str(tmp_path)]) == 2
        assert "overlap iso is not" in capsys.readouterr().err
    # the identity of the overlap algebra glues as the isomorphism search does
    runs = []
    for name in ("searched", "given"):
        if name == "given":
            ov["iso"] = {"map": list(range(n))}
        else:
            del ov["iso"]
        (tmp_path / name).mkdir()
        inp = write(tmp_path / name, "doubled-z6.json", doc)
        out = tmp_path / name / "out"
        assert cli.main(["glue", "--input", inp, "--out-dir", str(out)]) == 0
        runs.append((capsys.readouterr(),
                     sorted((f.name, f.read_bytes()) for f in out.iterdir())))
    assert runs[0] == runs[1]


def test_cli_flat_cover_rejects_components_that_are_not_a_list(tmp_path, capsys):
    z6 = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    cover = write(tmp_path, "cover.json", {"components": 5})
    assert cli.main(["check", "--property", "flat-cover", "--input", z6,
                     "--cover", cover]) == 2
    assert "field 'components' is not a list" in capsys.readouterr().err


def test_cli_names_a_missing_field_with_exit_2(tmp_path, capsys):
    def fails(argv, message):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    for key in ("i", "j", "k_i", "k_j"):
        doc = e2_gluing()
        del doc["overlaps"][0][key]
        inp = write(tmp_path, "bad.json", doc)
        for command in ("glue", "nerve"):
            fails([command, "--input", inp], f"overlap misses field {key!r}")
    for doc, message in (
            ({"charts": [{"name": "e2"}], "overlaps": []},
             "chart misses field 'algebra'"),
            ({"charts": [{"algebra": "e2"}]}, "gluing misses field 'overlaps'")):
        fails(["glue", "--input", write(tmp_path, "bad.json", doc)], message)
    z6 = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    cover = write(tmp_path, "cover.json", {"parts": []})
    fails(["check", "--property", "flat-cover", "--input", z6, "--cover",
           cover], "cover misses field 'components'")
    hom = write(tmp_path, "hom.json", {"source": "z6", "target": "z2"})
    fails(["check", "--property", "geometric-iso", "--hom", hom],
          "hom object misses field 'map'")
    for key in ("kind", "elements"):
        doc = cio.algebra_to_dict(Z6)
        del doc[key]
        fails(["check", "--property", "reduced", "--input",
               write(tmp_path, "bad.json", doc)],
              f"algebra misses field {key!r}")


def test_cli_reads_the_identity_only_from_one(tmp_path, capsys):
    """The schema names the identity `one`; a `unit` field is not read."""
    doc = cio.algebra_to_dict(Z6)
    doc["unit"] = doc.pop("one")
    bad = write(tmp_path, "bad.json", doc)
    assert cli.main(["check", "--property", "reduced", "--input", bad]) == 2
    assert "missing identity index" in capsys.readouterr().err


def test_cli_a_key_error_in_the_library_is_exit_4(tmp_path, capsys,
                                                   monkeypatch):
    """A KeyError is a fault of the program, not of its input."""
    def lookup(*args):
        return {}["missing"]

    monkeypatch.setattr(red, "reduced", lookup)
    inp = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    assert cli.main(["check", "--property", "reduced", "--input", inp]) == 4
    assert capsys.readouterr().err == "internal error: KeyError('missing')\n"


@pytest.mark.parametrize("name", ["nerve-deitmar-doubled-chain3",
                                  "glue-zariski-doubled-z12"])
def test_cli_builds_each_spec_once_per_command(monkeypatch, name):
    """`glue` and `nerve` own one workspace each: Spec of each algebra they
    read is built once, and the next command builds it again."""
    calls = []
    real = sp.build_spec

    def counting(ctx, R, *forms):
        calls.append((ctx.name, R))
        return real(ctx, R, *forms)

    monkeypatch.setattr(sp, "build_spec", counting)
    built = []
    for _ in range(2):
        calls.clear()
        assert run_case(CASES[name]) == read_expected(name)
        assert calls and len(set(calls)) == len(calls)
        built.append(list(calls))
    assert built[0] == built[1]


def test_cli_spec_rounds_runs_one_localization_search(tmp_path, monkeypatch):
    """`spec` builds Spec from the local forms and runs no localization
    search, so it has no `--rounds` to bound one."""
    calls = _count_localization_searches(monkeypatch)
    inp = write(tmp_path, "z12.json", cio.algebra_to_dict(corpus.zn(12)))
    argv = ["spec", "--input", inp, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == []
    _assert_rounds_is_a_usage_error(argv)


@pytest.mark.parametrize("prop", ["reduced", "mono-reduced"])
def test_cli_check_reducedness_builds_one_canonical_map(tmp_path, monkeypatch,
                                                        prop):
    """The verdict and the certificate read the same map R -> product of the
    local-form targets: its families are ranked once, and the product's
    tables are never built."""
    from conespec import tables

    calls = {"product": 0, "limit": 0, "product_indices": 0}
    for name in calls:
        def counting(*args, real=getattr(tables, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(tables, name, counting)
    inp = write(tmp_path, "z12.json", cio.algebra_to_dict(corpus.zn(12)))
    assert cli.main(["check", "--context", "domain", "--property", prop,
                     "--input", inp]) == 1
    assert calls == {"product": 0, "limit": 0, "product_indices": 1}


def test_cli_check_flat_cover_builds_the_input_cover_once(tmp_path,
                                                          monkeypatch):
    """Z/30 has three local forms, each checked against the same cover: the
    cover's local forms and its Čech H0 are computed once for all three."""
    forms, h0s = [], []
    real_forms = type(ZAR).local_forms
    real_h0 = hc.h0

    def counting_forms(self, A):
        forms.append(A.size)
        return real_forms(self, A)

    def counting_h0(c):
        h0s.append(c.base.size)
        return real_h0(c)

    monkeypatch.setattr(type(ZAR), "local_forms", counting_forms)
    monkeypatch.setattr(hc, "h0", counting_h0)
    # invert e or 1 - e, for the idempotents 15 and 16 of Z/30 = Z/2 x Z/15
    Z30 = corpus.zn(30)
    pos = {int(v): i for i, v in enumerate(Z30.elements)}
    cover = {"components": [{"steps": [{"datum": [pos[e], pos[31 - e]],
                                        "branch": "left"}]}
                            for e in (15, 16)]}
    inp = write(tmp_path, "z30.json", cio.algebra_to_dict(Z30))
    cov = write(tmp_path, "cover.json", cover)
    assert cli.main(["check", "--property", "flat-cover", "--input", inp,
                     "--cover", cov]) == 0
    assert forms.count(30) == 1
    # one H0 of the input cover, and one of its pushout along each form
    assert h0s.count(30) == 1 and len(h0s) == 4


@pytest.mark.parametrize("names, printed", [
    ("chain3,nil3", "points=6 opens=10 epsilon=iso"),
    ("chain3,chain3", "points=9 opens=20 epsilon=iso"),
])
def test_cli_spec_of_chain3_products(tmp_path, capsys, names, printed):
    # Spec of a product monoid is the product of the chart spaces: a 3-chain
    # times a 2- or 3-chain, whose opens are the up-sets of the grid
    M = corpus.monoid_product(*names.split(","))
    inp = write(tmp_path, "m.json", cio.algebra_to_dict(M))
    assert cli.main(["spec", "--context", "deitmar", "--input", inp,
                     "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == printed


def test_cli_unknown_corpus_name_exit_2(tmp_path, capsys):
    hom = write(tmp_path, "z7.json", {"source": "z7", "target": "z2",
                                      "map": [0] * 7})
    assert cli.main(["check", "--property", "geometric-iso", "--hom", hom]) == 2
    assert "unknown corpus algebra 'z7'" in capsys.readouterr().err


def test_cli_rejects_malformed_table_fields(tmp_path):
    good = cio.algebra_to_dict(Z6)
    for field, value in [("mul", 5), ("mul", [5]), ("add", "x"),
                         ("elements", 6), ("one", "1"), ("zero", [0]),
                         ("mul", [[True if v == 1 else v for v in row]
                                  for row in good["mul"]])]:
        inp = write(tmp_path, "bad.json", dict(good, **{field: value}))
        assert cli.main(["spec", "--input", inp,
                         "--out-dir", str(tmp_path)]) == 2, field


def test_cli_check_requires_the_files_its_property_reads(tmp_path, capsys):
    z6 = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    for argv in (["--property", "reduced"],
                 ["--property", "geometric-iso", "--input", z6],
                 ["--property", "flat-cover", "--input", z6]):
        assert cli.main(["check", *argv]) == 2
        assert "needs --" in capsys.readouterr().err


def test_cli_unexpected_error_exit_4_one_line(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(sp, "build_spec", boom)
    inp = write(tmp_path, "z6.json", cio.algebra_to_dict(Z6))
    assert cli.main(["spec", "--input", inp, "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "boom" in err


@pytest.mark.parametrize("name, site_max", [("p1-f1.json", 3),
                                            ("e2-three-charts.json", 4)])
def test_nerve_covers_with_an_identity_component_hold(name, site_max):
    """`nerve` skips the pointwise covers that have an identity component;
    the sheaf condition holds on every one of them."""
    doc = cio.load_object(os.path.join(GOLDEN_INPUTS, name))
    ctx = C.get_context(doc["context"])
    specs = sp.Specs(ctx)
    X = cli._space_from_input(specs, doc,
                              Namespace(size_bound=4096))
    skipped = 0
    for A in gl.default_site(ctx, site_max):
        locs = enumerate_localizations(ctx, A)
        comps = tuple(locs[p.kernel_sig()] for p in ctx.local_forms(A))
        if any(k.is_bijective for k in comps):
            skipped += 1
            cover = hc.Opcover(ctx, A, comps)
            assert gl.nerve_sheaf_condition(specs, X, cover, {})
    assert skipped > 0
