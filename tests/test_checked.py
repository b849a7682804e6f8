"""Checked mode: every theorem-backed construction re-verified as it is built.

The library does not re-check maps into limits, limits, subalgebras,
pushouts (each along a surjection), principal ideals, spectra, Spec maps or
the site action on nerves, since a theorem guarantees each of them.  Here
those constructors are wrapped, wherever they are bound, and every result is
checked the hard way: the full law checks on each algebra, `is_hom` on each
lifted map, cone leg, inclusion and pushout injection, `Ideal.is_valid` on
each principal ideal the domain context quotients by, `spec_checks` on each
`build_spec`, `validate_apmap` on each map of spaces that `enumerate_apmaps`
finds and on each `spec_map`, and `check_nerve_functorial` on each nerve
table.
"""

from __future__ import annotations

import sys

import pytest

from conespec import contexts as C
from conespec import corpus, glue as gl, hypercover as hc, reduction as red
from conespec import spectrum as sp, tables
from conespec.errors import InvariantViolation

from helpers import (check_nerve_functorial, corpus_by_context, glued_row,
                     validate_apmap)
from test_golden import CASES, read_expected, run_case


def laws(A):
    tables._check_laws(A.kind, A.elements, A.mul, A.add, A.zero, A.one)


def homs(*fs):
    for f in fs:
        assert tables.is_hom(f)


def ideal(I):
    assert I.is_valid()


def spec_checks(ctx, X):
    """The opens of Spec R form a topology, and each stalk is local and is
    its local form's target under R."""
    opens = set(X.opens)
    assert {frozenset(), X.total} <= opens
    assert all(U | V in opens and U & V in opens for U in opens for V in opens)
    for p, form in enumerate(X.forms):
        assert ctx.is_local(X.stalk(p))
        iso = X.stalk_iso[p]
        assert iso.is_bijective and tables.is_hom(iso)
        assert tables.compose(X.canonical[X.min_open(p)], iso) == form.composite


def apmaps(ms, args):
    ctx = args[0]
    for m in ms:
        validate_apmap(ctx, m)


# name -> (defining module, check of (result, call arguments))
CHECKS = {
    "lift": (tables, lambda r, args: homs(r)),
    "principal_ideal": (tables, lambda r, args: ideal(r)),
    "limit": (tables, lambda r, args: (laws(r[0]), homs(*r[1]))),
    "limit_from_families": (tables,
                            lambda r, args: (laws(r[0]), homs(*r[1]))),
    "subalgebra": (tables, lambda r, args: (laws(r[0]), homs(r[1]))),
    "pushout": (tables, lambda r, args: (laws(r[0]), homs(*r[1:]))),
    "build_spec": (sp, lambda r, args: spec_checks(args[0], r)),
    "enumerate_apmaps": (sp, apmaps),
    "spec_map": (sp, lambda r, args: validate_apmap(args[0], r)),
    "nerve": (gl, lambda r, args: check_nerve_functorial(args[0], r)),
}


@pytest.fixture
def checked(monkeypatch):
    """Wrap each constructor in CHECKS; returns how often each was checked."""
    fired = dict.fromkeys(CHECKS, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "conespec" or name.startswith("conespec.")]
    for name, (home, check) in CHECKS.items():
        real = getattr(home, name)

        def wrapper(*args, real=real, name=name, check=check, **kwargs):
            result = real(*args, **kwargs)
            check(result, args)
            fired[name] += 1
            return result

        # rebind the name in every module that imported it, its own included
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)
    # build every space afresh, so that each construction runs checked
    monkeypatch.setattr(sp, "_SPEC_CACHE", {})
    return fired


def test_theorem_backed_results_pass_the_full_checks(checked):
    for ctx, A in corpus_by_context():
        sp.build_spec(ctx, A)
        red.reduce(ctx, A, "mono")  # the image subalgebra of ell
        for cover in hc.enumerate_opcovers(ctx, A):
            hc.cech_h0(ctx, cover)
        for k in C.enumerate_localizations(ctx, A).values():
            if not k.composite.is_bijective:
                gl.glue(ctx, glued_row(ctx, A, k))
    # nerves of P^1 over F1 and of Z/6 doubled at the point (2)
    for name, A, size in (("deitmar", corpus.flag_monoid(), 1),
                          ("zariski", corpus.zn(6), 2)):
        ctx = C.get_context(name)
        k = next(k for k in C.enumerate_localizations(ctx, A).values()
                 if k.target.size == size)
        X = gl.glue(ctx, glued_row(ctx, A, k))
        gl.nerve(ctx, X, gl.default_site(ctx, 3))
    assert all(checked.values()), checked


@pytest.mark.parametrize("name", ["nerve-p1-f1", "glue-doubled-z6",
                                  "glue-deitmar-doubled-e2xe2"])
def test_checked_cli_runs_match_the_golden_outputs(checked, name):
    assert run_case(CASES[name]) == read_expected(name)
    fired = [n for n, count in checked.items() if count]
    assert {"spec_map", "limit_from_families", "lift"} <= set(fired)
    if name.startswith("nerve"):
        assert checked["nerve"] == 1 and checked["enumerate_apmaps"] > 0


def test_check_nerve_functorial_rejects_a_missing_map():
    ctx = C.get_context("deitmar")
    M = corpus.flag_monoid()
    k = next(k for k in C.enumerate_localizations(ctx, M).values()
             if k.target.size == 1)
    X = gl.glue(ctx, glued_row(ctx, M, k))
    # M twice: the identity hom carries the first value onto the second
    table = gl.nerve(ctx, X, (M, M))
    check_nerve_functorial(ctx, table)
    table.values[1] = table.values[1][1:]
    with pytest.raises(InvariantViolation, match="leaves the table"):
        check_nerve_functorial(ctx, table)


def test_validate_apmap_rejects_a_corrupted_stalk_map():
    ctx = C.get_context("deitmar")
    M = corpus.flag_monoid()
    m = sp.spec_map(ctx, tables.identity(M))
    validate_apmap(ctx, m)
    # the closed point's stalk is the total sections; sending e to the unit
    # is a hom, but not a local one
    total = m.target.total
    G, H = m.target.sections(total), m.source.sections(total)
    collapse = tables.Hom(G, H, (H.one,) * G.size)
    assert tables.is_hom(collapse) and collapse != m.section_maps[total]
    bad = sp.APMap(m.source, m.target, m.point_map,
                   {**m.section_maps, total: collapse})
    with pytest.raises(InvariantViolation, match="not admissible"):
        validate_apmap(ctx, bad)
