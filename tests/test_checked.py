"""Checked mode: every theorem-backed construction re-verified as it is built.

The library does not re-check maps into limits, limits, pushouts (each
along a surjection), principal ideals, local forms, factorizations, spectra,
Spec maps, overlaps or the site action on nerves, since a theorem
guarantees each of them, and it checks quotients, congruence closures and
homs on generators only.  Here those constructors are wrapped, wherever
they are bound, and every result is checked the hard way: the full law
checks on each algebra, `helpers.is_hom_on_all_pairs` on each lifted map,
cone leg and pushout injection, each `quotient_by_sig` against
`helpers.quotient_by_rows` and each `congruence_closure` against
`helpers.congruence_closure_on_all_columns`, each `agreeing_families` join
against `helpers.agreeing_families_by_product_scan` when the product has at
most 10^4 families, `helpers.is_valid_ideal` on each principal ideal the
domain context attaches along and each ideal it partitions into cosets (the
prime of each domain local form among them), on each context's
`local_forms` that every form's target is local and, in deitmar, that the
forms are one per face with distinct kernels, on each
`factorize` that its residual factor is admissible and the two factors
compose to the map, `spec_checks` on each `build_spec`, `validate_apmap` on
each map of spaces that `enumerate_apmaps` finds and on each
`compose_apmaps`, on each `spec_map` that each point's localization part is
exactly one of the local forms itself, and `validate_apmap`,
on each `make_overlap` that the Spec maps of both localizations are
injective on points, and its point map and stalk isos against
`helpers.overlap_by_restriction`, `check_nerve_functorial` on each nerve
table, and on each cover that `pushout_opcover` pushes out, that each
component is a surjective hom closing the pushout square.  A map of spaces
holds its stalk maps, and validating it lifts its section maps, each lift
checked.
"""

from __future__ import annotations

import math
import sys

import pytest

from conespec import contexts as C
from conespec import corpus, glue as gl, hypercover as hc
from conespec import spectrum as sp, tables
from conespec.errors import InvariantViolation

import paper
from helpers import (agreeing_families_by_product_scan,
                     check_nerve_functorial,
                     congruence_closure_on_all_columns, corpus_by_context,
                     enumerate_localizations, glued_row, is_hom_on_all_pairs,
                     is_valid_ideal, overlap_by_restriction, quotient_by_rows,
                     validate_apmap)
from test_golden import CASES, read_expected, run_case


def laws(A):
    tables._check_laws(A.kind, A.elements, A.mul, A.add, A.zero, A.one)


def homs(*fs):
    for f in fs:
        assert is_hom_on_all_pairs(f)


def ideal(I):
    assert is_valid_ideal(I)


def spec_checks(ctx, X):
    """The opens of Spec R form a topology, and each stalk is local and is
    its local form's target under R."""
    opens = set(X.opens)
    assert {frozenset(), X.total} <= opens
    assert all(U | V in opens and U & V in opens for U in opens for V in opens)
    for p, form in enumerate(X.forms):
        assert ctx.is_local(X.stalk(p))
        iso = X.stalk_iso[p]
        assert iso.is_bijective and is_hom_on_all_pairs(iso)
        assert tables.compose(X.canonical[X.mins[p]], iso) == form


def quotient(r, args):
    """The quotient that checking the congruence on every row gives."""
    assert r == quotient_by_rows(*args)
    laws(r[0])
    homs(r[1])


def closure(r, args):
    """The closure that sweeping every column of each table gives."""
    assert r == congruence_closure_on_all_columns(*args)


def pushed_components(cover, args):
    """Each component pushed out along f is a surjective hom out of f's
    target that closes the pushout square of the original and f."""
    c, f = args
    assert cover.base == f.target
    assert len(cover.components) == len(c.components)
    for k, pushed in zip(c.components, cover.components):
        assert pushed.source == f.target and pushed.is_surjective
        homs(pushed)
        _, in_k, _ = tables.pushout(k, f)
        assert tables.compose(k, in_k) == tables.compose(f, pushed), \
            "pushed component does not close the pushout square"


def forms_checks(forms, args):
    """Each local form's target is local; in deitmar the forms are one per
    face, the complement of a prime ideal, and distinct faces give distinct
    kernels."""
    ctx, A = args
    assert all(ctx.is_local(p.target) for p in forms)
    if ctx.name == "deitmar":
        assert len(forms) == len(ctx.faces(A))
        assert len({p.kernel_sig() for p in forms}) == len(forms)


def factorization(r, args):
    """The residual factor is admissible, and after the localization it is
    f."""
    ctx, f = args
    loc, g = r
    assert ctx.is_admissible(g)
    assert tables.compose(loc, g) == f


def apmaps(ms, args):
    ctx = args[0]
    for m in ms:
        validate_apmap(ctx, m)


def apmap(m, args):
    """A map built from other maps, validated in the context of its spaces."""
    validate_apmap(C.get_context(m.source.ctx_name), m)


def families(r, args):
    """The families that scanning the product gives, when it is small."""
    sizes, meets = args
    if math.prod(sizes) <= 10**4:
        assert r == agreeing_families_by_product_scan(sizes, meets)


def spec_map_checks(m, args):
    """At each point, the localization part of the factorization is exactly
    one of the local forms itself, with no identifying iso; the map is then
    validated as a map of spaces."""
    specs, f = args
    Y, X = specs[f.source], specs[f.target]
    for q in X.forms:
        loc, _ = C.factorize(specs.ctx, tables.compose(f, q))
        assert Y.forms.count(loc) == 1, \
            "localization part is not exactly one local form"
    validate_apmap(specs.ctx, m)


def overlap(ov, args):
    """The overlap that the route through open subspaces gives, between
    charts whose localizations' Spec maps are injective on points."""
    specs, _, _, k_i, k_j = args[:5]
    for k in (k_i, k_j):
        pm = sp.spec_map(specs, k).point_map
        assert len(set(pm)) == len(pm), "localization is not an open embedding"
    old = overlap_by_restriction(*args)
    assert (ov.i, ov.j, ov.point_map) == (old.i, old.j, old.point_map)
    assert ov.stalks == old.stalks


CONTEXT_CLASSES = tuple(type(C.get_context(name))
                        for name in ("zariski", "domain", "deitmar"))

# name -> (defining module, or the classes whose method it is, check of
# (result, call arguments))
CHECKS = {
    "lift": (tables, lambda r, args: homs(r)),
    "principal_ideal": (tables, lambda r, args: ideal(r)),
    "ideal_sig": (tables, lambda r, args: ideal(args[0])),
    "limit": (tables, lambda r, args: (laws(r[0]), homs(*r[1]))),
    "agreeing_families": (tables, families),
    "limit_from_families": (tables,
                            lambda r, args: (laws(r[0]), homs(*r[1]))),
    "pushout": (tables, lambda r, args: (laws(r[0]), homs(*r[1:]))),
    "quotient_by_sig": (tables, quotient),
    "congruence_closure": (tables, closure),
    "pushout_opcover": (hc, pushed_components),
    "local_forms": (CONTEXT_CLASSES, forms_checks),
    "factorize": (C, factorization),
    "build_spec": (sp, lambda r, args: spec_checks(args[0], r)),
    "enumerate_apmaps": (sp, apmaps),
    "spec_map": (sp, spec_map_checks),
    "compose_apmaps": (sp, apmap),
    "make_overlap": (gl, overlap),
    "nerve": (gl, lambda r, args: check_nerve_functorial(args[0], args[2], r)),
}


@pytest.fixture
def checked(monkeypatch):
    """Wrap each constructor in CHECKS; returns how often each was checked."""
    fired = dict.fromkeys(CHECKS, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "conespec" or name.startswith("conespec.")]
    for name, (home, check) in CHECKS.items():
        for owner in home if isinstance(home, tuple) else (home,):
            real = getattr(owner, name)

            def wrapper(*args, real=real, name=name, check=check, **kwargs):
                result = real(*args, **kwargs)
                check(result, args)
                fired[name] += 1
                return result

            if isinstance(owner, type):
                # a method: its arguments start with the instance
                monkeypatch.setattr(owner, name, wrapper)
                continue
            # rebind the name in every module that imported it, its own
            # included
            for mod in modules:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, wrapper)
    return fired


def test_theorem_backed_results_pass_the_full_checks(checked):
    for ctx, A in corpus_by_context():
        specs = sp.Specs(ctx)
        specs[A]    # built checked, whether or not A is glued below
        paper.mono_reduce(ctx, A)  # ell's image, from its families
        for cover in paper.enumerate_opcovers(ctx, A):
            cover.cech_h0    # built checked
            for p in ctx.local_forms(A):
                hc.pushout_opcover(cover, p)
        for k in enumerate_localizations(ctx, A).values():
            if not k.is_bijective:
                gl.glue(specs, glued_row(specs, A, k))
    # nerves of P^1 over F1 and of Z/6 doubled at the point (2)
    for name, A, size in (("deitmar", corpus.flag_monoid(), 1),
                          ("zariski", corpus.zn(6), 2)):
        ctx = C.get_context(name)
        k = next(k for k in enumerate_localizations(ctx, A).values()
                 if k.target.size == size)
        specs = sp.Specs(ctx)
        X = gl.glue(specs, glued_row(specs, A, k))
        gl.nerve(specs, X, gl.default_site(ctx, 3))
    assert all(checked.values()), checked


@pytest.mark.parametrize("name", ["nerve-p1-f1", "glue-doubled-z6",
                                  "glue-deitmar-doubled-e2xe2",
                                  "glue-deitmar-twisted-c3xe2"])
def test_checked_cli_runs_match_the_golden_outputs(checked, name):
    assert run_case(CASES[name]) == read_expected(name)
    fired = [n for n, count in checked.items() if count]
    assert {"spec_map", "make_overlap", "limit_from_families",
            "lift"} <= set(fired)
    if name.startswith("nerve"):
        assert checked["nerve"] == 1 and checked["enumerate_apmaps"] > 0


@pytest.mark.parametrize("name, n_forms", [
    ("check-flat-cover-z6", 2), ("check-flat-cover-zariski-multistep", 3)])
def test_checked_flat_cover_runs_match_the_golden_outputs(checked, name,
                                                          n_forms):
    assert run_case(CASES[name]) == read_expected(name)
    assert checked["pushout_opcover"] == n_forms


def test_check_nerve_functorial_rejects_a_missing_map():
    ctx = C.get_context("deitmar")
    M = corpus.flag_monoid()
    k = next(k for k in enumerate_localizations(ctx, M).values()
             if k.target.size == 1)
    specs = sp.Specs(ctx)
    X = gl.glue(specs, glued_row(specs, M, k))
    # M twice: the identity hom carries the first value onto the second
    table = gl.nerve(specs, X, (M, M))
    check_nerve_functorial(specs, (M, M), table)
    table[1] = table[1][1:]
    with pytest.raises(InvariantViolation, match="leaves the table"):
        check_nerve_functorial(specs, (M, M), table)


def test_validate_apmap_rejects_a_corrupted_stalk_map():
    ctx = C.get_context("deitmar")
    M = corpus.flag_monoid()
    m = sp.spec_map(sp.Specs(ctx), tables.identity(M))
    validate_apmap(ctx, m)
    # the closed point's stalk is the total sections; sending e to the unit
    # is a hom, but not a local one
    i = next(i for i in range(m.source.n_points)
             if m.source.mins[i] == m.source.total)
    G, H = m.stalks[i].source, m.stalks[i].target
    collapse = tables.Hom(G, H, (H.one,) * G.size)
    assert tables.is_hom(collapse) and collapse != m.stalks[i]
    bad = sp.APMap(m.source, m.target, m.point_map,
                   m.stalks[:i] + (collapse,) + m.stalks[i + 1:])
    with pytest.raises(InvariantViolation, match="not admissible"):
        validate_apmap(ctx, bad)
