"""Gluing, affineness, nerves and the functor-of-points checks."""

from __future__ import annotations

import functools
import os
from argparse import Namespace

import pytest

from conespec import cli, contexts as C
from conespec import corpus, glue as gl, hypercover as hc, io as cio
from conespec import homs, spectrum as sp, tables
from conespec.errors import CocycleViolation, InvariantViolation
from conespec.homs import all_homs

import paper
from helpers import (corpus_by_context, distinguished_open,
                     enumerate_localizations, glued_row,
                     glued_sections_by_product, is_iso, isomorphic,
                     overlap_by_restriction)
from test_points import GOLDEN_INPUTS, golden_space

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

Z6 = corpus.zn(6)


def loc_by_size(ctx, A, n):
    return next(k for k in enumerate_localizations(ctx, A).values()
                if k.target.size == n)


@pytest.fixture(scope="module")
def f1_p1():
    M = corpus.flag_monoid()
    k = loc_by_size(DEI, M, 1)  # invert e: cuts out the open point
    return glue_two(DEI, M, k)


@pytest.fixture(scope="module")
def doubled_z6():
    return glue_two(ZAR, Z6, loc_by_size(ZAR, Z6, 2))


def glue_two(ctx, A, k):
    """Two copies of A glued along Pts k, in a workspace of their own."""
    specs = sp.Specs(ctx)
    ov = gl.make_overlap(specs, 0, 1, k, k)
    return gl.glue(specs, gl.GluingSpec((A, A), (ov,)))


# ----------------------------------------------------------------------- gluing


def test_f1_p1_shape(f1_p1):
    X = f1_p1
    assert X.n_points == 3
    # one open generic point; each closed point's smallest open is its chart
    assert sorted(len(X.mins[p]) for p in range(3)) == [1, 2, 2]
    assert len(X.opens) == 5
    gamma = X.sections[X.total]
    assert isomorphic(gamma, corpus.by_name("e2xe2"))


def test_f1_p1_not_affine(f1_p1):
    assert gl.is_affine(sp.Specs(DEI), f1_p1) is None
    # Spec of {1,e}^2 has 4 points
    assert DEI.point_count(f1_p1.sections[f1_p1.total]) == 4


def test_glue_along_total_gives_chart_back():
    M = corpus.flag_monoid()
    X = glue_two(DEI, M, loc_by_size(DEI, M, 2))
    Y = sp.build_spec(DEI, M)
    assert sp.spaces_isomorphic(X, Y) is not None


def test_is_affine_agrees_with_the_full_comparison(f1_p1, doubled_z6):
    M = corpus.flag_monoid()
    along_total = glue_two(DEI, M, loc_by_size(DEI, M, 2))
    domain_z6 = glue_two(DOM, Z6, loc_by_size(DOM, Z6, 3))
    verdicts = []
    for ctx, X in [(DEI, f1_p1), (ZAR, doubled_z6), (DEI, along_total),
                   (DOM, domain_z6)]:
        iso = gl.is_affine(sp.Specs(ctx), X)
        Y = sp.build_spec(ctx, X.sections[X.total])
        verdict = iso is not None
        assert verdict == (sp.spaces_isomorphic(Y, X) is not None)
        assert ctx.point_count(Y.base) == Y.n_points
        if verdict:
            assert is_iso(iso) and iso.target is X
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_doubled_e2xe2_has_seven_points_and_is_not_affine():
    # Spec of its global sections, e2^4, has 16 points: decided by the count
    M = corpus.by_name("e2xe2")
    X = glue_two(DEI, M, loc_by_size(DEI, M, 1))
    assert X.n_points == 7
    assert gl.is_affine(sp.Specs(DEI), X) is None
    assert DEI.point_count(X.sections[X.total]) == 16


def test_is_affine_counts_the_points_before_it_builds_a_local_form(
        monkeypatch):
    """Spec of the golden doubled e2xe2's global sections would have 16
    points against its 7, so `is_affine` builds no local form and no Spec."""
    specs, X = golden_space("doubled-e2xe2.json")
    calls = {"local_forms": 0, "build_spec": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(type(DEI), "local_forms",
                        counting("local_forms", type(DEI).local_forms))
    monkeypatch.setattr(sp, "build_spec", counting("build_spec", sp.build_spec))
    assert gl.is_affine(specs, X) is None
    assert calls == {"local_forms": 0, "build_spec": 0}
    assert (X.n_points, DEI.point_count(X.sections[X.total])) == (7, 16)


def test_doubled_z6_is_affine(doubled_z6):
    X = doubled_z6
    assert X.n_points == 3
    gamma = X.sections[X.total]
    assert isomorphic(gamma, corpus.ring_product(2, 3, 3))
    iso = gl.is_affine(sp.Specs(ZAR), X)
    assert iso is not None and is_iso(iso)


def test_glued_stalks_are_local(f1_p1, doubled_z6):
    for ctx, X in [(DEI, f1_p1), (ZAR, doubled_z6)]:
        for p in range(X.n_points):
            assert ctx.is_local(X.stalk(p))


def test_glue_rejects_a_glued_stalk_that_is_not_local(monkeypatch):
    k = loc_by_size(ZAR, Z6, 2)
    specs = sp.Specs(ZAR)
    g = gl.GluingSpec((Z6, Z6),
                      (gl.make_overlap(specs, 0, 1, k, k),))
    glued = []

    def recording(*args, real=sp.sheaf_from_stalks):
        glued.append(real(*args))
        return glued[-1]

    def is_local(self, A, real=type(ZAR).is_local):
        if any(A is S for F in glued for S in F.sections.values()):
            return False
        return real(self, A)

    monkeypatch.setattr(sp, "sheaf_from_stalks", recording)
    monkeypatch.setattr(type(ZAR), "is_local", is_local)
    with pytest.raises(InvariantViolation, match="glued stalk is not local"):
        gl.glue(specs, g)


def test_glue_collapsing_chart_raises():
    # a self-overlap along a point-swapping iso folds the chart onto itself
    A = corpus.ring_product(2, 2)
    X = sp.build_spec(ZAR, A)
    swapped = next(iso for iso in sp.iter_space_isos(X, X)
                   if iso.point_map != tuple(range(X.n_points)))
    ident = loc_by_size(ZAR, A, A.size)
    with pytest.raises(CocycleViolation):
        gl.glue(sp.Specs(ZAR), gl.GluingSpec((A,), (gl.Overlap(
            0, 0, dict(enumerate(swapped.point_map)),
            dict(enumerate(swapped.stalks))),)))


def _gluings():
    """Two copies of each corpus algebra glued along each localization that
    is not an iso, three e2 charts in a row, the named doublings (P^1 over
    F1, chain3 and Z/12, which the corpus rows include), and one gluing
    along a nontrivial automorphism of the overlap, each in a workspace of
    its context.  Each comes as a call that builds its overlaps with
    `glue.make_overlap`, whatever that name is bound to at the call."""
    specs = {ctx.name: sp.Specs(ctx) for ctx in (ZAR, DOM, DEI)}
    for ctx, A in corpus_by_context():
        for k in enumerate_localizations(ctx, A).values():
            if not k.is_bijective:
                yield specs[ctx.name], functools.partial(
                    glued_row, specs[ctx.name], A, k)
    dei, zar = specs["deitmar"], specs["zariski"]
    e2, chain3, z12 = corpus.flag_monoid(), corpus.chain_monoid(), corpus.zn(12)
    for specs_, A, k, n in ((dei, e2, loc_by_size(DEI, e2, 1), 2),
                            (dei, e2, loc_by_size(DEI, e2, 1), 3),
                            (dei, chain3, loc_by_size(DEI, chain3, 1), 2),
                            (zar, z12, loc_by_size(ZAR, z12, 3), 2)):
        yield specs_, functools.partial(glued_row, specs_, A, k, n)
    # C3 x e2 doubled where (1, e) is inverted, along the automorphism g -> g^2
    # of the overlap C3, so that the overlap's stalk isos move elements
    A, _ = tables.product("monoid", [corpus.cyclic_group_monoid(3), e2])
    k = loc_by_size(DEI, A, 3)
    swap = next(g for g in homs.iter_isomorphisms(k.target, k.target)
                if g != tables.identity(k.target))
    yield dei, lambda: gl.GluingSpec((A, A), (
        gl.make_overlap(dei, 0, 1, k, k, swap),))
    # C5 x e2 doubled where (1, e) is inverted, in a workspace whose open
    # embedding of Spec C5 moves the stalk by an automorphism of order 4:
    # the stalk isos of the Spec maps are otherwise identities, whose
    # inverses are themselves
    B, _ = tables.product("monoid", [corpus.cyclic_group_monoid(5), e2])
    k5 = loc_by_size(DEI, B, 5)
    moved = sp.Specs(DEI)
    turn = next(g for g in homs.iter_isomorphisms(k5.target, k5.target)
                if g.inverse() != g)
    moved.maps[k5] = sp.compose_apmaps(
        sp.spec_map(moved, turn), sp.spec_map(moved, k5))
    yield moved, functools.partial(glued_row, moved, B, k5)


def _golden_gluings():
    """The gluing of each golden input that has charts, each in a workspace
    of its context, as calls like those of `_gluings`."""
    for name in sorted(os.listdir(GOLDEN_INPUTS)):
        doc = cio.load_object(os.path.join(GOLDEN_INPUTS, name))
        if "charts" in doc:
            specs = sp.Specs(C.get_context(doc.get("context", "zariski")))
            yield specs, functools.partial(cli._load_gluing, specs, doc,
                                           Namespace(size_bound=4096))


def test_overlaps_match_the_route_through_open_subspaces(monkeypatch):
    """`make_overlap` reads the point bijection and the stalk isos off the
    Spec maps; the oracle corestricts each Spec K -> Spec R to the open
    subspace on Pts k, inverts it and composes.  Both give the same point
    map and equal stalk homs on every gluing above and on the golden ones."""
    real, compared = gl.make_overlap, []

    def comparing(*args):
        new, old = real(*args), overlap_by_restriction(*args)
        assert (new.i, new.j) == (old.i, old.j)
        assert new.point_map == old.point_map
        assert new.stalks == old.stalks
        compared.append(new)
        return new

    monkeypatch.setattr(gl, "make_overlap", comparing)
    for _, build in [*_gluings(), *_golden_gluings()]:
        build()
    assert len(compared) > 50
    # some overlaps carry stalk isos that move elements
    assert any(h.map != tuple(range(h.source.size))
               for ov in compared for h in ov.stalks.values())


def test_glued_sections_match_the_product_scan(monkeypatch):
    """The family search, keyed by restrictions to minimal opens and stalk
    isos, gives the stalks, cones, sections and restrictions that the
    product of the chart sections gives when it is filtered by the section
    maps of the overlap isos that `overlap_by_restriction` builds."""
    def glue_with(build_sections, build_overlap, specs, build):
        built = []

        def recording(*args):
            built.append(build_sections(*args))
            return built[-1]

        with monkeypatch.context() as m:
            m.setattr(gl, "make_overlap", build_overlap)
            m.setattr(gl, "_glued_sections", recording)
            return gl.glue(specs, build()), built

    opens = 0
    for specs, build in _gluings():
        X, new = glue_with(gl._glued_sections, gl.make_overlap, specs, build)
        Y, old = glue_with(glued_sections_by_product, overlap_by_restriction,
                           specs, build)
        assert len(new) == len(old) == X.n_points
        for (L, cone), (M, cone_m) in zip(new, old):
            assert L.elements == M.elements
            assert (L.mul, L.add) == (M.mul, M.add)
            assert (L.one, L.zero) == (M.one, M.zero)
            assert cone == cone_m
        assert X.opens == Y.opens
        assert all(X.sections[U] == Y.sections[U] for U in X.opens)
        assert all(X.res(U, V) == Y.res(U, V)
                   for U in X.opens for V in X.opens if V <= U)
        opens += len(X.opens)
    assert opens > 200


# ----------------------------------------------------------------------- nerves


def test_nerve_of_spec_z6_at_z2():
    site = (corpus.zn(2),)
    specs = sp.Specs(ZAR)
    table = gl.nerve(specs, specs[Z6], site)
    assert len(table[0]) == len(all_homs(Z6, corpus.zn(2))) == 1


def test_nerve_of_empty_space():
    specs = sp.Specs(ZAR)
    site = (corpus.zn(2), corpus.zn(6))
    table = gl.nerve(specs, specs[corpus.trivial_ring()], site)
    assert table == [[], []]


def test_nerve_matches_representable_on_site():
    zsite = tuple(A for A in gl.default_site(ZAR) if A.size <= 6)
    zar, dei = sp.Specs(ZAR), sp.Specs(DEI)
    for R in [corpus.zn(2), corpus.zn(4), Z6]:
        assert paper.nerve_matches_representable(zar, R, zsite)
    dsite = gl.default_site(DEI)
    for R in [corpus.flag_monoid(), corpus.chain_monoid()]:
        assert paper.nerve_matches_representable(dei, R, dsite)


def test_nerve_of_p1_larger_than_representable(f1_p1):
    M = corpus.flag_monoid()
    site = (M,)
    table = gl.nerve(sp.Specs(DEI), f1_p1, site)
    n_p1 = len(table[0])
    assert n_p1 == 3
    assert n_p1 > len(all_homs(M, M))  # bigger than yM's value at M


def test_nerve_sheaf_condition_on_covers(f1_p1):
    k2 = loc_by_size(ZAR, Z6, 2)
    k3 = loc_by_size(ZAR, Z6, 3)
    zar = sp.Specs(ZAR)
    X6 = zar[Z6]
    values = {}
    assert gl.nerve_sheaf_condition(zar, X6,
                                    hc.Opcover(ZAR, Z6, (k2, k3)), values)
    # N(X)(K) for the base and each component, each computed once
    assert set(values) == {Z6, k2.target, k3.target}
    assert values[Z6] == sp.enumerate_apmaps(ZAR, X6, X6)
    M = corpus.flag_monoid()
    comps = tuple(enumerate_localizations(DEI, M).values())
    assert gl.nerve_sheaf_condition(
        sp.Specs(DEI), f1_p1, hc.Opcover(DEI, M, comps), {})


# -------------------------------------------------------------- open subfunctor


def test_open_subfunctor_at_distinguished_open():
    site = (corpus.zn(2), corpus.zn(3), Z6)
    k2 = loc_by_size(ZAR, Z6, 2)
    specs = sp.Specs(ZAR)
    U = distinguished_open(specs[Z6].forms, k2)
    values = paper.open_subfunctor_values(specs, Z6, U, site)
    assert len(values[0]) == 1          # the projection Z6 -> Z2
    assert len(values[1]) == 0          # Z3's point misses U
    assert paper.open_subfunctor_is_representable(specs, Z6, k2, site)


def test_open_subfunctor_total_and_empty():
    site = (corpus.zn(2), Z6)
    specs = sp.Specs(ZAR)
    total = paper.open_subfunctor_values(specs, Z6, specs[Z6].total, site)
    assert [len(total[s]) for s in range(2)] == \
        [len(all_homs(Z6, S)) for S in site]
    empty = paper.open_subfunctor_values(specs, Z6, frozenset(), site)
    assert all(len(v) == 0 for v in empty.values())


# ------------------------------------------------- equivalence & communication


def test_scheme_equivalence_probe_affine():
    specs = sp.Specs(ZAR)
    X = specs[Z6]
    site = tuple(A for A in gl.default_site(ZAR) if A.size <= 6)
    rep = paper.Probe(specs, site)(X, X)
    assert rep["bijective"] and rep["n_homs"] == len(all_homs(Z6, Z6))


def test_scheme_equivalence_probe_p1(f1_p1):
    M = corpus.flag_monoid()
    site = tuple(A for A in gl.default_site(DEI) if A.size <= 3)
    specs = sp.Specs(DEI)
    rep = paper.Probe(specs, site)(f1_p1, specs[M])
    assert rep["bijective"]


def test_scheme_equivalence_probe_empty_source():
    specs = sp.Specs(ZAR)
    E, X = specs[corpus.trivial_ring()], specs[Z6]
    site = (corpus.zn(2), corpus.zn(3))
    rep = paper.Probe(specs, site)(E, X)
    assert rep["n_homs"] == 1 and rep["bijective"]


def test_affine_communication(f1_p1, doubled_z6):
    zar = sp.Specs(ZAR)
    assert paper.affine_communication_check(sp.Specs(DEI), f1_p1)
    assert paper.affine_communication_check(zar, doubled_z6)
    assert paper.affine_communication_check(zar, zar[Z6])
