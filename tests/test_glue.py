"""Gluing, affineness, nerves and the functor-of-points checks."""

from __future__ import annotations

import pytest

from conespec import contexts as C
from conespec import corpus, glue as gl, hypercover as hc, spectrum as sp, tables
from conespec.errors import CocycleViolation, InvariantViolation
from conespec.tables import all_homs, isomorphic

from helpers import corpus_by_context, glued_row, glued_sections_by_product

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

Z6 = corpus.zn(6)


def loc_by_size(ctx, A, n):
    return next(k for k in C.enumerate_localizations(ctx, A).values()
                if k.target.size == n)


@pytest.fixture(scope="module")
def f1_p1():
    M = corpus.flag_monoid()
    k = loc_by_size(DEI, M, 1)  # invert e: cuts out the open point
    ov = gl.make_overlap(DEI, (M, M), 0, 1, k, k)
    return gl.glue(DEI, gl.GluingSpec("deitmar", (M, M), (ov,)))


@pytest.fixture(scope="module")
def doubled_z6():
    k = loc_by_size(ZAR, Z6, 2)
    ov = gl.make_overlap(ZAR, (Z6, Z6), 0, 1, k, k)
    return gl.glue(ZAR, gl.GluingSpec("zariski", (Z6, Z6), (ov,)))


# ----------------------------------------------------------------------- gluing


def test_f1_p1_shape(f1_p1):
    X = f1_p1
    assert X.n_points == 3
    # one open generic point; each closed point's smallest open is its chart
    assert sorted(len(X.min_open(p)) for p in range(3)) == [1, 2, 2]
    assert len(X.opens) == 5
    gamma = X.sections(X.total)
    assert isomorphic(gamma, corpus.by_name("e2xe2"))


def test_f1_p1_not_affine(f1_p1):
    verdict, witness = gl.is_affine(DEI, f1_p1)
    assert not verdict
    assert witness["points"] == (3, 4)  # Spec of {1,e}^2 has 4 points


def test_glue_along_total_gives_chart_back():
    M = corpus.flag_monoid()
    ident = loc_by_size(DEI, M, 2)
    ov = gl.make_overlap(DEI, (M, M), 0, 1, ident, ident)
    X = gl.glue(DEI, gl.GluingSpec("deitmar", (M, M), (ov,)))
    Y = sp.build_spec(DEI, M)
    assert sp.spaces_isomorphic(X, Y) is not None


def test_is_affine_agrees_with_the_full_comparison(f1_p1, doubled_z6):
    M = corpus.flag_monoid()
    ident = loc_by_size(DEI, M, 2)
    along_total = gl.glue(DEI, gl.GluingSpec("deitmar", (M, M), (
        gl.make_overlap(DEI, (M, M), 0, 1, ident, ident),)))
    k = loc_by_size(DOM, Z6, 3)
    domain_z6 = gl.glue(DOM, gl.GluingSpec("domain", (Z6, Z6), (
        gl.make_overlap(DOM, (Z6, Z6), 0, 1, k, k),)))
    verdicts = []
    for ctx, X in [(DEI, f1_p1), (ZAR, doubled_z6), (DEI, along_total),
                   (DOM, domain_z6)]:
        verdict, witness = gl.is_affine(ctx, X)
        Y = sp.build_spec(ctx, X.sections(X.total))
        assert verdict == (sp.spaces_isomorphic(Y, X) is not None)
        if not verdict:
            assert witness == {
                "points": (X.n_points, Y.n_points),
                "stalks": (sorted(X.stalk(p).size for p in range(X.n_points)),
                           sorted(Y.stalk(p).size for p in range(Y.n_points))),
            }
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_doubled_e2xe2_has_seven_points_and_is_not_affine():
    # Spec of its global sections, e2^4, has 16 points: decided by the count
    M = corpus.by_name("e2xe2")
    k = loc_by_size(DEI, M, 1)
    X = gl.glue(DEI, gl.GluingSpec("deitmar", (M, M), (
        gl.make_overlap(DEI, (M, M), 0, 1, k, k),)))
    assert X.n_points == 7
    verdict, witness = gl.is_affine(DEI, X)
    assert not verdict
    assert witness["points"] == (7, 16)


def test_doubled_z6_is_affine(doubled_z6):
    X = doubled_z6
    assert X.n_points == 3
    gamma = X.sections(X.total)
    assert isomorphic(gamma, corpus.ring_product(2, 3, 3))
    verdict, witness = gl.is_affine(ZAR, X)
    assert verdict and witness.is_iso


def test_glued_stalks_are_local(f1_p1, doubled_z6):
    for ctx, X in [(DEI, f1_p1), (ZAR, doubled_z6)]:
        for p in range(X.n_points):
            assert ctx.is_local(X.stalk(p))


def test_glue_rejects_a_glued_stalk_that_is_not_local(monkeypatch):
    k = loc_by_size(ZAR, Z6, 2)
    g = gl.GluingSpec("zariski", (Z6, Z6),
                      (gl.make_overlap(ZAR, (Z6, Z6), 0, 1, k, k),))
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
        gl.glue(ZAR, g)


def test_glue_collapsing_chart_raises():
    # a self-overlap along a point-swapping iso folds the chart onto itself
    A = corpus.ring_product(2, 2)
    X = sp.build_spec(ZAR, A)
    swapped = next(iso for iso in sp.iter_space_isos(X, X)
                   if iso.point_map != tuple(range(X.n_points)))
    ident = loc_by_size(ZAR, A, A.size)
    with pytest.raises(CocycleViolation):
        gl.glue(ZAR, gl.GluingSpec("zariski", (A,), (gl.Overlap(
            0, 0, ident, ident, swapped),)))


def _gluings():
    """Two copies of each corpus algebra glued along each localization that
    is not an iso, three e2 charts in a row, the named doublings (P^1 over
    F1, chain3 and Z/12, which the corpus rows include), and one gluing
    along a nontrivial automorphism of the overlap."""
    for ctx, A in corpus_by_context():
        for k in C.enumerate_localizations(ctx, A).values():
            if not k.composite.is_bijective:
                yield ctx, glued_row(ctx, A, k)
    e2, chain3, z12 = corpus.flag_monoid(), corpus.chain_monoid(), corpus.zn(12)
    yield DEI, glued_row(DEI, e2, loc_by_size(DEI, e2, 1))
    yield DEI, glued_row(DEI, e2, loc_by_size(DEI, e2, 1), 3)
    yield DEI, glued_row(DEI, chain3, loc_by_size(DEI, chain3, 1))
    yield ZAR, glued_row(ZAR, z12, loc_by_size(ZAR, z12, 3))
    # C3 x e2 doubled where (1, e) is inverted, along the automorphism g -> g^2
    # of the overlap C3, so that the overlap's section maps move elements
    A, _ = tables.product("monoid", [corpus.cyclic_group_monoid(3), e2])
    k = loc_by_size(DEI, A, 3)
    swap = next(g for g in tables.iter_isomorphisms(k.target, k.target)
                if g != tables.identity(k.target))
    yield DEI, gl.GluingSpec("deitmar", (A, A), (
        gl.make_overlap(DEI, (A, A), 0, 1, k, k, swap),))


def test_glued_sections_match_the_product_scan(monkeypatch):
    """The family search gives the stalks, cones, sections and restrictions
    that the product of the chart sections filtered by the overlaps gives."""
    real = gl._glued_sections

    def glue_with(build, ctx, g):
        built = []

        def recording(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(gl, "_glued_sections", recording)
        return gl.glue(ctx, g), built

    opens = 0
    for ctx, g in _gluings():
        X, new = glue_with(real, ctx, g)
        Y, old = glue_with(glued_sections_by_product, ctx, g)
        assert len(new) == len(old) == X.n_points
        for (L, cone), (M, cone_m) in zip(new, old):
            assert L.elements == M.elements
            assert (L.mul, L.add) == (M.mul, M.add)
            assert (L.one, L.zero) == (M.one, M.zero)
            assert cone == cone_m
        assert X.opens == Y.opens
        assert X.sheaf.sections == Y.sheaf.sections
        assert all(X.sheaf.res(U, V) == Y.sheaf.res(U, V)
                   for U in X.opens for V in X.opens if V <= U)
        opens += len(X.opens)
    assert opens > 200


# ----------------------------------------------------------------------- nerves


def test_nerve_of_spec_z6_at_z2():
    site = (corpus.zn(2),)
    table = gl.nerve(ZAR, sp.build_spec(ZAR, Z6), site)
    assert len(table.values[0]) == len(all_homs(Z6, corpus.zn(2))) == 1


def test_nerve_of_empty_space():
    X = sp.build_spec(ZAR, corpus.trivial_ring())
    site = (corpus.zn(2), corpus.zn(6))
    table = gl.nerve(ZAR, X, site)
    assert all(len(v) == 0 for v in table.values.values())


def test_nerve_matches_representable_on_site():
    zsite = tuple(A for A in gl.default_site(ZAR) if A.size <= 6)
    for R in [corpus.zn(2), corpus.zn(4), Z6]:
        assert gl.nerve_matches_representable(ZAR, R, zsite)
    dsite = gl.default_site(DEI)
    for R in [corpus.flag_monoid(), corpus.chain_monoid()]:
        assert gl.nerve_matches_representable(DEI, R, dsite)


def test_nerve_of_p1_larger_than_representable(f1_p1):
    M = corpus.flag_monoid()
    site = (M,)
    table = gl.nerve(DEI, f1_p1, site)
    n_p1 = len(table.values[0])
    assert n_p1 == 3
    assert n_p1 > len(all_homs(M, M))  # bigger than yM's value at M


def test_nerve_sheaf_condition_on_covers(f1_p1):
    k2 = loc_by_size(ZAR, Z6, 2)
    k3 = loc_by_size(ZAR, Z6, 3)
    X6 = sp.build_spec(ZAR, Z6)
    values = {}
    assert gl.nerve_sheaf_condition(ZAR, X6,
                                    hc.Opcover("zariski", Z6, (k2, k3)), values)
    # N(X)(K) for the base and each component, each computed once
    assert set(values) == {Z6, k2.target, k3.target}
    assert values[Z6] == sp.enumerate_apmaps(ZAR, X6, X6)
    M = corpus.flag_monoid()
    comps = tuple(C.enumerate_localizations(DEI, M).values())
    assert gl.nerve_sheaf_condition(
        DEI, f1_p1, hc.Opcover("deitmar", M, comps), {})


# -------------------------------------------------------------- open subfunctor


def test_open_subfunctor_at_distinguished_open():
    site = (corpus.zn(2), corpus.zn(3), Z6)
    k2 = loc_by_size(ZAR, Z6, 2)
    U = sp.distinguished_open(ZAR, Z6, k2, None)
    values = gl.open_subfunctor_values(ZAR, Z6, U, site)
    assert len(values[0]) == 1          # the projection Z6 -> Z2
    assert len(values[1]) == 0          # Z3's point misses U
    assert gl.open_subfunctor_is_representable(ZAR, Z6, k2, site)


def test_open_subfunctor_total_and_empty():
    site = (corpus.zn(2), Z6)
    X = sp.build_spec(ZAR, Z6)
    total = gl.open_subfunctor_values(ZAR, Z6, X.total, site)
    assert [len(total[s]) for s in range(2)] == \
        [len(all_homs(Z6, S)) for S in site]
    empty = gl.open_subfunctor_values(ZAR, Z6, frozenset(), site)
    assert all(len(v) == 0 for v in empty.values())


# ------------------------------------------------- equivalence & communication


def test_scheme_equivalence_probe_affine():
    X = sp.build_spec(ZAR, Z6)
    site = tuple(A for A in gl.default_site(ZAR) if A.size <= 6)
    rep = gl.scheme_equivalence_probe(ZAR, X, X, site)
    assert rep["bijective"] and rep["n_homs"] == len(all_homs(Z6, Z6))


def test_scheme_equivalence_probe_p1(f1_p1):
    M = corpus.flag_monoid()
    site = tuple(A for A in gl.default_site(DEI) if A.size <= 3)
    rep = gl.scheme_equivalence_probe(DEI, f1_p1, sp.build_spec(DEI, M), site)
    assert rep["bijective"]


def test_scheme_equivalence_probe_empty_source():
    E = sp.build_spec(ZAR, corpus.trivial_ring())
    X = sp.build_spec(ZAR, Z6)
    site = (corpus.zn(2), corpus.zn(3))
    rep = gl.scheme_equivalence_probe(ZAR, E, X, site)
    assert rep["n_homs"] == 1 and rep["bijective"]


def test_affine_communication(f1_p1, doubled_z6):
    assert gl.affine_communication_check(DEI, f1_p1)
    assert gl.affine_communication_check(ZAR, doubled_z6)
    assert gl.affine_communication_check(ZAR, sp.build_spec(ZAR, Z6))
