"""End-to-end acceptance: nine criteria, one test (one pass/fail line) each."""

from __future__ import annotations

import itertools
import random

from conespec import contexts as C
from conespec import corpus, glue as gl, hypercover as hc, io as cio, \
    reduction as red, spectrum as sp, tables
from conespec.homs import all_homs
from conespec.tables import compose

import paper
from helpers import (ShuffledContext, canonical_presheaf, distinguished_open,
                     enumerate_localizations, factorize_by_quotient, isomorphic,
                     random_presheaf, satisfies_sheaf_condition, sheafify,
                     saturate_bounded)

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

Z2, Z3, Z6, Z12 = (corpus.zn(n) for n in (2, 3, 6, 12))


def hom_pool():
    rings = [Z2, Z3, corpus.zn(4), Z6, corpus.zn(8), corpus.zn(9), Z12,
             corpus.f2x2(), corpus.ring_product(2, 2),
             corpus.ring_product(2, 4), corpus.f4()]
    monoids = [corpus.by_name(n) for n in
               ["trivial-monoid", "e2", "c2", "c3", "chain3", "nil3", "e2xe2"]]
    pool = []
    for ctx, algebras in [(ZAR, rings), (DOM, rings), (DEI, monoids)]:
        for A in algebras:
            for B in algebras:
                for f in all_homs(A, B):
                    pool.append((ctx, f))
    return pool


def test_criterion_1_spec_z6_and_z12():
    X = sp.build_spec(ZAR, Z6)
    assert X.n_points == 2 and len(X.opens) == 4
    assert sorted(X.stalk(i).size for i in range(2)) == [2, 3]
    assert isomorphic(X.stalk(0), Z2) or isomorphic(X.stalk(0), Z3)
    assert isomorphic(X.sections[X.total], Z6)
    assert X.canonical[X.total].is_bijective
    Y = sp.build_spec(ZAR, Z12)
    assert Y.n_points == 2
    assert sorted(Y.stalk(i).size for i in range(2)) == [3, 4]
    stalks = [Y.stalk(i) for i in range(2)]
    assert any(isomorphic(s, corpus.zn(4)) for s in stalks)
    assert any(isomorphic(s, Z3) for s in stalks)
    assert Y.canonical[Y.total].is_bijective
    print("criterion 1 PASS: Spec Z/6 and Z/12 zariski facts")


def test_criterion_2_sierpinski():
    M = corpus.flag_monoid()
    X = sp.build_spec(DEI, M)
    assert X.n_points == 2 and len(X.opens) == 3
    # points against prime ideals: complements of the faces {1} and {1,e}
    faces = DEI.faces(M)
    primes = [frozenset(range(M.size)) - F for F in faces]
    assert sorted(len(p) for p in primes) == [0, 1]
    open_pt = next(p for p in range(2) if len(X.mins[p]) == 1)
    assert X.stalk(open_pt).size == 1
    assert X.specialization_order() == [(1 - open_pt, open_pt)] or \
        X.specialization_order() == [(1, 0)]
    print("criterion 2 PASS: Spec {1,e} is the Sierpinski space")


def test_criterion_3_fix_red_gap():
    F = corpus.f2x2()
    unit, _ = red.reduce_admissible(DOM, F)
    assert isomorphic(unit.target, Z2)
    assert not paper.is_reduced(DOM, F)
    assert not paper.is_fixed_point(DOM, F)
    assert paper.is_geometric_iso(DOM, unit)
    print("criterion 3 PASS: domain F2[x]/(x^2) exhibits fix != red")


def test_criterion_4_geometric_iso_oracle_equivalence():
    pool = hom_pool()
    assert len(pool) >= 200, len(pool)
    disagreements = 0
    for ctx, f in pool:
        if paper.is_geometric_iso(ctx, f) != paper.is_spec_iso(ctx, f):
            disagreements += 1
    assert disagreements == 0
    print(f"criterion 4 PASS: geometric-iso oracle equivalence on "
          f"{len(pool)} homs")


def test_criterion_5_factorization_system():
    pool = hom_pool()
    assert len(pool) >= 200
    for ctx, f in pool:
        loc, g = C.factorize(ctx, f)
        # unique: attaching cells in any order gives the same factorization
        for seed in (23, 24, 25):
            assert factorize_by_quotient(ShuffledContext(ctx, seed), f) \
                == (loc, g)
        assert compose(loc, g) == f
        assert ctx.is_admissible(g)
        if ctx.is_admissible(loc):
            assert loc.is_bijective
    # cancellation on composable pairs sampled from the pool
    checked = 0
    by_ctx = {}
    for ctx, f in pool:
        by_ctx.setdefault(ctx.name, []).append((ctx, f))
    for name, homs in by_ctx.items():
        for (ctx, f), (_, g) in itertools.islice(
            ((a, b) for a in homs for b in homs
             if a[1].target == b[1].source), 400,
        ):
            if ctx.is_admissible(compose(f, g)):
                assert ctx.is_admissible(f)
                checked += 1
    assert checked >= 100
    print("criterion 5 PASS: factorization unique, cancellation holds")


def test_criterion_6_saturation_matches_local_forms():
    for ctx, algebras in [
        (ZAR, corpus.zariski_corpus()),
        (DOM, corpus.domain_corpus()),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            assert A.size <= 12
            direct = {p.kernel_sig() for p in ctx.local_forms(A)}
            bounded = {p.kernel_sig() for p in saturate_bounded(ctx, A)}
            assert direct == bounded
    print("criterion 6 PASS: bounded saturation matches local forms")


def test_criterion_7_hyperopcover_suite():
    for A in corpus.zariski_corpus():
        if A.size == 1:
            continue
        locs = enumerate_localizations(ZAR, A)
        forms = ZAR.local_forms(A)
        # Cech counit iso for every enumerated opcover
        for cover in paper.enumerate_opcovers(ZAR, A):
            _, eta = cover.cech_h0
            assert eta.is_bijective
            if any(k.is_bijective for k in cover.components):
                assert paper.split_cover_check(ZAR, cover)
        # Pts(k) & Pts(l) = Pts(pushout), exhaustively
        for k in locs.values():
            for l_ in locs.values():
                _, _, in_l = tables.pushout(k, l_)
                pk = distinguished_open(forms, k)
                pl = distinguished_open(forms, l_)
                joined = compose(l_, in_l)
                pj = frozenset(
                    i for i, p in enumerate(forms)
                    if tables.induced(joined, p) is not None)
                assert pk & pl == pj
    for A in corpus.domain_corpus():
        if A.size == 1:
            continue
        assert paper.distop_lattice_bijection(DOM, A)
    print("criterion 7 PASS: hyperopcover suite")


def test_criterion_8_gluing_and_nerve():
    M = corpus.flag_monoid()
    ko = next(k for k in enumerate_localizations(DEI, M).values()
              if k.target.size == 1)
    dei, zar = sp.Specs(DEI), sp.Specs(ZAR)
    P1 = gl.glue(dei, gl.GluingSpec(
        (M, M), (gl.make_overlap(dei, 0, 1, ko, ko),)))
    assert P1.n_points == 3
    gamma = P1.sections[P1.total]
    assert isomorphic(gamma, corpus.by_name("e2xe2"))
    assert gl.is_affine(dei, P1) is None
    assert DEI.point_count(gamma) == 4

    k2 = next(k for k in enumerate_localizations(ZAR, Z6).values()
              if k.target.size == 2)
    D = gl.glue(zar, gl.GluingSpec(
        (Z6, Z6), (gl.make_overlap(zar, 0, 1, k2, k2),)))
    assert isomorphic(D.sections[D.total], corpus.ring_product(2, 3, 3))
    assert gl.is_affine(zar, D) is not None

    zsite = tuple(A for A in gl.default_site(ZAR) if A.size <= 6)
    for R in corpus.zariski_corpus():
        if R.size > 8:
            continue
        assert paper.nerve_matches_representable(zar, R, zsite)
    dsite = tuple(A for A in gl.default_site(DEI) if A.size <= 3)
    for R in corpus.deitmar_corpus():
        if R.size > 4:
            continue
        assert paper.nerve_matches_representable(dei, R, dsite)

    # scheme nerves satisfy the sheaf condition on the pointwise covers
    for specs, X, site in [(dei, P1, dsite), (zar, D, zsite)]:
        ctx = specs.ctx
        for A in site:
            locs = enumerate_localizations(ctx, A)
            comps = tuple(locs[p.kernel_sig()] for p in ctx.local_forms(A))
            if comps:
                assert gl.nerve_sheaf_condition(
                    specs, X, hc.Opcover(ctx, A, comps), {})
    assert paper.affine_communication_check(dei, P1)
    assert paper.affine_communication_check(zar, D)
    print("criterion 8 PASS: gluing and functor-of-points suite")


def test_criterion_9_sheafification():
    for A in corpus.zariski_corpus():
        if A.size == 1:
            continue
        F, _ = canonical_presheaf(ZAR, A)
        assert satisfies_sheaf_condition(F)
        _, theta, single = sheafify(F)
        assert single and all(theta[U].is_bijective for U in F.opens)
    rng = random.Random(19)
    for _ in range(20):
        F = random_presheaf(rng)
        G, theta, _ = sheafify(F)
        assert satisfies_sheaf_condition(G)
        G2, theta2, single2 = sheafify(G)
        assert single2 and all(theta2[U].is_bijective for U in G.opens)
        for p in range(F.n_points):
            assert theta[F.mins[p]].is_bijective
    print("criterion 9 PASS: sheafification idempotent and stalk-preserving")
