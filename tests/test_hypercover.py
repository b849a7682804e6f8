"""Opcovers, Čech hyperopcovers, H0 and the split-cover lemma."""

from __future__ import annotations

import random

import pytest

from conespec import contexts as C
from conespec import corpus, hypercover as hc, tables
from conespec.errors import InvariantViolation
from conespec.tables import all_homs, compose

import paper
from helpers import (corpus_by_context, enumerate_localizations,
                     h0_by_product_scan, isomorphic)
from test_checked import pushed_components

ZAR = C.get_context("zariski")
DEI = C.get_context("deitmar")
DOM = C.get_context("domain")

Z2, Z3, Z6, Z12 = (corpus.zn(n) for n in (2, 3, 6, 12))


def locs_of(ctx, A):
    return list(enumerate_localizations(ctx, A).values())


def by_size(ctx, A, n):
    return next(k for k in locs_of(ctx, A) if k.target.size == n)


def test_is_opcover_examples():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    assert hc.is_opcover(ZAR, hc.Opcover("zariski", Z6, (k2, k3)))
    assert not hc.is_opcover(ZAR, hc.Opcover("zariski", Z6, (k2,)))
    ident = by_size(ZAR, Z6, 6)
    assert hc.is_opcover(ZAR, hc.Opcover("zariski", Z6, (ident,)))


def test_cech_pairwise_pushouts():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    K = hc.kernel_hyperopcover(hc.Opcover("zariski", Z6, (k2, k3)))
    sizes = {pair: P.size for pair, (P, _, _) in K.level1.items()}
    assert sizes == {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 3}


def test_h0_crt_cover_is_iso():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    H, eta = hc.cech_h0(ZAR, hc.Opcover("zariski", Z6, (k2, k3)))
    assert H.size == 6 and eta.is_bijective


def test_h0_identity_cover():
    for ctx, A in [(ZAR, Z6), (DEI, corpus.flag_monoid())]:
        ident = by_size(ctx, A, A.size)
        H, eta = hc.cech_h0(ctx, hc.Opcover(ctx.name, A, (ident,)))
        assert eta.is_bijective and H.size == A.size


def test_h0_flag_monoid_two_component_cover():
    M = corpus.flag_monoid()
    comps = tuple(locs_of(DEI, M))
    cover = hc.Opcover("deitmar", M, comps)
    assert hc.is_opcover(DEI, cover)
    H, eta = hc.cech_h0(DEI, cover)
    assert eta.is_bijective and H.size == 2


def test_split_cover_check():
    for ctx, A in [(ZAR, Z6), (ZAR, corpus.zn(4)), (DEI, corpus.flag_monoid())]:
        for cover in paper.enumerate_opcovers(ctx, A):
            if any(k.composite.is_bijective for k in cover.components):
                assert paper.split_cover_check(
                    ctx, hc.kernel_hyperopcover(cover))


def test_split_cover_check_requires_split_component():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    K = hc.kernel_hyperopcover(hc.Opcover("zariski", Z6, (k2, k3)))
    with pytest.raises(InvariantViolation):
        paper.split_cover_check(ZAR, K)


def test_zariski_counit_iso_for_every_opcover():
    for A in [Z6, Z12, corpus.f2x2(), corpus.ring_product(2, 2)]:
        for cover in paper.enumerate_opcovers(ZAR, A):
            _, eta = hc.cech_h0(ZAR, cover)
            assert eta.is_bijective, (A.elements, len(cover.components))


def test_opcovers_closed_under_pushout():
    for cover in paper.enumerate_opcovers(ZAR, Z6):
        for f in locs_of(ZAR, Z6):
            pushed = hc.pushout_opcover(ZAR, cover, f.composite)
            assert hc.is_opcover(ZAR, pushed)


def random_path(ctx, A, rng):
    """A path of 2-4 steps out of A, each step mostly one that changes its
    target, as a cover document may write it."""
    path = C.identity_path(A)
    for _ in range(rng.randint(2, 4)):
        K = path.target
        options = [(d, b) for d in ctx.cell_data(K) for b in C.BRANCHES]
        moving = [(d, b) for d, b in options
                  if not C._is_identity_sig(ctx.attach_sig(K, d, b))]
        datum, branch = rng.choice(moving if moving and rng.random() < 0.8
                                   else options)
        path = C.extend_path(ctx, path, datum, branch)
    return path


def test_pushed_components_are_the_pushouts_of_their_paths():
    """`pushout_opcover` replays each component's steps on the target of f;
    checked mode's `pushed_components` compares each replayed component
    with the pushout injection along f, for random multi-step paths pushed
    along every local form and every hom into a corpus algebra of at most
    12 elements."""
    cases = corpus_by_context()
    n = 0
    for i, (ctx, A) in enumerate(cases):
        rng = random.Random(1000 + i)
        comps = tuple(random_path(ctx, A, rng) for _ in range(6))
        assert max(len(k.steps) for k in comps) >= 3
        cover = hc.Opcover(ctx.name, A, comps)
        maps = [p.composite for p in C.local_forms(ctx, A)] + [
            f for c, B in cases if c is ctx and B.size <= 12
            for f in all_homs(A, B)]
        for f in maps:
            pushed_components(hc.pushout_opcover(ctx, cover, f),
                              (ctx, cover, f))
            n += len(comps)
    assert n >= 1500


def test_opcovers_closed_under_composition():
    k2 = by_size(ZAR, Z12, 4)
    k3 = by_size(ZAR, Z12, 3)
    base_cover = hc.Opcover("zariski", Z12, (k2, k3))
    assert hc.is_opcover(ZAR, base_cover)
    composed = []
    for k in base_cover.components:
        for sub in locs_of(ZAR, k.target):
            comp = compose(k.composite, sub.composite)
            key = tables.normalize_sig(comp.map)
            composed.append(enumerate_localizations(ZAR, Z12)[key])
    cover = hc.Opcover("zariski", Z12, tuple(composed))
    assert hc.is_opcover(ZAR, cover)


def test_h0_contravariant_along_refinement():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    coarse = hc.Opcover("zariski", Z6, (k2, k3))
    fine = hc.Opcover("zariski", Z6, tuple(locs_of(ZAR, Z6)))
    Hc, etac = hc.cech_h0(ZAR, coarse)
    Hf, etaf = hc.cech_h0(ZAR, fine)
    mediating = [h for h in all_homs(Hf, Hc) if compose(etaf, h) == etac]
    assert mediating


def test_jointly_monic_families_cover_reduced_domain_rings():
    import itertools

    for A in [Z2, Z3, Z6, corpus.ring_product(2, 2)]:
        locs = locs_of(DOM, A)
        for r in range(1, len(locs) + 1):
            for fam in itertools.combinations(locs, r):
                jointly_monic = all(
                    any(k.composite.map[x] != k.composite.map[y] for k in fam)
                    for x in range(A.size) for y in range(x + 1, A.size)
                )
                if jointly_monic:
                    assert hc.is_opcover(DOM, hc.Opcover("domain", A, fam))


def test_h0_matches_the_product_scan_oracle():
    """Corpus opcovers of at most three components: H0 agrees with the
    equalizer inside the product, up to the isomorphism compatible with eta."""
    n = 0
    for ctx, A in corpus_by_context():
        for cover in paper.enumerate_opcovers(ctx, A, max_components=3):
            K = hc.kernel_hyperopcover(cover)
            E, eta = hc.h0(K)
            E2, eta2 = h0_by_product_scan(K)
            assert any(compose(eta, iso) == eta2
                       for iso in tables.iter_isomorphisms(E, E2))
            n += 1
    assert n > 100
