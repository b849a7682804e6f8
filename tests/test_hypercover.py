"""Opcovers, Čech H0 and the split-cover lemma."""

from __future__ import annotations

import itertools
import random

import pytest

from conespec import contexts as C
from conespec import corpus, homs, hypercover as hc, tables
from conespec.errors import InvariantViolation
from conespec.homs import all_homs
from conespec.tables import compose, identity

import paper
from helpers import (corpus_by_context, enumerate_localizations,
                     h0_by_ordered_pairs, h0_by_product_scan, is_identity_sig,
                     isomorphic, kernel_hyperopcover, pushout_by_replay)
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
    assert hc.is_opcover(hc.Opcover(ZAR, Z6, (k2, k3)))
    assert not hc.is_opcover(hc.Opcover(ZAR, Z6, (k2,)))
    ident = by_size(ZAR, Z6, 6)
    assert hc.is_opcover(hc.Opcover(ZAR, Z6, (ident,)))


@pytest.fixture
def pushouts(monkeypatch):
    """The (left leg, right leg, pushout) of each pushout that `hc` takes."""
    taken = []
    real = hc.pushout

    def recording(f, g):
        out = real(f, g)
        taken.append((f, g, out[0]))
        return out

    monkeypatch.setattr(hc, "pushout", recording)
    return taken


def test_cech_pairwise_pushouts(pushouts):
    """The CRT cover of Z/6 has one pair of components, which meet in the
    zero ring: H0 takes that pushout alone, none of a component with itself
    and none of the pair in the other order."""
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    hc.h0(hc.Opcover(ZAR, Z6, (k2, k3)))
    assert [(f, g, P.size) for f, g, P in pushouts] == \
        [(k2, k3, 1)]


def test_h0_takes_one_pushout_per_unordered_pair(pushouts):
    """H0 of an n-component cover takes n(n-1)/2 pushouts, one per pair
    t < u of components, in that order."""
    sizes = set()
    for ctx, A in corpus_by_context():
        for cover in paper.enumerate_opcovers(ctx, A):
            pushouts.clear()
            hc.h0(cover)
            comps = [k for k in cover.components]
            n = len(comps)
            assert len(pushouts) == n * (n - 1) // 2
            assert [(f, g) for f, g, _ in pushouts] == \
                list(itertools.combinations(comps, 2))
            sizes.add(n)
    assert {1, 2, 3, 4} <= sizes


def test_h0_crt_cover_is_iso():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    H, eta = hc.Opcover(ZAR, Z6, (k2, k3)).cech_h0
    assert H.size == 6 and eta.is_bijective


def test_h0_identity_cover():
    for ctx, A in [(ZAR, Z6), (DEI, corpus.flag_monoid())]:
        ident = by_size(ctx, A, A.size)
        H, eta = hc.Opcover(ctx, A, (ident,)).cech_h0
        assert eta.is_bijective and H.size == A.size


def test_h0_of_the_empty_cover_is_terminal():
    """The empty limit, like O of the empty open and the empty product."""
    for ctx, A in [(ZAR, corpus.trivial_ring()), (ZAR, Z6),
                   (DEI, corpus.flag_monoid())]:
        H, eta = hc.Opcover(ctx, A, ()).cech_h0
        assert H == tables.terminal(A.kind) == tables.product(A.kind, [])[0]
        assert eta == tables.Hom(A, H, (0,) * A.size)


def test_h0_flag_monoid_two_component_cover():
    M = corpus.flag_monoid()
    comps = tuple(locs_of(DEI, M))
    cover = hc.Opcover(DEI, M, comps)
    assert hc.is_opcover(cover)
    H, eta = cover.cech_h0
    assert eta.is_bijective and H.size == 2


def test_split_cover_check():
    for ctx, A in [(ZAR, Z6), (ZAR, corpus.zn(4)), (DEI, corpus.flag_monoid())]:
        for cover in paper.enumerate_opcovers(ctx, A):
            if any(k.is_bijective for k in cover.components):
                assert paper.split_cover_check(ctx, cover)


def test_split_cover_check_requires_split_component():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    with pytest.raises(InvariantViolation):
        paper.split_cover_check(ZAR, hc.Opcover(ZAR, Z6, (k2, k3)))


def test_zariski_counit_iso_for_every_opcover():
    for A in [Z6, Z12, corpus.f2x2(), corpus.ring_product(2, 2)]:
        for cover in paper.enumerate_opcovers(ZAR, A):
            _, eta = cover.cech_h0
            assert eta.is_bijective, (A.elements, len(cover.components))


def test_opcovers_closed_under_pushout():
    for cover in paper.enumerate_opcovers(ZAR, Z6):
        for f in locs_of(ZAR, Z6):
            pushed = hc.pushout_opcover(cover, f)
            assert hc.is_opcover(pushed)


def random_path(ctx, A, rng):
    """(steps, localization): a path of 2-4 (datum, branch) steps out of A,
    each step mostly one that changes its target, as a cover document may
    write it, and the composite of its attachments."""
    steps, loc = [], identity(A)
    for _ in range(rng.randint(2, 4)):
        K = loc.target
        options = [(d, b) for d in ctx.cell_data(K) for b in C.BRANCHES]
        moving = [(d, b) for d, b in options
                  if not is_identity_sig(ctx.attach_sig(K, d, b))]
        datum, branch = rng.choice(moving if moving and rng.random() < 0.8
                                   else options)
        steps.append((datum, branch))
        loc = compose(loc, ctx.attach(K, datum, branch)[1])
    return steps, loc


def test_pushed_components_are_the_pushouts_of_their_paths():
    """`pushout_opcover` pushes each component out along f by
    `tables.pushout`; each pushed component is the one that replaying the
    component's steps on the target of f gives, and passes checked mode's
    `pushed_components`, for random multi-step paths pushed along every
    local form and every hom into a corpus algebra of at most 12
    elements."""
    cases = corpus_by_context()
    n = 0
    for i, (ctx, A) in enumerate(cases):
        rng = random.Random(1000 + i)
        paths = [random_path(ctx, A, rng) for _ in range(6)]
        assert max(len(steps) for steps, _ in paths) >= 3
        cover = hc.Opcover(ctx, A, tuple(k for _, k in paths))
        maps = ctx.local_forms(A) + [
            f for c, B in cases if c is ctx and B.size <= 12
            for f in all_homs(A, B)]
        for f in maps:
            pushed = hc.pushout_opcover(cover, f)
            pushed_components(pushed, (cover, f))
            assert list(pushed.components) == [
                pushout_by_replay(ctx, steps, f) for steps, _ in paths]
            n += len(paths)
    assert n >= 1500


def test_opcovers_closed_under_composition():
    k2 = by_size(ZAR, Z12, 4)
    k3 = by_size(ZAR, Z12, 3)
    base_cover = hc.Opcover(ZAR, Z12, (k2, k3))
    assert hc.is_opcover(base_cover)
    composed = []
    for k in base_cover.components:
        for sub in locs_of(ZAR, k.target):
            comp = compose(k, sub)
            key = tables.normalize_sig(comp.map)
            composed.append(enumerate_localizations(ZAR, Z12)[key])
    cover = hc.Opcover(ZAR, Z12, tuple(composed))
    assert hc.is_opcover(cover)


def test_h0_contravariant_along_refinement():
    k2 = by_size(ZAR, Z6, 2)
    k3 = by_size(ZAR, Z6, 3)
    coarse = hc.Opcover(ZAR, Z6, (k2, k3))
    fine = hc.Opcover(ZAR, Z6, tuple(locs_of(ZAR, Z6)))
    Hc, etac = coarse.cech_h0
    Hf, etaf = fine.cech_h0
    mediating = [h for h in all_homs(Hf, Hc) if compose(etaf, h) == etac]
    assert mediating


def test_jointly_monic_families_cover_reduced_domain_rings():
    import itertools

    for A in [Z2, Z3, Z6, corpus.ring_product(2, 2)]:
        locs = locs_of(DOM, A)
        for r in range(1, len(locs) + 1):
            for fam in itertools.combinations(locs, r):
                jointly_monic = all(
                    any(k.map[x] != k.map[y] for k in fam)
                    for x in range(A.size) for y in range(x + 1, A.size)
                )
                if jointly_monic:
                    assert hc.is_opcover(hc.Opcover(DOM, A, fam))


def test_h0_matches_the_product_scan_oracle():
    """Corpus opcovers of at most three components: H0 agrees with the
    equalizer inside the product, up to the isomorphism compatible with eta."""
    n = 0
    for ctx, A in corpus_by_context():
        for cover in paper.enumerate_opcovers(ctx, A, max_components=3):
            E, eta = hc.h0(cover)
            E2, eta2 = h0_by_product_scan(kernel_hyperopcover(cover))
            assert any(compose(eta, iso) == eta2
                       for iso in homs.iter_isomorphisms(E, E2))
            n += 1
    assert n > 100


def test_h0_matches_the_ordered_pairs_oracle():
    """On every corpus opcover, and on its image along every local form,
    H0 over the unordered pairs is isomorphic to the limit over every
    ordered pair, diagonal included, by an isomorphism compatible with eta;
    so eta is bijective in both or in neither (in domain, some are not)."""
    verdicts = []
    for ctx, A in corpus_by_context():
        for cover in paper.enumerate_opcovers(ctx, A):
            for c in [cover] + [hc.pushout_opcover(cover, p)
                                for p in ctx.local_forms(A)]:
                E, eta = hc.h0(c)
                E2, eta2 = h0_by_ordered_pairs(kernel_hyperopcover(c))
                assert any(compose(eta, iso) == eta2
                           for iso in homs.iter_isomorphisms(E, E2))
                assert eta.is_bijective == eta2.is_bijective
                verdicts.append(eta.is_bijective)
    assert len(verdicts) > 400 and not all(verdicts) and any(verdicts)
