"""Context-layer tests: locality, admissibility, cells, factorization,
local-form enumeration and the bounded saturation cross-oracle."""

from __future__ import annotations

import itertools

import pytest

from conespec import contexts as C
from conespec import corpus, tables
from conespec.errors import InvariantViolation, KindMismatch
from conespec.homs import all_homs
from conespec.tables import MONOID, compose, identity
import paper
from helpers import (DidNotStabilize, ShuffledContext, corpus_by_context,
                     deitmar_forms_stepwise, domain_forms_stepwise,
                     enumerate_localizations, factorize_by_quotient,
                     faces_by_subset_search, invert_element, isomorphic,
                     saturate_bounded)

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

Z2, Z3, Z4, Z6, Z12 = (corpus.zn(n) for n in (2, 3, 4, 6, 12))


def prime_ideals_ring(A):
    """Oracle: enumerate prime ideals of a small ring by subset search."""
    import itertools

    primes = []
    for k in range(A.size):
        for sub in itertools.combinations(range(A.size), k):
            I = set(sub)
            if A.zero not in I:
                continue
            if not all(A.add[i][j] in I for i in I for j in I):
                continue
            if not all(A.mul[i][r] in I for i in I for r in range(A.size)):
                continue
            if A.one in I:
                continue
            if all(
                a in I or b in I
                for a in range(A.size) for b in range(A.size)
                if A.mul[a][b] in I
            ):
                primes.append(frozenset(I))
    return primes


def test_is_local_zariski():
    assert ZAR.is_local(Z4)
    assert not ZAR.is_local(Z6)
    assert not ZAR.is_local(corpus.trivial_ring())
    assert ZAR.is_local(corpus.f2x2())


def test_is_local_domain():
    assert DOM.is_local(Z2) and DOM.is_local(Z3)
    assert not DOM.is_local(Z4)
    assert not DOM.is_local(corpus.trivial_ring())


def test_every_monoid_is_local():
    for M in corpus.deitmar_corpus():
        assert DEI.is_local(M)


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        ZAR.accepts(corpus.flag_monoid())


def test_admissibility():
    proj = all_homs(Z4, Z2)[0]
    assert ZAR.is_admissible(proj)  # units of Z4 map to 1
    proj6 = all_homs(Z6, Z2)[0]
    assert not DOM.is_admissible(proj6)
    assert DEI.is_admissible(identity(corpus.flag_monoid()))


def test_attach_matches_invert_and_quotient():
    Q, step = ZAR.attach(Z6, (3, 4), "left")  # 3 + 4 = 1 in Z/6
    Qo, stepo = invert_element(Z6, 3)
    assert Q == Qo and step == stepo and Q.size == 2

    P22 = corpus.ring_product(2, 2)
    a = P22.elements.index("(1,0)")
    b = P22.elements.index("(0,1)")
    Qd, stepd = DOM.attach(P22, (a, b), "left")
    assert isomorphic(Qd, Z2)

    M = corpus.flag_monoid()
    Qm, _ = DEI.attach(M, (M.elements.index("e"),), "right")
    assert Qm.size == 1


def test_cell_components_are_epic():
    # attaching the same cell twice along the same data is idempotent up to iso
    for ctx, A in [(ZAR, Z6), (DOM, Z6), (DEI, corpus.chain_monoid())]:
        for datum in ctx.cell_data(A)[:6]:
            for branch in C.BRANCHES:
                Q, step = ctx.attach(A, datum, branch)
                datum2 = tuple(step.map[x] for x in datum)
                Q2, step2 = ctx.attach(Q, datum2, branch)
                assert step2.is_bijective


def test_local_forms_z6_against_prime_oracle():
    primes = prime_ideals_ring(Z6)
    assert len(primes) == 2
    forms = ZAR.local_forms(Z6)
    assert sorted(p.target.size for p in forms) == [2, 3]
    dforms = DOM.local_forms(Z6)
    assert sorted(p.target.size for p in dforms) == [2, 3]


def test_local_forms_against_prime_oracle_corpus():
    for A in corpus.zariski_corpus():
        primes = prime_ideals_ring(A) if A.size <= 8 else None
        forms = ZAR.local_forms(A)
        if primes is not None:
            assert len(forms) == len(primes)
        for p in forms:
            assert ZAR.is_local(p.target)


def test_local_forms_z4_is_identity_class():
    forms = ZAR.local_forms(Z4)
    assert len(forms) == 1 and forms[0].is_bijective


def test_local_forms_trivial_ring_empty():
    assert ZAR.local_forms(corpus.trivial_ring()) == []
    assert DOM.local_forms(corpus.trivial_ring()) == []


def test_deitmar_local_forms_are_prime_ideals():
    M = corpus.flag_monoid()
    faces = DEI.faces(M)
    assert [sorted(M.elements[i] for i in F) for F in faces] == [["1"], ["1", "e"]]
    forms = DEI.local_forms(M)
    assert sorted(p.target.size for p in forms) == [1, 2]


# monoid powers and ring products beyond the corpus, the largest of 64 and
# 60 elements
MONOID_POWERS = ([("e2",) * k for k in range(1, 7)]
                 + [("chain3",) * k for k in range(1, 4)]
                 + [("chain3", "nil3"), ("e2", "chain3", "nil3")])
RING_PRODUCTS = [(2, 2), (2, 3), (2, 2, 2), (4, 3), (2, 3, 5), (2, 3, 5, 2)]


def test_point_count_is_the_number_of_local_forms():
    cases = corpus_by_context() + [
        (DEI, corpus.monoid_product(*names)) for names in MONOID_POWERS] + [
        (ctx, corpus.ring_product(*ns)) for ctx in (ZAR, DOM)
        for ns in RING_PRODUCTS]
    for ctx, A in cases:
        assert ctx.point_count(A) == len(ctx.local_forms(A)), \
            (ctx.name, A.elements)


def test_deitmar_forms_invert_each_face_in_one_step():
    """One inversion at the product of a face's non-units gives the forms
    that inverting its elements one at a time gives.  A form's face is the
    preimage of its target's units."""
    monoids = corpus.deitmar_corpus() + [corpus.monoid_product(*names)
                                         for names in MONOID_POWERS]
    for A in monoids:
        forms = DEI.local_forms(A)
        assert forms == deitmar_forms_stepwise(A)
        for p in forms:
            a = A.one
            for x in range(A.size):
                if p.map[x] in p.target.units and x not in A.units:
                    a = A.mul[a][x]
            assert p == tables.quotient_by_sig(A, tables.inversion_sig(A, a))[1]


def test_domain_forms_kill_each_prime_in_one_step():
    """One quotient by the prime gives the forms that killing its elements
    one at a time gives."""
    rings = corpus.domain_corpus() + [corpus.ring_product(*ns)
                                      for ns in RING_PRODUCTS]
    for A in rings:
        assert DOM.local_forms(A) == domain_forms_stepwise(A), A.elements


def test_saturate_agrees_with_local_forms_everywhere():
    for ctx, algebras in [
        (ZAR, corpus.zariski_corpus()),
        (DOM, corpus.domain_corpus()),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            direct = {p.kernel_sig() for p in ctx.local_forms(A)}
            bounded = {p.kernel_sig() for p in saturate_bounded(ctx, A)}
            assert direct == bounded, (ctx.name, A.elements)


def test_saturate_bound_error():
    with pytest.raises(DidNotStabilize):
        saturate_bounded(ZAR, Z12, max_rounds=1)


def test_factorize_examples():
    f = all_homs(Z6, Z2)[0]
    path, g = C.factorize(ZAR, f)
    assert path.target.size == 2 and g.is_bijective

    # an already admissible map factors with an identity path
    u = all_homs(Z4, Z2)[0]
    path, g = C.factorize(ZAR, u)
    assert path.is_bijective and g.map == u.map

    q = all_homs(Z6, Z3)[0]
    path, g = C.factorize(DOM, q)
    assert path.target.size == 3 and g.is_bijective


def test_factorize_unique_and_loc_and_adm_implies_iso():
    hom_pool = []
    for ctx, algebras in [
        (ZAR, [Z2, Z3, Z4, Z6, corpus.f2x2(), corpus.ring_product(2, 2)]),
        (DOM, [Z2, Z4, Z6, corpus.f2x2()]),
        (DEI, [corpus.flag_monoid(), corpus.chain_monoid(),
               corpus.cyclic_group_monoid(2)]),
    ]:
        for A in algebras:
            for B in algebras:
                for f in all_homs(A, B):
                    hom_pool.append((ctx, f))
    assert len(hom_pool) >= 50
    for ctx, f in hom_pool:
        loc, g = C.factorize(ctx, f)
        # the stepwise oracle gives it whatever order it attaches cells in
        for seed in (11, 12, 13):
            assert factorize_by_quotient(ShuffledContext(ctx, seed), f) \
                == (loc, g)
        assert compose(loc, g) == f
        # a map that is both a localization and admissible is an isomorphism
        if ctx.is_admissible(loc):
            assert loc.is_bijective


def test_factorize_raises_when_f_misses_its_localization():
    """A localization part that f does not factor through breaks a
    theorem, so `factorize` raises instead of returning no residual."""
    class TooCoarse(type(ZAR)):
        def localization_sig(self, f):
            return (0,) * f.source.size

    with pytest.raises(InvariantViolation, match="does not factor"):
        C.factorize(TooCoarse(), all_homs(Z6, Z2)[0])


def test_cancellation_lemma():
    checked = 0
    for ctx, algebras in [
        (ZAR, [Z2, Z3, Z4, Z6, corpus.f2x2()]),
        (DOM, [Z2, Z3, Z4, Z6, corpus.f2x2()]),
        (DEI, [corpus.flag_monoid(), corpus.chain_monoid(),
               corpus.cyclic_group_monoid(2)]),
    ]:
        for A in algebras:
            for B in algebras:
                for f in all_homs(A, B):
                    for Cc in algebras:
                        for g in all_homs(B, Cc):
                            if ctx.is_admissible(compose(f, g)):
                                assert ctx.is_admissible(f)
                                checked += 1
    assert checked > 50


def test_multi_reflection_unique():
    for ctx, algebras in [
        (ZAR, [Z2, Z3, Z4, Z6, Z12, corpus.f2x2()]),
        (DOM, [Z2, Z3, Z6]),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            for Q in algebras:
                if not ctx.is_local(Q):
                    continue
                for f in all_homs(A, Q):
                    p, h = paper.multi_reflection(ctx, f)
                    assert compose(p, h) == f


def test_enumerate_localizations_targets():
    locs = enumerate_localizations(ZAR, Z6)
    assert sorted(p.target.size for p in locs.values()) == [1, 2, 3, 6]
    locs12 = enumerate_localizations(ZAR, Z12)
    assert sorted(p.target.size for p in locs12.values()) == [1, 3, 4, 12]


def test_faces_match_subset_search():
    monoids = corpus.deitmar_corpus()
    pairs = [tables.product(MONOID, [A, B])[0]
             for A, B in itertools.combinations_with_replacement(monoids, 2)
             if A.size * B.size <= 12]
    for M in monoids + pairs:
        assert DEI.faces(M) == faces_by_subset_search(M), M.elements


def test_induced_exists_exactly_when_the_kernel_refines():
    for ctx, algebras in [
        (ZAR, corpus.zariski_corpus()),
        (DOM, corpus.domain_corpus()),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            locs = list(enumerate_localizations(ctx, A).values())
            for k in locs:
                for p in locs:
                    refines = all(
                        p.map[r] == p.map[s]
                        for r in range(A.size) for s in range(A.size)
                        if k.map[r] == k.map[s])
                    h = tables.induced(k, p)
                    assert (h is not None) == refines
                    if h is not None:
                        assert tables.is_hom(h)
                        assert compose(k, h) == p
