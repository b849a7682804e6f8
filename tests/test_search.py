"""The short-cut localization routes against the quotient-first oracles.

The search over every localization class that the tests keep in
`helpers.enumerate_localizations` decides on attachment signatures and builds
a quotient only for what it keeps, and `factorize` builds one quotient, by
`localization_sig`; the `_by_quotient` oracles in `helpers` build every
candidate's quotient, one step at a time.  Both must give the same classes,
in the same order, with the same representative maps, and the same
factorizations.
"""

from __future__ import annotations

import pytest

from conespec import contexts as C
from conespec import corpus, reduction as red, spectrum as sp, tables
from conespec.homs import all_homs

from helpers import (canonical_presheaf, corpus_by_context,
                     enumerate_localizations,
                     enumerate_localizations_by_quotient,
                     factorize_by_quotient, ideal_generated, join_sigs, power,
                     quotient, search_plan_by_scan, victim)

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

CASES = corpus_by_context() + [
    (ZAR, corpus.zn(60)), (DOM, corpus.zn(60)),
    (ZAR, corpus.ring_product(2, 3, 2, 2)), (DOM, corpus.ring_product(2, 3, 2, 2)),
    (DEI, corpus.monoid_product("e2", "e2", "e2")),
    (DEI, corpus.monoid_product("chain3", "nil3")),
]
IDS = [f"{ctx.name}-{A.size}-{i}" for i, (ctx, A) in enumerate(CASES)]


@pytest.mark.parametrize("ctx, A", CASES, ids=IDS)
def test_search_matches_the_quotient_first_oracle(ctx, A):
    new = enumerate_localizations(ctx, A)
    old = enumerate_localizations_by_quotient(ctx, A)
    assert list(new) == list(old)
    for sig, loc in new.items():
        assert loc.target == old[sig].target
        assert loc == old[sig]


@pytest.mark.parametrize("ctx, A", CASES, ids=IDS)
def test_factorize_matches_the_oracle_on_reduce_admissible_inputs(
        ctx, A, monkeypatch):
    inputs = []

    def recording(ctx, f, *args, **kwargs):
        inputs.append(f)
        return C.factorize(ctx, f, *args, **kwargs)

    monkeypatch.setattr(red, "factorize", recording)
    canonical_presheaf(ctx, A)  # one reduce_admissible per distinguished open
    assert inputs or A.is_trivial
    for f in inputs:
        loc, g = C.factorize(ctx, f)
        old_loc, old_g = factorize_by_quotient(ctx, f)
        assert loc == old_loc
        assert g == old_g


def test_factorize_is_the_stepwise_factorization_on_every_small_hom():
    """On every hom between corpus algebras (at most 12 elements each), in
    each context, the one quotient by `localization_sig` is the
    factorization that attaching cells one at a time gives."""
    pool = [(ctx, f) for ctx, algebras in
            ((ZAR, corpus.zariski_corpus()), (DOM, corpus.domain_corpus()),
             (DEI, corpus.deitmar_corpus()))
            for A in algebras for B in algebras for f in all_homs(A, B)]
    assert len(pool) == 213
    for ctx, f in pool:
        loc, g = C.factorize(ctx, f)
        assert (loc, g) == factorize_by_quotient(ctx, f)
        assert ctx.localization_sig(f) == loc.kernel_sig()


def _attach_kernel_by_definition(ctx, A, datum, branch):
    """The kernel of one attachment, from the definitions: inverting a
    identifies x and y iff a^k x = a^k y for some k; killing v is the
    quotient by the ideal that v generates, closed under addition."""
    v = victim(ctx, datum, branch)
    if v is None:
        return tuple(range(A.size))
    if ctx is DOM:
        return quotient(A, ideal_generated(A, [v]))[1].kernel_sig()
    powers = [power(A, v, k) for k in range(A.size + 1)]
    rep = []
    for x in range(A.size):
        rep.append(next(y for y in range(x + 1) if any(
            A.mul[p][x] == A.mul[p][y] for p in powers)))
    return tables.normalize_sig(rep)


@pytest.mark.parametrize("ctx, A", corpus_by_context(),
                         ids=[f"{c.name}-{i}" for i, (c, _) in
                              enumerate(corpus_by_context())])
def test_attach_sig_is_the_kernel_of_attach(ctx, A):
    for datum in ctx.cell_data(A):
        for branch in C.BRANCHES:
            sig = ctx.attach_sig(A, datum, branch)
            assert sig == ctx.attach(A, datum, branch)[1].kernel_sig()
            assert sig == _attach_kernel_by_definition(ctx, A, datum, branch)


@pytest.mark.parametrize("ctx, A", corpus_by_context(),
                         ids=[f"{c.name}-{i}" for i, (c, _) in
                              enumerate(corpus_by_context())])
def test_join_of_localization_kernels_is_their_congruence_closure(ctx, A):
    sigs = list(enumerate_localizations(ctx, A))
    for s1 in sigs:
        for s2 in sigs:
            pairs = [(i, j) for s in (s1, s2) for i in range(A.size)
                     for j in range(A.size) if s[i] == s[j]]
            assert join_sigs(A.size, [s1, s2]) == \
                tables.congruence_closure(A, pairs)


def test_search_plan_matches_the_scan_on_every_spec_limit(monkeypatch):
    diagrams = []
    real_limit = tables.limit

    def recording(kind, objects, meets):
        objects = list(objects)
        diagrams.append(([o.size for o in objects], list(meets)))
        return real_limit(kind, objects, meets)

    monkeypatch.setattr(tables, "limit", recording)
    for ctx, A in corpus_by_context() + [
            (DEI, corpus.monoid_product("chain3", "chain3", "e2"))]:
        X = sp.build_spec(ctx, A)
        for U in X.opens:   # each section is built on its first read
            X.sections[U]
    assert len(diagrams) > 100
    assert max(len(sizes) for sizes, _ in diagrams) >= 18
    for sizes, meets in diagrams:
        assert tables._search_plan(sizes, meets) == \
            search_plan_by_scan(sizes, meets)
