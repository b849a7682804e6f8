"""Maps of spaces from their values on the minimal opens, against the search
over every open.

`enumerate_apmaps` chooses homs only at the minimal opens of the target and
lifts the rest into limits of stalks; the oracle in `helpers` chooses a hom
at every open and re-validates each result.  Both must give the same maps,
in the same order, with the same section maps.
"""

from __future__ import annotations

import pytest

from conespec import contexts as C
from conespec import corpus, glue as gl, hypercover as hc, spectrum as sp

from helpers import corpus_by_context, enumerate_apmaps_by_opens, glued_row

DEI = C.get_context("deitmar")


def _invert_e(A):
    """The localization of A inverting its element e (index 1)."""
    return next(k for k in C.enumerate_localizations(DEI, A).values()
                if [s[0].data for s in k.steps] == [(1,)])


@pytest.fixture(scope="module")
def glued():
    """P^1 over F1, three e2 charts in a row, and chain3 doubled."""
    e2, chain3 = corpus.flag_monoid(), corpus.chain_monoid()
    return {name: gl.glue(DEI, glued_row(DEI, A, _invert_e(A), n))
            for name, A, n in (("p1", e2, 2), ("e2-three-charts", e2, 3),
                               ("doubled-chain3", chain3, 2))}


def _pairs(glued):
    spaces = {}
    for ctx, A in corpus_by_context():
        if A.size <= 4:
            spaces.setdefault(ctx.name, []).append(sp.build_spec(ctx, A))
    for name, group in spaces.items():
        ctx = C.get_context(name)
        for S in group:
            for X in group:
                yield ctx, S, X
    for g, G in glued.items():
        for Y in spaces["deitmar"]:
            yield DEI, G, Y
            yield DEI, Y, G
        for h, H in glued.items():
            # the oracle alone takes seconds on the largest pair
            if (g, h) != ("e2-three-charts", "e2-three-charts"):
                yield DEI, G, H


def test_minimal_open_search_matches_the_search_over_every_open(glued):
    found = 0
    for ctx, S, X in _pairs(glued):
        old = enumerate_apmaps_by_opens(ctx, S, X)
        new = sp.enumerate_apmaps(ctx, S, X)
        assert len(new) == len(old)
        for m, o in zip(new, old):
            assert m.source is S and m.target is X
            assert m.point_map == o.point_map
            assert list(m.section_maps.items()) == list(o.section_maps.items())
        found += len(new)
    assert found > 500


def test_nerve_sheaf_condition_judges_the_maps_it_is_given(glued):
    site = gl.default_site(DEI, 3)
    judged = 0
    for X in glued.values():
        for A in site:
            locs = C.enumerate_localizations(DEI, A)
            cover = hc.Opcover("deitmar", A, tuple(
                locs[p.sig] for p in C.local_forms(DEI, A)))
            if not cover.components:
                continue
            values = {}
            assert gl.nerve_sheaf_condition(DEI, X, cover, values)
            assert values[A] == sp.enumerate_apmaps(DEI, sp.build_spec(DEI, A), X)
            # a component value missing one map no longer holds every family
            # that comes from N(X)(A)
            for K in values:
                if K != A and values[K]:
                    cut = dict(values)
                    cut[K] = values[K][1:]
                    assert not gl.nerve_sheaf_condition(DEI, X, cover, cut)
                    judged += 1
    assert judged > 0


def test_nerve_sheaf_condition_rejects_a_base_value_missing_a_map():
    # Z/6 is not local, so no component of its cover has target Z/6 and
    # N(X)(Z/6) is a dict entry of its own: cutting one map from it leaves a
    # compatible family that comes from no map Spec Z/6 -> X
    ZAR = C.get_context("zariski")
    Z6 = corpus.zn(6)
    k2, k3 = (next(k for k in C.enumerate_localizations(ZAR, Z6).values()
                   if k.target.size == n) for n in (2, 3))
    cover = hc.Opcover("zariski", Z6, (k2, k3))
    ov = gl.make_overlap(ZAR, (Z6, Z6), 0, 1, k2, k2)
    for X in (sp.build_spec(ZAR, Z6),
              gl.glue(ZAR, gl.GluingSpec("zariski", (Z6, Z6), (ov,)))):
        values = {}
        assert gl.nerve_sheaf_condition(ZAR, X, cover, values)
        assert Z6 not in (k2.target, k3.target) and values[Z6]
        values[Z6] = values[Z6][1:]
        assert not gl.nerve_sheaf_condition(ZAR, X, cover, values)
