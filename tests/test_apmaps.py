"""Maps of spaces from their stalk maps, against the search over every open.

`enumerate_apmaps` chooses one stalk map per source point, joined along the
specializations, and lifts the section maps into limits of stalks; the
oracle in `helpers` chooses a hom at every open and re-validates each
result.  Both must give the same maps, in the same order, with the same
section maps.  Maps compose and invert stalk by stalk; the oracles in
`helpers` compose and invert their section maps open by open, and must give
the same section maps.  The search lists the stalk maps of each pair of
points once, and reads only the minimal opens of the spaces it searches.
"""

from __future__ import annotations

import pytest

from conespec import contexts as C
from conespec import corpus, glue as gl, hypercover as hc, spectrum as sp
from conespec import homs, tables

import helpers
from helpers import (compose_apmaps_by_opens, corpus_by_context,
                     enumerate_apmaps_by_opens, enumerate_localizations,
                     glued_row, invert_apmap, invert_apmap_by_opens, is_iso,
                     overlap_by_restriction, section_maps, validate_apmap)
from test_points import golden_space

DEI = C.get_context("deitmar")


def _invert_e(A):
    """The localization of A inverting its element e (index 1)."""
    return next(k for k in enumerate_localizations(DEI, A).values()
                if k.kernel_sig() == tables.inversion_sig(A, 1))


@pytest.fixture(scope="module")
def glued():
    """P^1 over F1, three e2 charts in a row, and chain3 doubled."""
    e2, chain3 = corpus.flag_monoid(), corpus.chain_monoid()
    specs = sp.Specs(DEI)
    return {name: gl.glue(specs, glued_row(specs, A, _invert_e(A), n))
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
        maps = [section_maps(m) for m in new]
        for m, o, mm in zip(new, old, maps):
            assert m.source is S and m.target is X
            assert m.point_map == o.point_map
            assert list(mm.items()) == list(section_maps(o).items())
        # keys tell maps apart exactly as their section maps do
        for m, mm in zip(new, maps):
            for n, nn in zip(new, maps):
                assert (m.key == n.key) == (mm == nn)
        found += len(new)
    assert found > 500


def test_stalkwise_composition_and_inverse_match_the_open_by_open_oracles(
        monkeypatch):
    compared = []

    def compare(new, old):
        assert new.point_map == old.point_map
        assert section_maps(new) == section_maps(old)
        compared.append(new)

    # every composite and inverse that builds the overlap isos of the golden
    # gluings by the route through open subspaces, each overlap iso the last
    # composite of its overlap
    def recording(real, oracle):
        def wrapper(*args):
            result = real(*args)
            compare(result, oracle(*args))
            return result
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(gl, "make_overlap", overlap_by_restriction)
        m.setattr(sp, "compose_apmaps", recording(
            sp.compose_apmaps, compose_apmaps_by_opens))
        m.setattr(helpers, "invert_apmap", recording(
            invert_apmap, invert_apmap_by_opens))
        gluings = {name: golden_space(name) for name in (
            "p1-f1.json", "e2-three-charts.json", "doubled-z6.json",
            "doubled-e2xe2.json", "twisted-c3xe2.json")}
    overlap_steps = len(compared)
    # every site-hom Spec map composed with every nerve value of the golden
    # nerve inputs, on their golden sites
    for name, site_max in (("p1-f1.json", 3), ("e2-three-charts.json", 4)):
        specs, X = gluings[name]
        site = gl.default_site(specs.ctx, site_max)
        table = gl.nerve(specs, X, site)
        for a, A in enumerate(site):
            for b, B in enumerate(site):
                for f in homs.all_homs(A, B):
                    mf = sp.spec_map(specs, f)
                    for phi in table[a]:
                        compare(sp.compose_apmaps(mf, phi),
                                compose_apmaps_by_opens(mf, phi))
    # and the inverse of every automorphism of deitmar Spec e2xe2, four of
    # whose points the factor swap permutes
    X = sp.build_spec(DEI, corpus.monoid_product("e2", "e2"))
    autos = list(sp.iter_space_isos(X, X))
    for m in autos:
        compare(invert_apmap(m), invert_apmap_by_opens(m))
    assert overlap_steps > 20 and len(compared) - overlap_steps > 500
    assert any(m.point_map != tuple(range(X.n_points)) for m in autos)


def test_nerve_sheaf_condition_judges_the_maps_it_is_given(glued):
    site = gl.default_site(DEI, 3)
    specs = sp.Specs(DEI)
    judged = 0
    for X in glued.values():
        for A in site:
            locs = enumerate_localizations(DEI, A)
            cover = hc.Opcover(DEI, A, tuple(
                locs[p.kernel_sig()] for p in DEI.local_forms(A)))
            if not cover.components:
                continue
            values = {}
            assert gl.nerve_sheaf_condition(specs, X, cover, values)
            assert values[A] == sp.enumerate_apmaps(DEI, specs[A], X)
            # a component value missing one map no longer holds every family
            # that comes from N(X)(A)
            for K in values:
                if K != A and values[K]:
                    cut = dict(values)
                    cut[K] = values[K][1:]
                    assert not gl.nerve_sheaf_condition(specs, X, cover, cut)
                    judged += 1
    assert judged > 0


def test_nerve_sheaf_condition_rejects_a_base_value_missing_a_map():
    # Z/6 is not local, so no component of its cover has target Z/6 and
    # N(X)(Z/6) is a dict entry of its own: cutting one map from it leaves a
    # compatible family that comes from no map Spec Z/6 -> X
    ZAR = C.get_context("zariski")
    Z6 = corpus.zn(6)
    k2, k3 = (next(k for k in enumerate_localizations(ZAR, Z6).values()
                   if k.target.size == n) for n in (2, 3))
    cover = hc.Opcover(ZAR, Z6, (k2, k3))
    specs = sp.Specs(ZAR)
    ov = gl.make_overlap(specs, 0, 1, k2, k2)
    for X in (specs[Z6], gl.glue(specs, gl.GluingSpec((Z6, Z6), (ov,)))):
        values = {}
        assert gl.nerve_sheaf_condition(specs, X, cover, values)
        assert Z6 not in (k2.target, k3.target) and values[Z6]
        values[Z6] = values[Z6][1:]
        assert not gl.nerve_sheaf_condition(specs, X, cover, values)


# ------------------------------------------------------------- work and sizes


def _counting(monkeypatch, module, name):
    """Record the arguments of each call of module.name."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _minimal_open_diagrams(spaces):
    """The stalks at the points of each minimal open, in ascending order:
    the objects of the limit `build_spec` takes there."""
    return [[Y.forms[p].target for p in sorted(Y.mins[q])]
            for Y in spaces for q in range(Y.n_points)]


def test_maps_list_the_stalk_homs_of_each_pair_of_points_once(glued,
                                                              monkeypatch):
    _, doubled = golden_space("doubled-e2xe2.json")
    X = sp.build_spec(DEI, corpus.monoid_product("e2", "e2"))
    pairs = [(G, H) for G in glued.values() for H in glued.values()]
    pairs += [(X, doubled), (doubled, X)]
    calls = _counting(monkeypatch, homs, "all_homs")
    for S, T in pairs:
        calls.clear()
        assert sp.enumerate_apmaps(DEI, S, T)
        assert len(calls) <= S.n_points * T.n_points


def test_the_doubled_e2xe2_has_961_maps_to_itself(monkeypatch):
    """The golden gluing of two Spec e2xe2 along e: 7 points, 26 opens."""
    specs, X = golden_space("doubled-e2xe2.json")
    calls = _counting(monkeypatch, homs, "all_homs")
    maps = sp.enumerate_apmaps(specs.ctx, X, X)
    assert len(maps) == 961 and len(calls) <= X.n_points ** 2
    assert len({m.key for m in maps}) == 961
    for m in maps:
        validate_apmap(specs.ctx, m)


def test_deitmar_spec_e2xe2xchain3_has_two_automorphisms():
    """12 points; the factor swap of e2xe2 and the identity."""
    X = sp.build_spec(DEI, corpus.monoid_product("e2", "e2", "chain3"))
    autos = list(sp.iter_space_isos(X, X))
    assert X.n_points == 12 and len(autos) == 2
    assert autos[0].point_map == tuple(range(12))
    assert all(is_iso(m) for m in autos)


def test_searched_specs_build_limits_only_at_their_minimal_opens(monkeypatch):
    """Spec of the global sections in `is_affine`, and Spec of each site
    object in `nerve`, are only searched for maps: they build the limits at
    their minimal opens, each once, and no other."""
    site = gl.default_site(DEI, 4)
    for name, search, searched in (
            ("doubled-z12.json", gl.is_affine,
             lambda specs, X: [specs[X.sections[X.total]]]),
            ("doubled-chain3.json", lambda specs, X: gl.nerve(specs, X, site),
             lambda specs, X: [specs[A] for A in site])):
        glued, X = golden_space(name)
        for U in X.opens:
            X.sections[U]
        # a workspace of its own, so that the search builds every Spec it reads
        specs = sp.Specs(glued.ctx)
        limits = _counting(monkeypatch, tables, "limit")
        assert search(specs, X)
        minimal = _minimal_open_diagrams(searched(specs, X))
        assert limits and len(limits) <= len(minimal)
        assert all(list(objects) in minimal for _, objects, _ in limits)
        # and building them whole would take more
        assert sum(len(Y.opens) for Y in searched(specs, X)) > len(minimal)
