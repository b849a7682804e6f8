"""Spectra as spaces with a structure sheaf, and maps between them.

`build_spec` builds the structure sheaf from its stalks with
`sheaf_from_stalks`.  The oracles in `helpers`: the paper's definition
(`spec_by_definition`: the canonical presheaf on the distinguished opens, its
right Kan extension, then `sheafify`), the sheaf condition checker
(`satisfies_sheaf_condition`), which enumerates covers and compatible families
directly, and the plus construction (`sheafify_by_plus`), which builds the
sheaf as H0 of the minimal-open covers, twice when F is not separated.
`sheafify` is `sheaf_from_stalks` on the stalks of a presheaf, so the plus
construction checks the constructor on random presheaves too.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conespec import contexts as C
from conespec import corpus, spectrum as sp, tables
from conespec.errors import InvariantViolation
from conespec.homs import all_homs
from conespec.tables import compose, identity, is_hom

import paper
from helpers import (canonical_presheaf, corpus_by_context,
                     enumerate_localizations, is_iso, is_iso_by_opens,
                     isomorphic_sheaves, limit_by_product_scan,
                     open_embedding_data, random_presheaf, restrict,
                     restrict_by_opens, satisfies_sheaf_condition,
                     section_maps, sheafify, sheafify_by_plus,
                     small_topologies, space_isos_by_open_count,
                     spec_by_definition, validate_apmap)
from test_points import golden_space

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

Z2, Z3, Z4, Z6, Z12 = (corpus.zn(n) for n in (2, 3, 4, 6, 12))


# -------------------------------------------------------------- specific spaces


def test_spec_limits_match_product_scan(monkeypatch):
    """Every section limit of the corpus specs."""
    calls = []
    real_limit = tables.limit

    def recording(kind, objects, arrows):
        out = real_limit(kind, objects, arrows)
        calls.append((kind, objects, arrows, out))
        return out

    monkeypatch.setattr(tables, "limit", recording)
    for ctx, A in corpus_by_context():
        X = sp.build_spec(ctx, A)
        for U in X.opens:   # each section is built on its first read
            X.sections[U]
    assert len(calls) > 50
    for kind, objects, arrows, out in calls:
        assert out == limit_by_product_scan(kind, objects, arrows)


def test_lift_matches_the_lookup_route_on_every_spec_limit(monkeypatch):
    """Each map into a limit of the corpus specs, built key by key instead."""
    real_lift = tables.lift
    calls = []

    def by_lookup(source, L, lookup, legs):
        f = tables.Hom(source, L, tuple(
            lookup[tuple(h.map[x] for h in legs)] for x in range(source.size)))
        assert is_hom(f)
        assert real_lift(source, L, lookup, legs) == f
        calls.append(f)
        return f

    monkeypatch.setattr(tables, "lift", by_lookup)
    for ctx, A in corpus_by_context():
        X = sp.build_spec(ctx, A)
        for U in X.opens:   # each canonical map is built on its first read
            X.canonical[U]
    assert len(calls) > 50


@pytest.mark.parametrize("space", ["spec-chain3xe2", "glue-doubled-e2xe2"])
def test_each_section_cone_lookup_and_restriction_is_built_once(
        space, monkeypatch):
    """Reading every section, cone, lookup and restriction twice calls
    `tables.limit` once per open whose section is not yet built (a glued
    space has built its stalks to check that they are local; a Spec has
    built none), `tables.cone_lookup` once per open and `tables.lift` once
    per pair V <= U of opens."""
    if space.startswith("spec"):
        X = sp.build_spec(DEI, corpus.monoid_product("chain3", "e2"))
    else:
        _, X = golden_space("doubled-e2xe2.json")
    unbuilt = [U for U in X.opens if U not in X.sections]
    assert len(unbuilt) == len(X.opens) - (X.n_points if X.base is None else 0)
    pairs = [(U, V) for U in X.opens for V in X.opens if V <= U]
    calls = dict.fromkeys(("limit", "cone_lookup", "lift"), 0)
    for name in calls:
        def counting(*args, name=name, real=getattr(tables, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(tables, name, counting)
    for _ in range(2):
        for U in X.opens:
            X.sections[U], X.cones[U], X.lookup(U)
        for U, V in pairs:
            X.res(U, V)
    assert calls == {"limit": len(unbuilt), "cone_lookup": len(X.opens),
                     "lift": len(pairs)}
    assert len(pairs) >= 50


def test_spec_z6_zariski():
    X = sp.build_spec(ZAR, Z6)
    assert X.n_points == 2
    assert len(X.opens) == 4  # discrete
    assert sorted(X.stalk(i).size for i in range(2)) == [2, 3]
    assert X.sections[X.total].size == 6
    assert X.canonical[X.total].is_bijective
    assert X.specialization_order() == []


def test_spec_z4_single_point():
    X = sp.build_spec(ZAR, Z4)
    assert X.n_points == 1
    assert X.sections[X.total].size == 4
    assert X.stalk(0).size == 4


def test_spec_z12_zariski():
    X = sp.build_spec(ZAR, Z12)
    assert X.n_points == 2
    assert sorted(X.stalk(i).size for i in range(2)) == [3, 4]
    assert X.sections[X.total].size == 12
    assert X.canonical[X.total].is_bijective


def test_spec_trivial_ring_is_empty():
    X = sp.build_spec(ZAR, corpus.trivial_ring())
    assert X.n_points == 0
    assert X.opens == (frozenset(),)
    assert X.sections[X.total].size == 1


def test_spec_flag_monoid_is_sierpinski():
    X = sp.build_spec(DEI, corpus.flag_monoid())
    assert X.n_points == 2
    assert len(X.opens) == 3  # one point open, the other closed
    assert X.specialization_order() == [(1, 0)]
    open_pt = next(p for p in range(2) if len(X.mins[p]) == 1)
    assert X.stalk(open_pt).size == 1
    assert X.sections[X.total].size == 2


def test_spec_domain_context_z6():
    X = sp.build_spec(DOM, Z6)
    assert X.n_points == 2
    assert sorted(X.stalk(i).size for i in range(2)) == [2, 3]


# the algebras of the benchmark's spec jobs
BENCH_ALGEBRAS = [
    (ZAR, corpus.zn(42)), (ZAR, corpus.zn(72)),
    (ZAR, corpus.ring_product(2, 3, 2, 2)),
    (DOM, corpus.zn(21)), (DOM, corpus.zn(24)),
    (DEI, corpus.monoid_product("e2", "chain3")),
    (DEI, corpus.monoid_product("chain3", "nil3")),
    (DEI, corpus.monoid_product("chain3", "c3")),
]


@pytest.mark.parametrize(
    "ctx, A", corpus_by_context() + BENCH_ALGEBRAS,
    ids=[f"{c.name}-{A.size}-{i}" for i, (c, A) in
         enumerate(corpus_by_context() + BENCH_ALGEBRAS)])
def test_build_spec_matches_the_definition(ctx, A):
    """Spec from its stalks against the sheafified canonical presheaf, open
    by open: the same opens in the same order, equal section sizes, canonical
    maps with the same kernel, the same counit verdict, and at each stalk an
    isomorphism under R."""
    X = sp.build_spec(ctx, A)
    _, G, canonical, _ = spec_by_definition(ctx, A)
    assert X.opens == G.opens
    for U in X.opens:
        assert X.sections[U].size == G.sections[U].size
        assert X.canonical[U].kernel_sig() == canonical[U].kernel_sig()
    assert X.canonical[X.total].is_bijective == \
        canonical[X.total].is_bijective
    for p in range(X.n_points):
        U = X.mins[p]
        iso = tables.induced(canonical[U], X.canonical[U])
        assert iso is not None and iso.is_bijective and is_hom(iso)


# ------------------------------------------------------------- sheaf properties


def test_structure_sheaves_satisfy_sheaf_condition():
    for ctx, algebras in [
        (ZAR, corpus.zariski_corpus()),
        (DOM, corpus.domain_corpus()),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            X = sp.build_spec(ctx, A)
            assert satisfies_sheaf_condition(X), (ctx.name, A.elements)


def test_zariski_canonical_presheaves_already_sheaves():
    for A in corpus.zariski_corpus():
        F, _ = canonical_presheaf(ZAR, A)
        assert satisfies_sheaf_condition(F)
        _, theta, single = sheafify(F)
        assert single and all(theta[U].is_bijective for U in F.opens)


def test_stalks_match_local_forms():
    for ctx, A in [(ZAR, Z6), (ZAR, Z12), (DOM, Z6),
                   (DEI, corpus.chain_monoid())]:
        X = sp.build_spec(ctx, A)
        for i, form in enumerate(X.forms):
            iso = X.stalk_iso[i]
            assert iso.is_bijective
            assert compose(X.canonical[X.mins[i]], iso) == form
            assert ctx.is_local(X.stalk(i))


def test_sheafify_randomized_presheaves():
    rng = random.Random(7)
    seen_double = seen_single = False
    for _ in range(12):
        F = random_presheaf(rng)
        G, theta, single = sheafify(F)
        assert satisfies_sheaf_condition(G)
        if single:
            seen_single = True
        else:
            seen_double = True
        # idempotent: sheafifying a sheaf changes nothing
        G2, theta2, single2 = sheafify(G)
        assert single2 and all(theta2[U].is_bijective for U in G.opens)
        # stalks are preserved: theta is bijective on minimal opens
        for p in range(F.n_points):
            assert theta[F.mins[p]].is_bijective
    assert seen_double and seen_single


def test_sheafify_matches_the_plus_oracle_on_every_corpus_spec():
    """Isomorphic sheaves, theta with the same kernels, the same flag."""
    for ctx, A in corpus_by_context():
        F, _ = canonical_presheaf(ctx, A)
        G, theta, single = sheafify(F)
        H, theta_plus, single_plus = sheafify_by_plus(F)
        assert isomorphic_sheaves(G, H), (ctx.name, A.elements)
        assert single == single_plus
        assert all(theta[U].kernel_sig() == theta_plus[U].kernel_sig()
                   for U in F.opens)


def test_sheafify_matches_the_plus_oracle_on_random_presheaves():
    """Plus is applied twice when F is not separated; the sheaves agree up
    to isomorphism."""
    rng = random.Random(11)
    seen = set()
    for _ in range(40):
        F = random_presheaf(rng)
        G, theta, single = sheafify(F)
        H, _, single_plus = sheafify_by_plus(F)
        assert single == single_plus
        assert isomorphic_sheaves(G, H)
        seen.add(single)
    assert seen == {True, False}


# a chain of three points, and a chain that forks into two closed points, so
# that specializations compose
CHAIN = [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]
FORK = CHAIN + [frozenset({0, 1, 3}), frozenset({0, 1, 2, 3})]
DEEP_POSETS = [(3, sp.sort_opens(CHAIN)), (4, sp.sort_opens(FORK))]


def test_sheafify_matches_the_plus_oracle_on_deep_posets():
    """Quotient presheaves on the chain and on the fork."""
    rng = random.Random(5)
    seen = set()
    for topology in DEEP_POSETS * 15:
        F = random_presheaf(rng, topology)
        G, theta, single = sheafify(F)
        H, _, single_plus = sheafify_by_plus(F)
        assert satisfies_sheaf_condition(G)
        assert single == single_plus
        assert isomorphic_sheaves(G, H)
        seen.add(single)
    assert seen == {True, False}


def test_specialization_order_matches_the_open_scan():
    for ctx, A in corpus_by_context():
        X = sp.build_spec(ctx, A)
        assert X.specialization_order() == [
            (p, q) for p in range(X.n_points) for q in range(X.n_points)
            if p != q and all(q in U for U in X.opens if p in U)]


def _random_order(rng, n):
    """The minimal opens of a random partial order on n points: each point
    lies over a random set of points before it, relabelled at random."""
    below = []
    for p in range(n):
        below.append(set().union(*({q} | below[q] for q in range(p)
                                   if rng.random() < 0.3)))
    label = rng.sample(range(n), n)
    mins = [frozenset()] * n
    for p in range(n):
        mins[label[p]] = frozenset({label[p]} | {label[q] for q in below[p]})
    return tuple(mins)


def test_width_is_the_largest_antichain():
    """`SpectralSpace.width`, by matching, against a search of the point sets in
    which no point's minimal open holds another, smallest first: on the
    corpus Specs, on deitmar Specs of products of e2 and chain3, whose
    orders are deeper and wider, and on random orders."""
    spaces = [sp.build_spec(ctx, A) for ctx, A in corpus_by_context()]
    spaces += [sp.build_spec(DEI, corpus.monoid_product(*names))
               for names in (("e2",) * 3, ("e2",) * 4, ("chain3", "e2"),
                             ("chain3", "chain3"), ("chain3", "e2", "e2"))]
    rng = random.Random(29)
    for _ in range(200):
        mins = _random_order(rng, rng.randint(1, 9))
        spaces.append(sp.SpectralSpace("", "monoid", ("",) * len(mins), mins,
                                       None, None))
    widths = []
    for F in spaces:
        width = 0
        # an antichain's subsets are antichains: stop at the first size
        # that has none
        while any(all(q not in F.mins[p] for p in S for q in S if q != p)
                  for S in itertools.combinations(range(F.n_points),
                                                  width + 1)):
            width += 1
        assert F.width() == width
        widths.append(width)
    assert widths[-205:-200] == [3, 6, 2, 3, 4]


def _spaces_of_every_shape():
    """The corpus Specs, and sheaves of random quotient presheaves on the
    small topologies, the chain and the fork."""
    rng = random.Random(17)
    spaces = [sp.build_spec(ctx, A) for ctx, A in corpus_by_context()]
    for topology in (small_topologies() + DEEP_POSETS) * 2:
        spaces.append(sheafify(random_presheaf(rng, topology))[0])
    return spaces


def test_minimal_open_criteria_match_the_open_lattice():
    """`is_iso` on every point bijection between equal-size spaces, with
    bijective stalk maps so that the point map decides, `iter_space_isos`
    on every pair of equal-size spaces, and `restrict` to every open, each
    against its oracle over all opens."""
    spaces = _spaces_of_every_shape()
    verdicts, isos = [], 0
    for X, Y in itertools.product(spaces, repeat=2):
        if X.n_points != Y.n_points:
            continue
        stalks = tuple(identity(X.stalk(i)) for i in range(X.n_points))
        for pm in itertools.permutations(range(X.n_points)):
            m = sp.APMap(X, Y, pm, stalks)
            verdicts.append(is_iso(m))
            assert verdicts[-1] == is_iso_by_opens(m)
        found = [m.key for m in sp.iter_space_isos(X, Y)]
        assert found == [m.key for m in space_isos_by_open_count(X, Y)]
        isos += len(found)
    assert set(verdicts) == {True, False} and isos > len(spaces)
    for X in spaces:
        for U in X.opens:
            Y = restrict(X, U)
            opens, sheaf = restrict_by_opens(X, U)
            assert Y.opens == opens
            assert all(Y.sections[V] is A and Y.cones[V] == cone
                       for V, (A, cone) in sheaf.items())


def test_sheafify_trivializes_empty_sections():
    rng = random.Random(3)
    for _ in range(8):
        F = random_presheaf(rng)
        G, _, _ = sheafify(F)
        assert G.sections[frozenset()].size == 1


# ------------------------------------------------------------------------- maps


def test_spec_map_of_identity_is_identity():
    specs = sp.Specs(ZAR)
    m = sp.spec_map(specs, identity(Z6))
    ident = paper.identity_apmap(specs[Z6])
    assert m.point_map == ident.point_map
    assert section_maps(m) == section_maps(ident)
    assert is_iso(m)


def test_spec_map_functorial():
    f = all_homs(Z12, Z6)[0]
    g = all_homs(Z6, Z2)[0]
    specs = sp.Specs(ZAR)
    direct = sp.spec_map(specs, compose(f, g))
    composite = sp.compose_apmaps(sp.spec_map(specs, g), sp.spec_map(specs, f))
    assert direct.point_map == composite.point_map
    assert section_maps(direct) == section_maps(composite)


def test_spec_maps_compose_within_one_workspace_only():
    f = all_homs(Z12, Z6)[0]
    g = all_homs(Z6, Z2)[0]
    one, two = sp.Specs(ZAR), sp.Specs(ZAR)
    assert sp.spec_map(one, g) is sp.spec_map(one, g)
    assert sp.spec_map(one, g).source is one[Z2]
    with pytest.raises(InvariantViolation, match="not composable"):
        sp.compose_apmaps(sp.spec_map(one, g), sp.spec_map(two, f))


class CoarsestLocalization(type(ZAR)):
    """zariski, reading every localization part as the one-class kernel."""

    def localization_sig(self, f):
        return (0,) * f.source.size


class FirstFormLocalization(type(ZAR)):
    """zariski, reading every localization part as its first local form's
    kernel: a form's, but not one that every map factors through."""

    def localization_sig(self, f):
        return self.local_forms(f.source)[0].kernel_sig()


@pytest.mark.parametrize("cls", [CoarsestLocalization, FirstFormLocalization])
def test_spec_map_raises_when_a_localization_part_is_no_form(cls):
    with pytest.raises(InvariantViolation, match="not a local form"):
        sp.spec_map(sp.Specs(cls()), identity(Z6))


def test_spec_map_appears_in_enumeration():
    q = all_homs(Z6, Z3)[0]
    m = sp.spec_map(sp.Specs(ZAR), q)
    found = sp.enumerate_apmaps(ZAR, m.source, m.target)
    assert any(n.point_map == m.point_map and section_maps(n) == section_maps(m)
               for n in found)


def test_enumerate_apmaps_counts():
    X = sp.build_spec(ZAR, Z6)
    assert len(sp.enumerate_apmaps(ZAR, X, X)) == 1
    S = sp.build_spec(DEI, corpus.flag_monoid())
    assert len(sp.enumerate_apmaps(DEI, S, S)) == 2


def test_open_embeddings_of_localizations():
    for ctx, A in [(ZAR, Z6), (ZAR, Z12), (DEI, corpus.flag_monoid())]:
        specs = sp.Specs(ctx)
        for k in enumerate_localizations(ctx, A).values():
            assert paper.open_embedding_check(specs, A, k)


def test_embedding_restricts_to_spec_of_target():
    specs = sp.Specs(ZAR)
    k = next(p for p in enumerate_localizations(ZAR, Z6).values()
             if p.target.size == 2)
    U, iso = open_embedding_data(specs, Z6, k)
    assert iso.source.n_points == len(U) == 1
    assert is_iso(iso) and iso.target is specs[k.target]
    K = sp.build_spec(ZAR, k.target)
    assert iso.target.sections[iso.target.total] == K.sections[K.total]


def test_spaces_isomorphic_and_not():
    X6 = sp.build_spec(ZAR, Z6)
    XP = sp.build_spec(ZAR, corpus.ring_product(2, 3))
    m = sp.spaces_isomorphic(X6, XP)
    assert m is not None and is_iso(m)
    assert sp.spaces_isomorphic(X6, sp.build_spec(ZAR, Z4)) is None
    assert sp.spaces_isomorphic(X6, sp.build_spec(ZAR, Z12)) is None


def test_validate_apmap_rejects_discontinuous_point_map():
    X = sp.build_spec(DEI, corpus.flag_monoid())
    m = paper.identity_apmap(X)
    flipped = tuple(reversed(m.point_map))  # swaps the open and closed point
    with pytest.raises(InvariantViolation):
        validate_apmap(DEI, sp.APMap(X, X, flipped, m.stalks))


def test_restrict_total_is_identity_shape():
    X = sp.build_spec(ZAR, Z12)
    Y = restrict(X, X.total)
    assert Y.opens == X.opens
    assert all(Y.sections[U] == X.sections[U] for U in X.opens)
