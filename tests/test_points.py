"""The functor of points by the two searches of the library, against the
brute-force oracles, and the scheme-equivalence probe on the full site.

`paper.Probe.natural_transformations` and the nerve sheaf families are
each one `tables.agreeing_families` join (the first with an arrow, as a
meet, per site hom and value), and `iter_space_isos` is the minimal-open
map search; the oracles in `helpers` try every assignment, scan the
product of the component values and choose an isomorphism at every open.
Each pair must give the same results in the same order.
"""

from __future__ import annotations

import os
from argparse import Namespace

import pytest

from conespec import cli, corpus, glue as gl, io as cio
from conespec import contexts as C
from conespec import spectrum as sp
from conespec import tables
from conespec.errors import SizeBound

import paper
from helpers import (corpus_by_context, natural_transformations_by_product,
                     nerve_families_by_product, section_maps,
                     space_isos_by_opens)

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden", "inputs")


def golden_space(name):
    """A new workspace in the golden input's context, and its space there."""
    doc = cio.load_object(os.path.join(GOLDEN_INPUTS, name))
    specs = sp.Specs(C.get_context(doc.get("context", "zariski")))
    return specs, cli._space_from_input(
        specs, doc, Namespace(size_bound=4096))


def corpus_spaces(max_size=None):
    """Spec of every corpus algebra, or of those of at most `max_size`
    elements, by context."""
    out = {}
    for ctx, A in corpus_by_context():
        if max_size is None or A.size <= max_size:
            out.setdefault(ctx.name, []).append(sp.build_spec(ctx, A))
    return out


# the oracle tries |NY(s)|^|NX(s)| assignments at each site object s, and
# runs only where that stays below this: deitmar Spec e2 -> Spec e2xe2 has
# 16^4 = 65,536 at e2xe2
ORACLE_WIDTH = 1_000


def test_natural_transformations_match_the_product_oracle():
    pairs = found = 0
    for name, group in corpus_spaces(max_size=4).items():
        specs = sp.Specs(C.get_context(name))
        probe = paper.Probe(specs, gl.default_site(specs.ctx, 4))
        for X in group:
            for Y in group:
                NX, NY = probe.nerve(X), probe.nerve(Y)
                if any(len(NY[s]) ** len(NX[s]) > ORACLE_WIDTH
                       for s in range(len(probe.site))):
                    continue
                nats = probe.natural_transformations(X, Y)
                assert nats == natural_transformations_by_product(
                    specs, probe.site, NX, NY)
                pairs += 1
                found += len(nats)
    assert pairs > 100 and found > 100


def test_nerve_families_match_the_product_oracle():
    covers = 0
    for name in ("p1-f1.json", "e2-three-charts.json", "z12.json"):
        specs, X = golden_space(name)
        values = {}
        for A in gl.default_site(specs.ctx, 4):
            for cover in paper.enumerate_opcovers(specs.ctx, A, 3):
                for k in cover.components:
                    if k.target not in values:
                        values[k.target] = sp.enumerate_apmaps(
                            specs.ctx, specs[k.target], X)
                at_K = [values[k.target] for k in cover.components]
                assert gl._nerve_families(specs, cover, at_K) == \
                    nerve_families_by_product(specs, cover, at_K)
                covers += 1
    assert covers > 50


def test_space_isos_match_the_search_over_every_open():
    pairs = found = 0
    groups = corpus_spaces()
    groups["deitmar"] += [
        sp.build_spec(DEI, corpus.monoid_product("e2", "e2", "e2")),
        sp.build_spec(DEI, corpus.monoid_product("chain3", "e2"))]
    for group in groups.values():
        for X in group:
            for Y in group:
                isos = list(sp.iter_space_isos(X, Y))
                old = list(space_isos_by_opens(X, Y))
                assert [m.point_map for m in isos] == \
                    [m.point_map for m in old]
                for m, o in zip(isos, old):
                    assert m.source is X and m.target is Y
                    assert section_maps(m) == section_maps(o)
                pairs += 1
                found += len(isos)
    assert pairs > 200 and found > 40


def test_natural_transformations_stop_at_the_search_bound(monkeypatch):
    specs = sp.Specs(DEI)
    probe = paper.Probe(specs, gl.default_site(DEI, 4))
    X = specs[corpus.monoid_product("e2", "e2")]
    assert len(probe.natural_transformations(X, X)) == 16
    monkeypatch.setattr(tables, "SEARCH_MAX", 10)
    with pytest.raises(SizeBound, match="limit search space too large"):
        probe.natural_transformations(X, X)


def test_probe_on_e2xe2_to_e2_counts_the_four_maps():
    specs = sp.Specs(DEI)
    X = specs[corpus.monoid_product("e2", "e2")]
    Y = specs[corpus.flag_monoid()]
    rep = paper.Probe(specs, gl.default_site(DEI, 4))(X, Y)
    assert (rep["n_homs"], rep["n_nats"], rep["bijective"]) == (4, 4, True)


def test_a_second_probe_in_one_workspace_builds_no_spec_map(monkeypatch):
    """The workspace keeps the Spec map of each site hom, so a second probe
    over the same site, with nerves of its own, reads no localization part
    off a map."""
    calls = []
    real = type(DEI).localization_sig

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(type(DEI), "localization_sig", counting)
    specs = sp.Specs(DEI)
    X = specs[corpus.monoid_product("e2", "e2")]
    Y = specs[corpus.flag_monoid()]
    site = gl.default_site(DEI, 4)
    first = paper.Probe(specs, site)(X, Y)
    assert calls
    calls.clear()
    assert paper.Probe(specs, site)(X, Y) == first
    assert calls == []


def test_a_probe_lists_the_site_homs_and_enumerates_each_nerve_once(
        monkeypatch):
    calls = []
    for home, name in ((paper, "all_homs"), (gl, "nerve")):
        def counting(*args, real=getattr(home, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(home, name, counting)
    specs = sp.Specs(DEI)
    X = specs[corpus.monoid_product("e2", "e2")]
    Y = specs[corpus.flag_monoid()]
    probe = paper.Probe(specs, gl.default_site(DEI, 4))
    reports = [probe(X, Y), probe(Y, X), probe(X, X), probe(X, Y)]
    assert reports[0] == reports[3]
    assert (calls.count("all_homs"), calls.count("nerve")) == \
        (len(probe.site) ** 2, 2)


# Z/9 has 9 elements and the site stops at 8, so Yoneda does not apply: no
# map of spaces, yet one natural transformation.  Artifacts of the
# truncated site, not counterexamples.
NOT_BIJECTIVE = {("zariski", corpus.zn(9), corpus.zn(n)) for n in (3, 6, 12)}


def probe_cases():
    """The golden gluings and Spec of every deitmar corpus monoid, each with
    itself, and every zariski and domain corpus pair, each with a probe over
    the full site of the workspace its spaces were built in."""
    def full_site(specs):
        return paper.Probe(specs, gl.default_site(specs.ctx))

    for name in ("p1-f1.json", "e2-three-charts.json", "doubled-z6.json"):
        specs, X = golden_space(name)
        yield full_site(specs), name, X, X
    specs = sp.Specs(DEI)
    probe = full_site(specs)
    for A in corpus.deitmar_corpus():
        yield probe, ("deitmar", A, A), specs[A], specs[A]
    for ctx, pool in ((ZAR, corpus.zariski_corpus()),
                      (DOM, corpus.domain_corpus())):
        specs = sp.Specs(ctx)
        probe = full_site(specs)
        for A in pool:
            for B in pool:
                yield probe, (ctx.name, A, B), specs[A], specs[B]


def test_scheme_equivalence_probe_on_the_full_site():
    failing = set()
    n = 0
    for probe, label, X, Y in probe_cases():
        rep = probe(X, Y)
        if not rep["bijective"]:
            assert (rep["n_homs"], rep["n_nats"]) == (0, 1), label
            failing.add(label)
        n += 1
    assert failing == NOT_BIJECTIVE
    assert n == 3 + 7 + 11 * 11 + 8 * 8


def test_probe_of_the_doubled_e2xe2_with_itself_on_the_full_site():
    """The golden gluing of two Spec e2xe2 along e, over every deitmar site
    object: its 961 maps to itself are the natural maps of its nerve."""
    specs, X = golden_space("doubled-e2xe2.json")
    rep = paper.Probe(specs, gl.default_site(specs.ctx))(X, X)
    assert (rep["site_size"], rep["n_homs"], rep["n_nats"],
            rep["bijective"]) == (7, 961, 961, True)
