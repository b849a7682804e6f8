"""Reduction functors, fixed points, and geometric isomorphisms.

The domain-context reduction is cross-checked against a nilradical oracle,
the geometric-iso criterion against a direct comparison of spectra, and the
`reduced` and `mono-reduced` checks, and the mono reduction, against ell
built into the product.
"""

from __future__ import annotations

import json

import pytest

from conespec import contexts as C
from conespec import cli, corpus, io as cio
from conespec import reduction as red, spectrum as sp
from conespec import tables
from conespec.homs import all_homs
from conespec.tables import compose, identity

import paper
from helpers import (canonical_presheaf, corpus_by_context, ell,
                     enumerate_localizations, image_factorization,
                     is_hom_on_all_pairs, isomorphic,
                     power, quotient, reduced_by_product,
                     satisfies_sheaf_condition)

ZAR = C.get_context("zariski")
DOM = C.get_context("domain")
DEI = C.get_context("deitmar")

Z2, Z3, Z4, Z6, Z12 = (corpus.zn(n) for n in (2, 3, 4, 6, 12))


def nilradical_quotient_oracle(A):
    """A modulo its nilpotent elements, by direct computation."""
    nil = [x for x in range(A.size)
           if any(power(A, x, k) == A.zero for k in range(1, A.size + 1))]
    Q, _ = quotient(A, tables.Ideal(A, frozenset(nil)))
    return Q


def test_zariski_everything_already_reduced():
    for A in corpus.zariski_corpus():
        if A.size == 1:
            continue
        unit, _ = red.reduce_admissible(ZAR, A)
        assert unit.is_bijective
        assert paper.is_reduced(ZAR, A)


def test_domain_reduction_is_nilradical_quotient():
    for A in [Z4, Z6, corpus.zn(8), corpus.zn(9), Z12, corpus.f2x2()]:
        unit, _ = red.reduce_admissible(DOM, A)
        assert isomorphic(unit.target, nilradical_quotient_oracle(A)), \
            A.elements


def test_domain_f2x2_reduces_to_f2():
    unit, witness = red.reduce_admissible(DOM, corpus.f2x2())
    assert isomorphic(unit.target, Z2)
    assert unit.is_surjective
    assert not paper.is_reduced(DOM, corpus.f2x2())
    assert DOM.is_admissible(witness)


def test_mono_reduction_is_image():
    """The mono reduction built from ell's families is the image subalgebra
    of ell built into the product, up to the iso that carries its unit onto
    ell's epi part and its cone onto the inclusion's composites with the
    product's projections."""
    for ctx, A in ell_cases():
        algebra, unit, cone = paper.mono_reduce(ctx, A)
        epi, incl = image_factorization(ell(ctx, A))
        _, projs = tables.product(A.kind, [p.target
                                           for p in ctx.local_forms(A)])
        iso = tables.induced(unit, epi)
        assert iso is not None and iso.is_bijective, (ctx.name, A.elements)
        assert is_hom_on_all_pairs(iso)
        assert cone == [compose(iso, compose(incl, pr)) for pr in projs]
        assert unit.is_surjective and incl.is_injective
        if paper.is_mono_reduced(ctx, A):
            assert unit.is_bijective


def test_reduce_admissible_matches_factorizing_ell():
    for ctx, A in corpus_by_context():
        h = ell(ctx, A)
        path, g = C.factorize(ctx, h)
        unit, witness = red.reduce_admissible(ctx, A)
        assert unit.kernel_sig() == path.kernel_sig()
        assert unit == path
        # the residual lands in R/ker ell, which ell embeds in the product
        _, q = tables.quotient_by_sig(A, h.kernel_sig())
        incl = tables.induced(q, h)
        assert incl.is_injective and compose(witness, incl) == g


def test_reduction_idempotent():
    for ctx, A in [(DOM, Z4), (DOM, corpus.f2x2()), (DEI, corpus.flag_monoid())]:
        algebra = red.reduce_admissible(ctx, A)[0].target
        again, _ = red.reduce_admissible(ctx, algebra)
        assert again.is_bijective
        assert paper.is_reduced(ctx, algebra)
        mono, _, _ = paper.mono_reduce(ctx, A)
        assert paper.is_mono_reduced(ctx, mono)


def test_epi_reflectivity():
    for ctx, algebras in [
        (DOM, [Z2, Z3, Z4, Z6, corpus.f2x2()]),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            unit, _ = red.reduce_admissible(ctx, A)
            for S in algebras:
                if not paper.is_reduced(ctx, S):
                    continue
                for f in all_homs(A, S):
                    factors = [g for g in all_homs(unit.target, S)
                               if compose(unit, g) == f]
                    assert len(factors) == 1


def test_reduction_unit_is_geometric_iso():
    for ctx, algebras in [
        (DOM, [Z4, Z6, corpus.f2x2(), corpus.zn(9)]),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            if A.size == 1:
                continue
            unit, _ = red.reduce_admissible(ctx, A)
            assert paper.is_geometric_iso(ctx, unit)
            iso = sp.spaces_isomorphic(sp.build_spec(ctx, unit.target),
                                       sp.build_spec(ctx, A))
            assert iso is not None


def test_geometric_iso_examples():
    assert paper.is_geometric_iso(ZAR, identity(Z6))
    assert not paper.is_geometric_iso(ZAR, all_homs(Z6, Z2)[0])
    unit, _ = red.reduce_admissible(DOM, corpus.f2x2())
    assert paper.is_geometric_iso(DOM, unit)


def test_geometric_iso_agrees_with_spec_oracle():
    pool = []
    for ctx, algebras in [
        (ZAR, [Z2, Z3, Z4, Z6, corpus.f2x2(), corpus.ring_product(2, 2)]),
        (DOM, [Z2, Z4, Z6, corpus.f2x2()]),
        (DEI, [corpus.flag_monoid(), corpus.chain_monoid(),
               corpus.cyclic_group_monoid(2)]),
    ]:
        for A in algebras:
            for B in algebras:
                for f in all_homs(A, B):
                    pool.append((ctx, f))
    assert len(pool) >= 50
    for ctx, f in pool:
        verdict, cert = red.geometric_iso(ctx, f)
        assert verdict == paper.is_spec_iso(ctx, f)
        if verdict:
            assert all(h.is_bijective for h in cert["isos"])


def test_fixed_points_pass_both_reduced_tests():
    for ctx, algebras in [
        (ZAR, corpus.zariski_corpus()),
        (DOM, corpus.domain_corpus()),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            if A.size == 1:
                continue
            if paper.is_fixed_point(ctx, A):
                assert paper.is_reduced(ctx, A)
                assert paper.is_mono_reduced(ctx, A)


def test_fixed_point_examples():
    for A in corpus.zariski_corpus():
        if A.size > 1:
            assert paper.is_fixed_point(ZAR, A)
    assert paper.is_fixed_point(DEI, corpus.flag_monoid())
    assert not paper.is_fixed_point(DOM, corpus.f2x2())


def test_canonical_presheaf_sheafness_matches_fixed_point_zariski():
    for A in corpus.zariski_corpus():
        if A.size == 1:
            continue
        F, _ = canonical_presheaf(ZAR, A)
        assert satisfies_sheaf_condition(F) == paper.is_fixed_point(ZAR, A)


def test_distop_lattice_bijection():
    for ctx, algebras in [
        (ZAR, [Z4, Z6, Z12, corpus.f2x2()]),
        (DOM, [Z4, Z6, corpus.f2x2()]),
        (DEI, corpus.deitmar_corpus()),
    ]:
        for A in algebras:
            if A.size == 1:
                continue
            assert paper.distop_lattice_bijection(ctx, A), \
                (ctx.name, A.elements)


def test_flatness_of_local_forms_zariski():
    for A in [Z6, Z12, corpus.ring_product(2, 2)]:
        covers = paper.enumerate_opcovers(ZAR, A)
        for p in ZAR.local_forms(A):
            key = p.kernel_sig()
            loc = enumerate_localizations(ZAR, A)[key]
            for cover in covers:
                assert red.check_flat_wrt_cover(loc, cover)


def test_flat_search_domain_context():
    # exhaustive search for a failing square on the small corpus; none is
    # known at this scale, and any hit would be a notable counterexample
    found = []
    for A in [Z4, Z6, corpus.f2x2()]:
        covers = paper.enumerate_opcovers(DOM, A)
        for p in DOM.local_forms(A):
            loc = enumerate_localizations(DOM, A)[p.kernel_sig()]
            for cover in covers:
                if not red.check_flat_wrt_cover(loc, cover):
                    found.append((A.elements, p.kernel_sig(), len(cover.components)))
    assert found == []


# products of Z/n with three or four local forms in both ring contexts, and
# labels that are tuples, so that their order in the product is not the
# order of their values
PRODUCTS = [(2, 3, 5), (4, 3, 2), (2, 2, 2), (3, 4, 5), (2, 9, 2), (2, 2, 2, 2)]


def ell_cases():
    yield from corpus_by_context()
    for ns in PRODUCTS:
        for ctx in (ZAR, DOM):
            yield ctx, corpus.ring_product(*ns)
    for n in (30, 60, 42, 100):
        for ctx in (ZAR, DOM):
            yield ctx, corpus.zn(n)


def run_check(tmp_path, capsys, ctx, A, prop):
    path = tmp_path / "a.json"
    path.write_text(cio.dumps(cio.algebra_to_dict(A)))
    code = cli.main(["check", "--context", ctx.name, "--property", prop,
                     "--input", str(path)])
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out else err)


def test_reduced_checks_match_ell_into_the_built_product(tmp_path, capsys):
    verdicts = set()
    for ctx, A in ell_cases():
        for prop in ("reduced", "mono-reduced"):
            verdict, certificate = reduced_by_product(ctx, A, prop)
            assert run_check(tmp_path, capsys, ctx, A, prop) == (
                0 if verdict else 1,
                {"property": prop, "verdict": verdict,
                 "certificate": certificate}), (ctx.name, prop, A.elements)
            verdicts.add((ctx.name, prop, verdict))
    # in zariski and deitmar ell is injective and reflects units on every
    # finite algebra, so only domain has false verdicts
    assert {v for c, _, v in verdicts if c != "domain"} == {True}
    assert {(p, v) for c, p, v in verdicts if c == "domain"} == {
        (p, v) for p in ("reduced", "mono-reduced") for v in (True, False)}
    assert sum(len(ctx.local_forms(A)) >= 3
               for ctx, A in ell_cases()) >= 2 * len(PRODUCTS)


def test_reduced_checks_build_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("product tables built")

    monkeypatch.setattr(tables, "product", refuse)
    monkeypatch.setattr(tables, "limit", refuse)
    for ctx, A in ell_cases():
        for cls in ("admissible", "mono"):
            red.reduced(ctx, A, cls)


@pytest.mark.parametrize("prop", ["reduced", "mono-reduced"])
def test_reduced_checks_refuse_a_product_past_the_search_bounds(
        monkeypatch, tmp_path, capsys, prop):
    """As when the product was built: Z/12 has the local forms Z/3 and Z/4,
    so ell lands in 12 elements, which the join lists by visiting 3 + 12
    partial families."""
    for bound, expected in (
            (11, (3, "resource bound: product carrier too large\n")),
            (14, (3, "resource bound: limit search space too large\n"))):
        monkeypatch.setattr(tables, "SEARCH_MAX", bound)
        assert run_check(tmp_path, capsys, ZAR, Z12, prop) == expected
    monkeypatch.setattr(tables, "SEARCH_MAX", 15)
    assert run_check(tmp_path, capsys, ZAR, Z12, prop)[0] == 0
