"""Checked mode: every theorem-backed construction re-verified as it is built.

The library does not re-check maps into limits, limits, subalgebras,
pushouts by surjections or principal ideals, since a theorem guarantees each
of them.  Here those constructors are wrapped, wherever they are bound, and
every result is checked the hard way: the full law checks on each algebra,
`is_hom` on each lifted map, cone leg, inclusion and pushout injection, and
`Ideal.is_valid` on each principal ideal the domain context quotients by.
"""

from __future__ import annotations

import sys

import pytest

from conespec import contexts as C
from conespec import glue as gl, hypercover as hc, spectrum as sp, tables

from helpers import corpus_by_context


def laws(A):
    tables._check_laws(A.kind, A.elements, A.mul, A.add, A.zero, A.one)


def homs(*fs):
    for f in fs:
        assert tables.is_hom(f)


def ideal(I):
    assert I.is_valid()


CHECKS = {
    "lift": homs,
    "principal_ideal": ideal,
    "limit": lambda r: (laws(r[0]), homs(*r[1])),
    "subalgebra": lambda r: (laws(r[0]), homs(r[1])),
    "pushout": lambda r: (laws(r[0]), homs(*r[1:])),
}


@pytest.fixture
def checked(monkeypatch):
    """Wrap each constructor in CHECKS; returns how often each was checked."""
    fired = dict.fromkeys(CHECKS, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "conespec" or name.startswith("conespec.")]
    for name, check in CHECKS.items():
        real = getattr(tables, name)

        def wrapper(*args, real=real, name=name, check=check, **kwargs):
            result = real(*args, **kwargs)
            check(result)
            fired[name] += 1
            return result

        # rebind the name in every module that imported it, tables included
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)
    # build every space afresh, so that each construction runs checked
    monkeypatch.setattr(sp, "_SPEC_CACHE", {})
    return fired


def doubled(ctx, A, k):
    """Two copies of A glued along Pts k, with the identity of k's target."""
    ov = gl.make_overlap(ctx, (A, A), 0, 1, k, k,
                         tables.identity(k.target))
    return gl.GluingSpec(ctx.name, (A, A), (ov,))


def test_theorem_backed_results_pass_the_full_checks(checked):
    for ctx, A in corpus_by_context():
        sp.build_spec(ctx, A)
        for cover in hc.enumerate_opcovers(ctx, A):
            hc.cech_h0(ctx, cover)
        for k in C.enumerate_localizations(ctx, A).values():
            if not k.composite.is_bijective:
                gl.glue(ctx, doubled(ctx, A, k))
    assert all(checked.values()), checked
