"""The record types compare and hash by their fields.

A value type's hash is `hash` of its field tuple in declaration order, the
hash a frozen dataclass has, so set and dict orders, and with them every
output, depend on the fields alone.
"""

from __future__ import annotations

import pytest

from conespec import contexts as C
from conespec import corpus, spectrum as sp, tables
from conespec.contexts import CellDatum, LocalizationPath
from conespec.tables import FiniteAlgebra, Hom, Ideal

Z6 = corpus.zn(6)
ZAR = C.get_context("zariski")


def value_fields():
    """(type, field tuple in declaration order) for each value type."""
    k = next(k for k in C.enumerate_localizations(ZAR, Z6).values()
             if k.target.size == 2)
    A = Z6
    return [
        (FiniteAlgebra, (A.kind, A.elements, A.mul, A.one, A.add, A.zero)),
        (Hom, (A, k.target, k.composite.map)),
        (Ideal, (A, frozenset({0, 2, 4}))),
        (CellDatum, ("zariski", (2, 3))),
        (LocalizationPath, (k.source, k.steps, k.target, k.composite)),
    ]


@pytest.mark.parametrize("cls, fields", value_fields(),
                         ids=[cls.__name__ for cls, _ in value_fields()])
def test_value_types_compare_and_hash_by_their_fields(cls, fields):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b}) == 1
    twin = type("Twin", (cls,), {})(*fields)
    assert a != twin and twin != a
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls()


def test_apmaps_compare_field_wise():
    m = sp.spec_map(ZAR, tables.identity(Z6))
    copy = sp.APMap(m.source, m.target, m.point_map, dict(m.section_maps))
    assert [m, copy] == [copy, m]
    swapped = sp.APMap(m.source, m.target, m.point_map[::-1],
                       m.section_maps)
    assert [m] != [swapped]
    with pytest.raises(TypeError):
        sp.APMap(m.source, m.target, m.point_map)
