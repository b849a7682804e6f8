"""Algebra-core tests.

Derived expectations are checked against independent oracles written before
the operations themselves: coset enumeration for quotients, exhaustive
universal-property searches for localizations/pushouts/products, and plain
bijection search for isomorphism testing.
"""

from __future__ import annotations

import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import corpus, homs, tables
from conespec.errors import (
    InvariantViolation,
    NoDistributivity,
    NonAssociative,
    NonCommutative,
    SizeBound,
    ValidationError,
)
from conespec.homs import all_homs
from conespec.tables import (
    MONOID,
    RING,
    Hom,
    compose,
    congruence_closure,
    identity,
    is_hom,
    limit,
    product,
    pushout,
    quotient_by_sig,
    validate,
)
from helpers import (
    agreeing_families_by_product_scan,
    congruence_closure_on_all_columns,
    corpus_by_context,
    find_isomorphism,
    ideal_generated,
    image_factorization,
    invert_element,
    is_hom_on_all_pairs,
    isomorphic,
    large_nonassociative_monoid,
    limit_by_product_scan,
    quotient,
    quotient_by_rows,
    search_plan_by_scan,
    subprocess_env,
)

Z2, Z3, Z4, Z6, Z12 = (corpus.zn(n) for n in (2, 3, 4, 6, 12))


# ---------------------------------------------------------------------- oracles


def coset_quotient_oracle(A, members):
    """Quotient of a ring by an ideal via direct coset enumeration."""
    members = frozenset(members)
    cosets = []
    seen = set()
    for i in range(A.size):
        if i in seen:
            continue
        c = frozenset(A.add[i][m] for m in members)
        seen |= c
        cosets.append(c)
    return cosets


def initial_among_inverting(A, a, Q, proj):
    """Universal-property oracle: proj is initial among maps inverting a."""
    if proj.map[a] not in Q.units:
        return False
    for B in [corpus.zn(k) for k in (1, 2, 3, 4, 6)] + [corpus.f2x2(), Q]:
        if B.kind != A.kind:
            continue
        for f in all_homs(A, B):
            if f.map[a] in B.units:
                factors = [g for g in all_homs(Q, B) if compose(proj, g) == f]
                if len(factors) != 1:
                    return False
    return True


def pushout_universal_oracle(f, g, Q, in_k, in_l, cocone_targets):
    if compose(f, in_k) != compose(g, in_l):
        return False
    for B in cocone_targets:
        if B.kind != Q.kind:
            continue
        k_maps = all_homs(f.target, B)
        l_maps = all_homs(g.target, B)
        for u in k_maps:
            for v in l_maps:
                if compose(f, u) == compose(g, v):
                    mediating = [
                        w for w in all_homs(Q, B)
                        if compose(in_k, w) == u and compose(in_l, w) == v
                    ]
                    if len(mediating) != 1:
                        return False
    return True


def bijection_iso_oracle(A, B):
    """Exhaustive bijection search, no pruning."""
    if A.size != B.size or A.kind != B.kind:
        return None
    for perm in itertools.permutations(range(B.size)):
        f = Hom(A, B, perm)
        if is_hom(f):
            return f
    return None


# ------------------------------------------------------------------- validation


def test_validate_z6_roundtrip():
    n = 6
    A = validate(RING, [str(i) for i in range(n)],
                 [[(i * j) % n for j in range(n)] for i in range(n)],
                 add=[[(i + j) % n for j in range(n)] for i in range(n)],
                 zero=0, one=1)
    assert A == Z6


def test_validate_flags_noncommutative_mul():
    mul = [[0, 1], [0, 1]]  # mul(a,b) != mul(b,a)
    with pytest.raises(NonCommutative) as ei:
        validate(MONOID, ["1", "e"], mul, one=0)
    assert ei.value.witness


def _first_asymmetric_pair(table):
    """The first (i, j) in row-major order of all n^2 with table[i][j] !=
    table[j][i], or None."""
    n = len(table)
    return next(((i, j) for i in range(n) for j in range(n)
                 if table[i][j] != table[j][i]), None)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.booleans(), st.data())
def test_noncommutative_witness_is_the_first_of_a_full_scan(n, in_add, data):
    """Commutativity is tested for i < j only; on random tables that are not
    commutative the witness and message are those of the scan over all n^2
    ordered pairs.  Random tables fail at mul; a ring with Z/n's
    multiplication and a random addition fails at add."""
    rows = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                    min_size=n, max_size=n)
    table = data.draw(rows)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                     .filter(lambda p: p[0] != p[1]))
    table[i][j] = (table[j][i] + 1) % n    # at least one asymmetric pair
    labels = [f"x{k}" for k in range(n)]
    if in_add:
        zn = [[(a * b) % n for b in range(n)] for a in range(n)]
        with pytest.raises(NonCommutative) as ei:
            validate(RING, labels, zn, add=table, zero=0, one=1)
    else:
        with pytest.raises(NonCommutative) as ei:
            validate(MONOID, labels, table, one=0)
    a, b = _first_asymmetric_pair(table)
    assert ei.value.witness == (a, b)
    x, y = labels[a], labels[b]
    assert str(ei.value) == (f"add({x},{y}) not commutative" if in_add
                             else f"mul({x},{y}) != mul({y},{x})")


def test_validate_monoid_e2():
    A = validate(MONOID, ["1", "e"], [[0, 1], [1, 1]], one=0)
    assert A == corpus.flag_monoid()


def test_validate_rejects_empty():
    with pytest.raises(ValidationError):
        validate(MONOID, [], [], one=0)


def test_validate_checks_associativity_above_64_elements():
    labels, mul = large_nonassociative_monoid(65)
    with pytest.raises(NonAssociative):
        validate(MONOID, labels, mul, one=0)


def test_validate_checks_distributivity_above_64_elements():
    Z65 = corpus.zn(65)
    two, three, seven = (Z65.elements.index(x) for x in ("2", "3", "7"))
    mul = [list(row) for row in Z65.mul]
    mul[two][three] = mul[three][two] = seven
    with pytest.raises(NoDistributivity):
        validate(RING, Z65.elements, mul, add=Z65.add, zero=Z65.zero,
                 one=Z65.one)


def test_validate_rejects_distributive_nonassociative_ring():
    # F2^3 on the basis 1, a, b with a*a = b, a*b = 0, b*b = 1: bilinear,
    # commutative and unital, but (a*a)*b = 1 while a*(a*b) = 0
    basis_mul = {(0, 0): 1, (0, 1): 2, (0, 2): 4, (1, 1): 4, (1, 2): 0,
                 (2, 2): 1}

    def mul(u, v):
        out = 0
        for i in range(3):
            for j in range(3):
                if u >> i & 1 and v >> j & 1:
                    out ^= basis_mul[min(i, j), max(i, j)]
        return out

    with pytest.raises(NonAssociative):
        validate(RING, [str(u) for u in range(8)],
                 [[mul(u, v) for v in range(8)] for u in range(8)],
                 add=[[u ^ v for v in range(8)] for u in range(8)],
                 zero=0, one=1)


def brute_force_laws_hold(kind, mul, add, zero, one):
    """Every axiom over every triple, the O(n^3) reference for validate."""
    n = len(mul)
    r = range(n)
    ops = [mul] + ([add] if kind == RING else [])
    if any(t[x][y] != t[y][x] for t in ops for x in r for y in r):
        return False
    if any(mul[one][x] != x for x in r):
        return False
    if any(t[t[x][y]][z] != t[x][t[y][z]] for t in ops
           for x in r for y in r for z in r):
        return False
    if kind == MONOID:
        return True
    return (all(add[zero][x] == x and zero in add[x] for x in r)
            and all(mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                    for x in r for y in r for z in r))


def laws_accepted(kind, mul, add=None, zero=None, one=0):
    try:
        validate(kind, [str(i) for i in range(len(mul))], mul, add=add,
                 zero=zero, one=one)
    except ValidationError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_light_test_matches_brute_force_on_monoid_tables(n, data):
    # commutative with unit 0, so only associativity is in question
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        mul[0][x] = mul[x][0] = x
        for y in range(max(x, 1), n):
            mul[x][y] = mul[y][x] = data.draw(st.integers(0, n - 1))
    assert laws_accepted(MONOID, mul) == brute_force_laws_hold(
        MONOID, mul, None, None, 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(corpus.zariski_corpus()), st.data())
def test_light_test_matches_brute_force_on_mutated_rings(A, data):
    n = A.size
    mul = [list(row) for row in A.mul]
    add = [list(row) for row in A.add]
    for _ in range(data.draw(st.integers(0, 2))):
        table = data.draw(st.sampled_from([mul, add]))
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[x][y] = table[y][x] = v
    assert laws_accepted(RING, mul, add, A.zero, A.one) == \
        brute_force_laws_hold(RING, mul, add, A.zero, A.one)


def test_operation_outputs_revalidate():
    outputs = []
    outputs.append(invert_element(Z6, 3)[0])
    outputs.append(quotient(Z6, ideal_generated(Z6, [3]))[0])
    outputs.append(product(RING, [Z2, Z3])[0])
    p2 = invert_element(Z6, 3)[1]
    p3 = invert_element(Z6, 2)[1]
    outputs.append(pushout(p2, p3)[0])
    for A in outputs:
        B = validate(A.kind, A.elements, A.mul, add=A.add, zero=A.zero, one=A.one)
        assert B == A


# -------------------------------------------------------------------- quotients


def test_quotient_z6_by_3():
    I = ideal_generated(Z6, [Z6.elements.index("3")])
    assert sorted(Z6.elements[i] for i in I.members) == ["0", "3"]
    Q, proj = quotient(Z6, I)
    cosets = coset_quotient_oracle(Z6, I.members)
    assert Q.size == len(cosets) == 3
    assert isomorphic(Q, Z3)
    assert proj.is_surjective


def test_quotient_by_zero_ideal_is_identity():
    I = ideal_generated(Z6, [])
    Q, proj = quotient(Z6, I)
    assert Q == Z6 and proj == identity(Z6)


def test_quotient_by_sig_rejects_non_congruences():
    # {0, 1} merged: 1 + 1 = 2 is then not merged with 0 + 1 = 1
    with pytest.raises(InvariantViolation):
        quotient_by_sig(Z6, (0, 0, 1, 2, 3, 4))
    # x ~ -x respects mul but not add
    with pytest.raises(InvariantViolation, match="add"):
        quotient_by_sig(Z6, (0, 1, 2, 3, 2, 1))
    # in {1, x, y = x^2}, merging 1 with x would force x = x*1 ~ x*x = y
    with pytest.raises(InvariantViolation):
        quotient_by_sig(corpus.nilpotent_monoid(), (0, 0, 1))


def test_quotient_by_identity_partition_returns_the_algebra():
    for A in corpus.zariski_corpus() + corpus.deitmar_corpus():
        Q, proj = quotient_by_sig(A, range(A.size))
        assert Q is A and proj == identity(A)


def all_ideals(A):
    found = {ideal_generated(A, []).members}
    frontier = list(found)
    while frontier:
        I = frontier.pop()
        for x in range(A.size):
            J = ideal_generated(A, sorted(I | {x})).members
            if J not in found:
                found.add(J)
                frontier.append(J)
    return [tables.Ideal(A, J) for J in sorted(found, key=sorted)]


def test_coset_quotient_matches_congruence_closure():
    for A in corpus.zariski_corpus():  # contains the domain corpus
        for I in all_ideals(A):
            Q, proj = quotient(A, I)
            sig = congruence_closure(A, [(i, A.zero) for i in I.members])
            assert (Q, proj) == quotient_by_sig(A, sig)
            assert Q.size == len(coset_quotient_oracle(A, I.members))


# ------------------------------------- checks on generators vs. the row oracles

POOL = [corpus.by_name(name) for name in corpus.names()] + [
    corpus.zn(24), corpus.ring_product(2, 2, 3),
    corpus.monoid_product("e2", "chain3"), corpus.monoid_product("c2", "nil3"),
    corpus.monoid_product("e2", "e2", "nil3")]


def set_partitions(n):
    """Every partition of range(n), as a normalized sig."""
    if n == 0:
        yield ()
        return
    for sig in set_partitions(n - 1):
        for c in range(max(sig, default=-1) + 2):
            yield sig + (c,)


def draw_partition(A, data):
    """Random classes, a congruence closure of random pairs, or such a
    closure with one element moved, which may or may not stay a congruence."""
    n = A.size
    way = data.draw(st.sampled_from(["random", "closure", "moved"]))
    if way == "random":
        return tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                        max_size=n)))
    index = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=3))
    sig = list(congruence_closure_on_all_columns(A, pairs))
    if way == "moved":
        sig[data.draw(index)] = data.draw(index)
    return tuple(sig)


def same_quotient(A, sig) -> bool:
    """Whether quotient_by_sig raises exactly when the row oracle does, and
    otherwise builds the same quotient; returns whether sig is a congruence."""
    try:
        expected = quotient_by_rows(A, sig)
    except InvariantViolation:
        with pytest.raises(InvariantViolation, match="not a congruence"):
            quotient_by_sig(A, sig)
        return False
    assert quotient_by_sig(A, sig) == expected
    return True


def test_quotient_checks_every_partition_of_small_algebras_like_the_rows():
    verdicts = [same_quotient(A, sig) for A in POOL if A.size <= 6
                for sig in set_partitions(A.size)]
    assert len(verdicts) > 500 and any(verdicts) and not all(verdicts)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(POOL), st.data())
def test_quotient_checks_random_partitions_like_the_rows(A, data):
    same_quotient(A, draw_partition(A, data))


def test_quotient_matches_the_rows_on_every_congruence_the_corpus_meets():
    for ctx, A in corpus_by_context():
        sigs = [p.kernel_sig() for p in ctx.local_forms(A)]
        sigs += [tables.inversion_sig(A, a) for a in range(A.size)]
        sigs += [f.kernel_sig() for B in POOL if B.size <= 4
                 for f in all_homs(A, B)]
        if A.is_ring:
            sigs += [tables.ideal_sig(tables.principal_ideal(A, g))
                     for g in range(A.size)]
        for sig in sigs:
            assert same_quotient(A, sig)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(POOL), st.data())
def test_congruence_closure_matches_the_sweep_of_every_column(A, data):
    index = st.integers(0, A.size - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=4))
    sig = congruence_closure(A, pairs)
    assert sig == congruence_closure_on_all_columns(A, pairs)
    assert same_quotient(A, sig)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(POOL), st.sampled_from(POOL), st.data())
def test_is_hom_matches_the_check_of_every_pair_on_random_maps(A, B, data):
    m = data.draw(st.lists(st.integers(0, B.size - 1), min_size=A.size,
                           max_size=A.size))
    if A.kind == B.kind and data.draw(st.booleans()):
        m[A.one] = B.one
        if A.is_ring:
            m[A.zero] = B.zero
    f = Hom(A, B, tuple(m))
    assert is_hom(f) == is_hom_on_all_pairs(f)


def test_is_hom_matches_the_check_of_every_pair_on_all_hom_candidates(
        monkeypatch):
    verdicts = []

    def both(f):
        verdicts.append(is_hom(f))
        assert verdicts[-1] == is_hom_on_all_pairs(f)
        return verdicts[-1]

    monkeypatch.setattr(homs, "is_hom", both)
    for A in POOL:
        for B in POOL:
            if A.size <= 12 and B.size <= 6:
                all_homs(A, B)
    assert len(verdicts) > 1000 and any(verdicts) and not all(verdicts)


def counting_copy(A):
    """A with table rows that count every entry read, and the count."""
    reads = [0]

    class Row(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            reads[0] += len(self)
            return tuple.__iter__(self)

    def rows(table):
        return None if table is None else tuple(map(Row, table))

    return tables.FiniteAlgebra(A.kind, A.elements, rows(A.mul), A.one,
                                rows(A.add), A.zero), reads


def test_quotient_reads_table_entries_at_generators_and_classes_only():
    # 736 = 0 mod 8 and 1 mod 105: inverting it leaves Z/105
    Z840 = corpus.zn(840)
    A, reads = counting_copy(Z840)
    sig = tables.inversion_sig(Z840, Z840.elements.index("736"))
    Q, proj = quotient_by_sig(A, sig)
    n, k = A.size, Q.size
    assert k == 105
    # 1 generates Z/840 under addition, so O(n * |G| + k^2) is O(n + k^2),
    # not the 2 n^2 = 1.4 million reads of a check on every row
    assert reads[0] <= 4 * (n + k * k)
    assert (Q, proj) == quotient_by_rows(Z840, sig)


def test_is_hom_reads_the_source_tables_at_generators_only():
    A, reads = counting_copy(corpus.zn(840))
    B = corpus.zn(105)
    f = Hom(A, B, tuple(B.elements.index(str(int(x) % 105))
                        for x in A.elements))
    assert is_hom(f)
    assert reads[0] <= 4 * A.size    # |G| = 1, as above


def test_quotient_f2x2_by_x():
    A = corpus.f2x2()
    I = ideal_generated(A, [A.elements.index("x")])
    Q, proj = quotient(A, I)
    assert len(coset_quotient_oracle(A, I.members)) == 2
    assert isomorphic(Q, Z2)


# ---------------------------------------------------------------- localizations


def test_invert_3_in_z6():
    Q, proj = invert_element(Z6, Z6.elements.index("3"))
    assert isomorphic(Q, Z2)
    assert initial_among_inverting(Z6, Z6.elements.index("3"), Q, proj)


def test_invert_unit_is_identity():
    Q, proj = invert_element(Z6, Z6.elements.index("5"))
    assert Q == Z6 and proj == identity(Z6)


def test_invert_idempotent_monoid_generator():
    M = corpus.flag_monoid()
    e = M.elements.index("e")
    Q, proj = invert_element(M, e)
    assert Q.size == 1
    assert initial_among_inverting(M, e, Q, proj)


def test_iterated_inversion_matches_pushout():
    # inverting a then b agrees with the pushout of the two single inversions
    for A in [Z6, Z12, corpus.f2x2(), corpus.ring_product(2, 2)]:
        for a in range(A.size):
            for b in range(A.size):
                Qa, pa = invert_element(A, a)
                Qab, pab = invert_element(Qa, pa.map[b])
                Qb, pb = invert_element(A, b)
                P, _, _ = pushout(pa, pb)
                assert isomorphic(Qab, P)


# --------------------------------------------------------------------- pushouts


def test_pushout_of_the_two_z6_localizations_is_trivial():
    _, p2 = invert_element(Z6, 3)
    _, p3 = invert_element(Z6, 2)
    Q, _, _ = pushout(p2, p3)
    assert Q.size == 1


def test_pushout_along_identity():
    _, p3 = invert_element(Z6, 2)
    Q, _, in_l = pushout(identity(Z6), p3)
    assert isomorphic(Q, p3.target) and in_l.is_bijective


def test_pushout_terminal_monoid_absorbs():
    M = corpus.flag_monoid()
    t = all_homs(M, corpus.trivial_monoid())[0]
    Q, _, _ = pushout(t, t)
    assert Q.size == 1


def test_pushout_universal_property_small():
    cocone_targets = [Z2, Z3, corpus.zn(1), Z6]
    _, p2 = invert_element(Z6, 3)
    _, p3 = invert_element(Z6, 2)
    for f, g in [(p2, p3), (p2, p2), (identity(Z6), p3)]:
        Q, ik, il = pushout(f, g)
        assert pushout_universal_oracle(f, g, Q, ik, il, cocone_targets)


def test_monoid_pushout_universal_property():
    M = corpus.chain_monoid()
    e = M.elements.index("e")
    _, pe = invert_element(M, e)
    _, pf = invert_element(M, M.elements.index("f"))
    Q, ik, il = pushout(pe, pf)
    targets = [corpus.trivial_monoid(), corpus.flag_monoid(), M]
    assert pushout_universal_oracle(pe, pf, Q, ik, il, targets)


# --------------------------------------------------------------------- products


def test_product_z2_z3_is_z6():
    P, projs = product(RING, [Z2, Z3])
    assert isomorphic(P, Z6)
    # universal property for cones out of small algebras
    for A in [Z6, Z12]:
        for u in all_homs(A, Z2):
            for v in all_homs(A, Z3):
                mediating = [
                    w for w in all_homs(A, P)
                    if compose(w, projs[0]) == u and compose(w, projs[1]) == v
                ]
                assert len(mediating) == 1


def test_empty_product_is_terminal():
    P, projs = product(RING, [])
    assert P.size == 1 and projs == []


def test_unary_product():
    P, projs = product(MONOID, [corpus.chain_monoid()])
    assert P == corpus.chain_monoid()
    assert projs[0] == identity(P)


# ----------------------------------------------------------------------- limits


def test_limit_one_object():
    L, cone = limit(RING, [Z6], [])
    assert L == Z6


def test_pullback_z6_over_z2():
    q = all_homs(Z6, Z2)[0]
    L, cone = limit(RING, [Z6, Z6, Z2], [(0, 2, q), (1, 2, q)])
    assert L.size == 18
    assert isomorphic(L, corpus.ring_product(2, 3, 3))
    # oracle: elementwise filtering of the raw product
    raw = [
        (a, b) for a in range(6) for b in range(6) if q.map[a] == q.map[b]
    ]
    assert len(raw) == 18


_DIAGRAM_POOL = {
    MONOID: [corpus.trivial_monoid(), corpus.flag_monoid(),
             corpus.cyclic_group_monoid(2), corpus.cyclic_group_monoid(3),
             corpus.chain_monoid(), corpus.nilpotent_monoid()],
    RING: [corpus.trivial_ring(), Z2, Z3, corpus.zn(4), Z6, corpus.f2x2()],
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([MONOID, RING]), st.data())
def test_limit_matches_product_scan_on_random_diagrams(kind, data):
    pool = _DIAGRAM_POOL[kind]
    objects = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    arrows = []
    for _ in range(data.draw(st.integers(0, 5))):
        i = data.draw(st.integers(0, len(objects) - 1))
        j = data.draw(st.integers(0, len(objects) - 1))
        homs = all_homs(objects[i], objects[j])
        if homs:
            arrows.append((i, j, data.draw(st.sampled_from(homs))))
    assert limit(kind, objects, arrows) == \
        limit_by_product_scan(kind, objects, arrows)


def test_limit_bound_counts_visited_families(monkeypatch):
    # a chain of five identities: 3 values per object are visited, 15 in
    # all, while the product of the objects has 3^5 = 243 families
    M = corpus.chain_monoid()
    arrows = [(i, i + 1, identity(M)) for i in range(4)]
    monkeypatch.setattr(tables, "SEARCH_MAX", 15)
    L, _ = limit(MONOID, [M] * 5, arrows)
    assert L.size == 3
    monkeypatch.setattr(tables, "SEARCH_MAX", 14)
    with pytest.raises(SizeBound, match="limit search space too large"):
        limit(MONOID, [M] * 5, arrows)


_KEYS = [0, 1, "0", "a", (0,), (0, "a"), None, frozenset({1})]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4), st.data())
def test_agreeing_families_match_the_product_scan(sizes, data):
    """Small sizes, keys of mixed hashable types, meets with i == j among
    them, and the empty meet list: the families and their order are the
    scan's, and the join's plan is `helpers.search_plan_by_scan`'s."""
    meets = []
    if sizes:
        obj = st.integers(0, len(sizes) - 1)
        for _ in range(data.draw(st.integers(0, 4))):
            i, j = data.draw(obj), data.draw(obj)
            left, right = ([data.draw(st.sampled_from(_KEYS))
                            for _ in range(sizes[k])] for k in (i, j))
            meets.append((i, j, left, right))
    assert tables.agreeing_families(sizes, meets) == \
        agreeing_families_by_product_scan(sizes, meets)
    assert tables._search_plan(sizes, meets) == \
        search_plan_by_scan(sizes, meets)


def test_meet_bound_counts_only_the_objects_visited(monkeypatch):
    # two objects of 3 meeting on equal keys: 3 values of the first, each
    # forcing one of the second, 6 visits in all, with no object for the meet
    meets = [(0, 1, range(3), range(3))]
    monkeypatch.setattr(tables, "SEARCH_MAX", 6)
    assert tables.agreeing_families([3, 3], meets) == [(0, 0), (1, 1), (2, 2)]
    monkeypatch.setattr(tables, "SEARCH_MAX", 5)
    with pytest.raises(SizeBound, match="limit search space too large"):
        tables.agreeing_families([3, 3], meets)


def test_agreeing_families_examples():
    # no meet: the whole product, in lexicographic order
    assert tables.agreeing_families([2, 2], []) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    # a meet of an object with itself keeps the elements whose keys agree
    assert tables.agreeing_families([3], [(0, 0, "abc", "xbc")]) == \
        [(1,), (2,)]
    # keys of several types; 0 meets only the elements keyed 0
    assert tables.agreeing_families(
        [3, 2], [(0, 1, [0, "a", (1,)], [(1,), 0])]) == [(0, 1), (2, 0)]


def test_limit_rejects_an_arrow_that_is_not_a_hom():
    # the bijection of Z/6 swapping 2 and 4 preserves neither operation
    swap = Hom(Z6, Z6, (0, 1, 4, 3, 2, 5))
    for objects, arrows in (([Z6, Z6], [(0, 1, swap)]), ([Z6], [(0, 0, swap)])):
        with pytest.raises(InvariantViolation,
                           match="limit is not closed under the operations"):
            limit(RING, objects, arrows)


# ------------------------------------------------------------------ isomorphism


def test_induced_checks_its_hypothesis():
    proj = all_homs(Z6, Z2)[0]
    assert tables.induced(identity(Z6), proj) == proj
    assert tables.induced(proj, identity(Z6)) is None
    incl = Hom(Z2, Z6, (0, 3))
    with pytest.raises(InvariantViolation):
        tables.induced(incl, incl)           # not surjective
    with pytest.raises(InvariantViolation):
        tables.induced(proj, identity(Z3))   # different sources


def test_cone_lookup_rejects_a_cone_that_does_not_separate():
    P, projs = product(RING, [Z2, Z3])
    assert tables.cone_lookup(P, projs)[(1, 2)] == P.elements.index("(1,2)")
    with pytest.raises(InvariantViolation):
        tables.cone_lookup(P, projs[:1])


def test_lift_is_the_map_into_the_limit():
    P, projs = product(RING, [Z2, Z3])
    legs = [all_homs(Z6, Z2)[0], all_homs(Z6, Z3)[0]]
    f = tables.lift(Z6, P, tables.cone_lookup(P, projs), legs)
    assert f.is_bijective and [compose(f, pr) for pr in projs] == legs


def test_lift_rejects_a_family_outside_the_limit():
    A = corpus.ring_product(2, 2)
    swap = next(h for h in all_homs(A, A) if h != identity(A))
    # the diagonal of A x A holds no family (a, swap(a)) with a != swap(a)
    L, cone = limit(RING, [A, A], [(0, 1, identity(A))])
    with pytest.raises(InvariantViolation, match="does not lie in the limit"):
        tables.lift(A, L, tables.cone_lookup(L, cone), [identity(A), swap])


def test_find_isomorphism_matches_bijection_oracle():
    cases = [
        (product(RING, [Z2, Z3])[0], Z6),
        (Z2, Z3),
        (Z4, product(RING, [Z2, Z2])[0]),
        (corpus.f4(), corpus.f2x2()),
        (corpus.chain_monoid(), corpus.nilpotent_monoid()),
    ]
    for A, B in cases:
        fast = find_isomorphism(A, B)
        slow = bijection_iso_oracle(A, B)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_hom(fast) and fast.is_bijective


def test_find_isomorphism_reflexive_and_symmetric():
    for A in corpus.zariski_corpus() + corpus.deitmar_corpus():
        if A.size > 8:
            continue
        f = find_isomorphism(A, A)
        assert f is not None
        g = f.inverse()
        assert is_hom(g)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.data())
def test_quotient_then_project_commutes(n, data):
    A = corpus.zn(n)
    g = data.draw(st.integers(min_value=0, max_value=n - 1))
    I = ideal_generated(A, [g])
    Q, proj = quotient(A, I)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert proj.map[A.mul[i][j]] == Q.mul[proj.map[i]][proj.map[j]]
    assert proj.map[A.add[i][j]] == Q.add[proj.map[i]][proj.map[j]]


# ----------------------------------------------------------------- subalgebras


def test_subalgebra_and_image_factorization():
    P, projs = product(RING, [Z2, Z3])
    f = [h for h in all_homs(Z6, P)][0]
    epi, mono = image_factorization(f)
    assert compose(epi, mono) == f
    assert epi.is_surjective and mono.is_injective


def test_invariants_hold_under_python_O():
    script = (
        "from conespec import corpus, homs, tables\n"
        "from conespec.errors import InvariantViolation\n"
        "Z6 = corpus.zn(6)\n"
        "incl = homs.all_homs(corpus.zn(2), corpus.ring_product(2, 2))[0]\n"
        "for call in (lambda: tables.quotient_by_sig(Z6, (0, 0, 1, 2, 3, 4)),\n"
        "             lambda: tables.limit_from_families(\n"
        "                 Z6.kind, [Z6], [(0,), (1,)]),\n"
        "             lambda: homs.all_homs(Z6, corpus.zn(2))[0].inverse(),\n"
        "             lambda: tables.lift(Z6, Z6, {}, [tables.identity(Z6)]),\n"
        "             lambda: tables.pushout(incl, incl)):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantViolation:\n"
        "        print('raised')\n"
        "print(__debug__)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=subprocess_env(), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 5 + ["False"]
