"""Shared test utilities: small topologies, randomized presheaves, oracles."""

from __future__ import annotations

import itertools
import os

from conespec import contexts, corpus, tables
from conespec.spectrum import Presheaf, sort_opens
from conespec.tables import RING, Hom


def small_topologies():
    sier = [frozenset(), frozenset({0}), frozenset({0, 1})]
    disc2 = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    wedge3 = [frozenset(), frozenset({0}), frozenset({2}), frozenset({0, 1}),
              frozenset({0, 2}), frozenset({0, 1, 2})]
    return [(2, sort_opens(sier)), (2, sort_opens(disc2)), (3, sort_opens(wedge3))]


def random_presheaf(rng) -> Presheaf:
    """A presheaf of quotients of a fixed base algebra.

    Each point carries a random batch of pairs; the congruence at an open is
    generated by the batches of the points outside it, so restrictions along
    shrinking opens are the induced class maps.
    """
    n_points, opens = small_topologies()[rng.randrange(3)]
    A = [corpus.zn(6), corpus.zn(4), corpus.f2x2(),
         corpus.flag_monoid(), corpus.chain_monoid()][rng.randrange(5)]
    batches = []
    for _ in range(n_points):
        batches.append([(rng.randrange(A.size), rng.randrange(A.size))
                        for _ in range(rng.randrange(3))])
    force_trivial_empty = rng.random() < 0.5
    sigs = {}
    for U in opens:
        pairs = [p for q in range(n_points) if q not in U for p in batches[q]]
        if not U and force_trivial_empty:
            pairs = [(i, 0) for i in range(A.size)]
        sigs[U] = tables.congruence_closure(A, pairs)
    sections = {}
    projs = {}
    for U in opens:
        Q, proj = tables.quotient_by_sig(A, sigs[U])
        sections[U] = Q
        projs[U] = proj
    restrictions = {}
    for U in opens:
        for V in opens:
            if V < U:
                mapping = [-1] * sections[U].size
                for r in range(A.size):
                    mapping[projs[U].map[r]] = projs[V].map[r]
                restrictions[(U, V)] = Hom(sections[U], sections[V],
                                           tuple(mapping))
    return Presheaf(A.kind, n_points, opens, sections, restrictions)


def faces_by_subset_search(A) -> list[frozenset[int]]:
    """Oracle: the saturated submonoids of a monoid, by trying every subset."""
    rest = [i for i in range(A.size) if i != A.one]
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            F = frozenset((A.one,) + extra)
            closed = all(A.mul[x][y] in F for x in F for y in F)
            saturated = all((x in F and y in F)
                            for x in range(A.size) for y in range(A.size)
                            if A.mul[x][y] in F)
            if closed and saturated:
                out.append(F)
    return sorted(out, key=lambda F: (len(F), sorted(F)))


def large_nonassociative_monoid(n: int = 65):
    """Labels and mul table of a commutative, unital, non-associative magma.

    Index 0 is the unit and every other product is index 1, except
    2*2 = 3 and 2*3 = 2, so (2*2)*3 = 1 while 2*(2*3) = 3.
    """
    mul = [[1] * n for _ in range(n)]
    for i in range(n):
        mul[0][i] = mul[i][0] = i
    mul[2][2] = 3
    mul[2][3] = mul[3][2] = 2
    return [f"m{i:02d}" for i in range(n)], mul


def subprocess_env() -> dict:
    """Environment in which a child interpreter imports this conespec."""
    src = os.path.dirname(os.path.dirname(tables.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


def corpus_by_context():
    """Every (context, algebra) pair of the corpus check suites."""
    return ([(contexts.get_context("zariski"), A) for A in corpus.zariski_corpus()]
            + [(contexts.get_context("domain"), A) for A in corpus.domain_corpus()]
            + [(contexts.get_context("deitmar"), A) for A in corpus.deitmar_corpus()])


def limit_by_product_scan(kind, objects, arrows):
    """Oracle: a finite limit by scanning every family of the product.

    The families compatible with every arrow, in product order, become the
    elements; the operations act componentwise.
    """
    objects = list(objects)
    if not objects:
        return tables.terminal(kind), []
    elems = [t for t in itertools.product(*[range(o.size) for o in objects])
             if all(h.map[t[i]] == t[j] for (i, j, h) in arrows)]
    index = {e: i for i, e in enumerate(elems)}
    if len(objects) == 1:
        labels = [objects[0].elements[e[0]] for e in elems]
    else:
        labels = ["(" + ",".join(o.elements[v] for o, v in zip(objects, e)) + ")"
                  for e in elems]

    def table(op):
        return [[index[tuple(op(o)[x][y] for o, x, y in zip(objects, e1, e2))]
                 for e2 in elems] for e1 in elems]

    ring = kind == RING
    L, pos = tables._finish(
        kind, labels, table(lambda o: o.mul),
        table(lambda o: o.add) if ring else None,
        index[tuple(o.zero for o in objects)] if ring else None,
        index[tuple(o.one for o in objects)])
    inv = [0] * len(elems)
    for old, new in enumerate(pos):
        inv[new] = old
    cone = [Hom(L, o, tuple(elems[inv[new]][i] for new in range(len(elems))))
            for i, o in enumerate(objects)]
    return L, cone
