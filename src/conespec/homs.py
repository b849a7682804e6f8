"""Hom and isomorphism search, run only by commands that search for maps."""

from __future__ import annotations

import itertools

from .tables import FiniteAlgebra, Hom, is_hom


def generating_plan(A: FiniteAlgebra):
    """Greedy generating set plus a derivation plan for the other elements.

    The plan is a list of (elt, op, i, j) with op in {"mul", "add"} and i, j
    already derived; following it in order reconstructs every element from
    the generators and the distinguished elements.
    """
    known = sorted(A.distinguished)
    known_set = set(known)
    gens: list[int] = []
    plan: list[tuple[int, str, int, int]] = []
    ops = [("mul", A.mul)] + ([("add", A.add)] if A.is_ring else [])
    while len(known_set) < A.size:
        progressed = True
        while progressed:
            progressed = False
            for name, table in ops:
                for i in list(known):
                    for j in list(known):
                        v = table[i][j]
                        if v not in known_set:
                            known_set.add(v)
                            known.append(v)
                            plan.append((v, name, i, j))
                            progressed = True
        if len(known_set) < A.size:
            g = min(i for i in range(A.size) if i not in known_set)
            gens.append(g)
            known_set.add(g)
            known.append(g)
    return gens, plan


def all_homs(A: FiniteAlgebra, B: FiniteAlgebra) -> list[Hom]:
    if A.kind != B.kind:
        return []
    gens, plan = generating_plan(A)
    out = []
    for choice in itertools.product(range(B.size), repeat=len(gens)):
        img = [-1] * A.size
        img[A.one] = B.one
        if A.is_ring:
            img[A.zero] = B.zero
        for g, v in zip(gens, choice):
            img[g] = v
        # the plan derives each other element once, so it only fills in
        for v, opname, i, j in plan:
            table = B.mul if opname == "mul" else B.add
            img[v] = table[img[i]][img[j]]
        f = Hom(A, B, tuple(img))
        if is_hom(f):
            out.append(f)
    return out


def _profile(A: FiniteAlgebra, i: int):
    # eventual cycle data of the mul orbit of i
    seen = {}
    x = i
    k = 0
    while x not in seen:
        seen[x] = k
        x = A.mul[x][i]
        k += 1
    tail, period = seen[x], k - seen[x]
    add_order = 0
    if A.is_ring:
        x = i
        add_order = 1
        while x != A.zero:
            x = A.add[x][i]
            add_order += 1
    return (
        tail,
        period,
        add_order,
        A.mul[i][i] == i,
        i in A.units,
        i == A.one,
        A.is_ring and i == A.zero,
    )


def iter_isomorphisms(A: FiniteAlgebra, B: FiniteAlgebra):
    if A.kind != B.kind or A.size != B.size:
        return
    pa = [_profile(A, i) for i in range(A.size)]
    pb = [_profile(B, i) for i in range(B.size)]
    if sorted(pa) != sorted(pb):
        return
    candidates = [[j for j in range(B.size) if pb[j] == pa[i]] for i in range(A.size)]
    n = A.size
    img = [-1] * n
    used = [False] * n

    def consistent(k):
        for j in range(n):
            if img[j] == -1:
                continue
            for x, y in ((k, j), (j, k)):
                p = A.mul[x][y]
                if img[p] != -1 and B.mul[img[x]][img[y]] != img[p]:
                    return False
                if A.is_ring:
                    p = A.add[x][y]
                    if img[p] != -1 and B.add[img[x]][img[y]] != img[p]:
                        return False
        return True

    def rec(k):
        if k == n:
            f = Hom(A, B, tuple(img))
            if is_hom(f):
                yield f
            return
        for c in candidates[k]:
            if used[c]:
                continue
            img[k] = c
            used[c] = True
            if consistent(k):
                yield from rec(k + 1)
            img[k] = -1
            used[c] = False

    yield from rec(0)
