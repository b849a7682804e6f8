"""Finite commutative rings and monoids as closed operation tables.

Everything downstream (contexts, spectra, gluing) works with the two value
types defined here: `FiniteAlgebra` and `Hom`.  Values are never mutated
and compare and hash by their fields; every construction normalizes its
result to a fresh table immediately, so categorical properties stay
exhaustively checkable.

Element labels are strings used only at the I/O boundary; internal
computation is on indices.  Canonical element order sorts by
(is-distinguished, label), distinguished elements first.

Input is checked at every size; quotients, limits and subalgebras check the
hypotheses that make their results valid.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import cached_property
from operator import getitem

from .errors import (
    BadUnit,
    InvariantViolation,
    NoDistributivity,
    NonAssociative,
    NonCommutative,
    SizeBound,
    ValidationError,
)

RING = "ring"
MONOID = "monoid"

# a product carrier, and the partial families a limit visits, stay below this
SEARCH_MAX = 10**6


class FiniteAlgebra:
    def __init__(self, kind: str, elements: tuple[str, ...],
                 mul: tuple[tuple[int, ...], ...], one: int,
                 add: tuple[tuple[int, ...], ...] | None = None,
                 zero: int | None = None):
        self.kind = kind
        self.elements = elements
        self.mul = mul
        self.one = one
        self.add = add
        self.zero = zero

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.elements, self.mul, self.one, self.add,
                 self.zero) ==
                (other.kind, other.elements, other.mul, other.one, other.add,
                 other.zero))

    def __hash__(self):
        return hash((self.kind, self.elements, self.mul, self.one, self.add,
                     self.zero))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_ring(self) -> bool:
        return self.kind == RING

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def m(self, i: int, j: int) -> int:
        return self.mul[i][j]

    def a(self, i: int, j: int) -> int:
        if self.add is None:
            raise InvariantViolation("a monoid has no addition")
        return self.add[i][j]

    @cached_property
    def units(self) -> frozenset[int]:
        one = self.one
        return frozenset(
            i for i in range(self.size) if any(r == one for r in self.mul[i])
        )

    @cached_property
    def idempotents(self) -> frozenset[int]:
        return frozenset(i for i in range(self.size) if self.mul[i][i] == i)

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse table (rings only)."""
        if self.add is None or self.zero is None:
            raise InvariantViolation("a monoid has no additive inverses")
        out = []
        for i in range(self.size):
            out.append(self.add[i].index(self.zero))
        return tuple(out)

    def power(self, i: int, k: int) -> int:
        acc = self.one
        for _ in range(k):
            acc = self.mul[acc][i]
        return acc

    @cached_property
    def distinguished(self) -> frozenset[int]:
        d = {self.one}
        if self.zero is not None:
            d.add(self.zero)
        return frozenset(d)


# ---------------------------------------------------------------------------
# validation and assembly


def _check_table(name: str, table, n: int) -> None:
    if len(table) != n or any(len(row) != n for row in table):
        raise ValidationError(f"{name} table is not {n}x{n}")
    for row in table:
        for v in row:
            if type(v) is not int or not (0 <= v < n):
                raise ValidationError(f"{name} table entry {v!r} out of range")


def _generators(table, unit: int) -> list[int]:
    """Greedy generators G of the magma `table`, for Light's test.

    Closing {unit} under x -> table[x][g] for g in G reaches every element;
    costs O(n * |G|).  `unit` must be a checked identity of `table`.
    """
    n = len(table)
    seen = [False] * n
    seen[unit] = True
    reached = [unit]
    gens: list[int] = []
    while len(reached) < n:
        g = seen.index(False)
        gens.append(g)
        todo = [(x, g) for x in reached]
        while todo:
            x, h = todo.pop()
            y = table[x][h]
            if not seen[y]:
                seen[y] = True
                reached.append(y)
                todo.extend((y, k) for k in gens)
    return gens


def _check_assoc(name, table, gens, elements) -> None:
    """Light's test: (x*y)*g = x*(y*g) for all x, y and each g in `gens`.

    The g passing it form a submagma (containing the identity), so checking
    a generating set proves associativity in O(n^2 * |gens|).  For the ring
    multiplication `gens` may be additive generators once distributivity
    holds, since the passing g are then closed under addition.
    """
    for g in gens:
        col = [row[g] for row in table]
        for x, row in enumerate(table):
            for y in range(len(table)):
                if col[row[y]] != row[col[y]]:
                    raise NonAssociative(
                        f"{name} not associative at "
                        f"({elements[x]},{elements[y]},{elements[g]})",
                        (x, y, g),
                    )


def _check_laws(kind, elements, mul, add, zero, one) -> None:
    """Full axiom check at every size, in O(n^2 * |generators|)."""
    n = len(elements)
    rng = range(n)
    for i in rng:
        for j in rng:
            if mul[i][j] != mul[j][i]:
                raise NonCommutative(
                    f"mul({elements[i]},{elements[j]}) != mul({elements[j]},{elements[i]})",
                    (i, j),
                )
    for i in rng:
        if mul[one][i] != i:
            raise BadUnit(f"one * {elements[i]} != {elements[i]}", (i,))
    if kind != RING:
        _check_assoc("mul", mul, _generators(mul, one), elements)
        return
    for i in rng:
        for j in rng:
            if add[i][j] != add[j][i]:
                raise NonCommutative(
                    f"add({elements[i]},{elements[j]}) not commutative", (i, j)
                )
    for i in rng:
        if add[zero][i] != i:
            raise BadUnit(f"zero + {elements[i]} != {elements[i]}", (i,))
    for i in rng:
        if zero not in add[i]:
            raise ValidationError(f"{elements[i]} has no additive inverse", (i,))
    gens = _generators(add, zero)
    _check_assoc("add", add, gens, elements)
    # x*(y+g) = x*y + x*g for additive generators g: the passing g are
    # closed under addition, so this is full distributivity
    for g in gens:
        for x, row in enumerate(mul):
            xg = row[g]
            for y in rng:
                if row[add[y][g]] != add[row[y]][xg]:
                    raise NoDistributivity(
                        "distributivity fails at "
                        f"({elements[x]},{elements[y]},{elements[g]})",
                        (x, y, g),
                    )
    _check_assoc("mul", mul, gens, elements)


def _finish(kind, elements, mul, add, zero, one):
    """Canonicalize element order and build the value.

    Returns (algebra, pos) where pos[i] is the new index of old element i.
    """
    n = len(elements)
    dist = {one} | ({zero} if zero is not None else set())
    order = sorted(range(n), key=lambda i: (0 if i in dist else 1, elements[i]))
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    new_elements = tuple(elements[i] for i in order)
    new_mul = tuple(
        tuple(pos[mul[i][j]] for j in order) for i in order
    )
    new_add = None
    if kind == RING:
        new_add = tuple(tuple(pos[add[i][j]] for j in order) for i in order)
    new_zero = pos[zero] if zero is not None else None
    new_one = pos[one]
    alg = FiniteAlgebra(
        kind=kind,
        elements=new_elements,
        mul=new_mul,
        one=new_one,
        add=new_add,
        zero=new_zero,
    )
    return alg, pos


def validate(kind, elements, mul, add=None, zero=None, one=None, unit=None):
    """Validate raw tables, returning a canonicalized FiniteAlgebra.

    Raises a ValidationError subclass naming the witnessing elements on the
    first violated axiom.
    """
    if kind not in (RING, MONOID):
        raise ValidationError(f"unknown kind {kind!r}")
    if one is None:
        one = unit
    if one is None:
        raise ValidationError("missing distinguished unit")
    elements = tuple(str(e) for e in elements)
    if len(elements) < 1:
        raise ValidationError("element count must be >= 1")
    if len(set(elements)) != len(elements):
        raise ValidationError("duplicate element labels")
    n = len(elements)
    _check_table("mul", mul, n)
    if kind == RING:
        if add is None or zero is None:
            raise ValidationError("a ring needs an add table and a zero")
        _check_table("add", add, n)
    else:
        add, zero = None, None
    if not (0 <= one < n) or (zero is not None and not (0 <= zero < n)):
        raise ValidationError("distinguished index out of range")
    mul = tuple(tuple(row) for row in mul)
    add = tuple(tuple(row) for row in add) if add is not None else None
    # run law checks before canonicalizing so witnesses use input indices
    _check_laws(kind, elements, mul, add, zero, one)
    alg, _ = _finish(kind, elements, mul, add, zero, one)
    return alg


def terminal(kind: str) -> FiniteAlgebra:
    if kind == RING:
        return validate(RING, ["*"], [[0]], add=[[0]], zero=0, one=0)
    return validate(MONOID, ["*"], [[0]], one=0)


# ---------------------------------------------------------------------------
# homomorphisms


class Hom:
    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra,
                 map: tuple[int, ...]):
        self.source = source
        self.target = target
        self.map = map

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.map) ==
                (other.source, other.target, other.map))

    def __hash__(self):
        return hash((self.source, self.target, self.map))

    def __call__(self, i: int) -> int:
        return self.map[i]

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.size

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.size

    @property
    def is_bijective(self) -> bool:
        return self.is_surjective and self.is_injective

    def inverse(self) -> "Hom":
        if not self.is_bijective:
            raise InvariantViolation("only a bijective hom has an inverse")
        inv = [0] * self.target.size
        for i, v in enumerate(self.map):
            inv[v] = i
        return Hom(self.target, self.source, tuple(inv))

    def kernel_sig(self) -> tuple[int, ...]:
        """Kernel partition of the source, normalized by first occurrence."""
        return normalize_sig(self.map)


def normalize_sig(values) -> tuple[int, ...]:
    seen: dict = {}
    out = []
    for v in values:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def is_hom(f: Hom) -> bool:
    A, B, m = f.source, f.target, f.map
    if len(m) != A.size or any(not (0 <= v < B.size) for v in m):
        return False
    if m[A.one] != B.one:
        return False
    if A.is_ring and m[A.zero] != B.zero:
        return False
    if A.kind != B.kind:
        return False
    for i in range(A.size):
        for j in range(A.size):
            if m[A.mul[i][j]] != B.mul[m[i]][m[j]]:
                return False
            if A.is_ring and m[A.add[i][j]] != B.add[m[i]][m[j]]:
                return False
    return True


def identity(A: FiniteAlgebra) -> Hom:
    return Hom(A, A, tuple(range(A.size)))


def compose(f: Hom, g: Hom) -> Hom:
    """g after f (source of g must be target of f)."""
    if f.target != g.source:
        raise InvariantViolation("homs not composable")
    return Hom(f.source, g.target, tuple(g.map[v] for v in f.map))


def induced(c_from: Hom, c_to: Hom) -> Hom | None:
    """The h with compose(c_from, h) == c_to, or None if there is none.

    c_from must be a surjection out of the source of c_to.  Then h exists
    iff the kernel of c_from refines that of c_to, and it is a hom because
    c_from is a quotient map, so the result is not re-checked.
    """
    if c_from.source != c_to.source or not c_from.is_surjective:
        raise InvariantViolation(
            "induced map needs a surjection out of the common source")
    mapping = [-1] * c_from.target.size
    for x, y in zip(c_from.map, c_to.map):
        if mapping[x] == -1:
            mapping[x] = y
        elif mapping[x] != y:
            return None
    return Hom(c_from.target, c_to.target, tuple(mapping))


# ---------------------------------------------------------------------------
# congruences and quotients


class _UF:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.p[rb] = ra
        return True


def join_sigs(n: int, sigs) -> tuple[int, ...]:
    """The join of congruences on n elements, given as partition sigs.

    Congruences form a sublattice of the equivalence relations, so their
    join is the transitive closure of their union: no closure sweep needed.
    """
    uf = _UF(n)
    for sig in sigs:
        first: dict = {}
        for i, c in enumerate(sig):
            uf.union(first.setdefault(c, i), i)
    return normalize_sig(uf.find(i) for i in range(n))


def congruence_closure(A: FiniteAlgebra, pairs) -> tuple[int, ...]:
    """Smallest congruence containing `pairs`, as a normalized partition sig."""
    n = A.size
    uf = _UF(n)
    for a, b in pairs:
        uf.union(a, b)
    tables = [A.mul] + ([A.add] if A.is_ring else [])
    changed = True
    while changed:
        changed = False
        for table in tables:
            for z in range(n):
                seen: dict = {}
                for x in range(n):
                    rx = uf.find(x)
                    rz = uf.find(table[x][z])
                    if rx in seen:
                        if uf.find(seen[rx]) != rz:
                            uf.union(seen[rx], rz)
                            changed = True
                    else:
                        seen[rx] = rz
    return normalize_sig(uf.find(i) for i in range(n))


def quotient_by_sig(A: FiniteAlgebra, sig) -> tuple[FiniteAlgebra, Hom]:
    """Quotient by a congruence given as a partition sig, in O(n^2).

    A quotient of a valid algebra by a congruence is valid, so the laws are
    not re-checked; instead every element must act like its class
    representative in each table, or InvariantViolation is raised.
    """
    sig = normalize_sig(sig)
    if sig == tuple(range(A.size)):
        return A, identity(A)
    k = max(sig) + 1
    reps = [-1] * k
    labels = [""] * k
    for i, c in enumerate(sig):
        if reps[c] < 0:
            reps[c] = i
            labels[c] = A.elements[i]
        else:
            labels[c] = min(labels[c], A.elements[i])

    def class_table(name, table):
        classes = [tuple(map(sig.__getitem__, row)) for row in table]
        for x, c in enumerate(sig):
            if classes[x] != classes[reps[c]]:
                raise InvariantViolation(
                    f"partition is not a congruence: {name} separates "
                    f"{A.elements[x]} from {A.elements[reps[c]]}",
                )
        return [[classes[r][s] for s in reps] for r in reps]

    Q, pos = _finish(
        A.kind, labels, class_table("mul", A.mul),
        class_table("add", A.add) if A.is_ring else None,
        sig[A.zero] if A.is_ring else None, sig[A.one],
    )
    proj = Hom(A, Q, tuple(pos[c] for c in sig))
    return Q, proj


class Ideal:
    def __init__(self, carrier: FiniteAlgebra, members: frozenset[int]):
        self.carrier = carrier
        self.members = members

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.members) == (other.carrier, other.members)

    def __hash__(self):
        return hash((self.carrier, self.members))

    def is_valid(self) -> bool:
        A, I = self.carrier, self.members
        if A.is_ring:
            if A.zero not in I:
                return False
            return all(A.add[i][j] in I for i in I for j in I) and all(
                A.mul[i][r] in I for i in I for r in range(A.size)
            )
        # the empty subset is a valid monoid ideal
        return all(A.mul[i][r] in I for i in I for r in range(A.size))


def principal_ideal(A: FiniteAlgebra, g: int) -> Ideal:
    """gA, which is already an ideal: in a ring ga + gb = g(a + b)."""
    return Ideal(A, frozenset(A.mul[g]))


def ideal_sig(I: Ideal) -> tuple[int, ...]:
    """The partition of a ring into the cosets x + I, numbered by first
    element (so normalized).  I is not re-validated."""
    A = I.carrier
    cls = [-1] * A.size
    k = 0
    for x in range(A.size):
        if cls[x] < 0:
            for m in I.members:
                cls[A.add[x][m]] = k
            k += 1
    return tuple(cls)


def inversion_sig(A: FiniteAlgebra, a: int) -> tuple[int, ...]:
    """The congruence that makes `a` invertible, as a partition sig.

    For a finite algebra it is x ~ y iff e*x = e*y, where e is the
    idempotent power of a; the quotient may be trivial.
    """
    e = a
    for _ in range(2 * A.size + 2):
        if A.mul[e][e] == e:
            return normalize_sig(A.mul[e])
        e = A.mul[e][a]
    raise InvariantViolation("no idempotent power found")  # pragma: no cover


# ---------------------------------------------------------------------------
# pushouts


def pushout(f: Hom, g: Hom):
    """Pushout K +_R L of f: R->K and g: R->L, one of them surjective.

    Returns (Q, in_K, in_L).  Along a surjection the pushout is a congruence
    quotient of the other target; every pushout the constructions take is
    along a localization, which is a surjection of finite tables.
    """
    if f.source != g.source:
        raise InvariantViolation("pushout legs must share their source")
    if f.is_surjective:
        return _pushout_surjective(f, g)
    if g.is_surjective:
        Q, in_L, in_K = _pushout_surjective(g, f)
        return Q, in_K, in_L
    raise InvariantViolation("pushout needs a surjective leg")


def _pushout_surjective(f: Hom, g: Hom):
    L = g.target
    by_class: dict = {}
    pairs = []
    for r in range(f.source.size):
        c = f.map[r]
        if c in by_class:
            pairs.append((by_class[c], g.map[r]))
        else:
            by_class[c] = g.map[r]
    sig = congruence_closure(L, pairs)
    Q, proj = quotient_by_sig(L, sig)
    in_K = Hom(f.target, Q, tuple(proj.map[by_class[k]] for k in range(f.target.size)))
    return Q, in_K, proj


# ---------------------------------------------------------------------------
# products and finite limits


def product(kind: str, algebras) -> tuple[FiniteAlgebra, list[Hom]]:
    """Componentwise product; the empty product is the terminal algebra."""
    algebras = list(algebras)
    if any(a.kind != kind for a in algebras):
        raise InvariantViolation(f"product of {kind}s given another kind")
    if math.prod(a.size for a in algebras) > SEARCH_MAX:
        raise SizeBound("product carrier too large", SEARCH_MAX)
    return limit(kind, algebras, [])


def _search_plan(sizes, arrows):
    """Order the objects for the join, with each one's arrow constraints.

    Next comes the object with the most arrows to those already placed,
    ties going to the lower index: the least (-links, index) on a heap whose
    stale entries, left behind when links grow, are skipped.  For each
    object the plan lists the arrows from placed objects, which force its
    value, the arrows into placed objects, which restrict it to a preimage,
    and its loops; plus, when no arrow forces it, the preimages along its
    first arrow into.
    """
    n = len(sizes)
    incident = [[] for _ in range(n)]
    for i, j, h in arrows:
        incident[i].append((i, j, h))
        if j != i:
            incident[j].append((i, j, h))
    links = [0] * n
    placed = [False] * n
    heap = [(0, u) for u in range(n)]
    plan = []
    for _ in range(n):
        while True:
            key, v = heapq.heappop(heap)
            if not placed[v] and -key == links[v]:
                break
        placed[v] = True
        forced, into, loops = [], [], []
        for i, j, h in incident[v]:
            other = j if i == v else i
            if i == j:
                loops.append(h)
            elif not placed[other]:
                links[other] += 1
                heapq.heappush(heap, (-links[other], other))
            elif j == v:
                forced.append((i, h))
            else:
                into.append((j, h))
        pre = None
        if into and not forced:
            j, h = into[0]
            pre = [[] for _ in range(sizes[j])]
            for x, y in enumerate(h.map):
                pre[y].append(x)
        plan.append((v, forced, into, loops, pre))
    return plan


def compatible_families(sizes, arrows) -> list[tuple[int, ...]]:
    """The families compatible with every arrow, in lexicographic order.

    `sizes` are the object sizes and `arrows` are (i, j, Hom) as in `limit`;
    a family is a tuple of one element index per object.  `limit` is this
    search followed by `limit_from_families`.

    A backtracking join along `_search_plan`: an object's value is forced
    by an arrow from a placed object, else drawn from the preimage of a
    placed target's value along an arrow into it, else free.  Raises
    SizeBound once more than SEARCH_MAX partial families are visited.
    """
    n = len(sizes)
    plan = _search_plan(sizes, arrows)
    t = [0] * n
    out = []
    visited = 0

    def extend(depth):
        nonlocal visited
        if depth == n:
            out.append(tuple(t))
            return
        v, forced, into, loops, pre = plan[depth]
        if forced:
            i, h = forced[0]
            candidates = (h.map[t[i]],)
        elif pre is not None:
            candidates = pre[t[into[0][0]]]
        else:
            candidates = range(sizes[v])
        for x in candidates:
            if all(h.map[t[i]] == x for i, h in forced) \
                    and all(h.map[x] == t[j] for j, h in into) \
                    and all(h.map[x] == x for h in loops):
                visited += 1
                if visited > SEARCH_MAX:
                    raise SizeBound("limit search space too large", SEARCH_MAX)
                t[v] = x
                extend(depth + 1)

    extend(0)
    out.sort()
    return out


def limit(kind: str, objects, arrows) -> tuple[FiniteAlgebra, list[Hom]]:
    """Limit of a finite diagram.

    `objects` is a list of algebras, `arrows` a list of (i, j, Hom) meaning a
    diagram arrow objects[i] -> objects[j].  The limit is the subalgebra of
    the product consisting of families compatible with every arrow.
    """
    objects = list(objects)
    if not objects:
        return terminal(kind), []
    return limit_from_families(
        kind, objects, compatible_families([o.size for o in objects], arrows))


def limit_from_families(kind: str, objects,
                        elems) -> tuple[FiniteAlgebra, list[Hom]]:
    """The families `elems` of the nonempty list `objects`, as an algebra
    with its cone of coordinate projections.

    The families must be distinct and closed under the componentwise
    operations, as those compatible with a diagram of homs are; then they
    inherit every law.  Closure is checked as the tables are built, else
    InvariantViolation.
    """
    index = {e: i for i, e in enumerate(elems)}
    if len(objects) == 1:
        labels = [objects[0].elements[e[0]] for e in elems]
    else:
        labels = [
            "(" + ",".join(o.elements[v] for o, v in zip(objects, e)) + ")"
            for e in elems
        ]

    def table(op):
        out = []
        for e1 in elems:
            rows = [t[x] for t, x in zip(op, e1)]
            out.append([index[tuple(map(getitem, rows, e2))] for e2 in elems])
        return out

    try:
        one = index[tuple(o.one for o in objects)]
        mul = table([o.mul for o in objects])
        add = zero = None
        if kind == RING:
            zero = index[tuple(o.zero for o in objects)]
            add = table([o.add for o in objects])
    except KeyError:
        raise InvariantViolation(
            "limit is not closed under the operations") from None
    Lm, pos = _finish(kind, labels, mul, add, zero, one)
    inv = [0] * len(elems)
    for old, new in enumerate(pos):
        inv[new] = old
    cone = [
        Hom(Lm, o, tuple(elems[inv[new]][i] for new in range(len(elems))))
        for i, o in enumerate(objects)
    ]
    return Lm, cone


def cone_lookup(A: FiniteAlgebra, cone) -> dict:
    """Map the family of cone values of each element of A back to it."""
    table = {}
    for y in range(A.size):
        key = tuple(h.map[y] for h in cone)
        if key in table:
            raise InvariantViolation("cone does not separate elements")
        table[key] = y
    return table


def lift(source: FiniteAlgebra, L: FiniteAlgebra, lookup: dict, legs) -> Hom:
    """The map source -> L whose composites with L's cone are `legs`.

    `lookup` is `cone_lookup(L, cone)` and each leg a hom out of `source`
    into the matching cone object.  The map exists iff every family of leg
    values lies in L, else InvariantViolation; it is a hom because the cone
    separates and the legs are homs, so the result is not re-checked.
    """
    maps = [h.map for h in legs]
    try:
        return Hom(source, L, tuple(lookup[tuple(m[x] for m in maps)]
                                    for x in range(source.size)))
    except KeyError:
        raise InvariantViolation("family does not lie in the limit") from None


def subalgebra(A: FiniteAlgebra, subset) -> tuple[FiniteAlgebra, Hom]:
    """The subset as an algebra, with its inclusion.

    A subset holding the distinguished elements and closed under the
    operations inherits every law of A, so only that is checked.
    """
    subset = sorted(set(subset))
    sset = set(subset)
    if A.one not in sset or (A.is_ring and A.zero not in sset):
        raise InvariantViolation("subset misses a distinguished element")
    for i in subset:
        for j in subset:
            if A.mul[i][j] not in sset:
                raise InvariantViolation("subset not closed under mul")
            if A.is_ring and A.add[i][j] not in sset:
                raise InvariantViolation("subset not closed under add")
    index = {v: i for i, v in enumerate(subset)}
    labels = [A.elements[i] for i in subset]
    mul = [[index[A.mul[i][j]] for j in subset] for i in subset]
    add = [[index[A.add[i][j]] for j in subset] for i in subset] if A.is_ring else None
    S, pos = _finish(A.kind, labels, mul, add,
                     index[A.zero] if A.is_ring else None, index[A.one])
    inv = [0] * len(subset)
    for old, new in enumerate(pos):
        inv[new] = old
    incl = Hom(S, A, tuple(subset[inv[new]] for new in range(len(subset))))
    return S, incl


def image_factorization(f: Hom) -> tuple[Hom, Hom]:
    """f = (mono) o (regular epi) through the image subalgebra."""
    img = sorted(set(f.map))
    S, incl = subalgebra(f.target, img)
    back = {incl.map[i]: i for i in range(S.size)}
    epi = Hom(f.source, S, tuple(back[v] for v in f.map))
    return epi, incl


# ---------------------------------------------------------------------------
# hom enumeration and isomorphism search


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
        ok = True
        for v, opname, i, j in plan:
            table = B.mul if opname == "mul" else B.add
            w = table[img[i]][img[j]]
            if img[v] == -1:
                img[v] = w
            elif img[v] != w:
                ok = False
                break
        if not ok:
            continue
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


def find_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> Hom | None:
    for f in iter_isomorphisms(A, B):
        return f
    return None


def isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    return find_isomorphism(A, B) is not None
