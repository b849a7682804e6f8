"""Shared test utilities: small topologies, randomized presheaves, oracles."""

from __future__ import annotations

import functools
import itertools
import os
import random
from dataclasses import dataclass

from conespec import contexts, corpus, glue, homs, reduction, tables
from conespec import io as cio
from conespec import spectrum as sp
from conespec.errors import ConespecError, CocycleViolation, InvariantViolation
from conespec.spectrum import APMap, sort_opens
from conespec.tables import RING, Hom


@dataclass
class TablePresheaf:
    """A presheaf on a finite space with every restriction (U, V), V < U,
    given in a dict."""
    kind: str
    n_points: int
    opens: tuple[frozenset, ...]
    sections: dict
    restrictions: dict

    def res(self, U, V) -> Hom:
        if U == V:
            return tables.identity(self.sections[U])
        return self.restrictions[(U, V)]

    @functools.cached_property
    def mins(self) -> tuple[frozenset, ...]:
        # the least open holding p is the first, as the opens go by size
        return tuple(next(U for U in self.opens if p in U)
                     for p in range(self.n_points))


# ---------------------------------------------------------------------------
# algebra oracles that no command needs


def power(A, i: int, k: int) -> int:
    """i to the k-th power in A."""
    acc = A.one
    for _ in range(k):
        acc = A.mul[acc][i]
    return acc


def is_valid_ideal(I: tables.Ideal) -> bool:
    """Whether I's members form an ideal of its carrier; the empty subset
    is a monoid ideal."""
    A, members = I.carrier, I.members
    absorbs = all(A.mul[i][r] in members for i in members
                  for r in range(A.size))
    if not A.is_ring:
        return absorbs
    return A.zero in members and absorbs and all(
        A.add[i][j] in members for i in members for j in members)


def quotient_by_rows(A, sig):
    """Oracle: `tables.quotient_by_sig` with the congruence checked on
    every row of each table, in O(n^2), instead of on A's generators."""
    sig = tables.normalize_sig(sig)
    if sig == tuple(range(A.size)):
        return A, tables.identity(A)
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
                    f"{A.elements[x]} from {A.elements[reps[c]]}")
        return [[classes[r][s] for s in reps] for r in reps]

    Q, pos = tables._finish(
        A.kind, labels, class_table("mul", A.mul),
        class_table("add", A.add) if A.is_ring else None,
        sig[A.zero] if A.is_ring else None, sig[A.one])
    return Q, Hom(A, Q, tuple(pos[c] for c in sig))


def is_hom_on_all_pairs(f: Hom) -> bool:
    """Oracle: `tables.is_hom` with the operations checked on every pair
    of source elements, in O(n^2), instead of against the generators."""
    A, B, m = f.source, f.target, f.map
    if len(m) != A.size or any(not (0 <= v < B.size) for v in m):
        return False
    if m[A.one] != B.one or A.kind != B.kind:
        return False
    if A.is_ring and m[A.zero] != B.zero:
        return False
    return all(m[A.mul[i][j]] == B.mul[m[i]][m[j]] and
               (not A.is_ring or m[A.add[i][j]] == B.add[m[i]][m[j]])
               for i in range(A.size) for j in range(A.size))


def congruence_closure_on_all_columns(A, pairs) -> tuple[int, ...]:
    """Oracle: `tables.congruence_closure` sweeping every column z of each
    table, not only the generators, until no class splits."""
    n = A.size
    uf = tables._UF(n)
    for a, b in pairs:
        uf.union(a, b)
    changed = True
    while changed:
        changed = False
        for table in [A.mul] + ([A.add] if A.is_ring else []):
            for z in range(n):
                seen: dict = {}
                for x in range(n):
                    rx, rz = uf.find(x), uf.find(table[x][z])
                    if rx not in seen:
                        seen[rx] = rz
                    elif uf.find(seen[rx]) != rz:
                        uf.union(seen[rx], rz)
                        changed = True
    return tables.normalize_sig(uf.find(i) for i in range(n))


def join_sigs(n: int, sigs) -> tuple[int, ...]:
    """The join of congruences on n elements, given as partition sigs.

    Congruences form a sublattice of the equivalence relations, so their
    join is the transitive closure of their union: no closure sweep needed.
    """
    uf = tables._UF(n)
    for sig in sigs:
        first: dict = {}
        for i, c in enumerate(sig):
            uf.union(first.setdefault(c, i), i)
    return tables.normalize_sig(uf.find(i) for i in range(n))


def subalgebra(A, subset):
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
    add = [[index[A.add[i][j]] for j in subset] for i in subset] \
        if A.is_ring else None
    S, pos = tables._finish(A.kind, labels, mul, add,
                            index[A.zero] if A.is_ring else None,
                            index[A.one])
    inv = [0] * len(subset)
    for old, new in enumerate(pos):
        inv[new] = old
    incl = Hom(S, A, tuple(subset[inv[new]] for new in range(len(subset))))
    return S, incl


def image_factorization(f: Hom) -> tuple[Hom, Hom]:
    """f = (mono) o (regular epi) through the image subalgebra."""
    S, incl = subalgebra(f.target, set(f.map))
    back = {incl.map[i]: i for i in range(S.size)}
    epi = Hom(f.source, S, tuple(back[v] for v in f.map))
    return epi, incl


def ell(ctx, R) -> Hom:
    """The canonical map R -> product of all local-form targets, into the
    product built with its tables."""
    forms = ctx.local_forms(R)
    P, projs = tables.product(R.kind, [p.target for p in forms])
    return tables.lift(R, P, tables.cone_lookup(P, projs), forms)


def find_isomorphism(A, B) -> Hom | None:
    return next(homs.iter_isomorphisms(A, B), None)


def isomorphic(A, B) -> bool:
    return find_isomorphism(A, B) is not None


def hom_to_dict(f: Hom) -> dict:
    """The hom document that `io.hom_from_dict` reads, algebras inline."""
    return {
        "source": cio.algebra_to_dict(f.source),
        "target": cio.algebra_to_dict(f.target),
        "map": list(f.map),
    }


def path_to_dict(steps) -> dict:
    """The path document of a list of (datum, branch) steps, which
    `io.path_from_dict` reads."""
    return {"steps": [{"datum": list(datum), "branch": branch}
                      for (datum, branch) in steps]}


def pushout_by_replay(ctx, steps, f: Hom) -> Hom:
    """Oracle: the localization of f's source with (datum, branch) `steps`,
    pushed out along f by replaying each step on f's target.  Cells are
    stable under homs, so an attachment pushed out along a hom g is the
    attachment at the image of its datum under g, with g the map that f
    induces from the matching intermediate target."""
    pushed, g = tables.identity(f.target), f
    for datum, branch in steps:
        _, step = ctx.attach(g.source, datum, branch)
        image = tuple(g.map[x] for x in datum)
        _, new_step = ctx.attach(pushed.target, image, branch)
        pushed = tables.compose(pushed, new_step)
        g = tables.induced(step, tables.compose(g, new_step))
    return pushed


# ---------------------------------------------------------------------------
# the small-object argument, step by step


def victim(ctx, datum, branch):
    """The element an attachment kills or inverts; None for the identity,
    which the left branch of a deitmar cell is (the trivial cone component).
    """
    if ctx.name == "deitmar":
        return None if branch == "left" else datum[0]
    return ctx.victim(datum, branch)


def is_identity_sig(sig) -> bool:
    return max(sig) + 1 == len(sig)


def attachments(ctx, A) -> list[tuple]:
    """The (datum, branch) pairs of A in scan order, skipping any whose
    victim an earlier pair already had, since its step would be the same;
    shuffled by its generator when ctx is a `ShuffledContext`."""
    seen, out = set(), []
    for datum in ctx.cell_data(A):
        for branch in contexts.BRANCHES:
            v = victim(ctx, datum, branch)
            if v not in seen:
                seen.add(v)
                out.append((datum, branch))
    if isinstance(ctx, ShuffledContext):
        ctx.rng.shuffle(out)
    return out


class ShuffledContext:
    """`ctx` whose `attachments` come in an order shuffled by one generator
    seeded with `seed`; every other attribute is ctx's.  By uniqueness of
    the factorization, the stepwise oracles must give the same results."""

    def __init__(self, ctx, seed: int):
        self._ctx = ctx
        self.rng = random.Random(seed)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


# ---------------------------------------------------------------------------
# spaces and presheaves


def small_topologies():
    sier = [frozenset(), frozenset({0}), frozenset({0, 1})]
    disc2 = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    wedge3 = [frozenset(), frozenset({0}), frozenset({2}), frozenset({0, 1}),
              frozenset({0, 2}), frozenset({0, 1, 2})]
    return [(2, sort_opens(sier)), (2, sort_opens(disc2)), (3, sort_opens(wedge3))]


def random_presheaf(rng, topology=None) -> TablePresheaf:
    """A presheaf of quotients of a fixed base algebra.

    Each point carries a random batch of pairs; the congruence at an open is
    generated by the batches of the points outside it, so restrictions along
    shrinking opens are the induced class maps.  The topology, a pair
    (n_points, opens), is drawn from `small_topologies` unless given.
    """
    n_points, opens = topology or small_topologies()[rng.randrange(3)]
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
    return TablePresheaf(A.kind, n_points, opens, sections, restrictions)


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


def deitmar_forms_stepwise(A) -> list[Hom]:
    """Oracle: the deitmar local forms of a monoid, one per face F, built by
    inverting the image of each element of F in turn that is not yet a
    unit, kept once per kernel and in kernel-partition order."""
    ctx = contexts.get_context("deitmar")
    out = {}
    for F in ctx.faces(A):
        loc = tables.identity(A)
        for a in sorted(F):
            img = loc.map[a]
            if img not in loc.target.units:
                loc = tables.compose(loc, ctx.attach(loc.target, (img,),
                                                     "right")[1])
        out.setdefault(loc.kernel_sig(), loc)
    return sorted(out.values(), key=Hom.kernel_sig)


def domain_forms_stepwise(A) -> list[Hom]:
    """Oracle: the domain local forms of a ring, one per primitive
    idempotent e, killing the image of the least live element of the prime
    over e, one attachment at a time, until the prime is gone."""
    ctx = contexts.get_context("domain")
    out = []
    for e in contexts._primitive_idempotents(A):
        eA = sorted({A.mul[e][r] for r in range(A.size)})
        units_eA = {x for x in eA if any(A.mul[x][y] == e for y in eA)}
        prime = [r for r in range(A.size) if A.mul[e][r] not in units_eA]
        loc = tables.identity(A)
        while True:
            K = loc.target
            live = sorted({loc.map[r] for r in prime} - {K.zero})
            if not live:
                break
            loc = tables.compose(loc, ctx.attach(K, (live[0], K.zero),
                                                 "left")[1])
        out.append(loc)
    return sorted(out, key=Hom.kernel_sig)


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


def glued_row(specs, A, k, n_charts=2):
    """n copies of A glued in a row along Pts k, by the identity of k's
    target on each overlap."""
    charts = (A,) * n_charts
    overlaps = tuple(glue.make_overlap(specs, i, i + 1, k, k,
                                       tables.identity(k.target))
                     for i in range(n_charts - 1))
    return glue.GluingSpec(charts, overlaps)


# ---------------------------------------------------------------------------
# maps of spaces open by open, open subspaces and overlaps between them


def preimage(m: APMap, U) -> frozenset:
    return frozenset(i for i, q in enumerate(m.point_map) if q in U)


def section_maps(m: APMap) -> dict:
    """Per open W of m's target T, the map O_T(W) -> O_S(pre W), in the
    order of T's opens.  O_S(pre W) is the limit of the stalks of S at the
    points of pre W, so the map at W is the lift of the legs O_T(W) ->
    O_T(U_pm(i)) -> O_S(U_i) -> stalk of S at i."""
    S, T = m.source, m.target
    legs = [tables.compose(h, S.cones[S.mins[i]][i])
            for i, h in enumerate(m.stalks)]
    return {W: tables.lift(
        T.sections[W], S.sections[P], S.lookup(P),
        [tables.compose(T.res(W, T.mins[m.point_map[i]]), legs[i])
         for i in sorted(P)]) for W in T.opens for P in [preimage(m, W)]}


def is_iso(m: APMap) -> bool:
    """A homeomorphism, which carries each minimal open onto its image's,
    with bijective stalk maps; under a homeomorphism the stalk map at i is
    the section map at U_pm(i)."""
    pm = m.point_map
    if sorted(pm) != list(range(m.target.n_points)) or any(
            frozenset(pm[j] for j in m.source.mins[i])
            != m.target.mins[q] for i, q in enumerate(pm)):
        return False
    return all(h.is_bijective for h in m.stalks)


def invert_apmap(m: APMap) -> APMap:
    """The inverse of an isomorphism of spaces, stalk by stalk."""
    if not is_iso(m):
        raise InvariantViolation("only an isomorphism of spaces has an inverse")
    inv_points = [0] * m.target.n_points
    for i, q in enumerate(m.point_map):
        inv_points[q] = i
    return APMap(m.target, m.source, tuple(inv_points),
                 tuple(m.stalks[i].inverse() for i in inv_points))


def distinguished_open(forms, k: Hom) -> frozenset:
    """Pts k: the indices of the local forms `forms` that factor through k."""
    return frozenset(i for i, p in enumerate(forms)
                     if tables.induced(k, p) is not None)


def restrict(X, U: frozenset):
    """The open subspace on U, points reindexed in increasing order."""
    pts = sorted(U)
    reindex = {p: i for i, p in enumerate(pts)}

    def unmap(V):
        return frozenset(pts[i] for i in V)

    return sp.SpectralSpace(
        X.ctx_name, X.kind, tuple(X.point_labels[p] for p in pts),
        tuple(frozenset(reindex[q] for q in X.mins[p]) for p in pts),
        sp.OnRead(lambda V: X.sections[unmap(V)]),
        sp.OnRead(lambda V: {reindex[p]: h
                             for p, h in X.cones[unmap(V)].items()}))


def corestrict_to_open(m: APMap, U: frozenset) -> APMap:
    """View an APMap whose point image lies in U as a map into restrict(.., U)."""
    if not set(m.point_map) <= set(U):
        raise InvariantViolation("point image does not lie in the open")
    target = restrict(m.target, U)
    reindex = {p: i for i, p in enumerate(sorted(U))}
    # the sections of `target` are those of m.target, so the stalks carry over
    return APMap(m.source, target, tuple(reindex[q] for q in m.point_map),
                 m.stalks)


def open_embedding_data(specs, R, k: Hom):
    """(Pts k, iso: restrict(Spec R, Pts k) -> Spec K) for a localization k."""
    U = distinguished_open(specs[R].forms, k)
    m = sp.spec_map(specs, k)
    if len(set(m.point_map)) != m.source.n_points or set(m.point_map) != set(U):
        raise InvariantViolation("Spec K does not sit over Pts k")
    core = corestrict_to_open(m, U)
    if not is_iso(core):
        raise InvariantViolation("localization is not an open embedding")
    return U, invert_apmap(core)


class OverlapByRestriction:
    """An overlap as the iso `iso`: restrict(X_i, Ui) -> restrict(X_j, Uj)
    of open subspaces, whose points go in ascending order.  `point_map` and
    `stalks` give it in chart points, as `glue.Overlap` does, so that
    `glue.glue` glues along it."""

    def __init__(self, i, j, Ui, Uj, iso):
        self.i, self.j, self.Ui, self.Uj, self.iso = i, j, Ui, Uj, iso
        pts_i, pts_j = sorted(Ui), sorted(Uj)
        self.point_map = {pts_i[a]: pts_j[b]
                          for a, b in enumerate(iso.point_map)}
        self.stalks = {pts_i[a]: h for a, h in enumerate(iso.stalks)}

    @functools.cached_property
    def section_maps(self) -> dict:
        return section_maps(self.iso)


def overlap_by_restriction(specs, i, j, k_i, k_j, g=None):
    """Oracle: `glue.make_overlap` through open subspaces.  Each Spec K ->
    Spec R is corestricted to the open subspace on Pts k and inverted, and
    the overlap iso is the composite of chart i's inverse, the map of the
    overlap spectra and chart j's inverse inverted."""
    Ui, emb_i = open_embedding_data(specs, k_i.source, k_i)
    Uj, emb_j = open_embedding_data(specs, k_j.source, k_j)
    if g is not None:
        mid = sp.spec_map(specs, g)
    else:
        mid = sp.spaces_isomorphic(specs[k_i.target], specs[k_j.target])
        if mid is None:
            raise CocycleViolation("overlap spectra are not isomorphic")
    iso = sp.compose_apmaps(sp.compose_apmaps(emb_i, mid), invert_apmap(emb_j))
    if not is_iso(iso):
        raise CocycleViolation("overlap identification is not an isomorphism")
    return OverlapByRestriction(i, j, Ui, Uj, iso)


def glued_sections_by_product(spaces, overlaps, traces):
    """Oracle: `glue._glued_sections` by scanning the product of the chart
    sections, keeping the families whose restrictions agree across every
    overlap, and taking them as a subalgebra of the product.  The overlaps
    are `overlap_by_restriction`'s, and carry chart j's sections over W_j to
    chart i's over W_i by the overlap iso's section map."""
    P, projs = tables.product(spaces[0].kind, [spaces[i].sections[traces[i]]
                                               for i in range(len(spaces))])
    checks = []
    for ov in overlaps:
        rj = {p: a for a, p in enumerate(sorted(ov.Uj))}
        Wi, Wj = traces[ov.i] & ov.Ui, traces[ov.j] & ov.Uj
        checks.append((ov.i, ov.j,
                       spaces[ov.i].res(traces[ov.i], Wi).map,
                       spaces[ov.j].res(traces[ov.j], Wj).map,
                       ov.section_maps[frozenset(rj[p] for p in Wj)].map))
    members = []
    for x in range(P.size):
        vals = [pr.map[x] for pr in projs]
        if all(h[res_j[vals[j]]] == res_i[vals[i]]
               for i, j, res_i, res_j, h in checks):
            members.append(x)
    L, incl = subalgebra(P, members)
    return L, [tables.compose(incl, pr) for pr in projs]


def validate_apmap(ctx, m: APMap) -> None:
    """m is a map of spaces: its point map is continuous, its stalk maps run
    between the right stalks and are admissible, and its section maps run
    between the right sections and commute with restriction; else
    InvariantViolation."""
    S, T = m.source, m.target
    s_opens = set(S.opens)
    for U in T.opens:
        if preimage(m, U) not in s_opens:
            raise InvariantViolation("point map is not continuous")
    for i, h in enumerate(m.stalks):
        if h.source != T.stalk(m.point_map[i]) or h.target != S.stalk(i):
            raise InvariantViolation("stalk map between the wrong stalks")
        if not ctx.is_admissible(h):
            raise InvariantViolation("stalk map is not admissible")
    maps = section_maps(m)
    for U in T.opens:
        h = maps[U]
        if h.source != T.sections[U] or h.target != S.sections[preimage(m, U)]:
            raise InvariantViolation("section map between the wrong sections")
        for V in T.opens:
            if V < U:
                left = tables.compose(h, S.res(preimage(m, U),
                                               preimage(m, V)))
                right = tables.compose(T.res(U, V), maps[V])
                if left != right:
                    raise InvariantViolation("section maps ignore restriction")


def apmap_from_sections(S, X, pm, maps) -> APMap:
    """The map S -> X with point map pm and a hom at every open of X, by
    its stalk maps; the section maps it lifts from them must be the given
    ones, in the same order."""
    stalks = []
    for i, q in enumerate(pm):
        U = X.mins[q]
        pre = frozenset(j for j, r in enumerate(pm) if r in U)
        stalks.append(tables.compose(maps[U],
                                     S.res(pre, S.mins[i])))
    m = APMap(S, X, tuple(pm), tuple(stalks))
    assert list(section_maps(m).items()) == list(maps.items())
    return m


def compose_apmaps_by_opens(f: APMap, g: APMap) -> APMap:
    """Oracle: `spectrum.compose_apmaps` composing the section maps open by
    open."""
    if f.target is not g.source:
        raise InvariantViolation("maps of spaces not composable")
    point_map = tuple(g.point_map[f.point_map[i]]
                      for i in range(f.source.n_points))
    f_maps, g_maps = section_maps(f), section_maps(g)
    return apmap_from_sections(f.source, g.target, point_map, {
        U: tables.compose(g_maps[U], f_maps[preimage(g, U)])
        for U in g.target.opens})


def invert_apmap_by_opens(m: APMap) -> APMap:
    """Oracle: `invert_apmap` inverting the section maps open by open."""
    if not is_iso(m):
        raise InvariantViolation("only an isomorphism of spaces has an inverse")
    inv_points = [0] * m.target.n_points
    for i, q in enumerate(m.point_map):
        inv_points[q] = i
    inverted = {preimage(m, U): h.inverse()
                for U, h in section_maps(m).items()}
    return apmap_from_sections(m.target, m.source, inv_points,
                               {V: inverted[V] for V in m.source.opens})


def is_iso_by_opens(m: APMap) -> bool:
    """Oracle: `is_iso` taking the preimages of every open of the target,
    which must be the opens of the source."""
    if sorted(m.point_map) != list(range(m.target.n_points)):
        return False
    if {preimage(m, U) for U in m.target.opens} != set(m.source.opens):
        return False
    return all(h.is_bijective for h in m.stalks)


def space_isos_by_open_count(X, Y) -> list[APMap]:
    """Oracle: `spectrum.iter_space_isos` searching only between spaces with
    as many opens, so that a continuous bijection is a homeomorphism."""
    if X.n_points != Y.n_points or len(X.opens) != len(Y.opens):
        return []
    return list(sp._maps_by_stalks(X, Y, True, lambda A, B: list(
        homs.iter_isomorphisms(A, B))))


def restrict_by_opens(X, U):
    """Oracle: `restrict` from the opens of X inside U.  Returns
    the reindexed opens, in `sort_opens` order, and per reindexed open its
    sections and stalk cone."""
    reindex = {p: i for i, p in enumerate(sorted(U))}
    inside = {frozenset(reindex[p] for p in V): V for V in X.opens if V <= U}
    return sort_opens(inside), {
        V: (X.sections[W], {reindex[p]: h for p, h in X.cones[W].items()})
        for V, W in inside.items()}


def check_nerve_functorial(specs, site, table) -> None:
    """Site homs act on nerve values: each value precomposed with the Spec
    map of a site hom lies in the table, else InvariantViolation."""
    keys = [{m.key for m in maps} for maps in table]
    for a, A in enumerate(site):
        for b, B in enumerate(site):
            for f in homs.all_homs(A, B):
                mf = sp.spec_map(specs, f)
                for phi in table[a]:
                    if sp.compose_apmaps(mf, phi).key not in keys[b]:
                        raise InvariantViolation("nerve action leaves the table")


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


def plus_construction(F):
    """Oracle: one application of the plus construction.

    On a finite space the refinement poset of covers of U has the cover by
    minimal opens as its finest element, so the Heller-Rowe colimit collapses
    to H0 of that cover.
    """
    mins = F.mins
    new_sections = {}
    cones = {}
    thetas = {}
    for U in F.opens:
        pts = sorted(U)
        pair_opens = []
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                pair_opens.append((a, b, mins[pts[a]] & mins[pts[b]]))
        objects = [F.sections[mins[p]] for p in pts]
        arrows = []
        base = len(objects)
        for k, (a, b, W) in enumerate(pair_opens):
            objects.append(F.sections[W])
            arrows.append((a, base + k, F.res(mins[pts[a]], W)))
            arrows.append((b, base + k, F.res(mins[pts[b]], W)))
        L, cone = tables.limit(F.kind, objects, arrows)
        new_sections[U] = L
        lookup = tables.cone_lookup(L, cone)
        cones[U] = (pts, pair_opens, cone, lookup)
        thetas[U] = tables.lift(F.sections[U], L, lookup,
                                [F.res(U, mins[p]) for p in pts]
                                + [F.res(U, W) for (_, _, W) in pair_opens])
    new_restrictions = {}
    for U in F.opens:
        ptsU, _, coneU, _ = cones[U]
        posU = {p: i for i, p in enumerate(ptsU)}
        for V in F.opens:
            if V == U or not V < U:
                continue
            ptsV, pairsV, _, lookupV = cones[V]
            # V's pair coordinates recomputed through U's point coordinates
            legs = [coneU[posU[p]] for p in ptsV] + [
                tables.compose(coneU[posU[ptsV[a]]], F.res(mins[ptsV[a]], W))
                for (a, _, W) in pairsV]
            new_restrictions[(U, V)] = tables.lift(
                new_sections[U], new_sections[V], lookupV, legs)
    G = TablePresheaf(F.kind, F.n_points, F.opens, new_sections,
                      new_restrictions)
    return G, thetas


def sheafify(F):
    """Oracle half: the sheaf with the stalks of F, by
    `spectrum.sheaf_from_stalks` on the F(U_p) and the restrictions between
    them.  Returns (sheaf, theta, single): theta maps F to the sheaf, and
    `single` records whether every theta is injective, i.e. F was separated
    (a single plus construction would have sufficed)."""
    mins = F.mins
    G = sp.sheaf_from_stalks(
        "", F.kind, ("",) * F.n_points, [F.sections[U] for U in mins], {
            (p, q): F.res(mins[p], mins[q])
            for p in range(F.n_points) for q in mins[p] if q != p})
    assert G.opens == F.opens
    theta = {U: tables.lift(F.sections[U], G.sections[U], G.lookup(U),
                            [F.res(U, mins[p]) for p in sorted(U)])
             for U in F.opens}
    return G, theta, all(t.is_injective for t in theta.values())


def _class_map(c_from: Hom, c_to: Hom) -> Hom:
    h = tables.induced(c_from, c_to)
    if h is None:
        raise InvariantViolation("restriction between sections undefined")
    return h


def canonical_presheaf(ctx, R):
    """Oracle half: the paper's canonical presheaf on Spec R.

    The opens are generated by the distinguished opens Pts k under union and
    intersection.  A distinguished open U gets red K for K the quotient of
    R by the join of the kernels of the localizations k with Pts k = U;
    every other open gets the right Kan extension, the limit of the
    distinguished opens inside it.  Returns (F, canonical), with canonical[U]
    the map R -> F(U).
    """
    forms = tuple(ctx.local_forms(R))
    n = len(forms)
    by_open: dict = {}
    for path in enumerate_localizations(ctx, R).values():
        U = distinguished_open(forms, path)
        by_open.setdefault(U, []).append(path)
    opens = set(by_open) | {frozenset(), frozenset(range(n))}
    changed = True
    while changed:
        changed = False
        for U in list(opens):
            for V in list(opens):
                for W in (U | V, U & V):
                    if W not in opens:
                        opens.add(W)
                        changed = True
    opens = sort_opens(opens)

    sections, canonical = {}, {}
    for U, paths in by_open.items():
        sig = join_sigs(R.size, [p.kernel_sig() for p in paths])
        RU, proj = tables.quotient_by_sig(R, sig)
        unit, _ = reduction.reduce_admissible(ctx, RU)
        sections[U] = unit.target
        canonical[U] = tables.compose(proj, unit)
    # right Kan extension on the other opens
    sub_basis = {U: [W for W in opens if W in by_open and W <= U]
                 for U in opens}
    kan_cones, kan_lookups = {}, {}
    for U in opens:
        if U in by_open:
            continue
        subs = sub_basis[U]
        arrows = [(a, b, _class_map(canonical[Wa], canonical[Wb]))
                  for a, Wa in enumerate(subs) for b, Wb in enumerate(subs)
                  if Wb < Wa]
        L, cone = tables.limit(R.kind, [sections[W] for W in subs], arrows)
        sections[U] = L
        kan_cones[U] = dict(zip(subs, cone))
        kan_lookups[U] = tables.cone_lookup(L, cone)
        canonical[U] = tables.lift(R, L, kan_lookups[U],
                                   [canonical[W] for W in subs])
    restrictions = {}
    for U in opens:
        for V in opens:
            if not V < U:
                continue
            if V in by_open:
                res = _class_map(canonical[U], canonical[V]) if U in by_open \
                    else kan_cones[U][V]
            else:
                legs = [_class_map(canonical[U], canonical[W]) if U in by_open
                        else kan_cones[U][W] for W in sub_basis[V]]
                res = tables.lift(sections[U], sections[V], kan_lookups[V],
                                  legs)
            restrictions[(U, V)] = res
    return TablePresheaf(R.kind, n, opens, sections, restrictions), canonical


def spec_by_definition(ctx, R):
    """Oracle: Spec R as the sheafified canonical presheaf.  Returns
    (F, sheaf, canonical, single) with canonical[U] the map R -> sheaf(U)."""
    F, canonical = canonical_presheaf(ctx, R)
    G, theta, single = sheafify(F)
    return F, G, {U: tables.compose(canonical[U], theta[U])
                  for U in F.opens}, single


def isomorphic_sheaves(G, H) -> bool:
    """Whether the sheaf G and the (pre)sheaf H on one space are isomorphic,
    by `space_isos_by_opens` from G to H (a TablePresheaf has no stalk
    cones for the minimal-open search to lift into, so G must have them)."""
    return next(space_isos_by_opens(G, H), None) is not None


def is_separated(F) -> bool:
    """Oracle: monopresheaf test against the finest (minimal-open) covers."""
    for U in F.opens:
        pts = sorted(U)
        seen = set()
        for x in range(F.sections[U].size):
            key = tuple(F.res(U, F.mins[p]).map[x] for p in pts)
            if key in seen:
                return False
            seen.add(key)
    return True


def sheafify_by_plus(F):
    """Oracle: sheafification by the plus construction, applied twice when F
    is not separated.  Returns (sheaf, theta, single) like `sheafify`."""
    single = is_separated(F)
    G, th1 = plus_construction(F)
    if single:
        return G, th1, True
    H, th2 = plus_construction(G)
    return H, {U: tables.compose(th1[U], th2[U]) for U in F.opens}, False


def covers_of(F, U, cap: int = 12):
    """Covers of U by nonempty opens: all of them up to `cap` opens below U,
    else the minimal-open cover and the covering pairs."""
    subs = [W for W in F.opens if W <= U and W]
    if len(subs) <= cap:
        for k in range(1, len(subs) + 1):
            for fam in itertools.combinations(subs, k):
                if frozenset().union(*fam) == U:
                    yield list(fam)
    else:
        mins = sorted({F.mins[p] for p in U}, key=sorted)
        yield mins
        for a in range(len(subs)):
            for b in range(a, len(subs)):
                if subs[a] | subs[b] == U:
                    yield [subs[a], subs[b]]


def satisfies_sheaf_condition(F, cap: int = 12) -> bool:
    """Oracle: the sheaf condition, by enumerating covers and families."""
    # the empty open is covered by the empty family
    if F.sections[frozenset()].size != 1:
        return False
    for U in F.opens:
        for cover in covers_of(F, U, cap):
            families = []
            ranges = [range(F.sections[W].size) for W in cover]
            for fam in itertools.product(*ranges):
                ok = True
                for a in range(len(cover)):
                    for b in range(a + 1, len(cover)):
                        W = cover[a] & cover[b]
                        if F.res(cover[a], W).map[fam[a]] != \
                                F.res(cover[b], W).map[fam[b]]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    families.append(fam)
            images = set()
            for x in range(F.sections[U].size):
                key = tuple(F.res(U, W).map[x] for W in cover)
                if key in images:
                    return False
                images.add(key)
            if images != set(families):
                return False
    return True


@dataclass
class Hyperopcover:
    """The Čech hyperopcover of an opcover, truncated at level 1:
    `level1[(i0, i1)]` is (pushout, in0, in1) for every ordered pair."""
    level0: object
    level1: dict


def kernel_hyperopcover(c) -> Hyperopcover:
    """The Čech form: level 1 is the bare pushout of every ordered pair of
    components, a component with itself included."""
    return Hyperopcover(c, {
        (i0, i1): tables.pushout(k0, k1)
        for i0, k0 in enumerate(c.components)
        for i1, k1 in enumerate(c.components)})


def h0_by_ordered_pairs(K: Hyperopcover):
    """Oracle: Čech H0 as one limit of the level-0 targets and each level-1
    pushout, with its face arrows in0 from i0 and in1 from i1; the map from
    the base is lifted through the level-0 coordinates, which determine the
    rest."""
    comps = K.level0.components
    objects = [k.target for k in comps]
    arrows = []
    for (i0, i1), (P, in0, in1) in sorted(K.level1.items()):
        arrows.append((i0, len(objects), in0))
        arrows.append((i1, len(objects), in1))
        objects.append(P)
    E, cone = tables.limit(K.level0.base.kind, objects, arrows)
    lookup = tables.cone_lookup(E, cone[:len(comps)])
    return E, tables.lift(K.level0.base, E, lookup, comps)


def h0_by_product_scan(K: Hyperopcover):
    """Oracle: Čech H0 as the families of the product of the level-0
    targets that satisfy every face condition, with the map from the base."""
    comps = K.level0.components
    P0, projs = tables.product(K.level0.base.kind, [k.target for k in comps])
    conditions = []
    for (i0, i1), (_, in0, in1) in sorted(K.level1.items()):
        conditions.append((tables.compose(projs[i0], in0),
                           tables.compose(projs[i1], in1)))
    members = [x for x in range(P0.size)
               if all(d0.map[x] == d1.map[x] for d0, d1 in conditions)]
    E, incl = subalgebra(P0, members)
    lookup = tables.cone_lookup(E, [tables.compose(incl, pr) for pr in projs])
    return E, tables.lift(K.level0.base, E, lookup, comps)


class DidNotStabilize(ConespecError):
    def __init__(self, rounds: int):
        super().__init__(
            f"bounded saturation did not stabilize within {rounds} rounds")
        self.rounds = rounds


def enumerate_localizations(ctx, R, max_rounds: int | None = None,
                            steps: dict | None = None) -> dict[tuple, Hom]:
    """Oracle: all finite localizations of R up to iso over R, keyed by
    signature (the paper's bounded saturation).

    Breadth-first over single-cell attachments; the first (hence shortest,
    lexicographically least in discovery order) path of attachments
    represents its class, and `steps`, when given, gets each class's
    (datum, branch) steps under its signature.  An attachment's signature
    over R is its step signature read through the path's map, so only a new
    class has its quotient built.  With `max_rounds`, raises
    DidNotStabilize if a round after that many still finds new classes.
    """
    ctx.accepts(R)
    start = tables.identity(R)
    found = {start.kernel_sig(): start}
    trail = {start.kernel_sig(): ()}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise DidNotStabilize(max_rounds)
        new = []
        for loc in frontier:
            K = loc.target
            for datum, branch in attachments(ctx, K):
                step_sig = ctx.attach_sig(K, datum, branch)
                if is_identity_sig(step_sig):
                    continue
                sig = tables.normalize_sig(step_sig[x] for x in loc.map)
                if sig not in found:
                    found[sig] = tables.compose(
                        loc, tables.quotient_by_sig(K, step_sig)[1])
                    trail[sig] = (trail[loc.kernel_sig()]
                                  + ((datum, branch),))
                    new.append(found[sig])
        frontier = new
    if steps is not None:
        steps.update(trail)
    return found


def enumerate_localizations_by_quotient(ctx, R, max_rounds=None):
    """Oracle: the localization search that builds every attachment's
    quotient, dedups by the composite's signature, and skips bijective steps.
    """
    ctx.accepts(R)
    start = tables.identity(R)
    found = {start.kernel_sig(): start}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise DidNotStabilize(max_rounds)
        new = []
        for loc in frontier:
            for datum in ctx.cell_data(loc.target):
                for branch in contexts.BRANCHES:
                    _, step = ctx.attach(loc.target, datum, branch)
                    if step.is_bijective:
                        continue
                    ext = tables.compose(loc, step)
                    if ext.kernel_sig() not in found:
                        found[ext.kernel_sig()] = ext
                        new.append(ext)
        frontier = new
    return found


def saturate_bounded(ctx, R, max_rounds=None):
    """Oracle: the bounded cone small object argument.

    Attaches every cell along every datum with every branch, round by round,
    deduplicating by signature; local targets among the stable reachable set
    are the local forms.
    """
    if max_rounds is None:
        max_rounds = R.size + 2
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    found = enumerate_localizations(ctx, R, max_rounds)
    locs = [p for p in found.values() if ctx.is_local(p.target)]
    return sorted(locs, key=Hom.kernel_sig)


def factorize_by_quotient(ctx, f):
    """Oracle: the small-object argument that `factorize` short-cuts.  At
    each step it builds the quotient of each attachment in `attachments`
    order and takes the first non-identity one that f factors through, as
    `induced` says, until none does."""
    ctx.accepts(f.source)
    ctx.accepts(f.target)
    loc = tables.identity(f.source)
    g = f
    while True:
        K = loc.target
        progressed = False
        for datum, branch in attachments(ctx, K):
            _, step = ctx.attach(K, datum, branch)
            if step.is_bijective:
                continue
            h = tables.induced(step, g)
            if h is None:
                continue
            loc = tables.compose(loc, step)
            g = h
            progressed = True
            break
        if not progressed:
            break
    if not ctx.is_admissible(g):
        raise InvariantViolation("residual factor is not admissible")
    return loc, g


def search_plan_by_scan(sizes, meets):
    """Oracle: `tables._search_plan` choosing each next object by a scan of
    every unplaced object for the most links, ties to the lower index."""
    n = len(sizes)
    links = [0] * n
    placed = [False] * n
    plan = []
    for _ in range(n):
        v = max((u for u in range(n) if not placed[u]),
                key=lambda u: (links[u], -u))
        placed[v] = True
        checks = []
        for i, j, left, right in meets:
            if v not in (i, j):
                continue
            u, own, other = (j, left, right) if i == v else (i, right, left)
            if placed[u]:
                checks.append((own, u, other))
            else:
                links[u] += 1
        # the index: elements by key along the first meet to a placed
        # object with the most distinct keys on v's side
        index = None
        for own, u, other in checks:
            if u != v and (index is None or len(set(own)) > len(index[2])):
                index = (u, other, {k: [x for x, y in enumerate(own) if y == k]
                                    for k in own})
        plan.append((v, checks, index))
    return plan


def agreeing_families_by_product_scan(sizes, meets):
    """Oracle: every family of the product, in lexicographic order, kept
    when its keys agree on every meet."""
    return [t for t in itertools.product(*map(range, sizes))
            if all(left[t[i]] == right[t[j]] for i, j, left, right in meets)]


def ideal_generated(A, gens) -> tables.Ideal:
    """Oracle: the ideal generated by `gens`, closed under addition in a
    ring by a loop (a principal ideal needs none: `tables.principal_ideal`)."""
    if A.is_ring:
        base = {A.mul[g][r] for g in gens for r in range(A.size)}
        base.add(A.zero)
        members = set(base)
        frontier = True
        while frontier:
            frontier = False
            for i in list(members):
                for j in base:
                    v = A.add[i][j]
                    if v not in members:
                        members.add(v)
                        frontier = True
        return tables.Ideal(A, frozenset(members))
    return tables.Ideal(A, frozenset(A.mul[g][r] for g in gens
                                     for r in range(A.size)))


def quotient(A, ideal_or_pairs):
    """Oracle: the quotient by an Ideal (validated; a Rees quotient for
    monoids) or by the congruence that index pairs generate."""
    if isinstance(ideal_or_pairs, tables.Ideal):
        I = ideal_or_pairs
        if I.carrier != A or not is_valid_ideal(I):
            raise InvariantViolation("not a valid ideal of this algebra")
        if A.is_ring:
            return tables.quotient_by_sig(A, tables.ideal_sig(I))
        mem = sorted(I.members)
        pairs = [(mem[0], m) for m in mem[1:]]
    else:
        pairs = list(ideal_or_pairs)
        if pairs and isinstance(pairs[0], int):
            raise InvariantViolation("expected an Ideal or an iterable of index pairs")
    return tables.quotient_by_sig(A, tables.congruence_closure(A, pairs))


def invert_element(A, a):
    """Oracle: the universal map making `a` invertible."""
    return tables.quotient_by_sig(A, tables.inversion_sig(A, a))


def enumerate_apmaps_by_opens(ctx, S, X):
    """Oracle: `spectrum.enumerate_apmaps` searching every open of X, each
    open taking every hom that commutes with the smaller opens already
    chosen, and every result re-validated."""
    if S.kind != X.kind:
        return []
    out = []
    s_opens = set(S.opens)
    x_opens_asc = list(X.opens)
    for pm in itertools.product(range(X.n_points), repeat=S.n_points):
        pre = {U: frozenset(i for i, q in enumerate(pm) if q in U)
               for U in X.opens}
        if any(pre[U] not in s_opens for U in X.opens):
            continue
        min_points = {}
        for i in range(S.n_points):
            min_points.setdefault(X.mins[pm[i]], []).append(i)
        assigned: dict = {}

        def candidates(U):
            for h in homs.all_homs(X.sections[U], S.sections[pre[U]]):
                ok = all(
                    tables.compose(h, S.res(pre[U], pre[V]))
                    == tables.compose(X.res(U, V), assigned[V])
                    for V in x_opens_asc if V in assigned and V < U)
                if ok and all(ctx.is_admissible(tables.compose(
                        h, S.res(pre[U], S.mins[i])))
                        for i in min_points.get(U, ())):
                    yield h

        def rec(idx):
            if idx == len(x_opens_asc):
                out.append(apmap_from_sections(
                    S, X, pm, {U: assigned[U] for U in x_opens_asc}))
                return
            U = x_opens_asc[idx]
            for h in candidates(U):
                assigned[U] = h
                rec(idx + 1)
                del assigned[U]

        rec(0)
    for m in out:
        validate_apmap(ctx, m)
    return out


def space_isos_by_opens(X, Y):
    """Oracle: `spectrum.iter_space_isos` choosing an isomorphism at every
    open of Y, each commuting with the smaller opens already chosen."""
    if X.kind != Y.kind or X.n_points != Y.n_points:
        return
    y_opens_asc = list(Y.opens)
    for pm in itertools.permutations(range(Y.n_points), X.n_points):
        img_opens = {frozenset(pm[i] for i in U) for U in X.opens}
        if img_opens != set(Y.opens):
            continue
        pre = {U: frozenset(i for i in range(X.n_points) if pm[i] in U)
               for U in Y.opens}
        assigned: dict = {}

        def rec(idx):
            if idx == len(y_opens_asc):
                yield apmap_from_sections(X, Y, pm, dict(assigned))
                return
            U = y_opens_asc[idx]
            for h in homs.iter_isomorphisms(Y.sections[U], X.sections[pre[U]]):
                ok = True
                for V in y_opens_asc[:idx]:
                    if V < U:
                        left = tables.compose(h, X.res(pre[U], pre[V]))
                        right = tables.compose(Y.res(U, V), assigned[V])
                        if left != right:
                            ok = False
                            break
                if ok:
                    assigned[U] = h
                    yield from rec(idx + 1)
                    del assigned[U]

        yield from rec(0)


def natural_transformations_by_product(specs, site, NX, NY):
    """Oracle: `glue.natural_transformations` trying every assignment of
    each site object in turn, and checking naturality on the site objects
    assigned so far."""
    n = len(site)
    x_keys = [{m.key: idx for idx, m in enumerate(maps)} for maps in NX]
    y_keys = [{m.key: idx for idx, m in enumerate(maps)} for maps in NY]
    actions = []  # (a, b, x action as index map, y action as index map)
    for a in range(n):
        for b in range(n):
            for f in homs.all_homs(site[a], site[b]):
                mf = sp.spec_map(specs, f)
                xa = [x_keys[b][sp.compose_apmaps(mf, m).key] for m in NX[a]]
                ya = [y_keys[b][sp.compose_apmaps(mf, m).key] for m in NY[a]]
                actions.append((a, b, xa, ya))
    results = []
    assignment: list = [None] * n

    def natural_so_far():
        for a, b, xa, ya in actions:
            if assignment[a] is None or assignment[b] is None:
                continue
            if any(assignment[b][xa[i]] != ya[assignment[a][i]]
                   for i in range(len(xa))):
                return False
        return True

    def rec(s):
        if s == n:
            results.append(tuple(assignment))
            return
        for cand in itertools.product(range(len(NY[s])), repeat=len(NX[s])):
            assignment[s] = cand
            if natural_so_far():
                rec(s + 1)
        assignment[s] = None

    rec(0)
    return results


def nerve_families_by_product(specs, cover, at_K):
    """Oracle: `glue._nerve_families` scanning the product of the component
    values for the families that agree after every pair's pushout legs."""
    keys = [[phi.key for phi in maps] for maps in at_K]
    pair_keys = []
    for t, kt in enumerate(cover.components):
        for u, ku in enumerate(cover.components):
            if t < u:
                _, in_t, in_u = tables.pushout(kt, ku)
                mt, mu = sp.spec_map(specs, in_t), sp.spec_map(specs, in_u)
                pair_keys.append((
                    t, u,
                    [sp.compose_apmaps(mt, phi).key for phi in at_K[t]],
                    [sp.compose_apmaps(mu, phi).key for phi in at_K[u]]))
    families = []
    for fam in itertools.product(*(range(len(maps)) for maps in at_K)):
        if all(left[fam[t]] == right[fam[u]]
               for t, u, left, right in pair_keys):
            families.append(tuple(keys[t][x] for t, x in enumerate(fam)))
    return families


def reduced_by_product(ctx, R, prop):
    """Oracle: the verdict and certificate of `check --property reduced` or
    `mono-reduced`, from ell as a hom into the product of the local-form
    targets, built with its tables and lifted into."""
    h = ell(ctx, R)
    verdict = ctx.is_admissible(h) if prop == "reduced" else h.is_injective
    certificate = {"canonical_map": list(h.map)}
    if prop == "reduced" and not verdict:
        collisions = [(x, y) for x in range(R.size)
                      for y in range(x + 1, R.size) if h.map[x] == h.map[y]]
        # prefer naming the element identified with zero
        witness = next((y for x, y in collisions
                        if R.is_ring and x == R.zero),
                       collisions[0][1] if collisions else None)
        certificate["witness"] = R.elements[witness] \
            if witness is not None else None
    return verdict, certificate
