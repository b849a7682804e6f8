"""Shared test utilities: small topologies, randomized presheaves, oracles."""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from conespec import contexts, corpus, glue, reduction, tables
from conespec import spectrum as sp
from conespec.errors import ConespecError, InvariantViolation
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

    min_open = sp.Presheaf.min_open


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
    overlaps = tuple(glue.make_overlap(specs, charts, i, i + 1, k, k,
                                       tables.identity(k.target))
                     for i in range(n_charts - 1))
    return glue.GluingSpec(charts, overlaps)


def glued_sections_by_product(spaces, remaps, traces):
    """Oracle: `glue._glued_sections` by scanning the product of the chart
    sections, keeping the families whose restrictions agree across every
    overlap, and taking them as a subalgebra of the product."""
    P, projs = tables.product(spaces[0].kind, [spaces[i].sections(traces[i])
                                               for i in range(len(spaces))])
    overlaps = []
    for ov, Ui, Uj, rj in remaps:
        Wi, Wj = traces[ov.i] & Ui, traces[ov.j] & Uj
        overlaps.append((ov.i, ov.j,
                         spaces[ov.i].sheaf.res(traces[ov.i], Wi).map,
                         spaces[ov.j].sheaf.res(traces[ov.j], Wj).map,
                         ov.iso.section_maps[frozenset(rj[p] for p in Wj)].map))
    members = []
    for x in range(P.size):
        vals = [pr.map[x] for pr in projs]
        if all(h[res_j[vals[j]]] == res_i[vals[i]]
               for i, j, res_i, res_j, h in overlaps):
            members.append(x)
    L, incl = tables.subalgebra(P, members)
    return L, [tables.compose(incl, pr) for pr in projs]


def validate_apmap(ctx, m: APMap) -> None:
    """m is a map of spaces: its point map is continuous, its stalk maps run
    between the right stalks and are admissible, and its section maps run
    between the right sections and commute with restriction; else
    InvariantViolation."""
    S, T = m.source, m.target
    s_opens = set(S.opens)
    for U in T.opens:
        if m.preimage(U) not in s_opens:
            raise InvariantViolation("point map is not continuous")
    for i, h in enumerate(m.stalks):
        if h.source != T.stalk(m.point_map[i]) or h.target != S.stalk(i):
            raise InvariantViolation("stalk map between the wrong stalks")
        if not ctx.is_admissible(h):
            raise InvariantViolation("stalk map is not admissible")
    for U in T.opens:
        h = m.section_maps[U]
        if h.source != T.sections(U) or h.target != S.sections(m.preimage(U)):
            raise InvariantViolation("section map between the wrong sections")
        for V in T.opens:
            if V < U:
                left = tables.compose(h, S.sheaf.res(m.preimage(U), m.preimage(V)))
                right = tables.compose(T.sheaf.res(U, V), m.section_maps[V])
                if left != right:
                    raise InvariantViolation("section maps ignore restriction")


def apmap_from_sections(S, X, pm, section_maps) -> APMap:
    """The map S -> X with point map pm and a hom at every open of X, by
    its stalk maps; the section maps it lifts from them must be the given
    ones, in the same order."""
    stalks = []
    for i, q in enumerate(pm):
        U = X.min_open(q)
        pre = frozenset(j for j, r in enumerate(pm) if r in U)
        stalks.append(tables.compose(section_maps[U],
                                     S.sheaf.res(pre, S.min_open(i))))
    m = APMap(S, X, tuple(pm), tuple(stalks))
    assert list(m.section_maps.items()) == list(section_maps.items())
    return m


def compose_apmaps_by_opens(f: APMap, g: APMap) -> APMap:
    """Oracle: `spectrum.compose_apmaps` composing the section maps open by
    open."""
    if f.target is not g.source:
        raise InvariantViolation("maps of spaces not composable")
    point_map = tuple(g.point_map[f.point_map[i]]
                      for i in range(f.source.n_points))
    section_maps = {}
    for U in g.target.opens:
        V = g.preimage(U)
        section_maps[U] = tables.compose(g.section_maps[U], f.section_maps[V])
    return apmap_from_sections(f.source, g.target, point_map, section_maps)


def invert_apmap_by_opens(m: APMap) -> APMap:
    """Oracle: `spectrum.invert_apmap` inverting the section maps open by
    open."""
    if not m.is_iso:
        raise InvariantViolation("only an isomorphism of spaces has an inverse")
    inv_points = [0] * m.target.n_points
    for i, q in enumerate(m.point_map):
        inv_points[q] = i
    section_maps = {}
    for U in m.target.opens:
        section_maps[m.preimage(U)] = m.section_maps[U].inverse()
    return apmap_from_sections(m.target, m.source, inv_points,
                               {V: section_maps[V] for V in m.source.opens})


def check_nerve_functorial(specs, site, table) -> None:
    """Site homs act on nerve values: each value precomposed with the Spec
    map of a site hom lies in the table, else InvariantViolation."""
    keys = [{m.key for m in maps} for maps in table]
    for a, A in enumerate(site):
        for b, B in enumerate(site):
            for f in tables.all_homs(A, B):
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
    min_open = {p: F.min_open(p) for p in range(F.n_points)}
    new_sections = {}
    cones = {}
    thetas = {}
    for U in F.opens:
        pts = sorted(U)
        pair_opens = []
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                pair_opens.append((a, b, min_open[pts[a]] & min_open[pts[b]]))
        objects = [F.sections[min_open[p]] for p in pts]
        arrows = []
        base = len(objects)
        for k, (a, b, W) in enumerate(pair_opens):
            objects.append(F.sections[W])
            arrows.append((a, base + k, F.res(min_open[pts[a]], W)))
            arrows.append((b, base + k, F.res(min_open[pts[b]], W)))
        L, cone = tables.limit(F.kind, objects, arrows)
        new_sections[U] = L
        lookup = tables.cone_lookup(L, cone)
        cones[U] = (pts, pair_opens, cone, lookup)
        thetas[U] = tables.lift(F.sections[U], L, lookup,
                                [F.res(U, min_open[p]) for p in pts]
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
                tables.compose(coneU[posU[ptsV[a]]], F.res(min_open[ptsV[a]], W))
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
    mins = [F.min_open(p) for p in range(F.n_points)]
    G = sp.sheaf_from_stalks(F.kind, [F.sections[U] for U in mins], {
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
    forms = tuple(contexts.local_forms(ctx, R))
    n = len(forms)
    by_open: dict = {}
    for path in enumerate_localizations(ctx, R).values():
        U = sp.distinguished_open(forms, path)
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
        sig = tables.join_sigs(R.size, [p.sig for p in paths])
        RU, proj = tables.quotient_by_sig(R, sig)
        red, unit, _ = reduction.reduce_admissible(ctx, RU)
        sections[U] = red
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
    """Whether the (pre)sheaves G and H on one space are isomorphic, by
    `space_isos_by_opens` on the spaces they make (a TablePresheaf has no
    stalk cones for the minimal-open search to lift into)."""
    def space(F):
        return sp.SpectralSpace("", F.kind, ("",) * F.n_points, F)

    return next(space_isos_by_opens(space(G), space(H)), None) is not None


def is_separated(F) -> bool:
    """Oracle: monopresheaf test against the finest (minimal-open) covers."""
    for U in F.opens:
        pts = sorted(U)
        seen = set()
        for x in range(F.sections[U].size):
            key = tuple(F.res(U, F.min_open(p)).map[x] for p in pts)
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
        mins = sorted({F.min_open(p) for p in U}, key=sorted)
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


def h0_by_product_scan(K):
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
    E, incl = tables.subalgebra(P0, members)
    lookup = tables.cone_lookup(E, [tables.compose(incl, pr) for pr in projs])
    return E, tables.lift(K.level0.base, E, lookup, [k.composite for k in comps])


class DidNotStabilize(ConespecError):
    def __init__(self, rounds: int):
        super().__init__(
            f"bounded saturation did not stabilize within {rounds} rounds")
        self.rounds = rounds


def enumerate_localizations(ctx, R, max_rounds: int | None = None
                            ) -> dict[tuple, contexts.LocalizationPath]:
    """Oracle: all finite localizations of R up to iso over R, keyed by
    signature (the paper's bounded saturation).

    Breadth-first over single-cell attachments; the first (hence shortest,
    lexicographically least in discovery order) path represents its class.
    An attachment's signature over R is its step signature read through the
    path's map, so only a new class has its quotient built.  With
    `max_rounds`, raises DidNotStabilize if a round after that many still
    finds new classes.
    """
    ctx.accepts(R)
    start = contexts.identity_path(R)
    found = {start.sig: start}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise DidNotStabilize(max_rounds)
        new = []
        for path in frontier:
            K = path.target
            for datum, branch in ctx.attachments(K):
                step_sig = ctx.attach_sig(K, datum, branch)
                if contexts._is_identity_sig(step_sig):
                    continue
                sig = tables.normalize_sig(step_sig[x]
                                           for x in path.composite.map)
                if sig not in found:
                    found[sig] = contexts.extend_path(
                        ctx, path, datum, branch,
                        tables.quotient_by_sig(K, step_sig))
                    new.append(found[sig])
        frontier = new
    return found


def enumerate_localizations_by_quotient(ctx, R, max_rounds=None):
    """Oracle: the localization search that builds every attachment's
    quotient, dedups by the composite's signature, and skips bijective steps.
    """
    ctx.accepts(R)
    start = contexts.identity_path(R)
    found = {start.sig: start}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise DidNotStabilize(max_rounds)
        new = []
        for path in frontier:
            for datum in ctx.cell_data(path.target):
                for branch in contexts.BRANCHES:
                    Q, step = ctx.attach(path.target, datum, branch)
                    if step.is_bijective:
                        continue
                    ext = contexts.extend_path(ctx, path, datum, branch,
                                               (Q, step))
                    if ext.sig not in found:
                        found[ext.sig] = ext
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
    return sorted(locs, key=lambda p: p.sig)


def factorize_by_quotient(ctx, f, shuffle_seed=None):
    """Oracle: `factorize` building every candidate quotient and asking
    `induced` whether f factors through it."""
    ctx.accepts(f.source)
    ctx.accepts(f.target)
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    path = contexts.identity_path(f.source)
    g = f
    while True:
        K = path.target
        options = [(d, b) for d in ctx.cell_data(K) for b in contexts.BRANCHES]
        if rng is not None:
            rng.shuffle(options)
        progressed = False
        for datum, branch in options:
            Q, step = ctx.attach(K, datum, branch)
            if step.is_bijective:
                continue
            h = tables.induced(step, g)
            if h is None:
                continue
            path = contexts.extend_path(ctx, path, datum, branch, (Q, step))
            g = h
            progressed = True
            break
        if not progressed:
            break
    if not ctx.is_admissible(g):
        raise InvariantViolation("residual factor is not admissible")
    return path, g


def search_plan_by_scan(sizes, arrows):
    """Oracle: `tables._search_plan` choosing each next object by a scan of
    every unplaced object for the most links, ties to the lower index."""
    n = len(sizes)
    incident = [[] for _ in range(n)]
    for i, j, h in arrows:
        incident[i].append((i, j, h))
        if j != i:
            incident[j].append((i, j, h))
    links = [0] * n
    placed = [False] * n
    plan = []
    for _ in range(n):
        v = max((u for u in range(n) if not placed[u]),
                key=lambda u: (links[u], -u))
        placed[v] = True
        forced, into, loops = [], [], []
        for i, j, h in incident[v]:
            other = j if i == v else i
            if i == j:
                loops.append(h)
            elif not placed[other]:
                links[other] += 1
            elif j == v:
                forced.append((i, h))
            else:
                into.append((j, h))
        pre = None
        if into and not forced:
            j, h = into[0]
            pre = [[] for _ in range(sizes[j])]
            for x, y in enumerate(h):
                pre[y].append(x)
        plan.append((v, forced, into, loops, pre))
    return plan


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
        if I.carrier != A or not I.is_valid():
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
            min_points.setdefault(X.min_open(pm[i]), []).append(i)
        assigned: dict = {}

        def candidates(U):
            for h in tables.all_homs(X.sections(U), S.sections(pre[U])):
                ok = all(
                    tables.compose(h, S.sheaf.res(pre[U], pre[V]))
                    == tables.compose(X.sheaf.res(U, V), assigned[V])
                    for V in x_opens_asc if V in assigned and V < U)
                if ok and all(ctx.is_admissible(tables.compose(
                        h, S.sheaf.res(pre[U], S.min_open(i))))
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
            for h in tables.iter_isomorphisms(Y.sections(U), X.sections(pre[U])):
                ok = True
                for V in y_opens_asc[:idx]:
                    if V < U:
                        left = tables.compose(h, X.sheaf.res(pre[U], pre[V]))
                        right = tables.compose(Y.sheaf.res(U, V), assigned[V])
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
            for f in tables.all_homs(site[a], site[b]):
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
                _, in_t, in_u = tables.pushout(kt.composite, ku.composite)
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
    forms = contexts.local_forms(ctx, R)
    P, projs = tables.product(R.kind, [p.target for p in forms])
    h = tables.lift(R, P, tables.cone_lookup(P, projs),
                    [p.composite for p in forms])
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
