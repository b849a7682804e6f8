"""Spec as a finite space with a structure sheaf, and maps between such spaces.

The points of Spec R are the isomorphism classes of local forms; the topology
is generated by the distinguished opens Pts k (local forms factoring through a
finite localization k).  The canonical presheaf assigns red K to Pts k, taking
the join over all localizations with the same point set; other opens get the
right-Kan-extension limit; the structure sheaf is its sheafification, built
on this finite T0 space as the limit of the stalks over the specialization
poset of each open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import contexts as cx
from . import tables
from .contexts import LocalizationPath, factorize, local_forms
from .errors import InvariantViolation
from .tables import FiniteAlgebra, Hom, compose, identity


# ---------------------------------------------------------------------------
# presheaves on a finite open lattice


@dataclass
class Presheaf:
    kind: str
    n_points: int
    opens: tuple[frozenset, ...]
    sections: dict
    restrictions: dict  # (U, V) -> Hom for V subset of U
    identities: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def res(self, U, V) -> Hom:
        if U == V:
            if U not in self.identities:
                self.identities[U] = identity(self.sections[U])
            return self.identities[U]
        return self.restrictions[(U, V)]

    def min_open(self, p: int) -> frozenset:
        best = None
        for U in self.opens:
            if p in U and (best is None or U < best):
                best = U
        return best


def sort_opens(opens) -> tuple[frozenset, ...]:
    return tuple(sorted(opens, key=lambda U: (len(U), sorted(U))))


def check_topology(opens, n_points) -> None:
    oset = set(opens)
    if frozenset() not in oset or frozenset(range(n_points)) not in oset:
        raise InvariantViolation("topology misses the empty or total open")
    for U in oset:
        for V in oset:
            if U | V not in oset or U & V not in oset:
                raise InvariantViolation("opens not closed under union/intersection")


def sheafify(F: Presheaf):
    """The sheaf with the stalks of F, as limits over the specialization poset.

    On a finite T0 space a sheaf is fixed by its stalks F(U_p) at the minimal
    opens: G(U) is the limit of F(U_p), p in U, along F(U_p) -> F(U_q) for
    q in U_p, q != p.  Each pair a < b of points of U adds the object
    F(U_a & U_b) with one arrow from a; it forces an extra coordinate without
    adding a constraint, so labels list point coordinates, then pair
    coordinates.  Returns (sheaf, theta, single) where theta maps old sections
    to new and `single` records whether every theta is injective, i.e. F was
    separated (a single plus construction would have sufficed).
    """
    min_open = {p: F.min_open(p) for p in range(F.n_points)}
    sections, cones, lookups, theta = {}, {}, {}, {}
    for U in F.opens:
        pts = sorted(U)
        pos = {p: a for a, p in enumerate(pts)}
        objects = [F.sections[min_open[p]] for p in pts]
        arrows = [(pos[p], pos[q], F.res(min_open[p], min_open[q]))
                  for p in pts for q in sorted(min_open[p]) if q != p]
        for a, p in enumerate(pts):
            for q in pts[a + 1:]:
                W = min_open[p] & min_open[q]
                arrows.append((a, len(objects), F.res(min_open[p], W)))
                objects.append(F.sections[W])
        L, cone = tables.limit(F.kind, objects, arrows)
        sections[U] = L
        cones[U] = dict(zip(pts, cone))
        lookups[U] = tables.cone_lookup(L, cone[:len(pts)])
        theta[U] = tables.lift(F.sections[U], L, lookups[U],
                               [F.res(U, min_open[p]) for p in pts])
    restrictions = {(U, V): tables.lift(sections[U], sections[V], lookups[V],
                                        [cones[U][p] for p in sorted(V)])
                    for U in F.opens for V in F.opens if V < U}
    G = Presheaf(F.kind, F.n_points, F.opens, sections, restrictions)
    return G, theta, all(t.is_injective for t in theta.values())


# ---------------------------------------------------------------------------
# spectral spaces


@dataclass
class SpectralSpace:
    ctx_name: str
    kind: str
    point_labels: tuple[str, ...]
    sheaf: Presheaf
    # Spec-only data (None on glued spaces)
    base: FiniteAlgebra | None = None
    forms: tuple[LocalizationPath, ...] | None = None
    basis: dict | None = None            # open -> representative localization
    canonical: dict | None = None        # open -> Hom(base, section)
    stalk_iso: dict | None = None        # point -> Hom(stalk section, local target)
    single_plus: bool | None = None
    presheaf: Presheaf | None = None     # canonical presheaf before sheafification
    theta: dict | None = None            # open -> Hom into the sheafified sections

    @property
    def n_points(self) -> int:
        return len(self.point_labels)

    @property
    def opens(self):
        return self.sheaf.opens

    @property
    def total(self) -> frozenset:
        return frozenset(range(self.n_points))

    def min_open(self, p: int) -> frozenset:
        return self.sheaf.min_open(p)

    def stalk(self, p: int) -> FiniteAlgebra:
        return self.sheaf.sections[self.min_open(p)]

    def sections(self, U) -> FiniteAlgebra:
        return self.sheaf.sections[U]

    def specialization_order(self):
        """Pairs (p, q) with p in the closure of {q}, i.e. q in U_p."""
        return [(p, q) for p in range(self.n_points)
                for q in sorted(self.min_open(p)) if q != p]


@dataclass
class APMap:
    source: SpectralSpace
    target: SpectralSpace
    point_map: tuple[int, ...]
    section_maps: dict  # target open U -> Hom(O_T(U), O_S(preimage U))

    def preimage(self, U) -> frozenset:
        return frozenset(i for i, q in enumerate(self.point_map) if q in U)

    def stalk_map(self, i: int) -> Hom:
        Ustar = self.target.min_open(self.point_map[i])
        pre = self.preimage(Ustar)
        return compose(self.section_maps[Ustar],
                       self.source.sheaf.res(pre, self.source.min_open(i)))

    @property
    def is_iso(self) -> bool:
        if sorted(set(self.point_map)) != list(range(self.target.n_points)):
            return False
        if len(set(self.point_map)) != self.source.n_points:
            return False
        pre = {self.preimage(U) for U in self.target.opens}
        if pre != set(self.source.opens):
            return False
        return all(h.is_bijective for h in self.section_maps.values())


def identity_apmap(X: SpectralSpace) -> APMap:
    return APMap(X, X, tuple(range(X.n_points)),
                 {U: identity(X.sections(U)) for U in X.opens})


def compose_apmaps(f: APMap, g: APMap) -> APMap:
    """g after f: an APMap from f.source to g.target."""
    if f.target is not g.source and f.target != g.source:
        raise InvariantViolation("maps of spaces not composable")
    point_map = tuple(g.point_map[f.point_map[i]]
                      for i in range(f.source.n_points))
    section_maps = {}
    for U in g.target.opens:
        V = g.preimage(U)
        section_maps[U] = compose(g.section_maps[U], f.section_maps[V])
    return APMap(f.source, g.target, point_map, section_maps)


def invert_apmap(m: APMap) -> APMap:
    if not m.is_iso:
        raise InvariantViolation("only an isomorphism of spaces has an inverse")
    inv_points = [0] * m.target.n_points
    for i, q in enumerate(m.point_map):
        inv_points[q] = i
    section_maps = {}
    for U in m.target.opens:
        section_maps[m.preimage(U)] = m.section_maps[U].inverse()
    return APMap(m.target, m.source, tuple(inv_points), section_maps)


# ---------------------------------------------------------------------------
# building Spec


_SPEC_CACHE: dict = {}


def distinguished_open(ctx, R, k: LocalizationPath, forms=None) -> frozenset:
    """Pts k: the local forms factoring through k."""
    if forms is None:
        forms = local_forms(ctx, R)
    return frozenset(i for i, p in enumerate(forms)
                     if tables.induced(k.composite, p.composite) is not None)


def _class_map(c_from: Hom, c_to: Hom) -> Hom:
    """The induced map, which the theorem at hand says must exist."""
    h = tables.induced(c_from, c_to)
    if h is None:
        raise InvariantViolation("restriction between sections undefined")
    return h


def build_spec(ctx, R: FiniteAlgebra, locs=None) -> SpectralSpace:
    """Spec R; `locs` is `enumerate_localizations(ctx, R)` if already known."""
    key = (ctx.name, R)
    if key in _SPEC_CACHE:
        return _SPEC_CACHE[key]
    forms = tuple(local_forms(ctx, R))
    if locs is None:
        locs = cx.enumerate_localizations(ctx, R)
    n = len(forms)

    # distinguished opens and the canonical presheaf on them
    by_open: dict = {}
    for sig, path in locs.items():
        U = distinguished_open(ctx, R, path, forms)
        by_open.setdefault(U, []).append(path)
    basis = {}
    for U, paths in by_open.items():
        basis[U] = min(paths, key=lambda p: (len(p.steps), p.sig))

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
    check_topology(opens, n)

    sections = {}
    canonical = {}
    for U, paths in by_open.items():
        sig = tables.join_sigs(R.size, [p.sig for p in paths])
        RU, proj = tables.quotient_by_sig(R, sig)
        red, unit, _ = reduce_admissible(ctx, RU)
        sections[U] = red
        canonical[U] = compose(proj, unit)
    # right Kan extension on the non-distinguished opens
    basis_opens = set(by_open)
    sub_basis = {U: [W for W in opens if W in basis_opens and W <= U] for U in opens}
    kan_cones, kan_lookups = {}, {}
    for U in opens:
        if U in basis_opens:
            continue
        subs = sub_basis[U]
        objects = [sections[W] for W in subs]
        arrows = []
        for a, Wa in enumerate(subs):
            for b, Wb in enumerate(subs):
                if Wb < Wa:
                    arrows.append((a, b, _class_map(canonical[Wa], canonical[Wb])))
        L, cone = tables.limit(R.kind, objects, arrows)
        sections[U] = L
        kan_cones[U] = dict(zip(subs, cone))
        kan_lookups[U] = tables.cone_lookup(L, cone)
        canonical[U] = tables.lift(R, L, kan_lookups[U],
                                   [canonical[W] for W in subs])
    # restriction maps
    restrictions = {}
    for U in opens:
        for V in opens:
            if V == U or not V < U:
                continue
            if U in basis_opens and V in basis_opens:
                res = _class_map(canonical[U], canonical[V])
            elif U not in basis_opens and V in basis_opens:
                res = kan_cones[U][V]
            elif U in basis_opens:
                res = tables.lift(sections[U], sections[V], kan_lookups[V], [
                    _class_map(canonical[U], canonical[W]) for W in sub_basis[V]])
            else:
                res = tables.lift(sections[U], sections[V], kan_lookups[V],
                                  [kan_cones[U][W] for W in sub_basis[V]])
            restrictions[(U, V)] = res
    F = Presheaf(R.kind, n, opens, sections, restrictions)
    sheaf, theta, single = sheafify(F)
    canonical = {U: compose(canonical[U], theta[U]) for U in opens}

    stalk_iso = {}
    for i, form in enumerate(forms):
        Up = F.min_open(i)
        found = None
        for iso in tables.iter_isomorphisms(sheaf.sections[Up], form.target):
            if compose(canonical[Up], iso) == form.composite:
                found = iso
                break
        if found is None:
            raise InvariantViolation("stalk does not match the local form")
        stalk_iso[i] = found

    space = SpectralSpace(
        ctx_name=ctx.name,
        kind=R.kind,
        point_labels=tuple(f"p{i}" for i in range(n)),
        sheaf=sheaf,
        base=R,
        forms=forms,
        basis=basis,
        canonical=canonical,
        stalk_iso=stalk_iso,
        single_plus=single,
        presheaf=F,
        theta=theta,
    )
    _SPEC_CACHE[key] = space
    return space


def reduce_admissible(ctx, R):
    """Factor ell: R -> product of local forms through a localization.

    Returns (red R, unit: R -> red R, admissible residual).  The factoring
    is computed for the quotient map q: R -> R/ker ell, the image of ell up
    to isomorphism, so the product is never built.  That gives the same
    factoring: each step of `factorize` only asks whether a kernel refines
    that of the map, and q has the kernel of ell; the residuals then differ
    by the inclusion R/ker ell -> product, and both admissibility notions
    survive it.  Injectivity (domain) depends on the kernel alone.  For
    reflecting units (zariski, deitmar): in a finite monoid the units of a
    submonoid are its elements that are units of the ambient monoid, since
    an inverse is a power.  So the residual lands in R/ker ell.
    """
    forms = local_forms(ctx, R)
    sig = tables.normalize_sig(tuple(p.composite.map[r] for p in forms)
                               for r in range(R.size))
    _, to_image = tables.quotient_by_sig(R, sig)
    path, g = factorize(ctx, to_image)
    return path.target, path.composite, g


def ell(ctx, R) -> Hom:
    """The canonical map R -> product of all local-form targets."""
    forms = local_forms(ctx, R)
    P, projs = tables.product(R.kind, [p.target for p in forms])
    return tables.lift(R, P, tables.cone_lookup(P, projs),
                       [p.composite for p in forms])


# ---------------------------------------------------------------------------
# the contravariant action and open embeddings


def _sections_from_stalks(S: SpectralSpace, X: SpectralSpace, pm, stalks,
                          lookups: dict) -> dict:
    """Section maps of the map S -> X with point map pm and stalk maps
    stalks[i]: O_X(U_pm(i)) -> O_S(U_i).

    O_S(pre W) is the limit of the stalks of S at the points of pre W, so the
    map at W is the unique lift of the legs O_X(W) -> O_X(U_pm(i)) -> stalk
    of S at i.  `lookups` caches one cone lookup per open of S.
    """
    x_min = {q: X.min_open(q) for q in set(pm)}
    section_maps = {}
    for W in X.opens:
        P = frozenset(i for i, q in enumerate(pm) if q in W)
        pts = sorted(P)
        if P not in lookups:
            lookups[P] = tables.cone_lookup(
                S.sections(P), [S.sheaf.res(P, S.min_open(i)) for i in pts])
        section_maps[W] = tables.lift(X.sections(W), S.sections(P), lookups[P], [
            compose(X.sheaf.res(W, x_min[pm[i]]), stalks[i]) for i in pts])
    return section_maps


def spec_map(ctx, f: Hom) -> APMap:
    """The induced map Spec S -> Spec R for f: R -> S."""
    Y = build_spec(ctx, f.source)
    X = build_spec(ctx, f.target)
    point_map = []
    stalk_section_maps = []
    for j, q in enumerate(X.forms):
        path, g = factorize(ctx, compose(f, q.composite))
        hit = [i for i, p in enumerate(Y.forms) if p.sig == path.sig]
        if len(hit) != 1:
            raise InvariantViolation("localization part is not a local form")
        i = hit[0]
        ident = _class_map(path.composite, Y.forms[i].composite)
        if not ident.is_bijective:
            raise InvariantViolation("local form identification not an iso")
        point_map.append(i)
        # stalk section map O_Y-stalk(i) -> O_X-stalk(j)
        stalk_section_maps.append(compose(
            compose(Y.stalk_iso[i], compose(ident.inverse(), g)),
            X.stalk_iso[j].inverse(),
        ))
    point_map = tuple(point_map)
    return APMap(X, Y, point_map,
                 _sections_from_stalks(X, Y, point_map, stalk_section_maps, {}))


def restrict(X: SpectralSpace, U: frozenset) -> SpectralSpace:
    """The open subspace on U, points reindexed in increasing order."""
    pts = sorted(U)
    reindex = {p: i for i, p in enumerate(pts)}

    def remap(V):
        return frozenset(reindex[p] for p in V)

    opens = sort_opens(remap(V) for V in X.opens if V <= U)
    sections = {remap(V): X.sections(V) for V in X.opens if V <= U}
    restrictions = {}
    for (A, B), h in X.sheaf.restrictions.items():
        if A <= U and B <= U:
            restrictions[(remap(A), remap(B))] = h
    sheaf = Presheaf(X.kind, len(pts), opens, sections, restrictions)
    return SpectralSpace(
        ctx_name=X.ctx_name,
        kind=X.kind,
        point_labels=tuple(X.point_labels[p] for p in pts),
        sheaf=sheaf,
    )


def corestrict_to_open(m: APMap, U: frozenset, XU: SpectralSpace | None = None) -> APMap:
    """View an APMap whose point image lies in U as a map into restrict(.., U)."""
    if not set(m.point_map) <= set(U):
        raise InvariantViolation("point image does not lie in the open")
    target = XU if XU is not None else restrict(m.target, U)
    pts = sorted(U)
    reindex = {p: i for i, p in enumerate(pts)}

    def remap(V):
        return frozenset(reindex[p] for p in V)

    point_map = tuple(reindex[q] for q in m.point_map)
    section_maps = {remap(V): m.section_maps[V]
                    for V in m.target.opens if V <= U}
    return APMap(m.source, target, point_map, section_maps)


def open_embedding_data(ctx, R: FiniteAlgebra, k: LocalizationPath):
    """(Pts k, iso: restrict(Spec R, Pts k) -> Spec K) for a localization k."""
    Y = build_spec(ctx, R)
    U = distinguished_open(ctx, R, k, Y.forms)
    m = spec_map(ctx, k.composite)
    if len(set(m.point_map)) != m.source.n_points or set(m.point_map) != set(U):
        raise InvariantViolation("Spec K does not sit over Pts k")
    core = corestrict_to_open(m, U)
    if not core.is_iso:
        raise InvariantViolation("localization is not an open embedding")
    return U, invert_apmap(core)


def open_embedding_check(ctx, R: FiniteAlgebra, k: LocalizationPath) -> bool:
    try:
        open_embedding_data(ctx, R, k)
        return True
    except InvariantViolation:
        return False


def global_sections(X: SpectralSpace):
    """Sections at the total open; for Spec spaces also the counit."""
    gamma = X.sections(X.total)
    counit = X.canonical[X.total] if X.canonical is not None else None
    return gamma, counit


def is_spec_iso(ctx, f: Hom) -> bool:
    """Direct oracle: does f induce an isomorphism of spectra?"""
    return spec_map(ctx, f).is_iso


# ---------------------------------------------------------------------------
# exhaustive APMap enumeration (maps of AP-spaces)


def enumerate_apmaps(ctx, S: SpectralSpace, X: SpectralSpace) -> list[APMap]:
    """All maps S -> X, searched on the minimal opens of X only.

    Each continuous point map pm is paired with a hom O_X(U_q) ->
    O_S(pre U_q) at every minimal open U_q of X, visited in ascending order:
    it must commute with the smaller minimal opens already chosen, and its
    stalk map at each i over q must be admissible.  That fixes the map: its
    stalk maps determine it, and `_sections_from_stalks` builds it, as in
    `spec_map`.  At a minimal open the lift is the chosen hom; at any other
    open W the family of legs lies in the limit O_S(pre W) because the
    chosen homs commute, and the lift commutes with every restriction
    because stalks separate sections.  So the maps come out as a search over
    every open finds them, in the same order.
    """
    if S.kind != X.kind:
        return []
    out = []
    s_opens = set(S.opens)
    x_min = [X.min_open(q) for q in range(X.n_points)]
    s_min = [S.min_open(i) for i in range(S.n_points)]
    minimal = [U for U in X.opens if U in x_min]  # ascending
    below = {U: [V for V in minimal if V < U] for U in minimal}
    lookups: dict = {}  # open of S -> cone_lookup along its stalks
    for pm in itertools.product(range(X.n_points), repeat=S.n_points):
        pre = {U: frozenset(i for i, q in enumerate(pm) if q in U)
               for U in X.opens}
        if any(pre[U] not in s_opens for U in X.opens):
            continue
        over = {U: [] for U in minimal}
        for i, q in enumerate(pm):
            over[x_min[q]].append(i)
        assigned: dict = {}
        stalks: list = [None] * S.n_points

        def candidates(U):
            for h in tables.all_homs(X.sections(U), S.sections(pre[U])):
                if any(compose(h, S.sheaf.res(pre[U], pre[V]))
                       != compose(X.sheaf.res(U, V), assigned[V])
                       for V in below[U]):
                    continue
                st = []
                for i in over[U]:
                    st.append(compose(h, S.sheaf.res(pre[U], s_min[i])))
                    if not ctx.is_admissible(st[-1]):
                        break
                else:
                    yield h, st

        def rec(idx):
            if idx == len(minimal):
                out.append(APMap(S, X, pm, _sections_from_stalks(
                    S, X, pm, stalks, lookups)))
                return
            U = minimal[idx]
            for h, st in candidates(U):
                assigned[U] = h
                for i, s in zip(over[U], st):
                    stalks[i] = s
                rec(idx + 1)

        rec(0)
    return out


def iter_space_isos(X: SpectralSpace, Y: SpectralSpace):
    """Isomorphisms X -> Y (as APMaps X -> Y), exhaustively."""
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
                yield APMap(X, Y, pm, dict(assigned))
                return
            U = y_opens_asc[idx]
            for h in tables.iter_isomorphisms(Y.sections(U), X.sections(pre[U])):
                ok = True
                for V in y_opens_asc[:idx]:
                    if V < U:
                        left = compose(h, X.sheaf.res(pre[U], pre[V]))
                        right = compose(Y.sheaf.res(U, V), assigned[V])
                        if left != right:
                            ok = False
                            break
                if ok:
                    assigned[U] = h
                    yield from rec(idx + 1)
                    del assigned[U]

        yield from rec(0)


def spaces_isomorphic(X: SpectralSpace, Y: SpectralSpace) -> APMap | None:
    for m in iter_space_isos(X, Y):
        return m
    return None
