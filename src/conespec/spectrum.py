"""Spec as a finite space with a structure sheaf, and maps between such spaces.

The points of Spec R are the isomorphism classes of local forms R -> T_p.
The minimal open U_p of a point p holds the forms q that p's form factors
through (its distinguished open), and the opens are the unions of the U_p.
On a finite T0 space a sheaf is fixed by its stalks and the specialization
maps between them (Barmak, LNM 2032, 2011; Curry, 2014), so the structure
sheaf is `sheaf_from_stalks` of the targets T_p along the induced maps
T_p -> T_q: O(U) is the limit of the T_p over the points p of U, and a
section lists its stalk coordinates.
"""

from __future__ import annotations

import itertools

from . import contexts as cx
from . import tables
from .contexts import LocalizationPath, factorize, local_forms
from .errors import InvariantViolation
from .tables import FiniteAlgebra, Hom, compose, identity


# ---------------------------------------------------------------------------
# sheaves on a finite T0 space


class Presheaf:
    """A sheaf on a finite T0 space, by its sections and their stalk cones.

    `cones[U]` maps each point p of U, in ascending order, to the projection
    of O(U) onto the stalk at p.  The cone separates sections, so the
    restriction O(U) -> O(V) is the lift of U's legs at the points of V; it
    is built on its first read and kept.
    """

    def __init__(self, kind: str, n_points: int, opens: tuple[frozenset, ...],
                 sections: dict, cones: dict):
        self.kind = kind
        self.n_points = n_points
        self.opens = opens
        self.sections = sections    # open -> O(U)
        self.cones = cones          # open -> {p: Hom(O(U), stalk at p)}
        self._lookups = {}
        self._res = {}

    def lookup(self, U) -> dict:
        """`tables.cone_lookup` of O(U) along its stalk cone."""
        if U not in self._lookups:
            self._lookups[U] = tables.cone_lookup(self.sections[U],
                                                  list(self.cones[U].values()))
        return self._lookups[U]

    def res(self, U, V) -> Hom:
        if (U, V) not in self._res:
            self._res[(U, V)] = tables.lift(
                self.sections[U], self.sections[V], self.lookup(V),
                [self.cones[U][p] for p in self.cones[V]])
        return self._res[(U, V)]

    def min_open(self, p: int) -> frozenset:
        best = None
        for U in self.opens:
            if p in U and (best is None or U < best):
                best = U
        return best


def sort_opens(opens) -> tuple[frozenset, ...]:
    return tuple(sorted(opens, key=lambda U: (len(U), sorted(U))))


def sheaf_from_stalks(kind: str, stalks, maps: dict) -> Presheaf:
    """The sheaf with stalks `stalks[p]` and specialization maps `maps`.

    `maps[(p, q)]` is the map stalks[p] -> stalks[q] for each q != p of the
    minimal open U_p, which is p with those q; the maps must commute.  The
    opens are the unions of the U_p, and O(U) is the limit of the stalks at
    the points of U along the maps between them, with its cone of stalk
    projections.
    """
    mins = [frozenset([p]) | {q for (a, q) in maps if a == p}
            for p in range(len(stalks))]
    opens = {frozenset()}
    for U in mins:
        opens |= {V | U for V in opens}
    opens = sort_opens(opens)
    sections, cones = {}, {}
    for U in opens:
        pts = sorted(U)
        pos = {p: a for a, p in enumerate(pts)}
        arrows = [(pos[p], pos[q], h) for (p, q), h in maps.items() if p in U]
        sections[U], cone = tables.limit(kind, [stalks[p] for p in pts], arrows)
        cones[U] = dict(zip(pts, cone))
    return Presheaf(kind, len(stalks), opens, sections, cones)


# ---------------------------------------------------------------------------
# spectral spaces


class SpectralSpace:
    def __init__(self, ctx_name: str, kind: str, point_labels: tuple[str, ...],
                 sheaf: Presheaf,
                 # Spec-only data (None on glued spaces)
                 base: FiniteAlgebra | None = None,
                 forms: tuple[LocalizationPath, ...] | None = None,
                 canonical: dict | None = None,
                 stalk_iso: dict | None = None):
        self.ctx_name = ctx_name
        self.kind = kind
        self.point_labels = point_labels
        self.sheaf = sheaf
        self.base = base
        self.forms = forms
        self.canonical = canonical      # open -> Hom(base, section)
        self.stalk_iso = stalk_iso      # point -> Hom(stalk section, local target)

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


class APMap:
    def __init__(self, source: SpectralSpace, target: SpectralSpace,
                 point_map: tuple[int, ...], section_maps: dict):
        self.source = source
        self.target = target
        self.point_map = point_map
        # target open U -> Hom(O_T(U), O_S(preimage U))
        self.section_maps = section_maps

    def __eq__(self, other):
        """Field by field, so that lists of maps compare; the spaces
        themselves compare by identity."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.point_map, self.section_maps)
                == (other.source, other.target, other.point_map,
                    other.section_maps))

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
    if f.target is not g.source:
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


def distinguished_opens(ctx, R) -> set[frozenset]:
    """The distinguished opens Pts k of Spec R, over every localization k."""
    forms = local_forms(ctx, R)
    return {distinguished_open(ctx, R, k, forms)
            for k in cx.enumerate_localizations(ctx, R).values()}


def build_spec(ctx, R: FiniteAlgebra) -> SpectralSpace:
    """Spec R from its stalks: the local-form targets, along the maps that
    one form induces on another.

    The canonical map R -> O(U) lifts the form composites at the points of
    U, and the stalk iso at p is the projection of O(U_p) onto T_p.
    """
    key = (ctx.name, R)
    if key in _SPEC_CACHE:
        return _SPEC_CACHE[key]
    forms = tuple(local_forms(ctx, R))
    maps = {}
    for p, q in itertools.permutations(range(len(forms)), 2):
        h = tables.induced(forms[p].composite, forms[q].composite)
        if h is not None:
            maps[(p, q)] = h
    sheaf = sheaf_from_stalks(R.kind, [f.target for f in forms], maps)
    canonical = {U: tables.lift(R, sheaf.sections[U], sheaf.lookup(U),
                                [forms[p].composite for p in sheaf.cones[U]])
                 for U in sheaf.opens}
    space = SpectralSpace(
        ctx_name=ctx.name,
        kind=R.kind,
        point_labels=tuple(f"p{i}" for i in range(len(forms))),
        sheaf=sheaf,
        base=R,
        forms=forms,
        canonical=canonical,
        stalk_iso={p: sheaf.cones[sheaf.min_open(p)][p]
                   for p in range(len(forms))},
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


def _sections_from_stalks(S: SpectralSpace, X: SpectralSpace, pm,
                          stalks) -> dict:
    """Section maps of the map S -> X with point map pm and stalk maps
    stalks[i]: O_X(U_pm(i)) -> O_S(U_i).

    O_S(pre W) is the limit of the stalks of S at the points of pre W, so the
    map at W is the unique lift of the legs O_X(W) -> O_X(U_pm(i)) -> O_S(U_i)
    -> stalk of S at i.
    """
    x_min = {q: X.min_open(q) for q in set(pm)}
    legs = [compose(stalks[i], S.sheaf.cones[S.min_open(i)][i])
            for i in range(S.n_points)]
    section_maps = {}
    for W in X.opens:
        P = frozenset(i for i, q in enumerate(pm) if q in W)
        section_maps[W] = tables.lift(
            X.sections(W), S.sections(P), S.sheaf.lookup(P),
            [compose(X.sheaf.res(W, x_min[pm[i]]), legs[i]) for i in sorted(P)])
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
        ident = tables.induced(path.composite, Y.forms[i].composite)
        if ident is None or not ident.is_bijective:
            raise InvariantViolation("local form identification not an iso")
        point_map.append(i)
        # stalk section map O_Y-stalk(i) -> O_X-stalk(j)
        stalk_section_maps.append(compose(
            compose(Y.stalk_iso[i], compose(ident.inverse(), g)),
            X.stalk_iso[j].inverse(),
        ))
    point_map = tuple(point_map)
    return APMap(X, Y, point_map,
                 _sections_from_stalks(X, Y, point_map, stalk_section_maps))


def restrict(X: SpectralSpace, U: frozenset) -> SpectralSpace:
    """The open subspace on U, points reindexed in increasing order."""
    pts = sorted(U)
    reindex = {p: i for i, p in enumerate(pts)}

    def remap(V):
        return frozenset(reindex[p] for p in V)

    inside = [V for V in X.opens if V <= U]
    sheaf = Presheaf(X.kind, len(pts), sort_opens(map(remap, inside)),
                     {remap(V): X.sections(V) for V in inside},
                     {remap(V): {reindex[p]: h
                                 for p, h in X.sheaf.cones[V].items()}
                      for V in inside})
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
                out.append(APMap(S, X, pm,
                                 _sections_from_stalks(S, X, pm, stalks)))
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
