"""Spec as a finite space with a structure sheaf, and maps between such spaces.

The points of Spec R are the isomorphism classes of local forms R -> T_p.
The minimal open U_p of a point p holds the forms q that p's form factors
through (its distinguished open).  The U_p fix the space: the opens, their
unions, are listed only on request, a point map is continuous when it maps
each U_p into U_pm(p), and a bijection is a homeomorphism when it maps each
onto U_pm(p).  On a finite T0 space a sheaf is fixed by its stalks and the
specialization maps between them (Barmak, LNM 2032, 2011; Curry, 2014), so
the structure sheaf is `sheaf_from_stalks` of the targets T_p along the
induced maps T_p -> T_q: O(U) is the limit of the T_p over the points p of
U, and a section lists its stalk coordinates.
"""

from __future__ import annotations

import functools
import itertools

from . import homs, tables
from .errors import InvariantViolation, SizeBound
from .tables import FiniteAlgebra, Hom, compose


# ---------------------------------------------------------------------------
# finite T0 spaces with a sheaf, and maps between them


class OnRead(dict):
    """The mapping whose value at k is `build(k)`, built on its first read
    and kept."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, k):
        self[k] = self._build(k)
        return self[k]


class SpectralSpace:
    """A finite T0 space with a sheaf, by the minimal opens `mins[p]` = U_p,
    the sections and their stalk cones.

    `cones[U]` maps each point p of U, in ascending order, to the projection
    of O(U) onto the stalk at p.  The cone separates sections, so the
    restriction O(U) -> O(V) is the lift of U's legs at the points of V.
    Sections, cones, their lookups and the restrictions are each built on
    their first read and kept.  A Spec also holds its base algebra, its
    local forms, the canonical maps and the stalk isos (None on glued
    spaces).
    """

    def __init__(self, ctx_name: str, kind: str, point_labels: tuple[str, ...],
                 mins: tuple[frozenset, ...], sections: OnRead, cones: OnRead):
        self.ctx_name = ctx_name
        self.kind = kind
        self.point_labels = point_labels
        self.mins = mins            # point -> U_p
        self.sections = sections    # open -> O(U)
        self.cones = cones          # open -> {p: Hom(O(U), stalk at p)}
        self._lookups = OnRead(lambda U: tables.cone_lookup(
            sections[U], list(cones[U].values())))
        self._res = OnRead(lambda UV: tables.lift(
            sections[UV[0]], sections[UV[1]], self._lookups[UV[1]],
            [cones[UV[0]][p] for p in cones[UV[1]]]))
        self.base: FiniteAlgebra | None = None
        self.forms: tuple[Hom, ...] | None = None
        self.canonical: OnRead | None = None  # open -> Hom(base, section)
        self.stalk_iso: OnRead | None = None  # point -> Hom(stalk, local target)

    @property
    def n_points(self) -> int:
        return len(self.mins)

    @property
    def total(self) -> frozenset:
        return frozenset(range(self.n_points))

    def stalk(self, p: int) -> FiniteAlgebra:
        return self.sections[self.mins[p]]

    def lookup(self, U) -> dict:
        """`tables.cone_lookup` of O(U) along its stalk cone."""
        return self._lookups[U]

    def res(self, U, V) -> Hom:
        return self._res[(U, V)]

    @functools.cached_property
    def opens(self) -> tuple[frozenset, ...]:
        """Every union of minimal opens, in `sort_opens` order.  They can be
        exponentially many in the points, so they are collected as bitmasks
        one at a time first, and refused as soon as they pass SEARCH_MAX
        (SizeBound).  The unions of the minimal opens of an antichain's
        subsets are distinct, so a space of width w has at least 2^w opens,
        and when 2^w passes SEARCH_MAX they are refused before any is listed.
        The width is computed only for spaces of 2^n_points > SEARCH_MAX."""
        if 1 << self.n_points > tables.SEARCH_MAX and \
                1 << self.width() > tables.SEARCH_MAX:
            raise SizeBound("too many opens to list", tables.SEARCH_MAX)
        masks = {0}
        for U in self.mins:
            bits = sum(1 << p for p in U)
            for m in list(masks):
                masks.add(m | bits)
                if len(masks) > tables.SEARCH_MAX:
                    raise SizeBound("too many opens to list", tables.SEARCH_MAX)
        return sort_opens(frozenset(p for p in range(self.n_points) if m >> p & 1)
                          for m in masks)

    def width(self) -> int:
        """The most points of an antichain of the specialization order.

        By Dilworth's theorem that is the fewest chains covering the points,
        which is the number of points less a maximum matching of each p to
        a point of U_p other than p (Fulkerson 1956).  The matching grows by
        one shortest augmenting path per point, found breadth first.
        """
        above: list[int | None] = [None] * self.n_points  # q -> its match p
        below: list[int | None] = [None] * self.n_points  # p -> its match q
        for root in range(self.n_points):
            via, frontier, end = {}, [root], None  # via: q -> the p reaching it
            while frontier and end is None:
                step = []
                for p in frontier:
                    for q in self.mins[p]:
                        if q != p and q not in via:
                            via[q] = p
                            if above[q] is None:
                                end = q
                                break
                            step.append(above[q])
                    if end is not None:
                        break
                frontier = step
            while end is not None:          # flip the path back to root
                p = via[end]
                above[end], below[p], end = p, end, below[p]
        return self.n_points - sum(q is not None for q in below)

    def specialization_order(self):
        """Pairs (p, q) with p in the closure of {q}, i.e. q in U_p."""
        return [(p, q) for p in range(self.n_points)
                for q in sorted(self.mins[p]) if q != p]


def sort_opens(opens) -> tuple[frozenset, ...]:
    return tuple(sorted(opens, key=lambda U: (len(U), sorted(U))))


def sheaf_from_stalks(ctx_name: str, kind: str, point_labels: tuple[str, ...],
                      stalks, maps: dict) -> SpectralSpace:
    """The space with the sheaf whose stalks are `stalks[p]` and whose
    specialization maps are `maps`.

    `maps[(p, q)]` is the map stalks[p] -> stalks[q] for each q != p of the
    minimal open U_p, which is p with those q; the maps must commute.  O(U)
    is the limit of the stalks at the points of U along the maps between
    them, with its cone of stalk projections; each is built on its first
    read.
    """
    mins = tuple(frozenset([p]) | {q for (a, q) in maps if a == p}
                 for p in range(len(stalks)))

    @functools.cache
    def section(U):
        pts = sorted(U)
        pos = {p: a for a, p in enumerate(pts)}
        arrows = [(pos[p], pos[q], h) for (p, q), h in maps.items() if p in U]
        L, cone = tables.limit(kind, [stalks[p] for p in pts], arrows)
        return L, dict(zip(pts, cone))

    return SpectralSpace(ctx_name, kind, point_labels, mins,
                         OnRead(lambda U: section(U)[0]),
                         OnRead(lambda U: section(U)[1]))


class APMap:
    """A map of spaces S -> T by its point map and its stalk maps.

    `stalks[i]` is the map O_T(U_pm(i)) -> O_S(U_i).  Stalks fix a sheaf on
    a finite T0 space, so they fix the map.
    """

    def __init__(self, source: SpectralSpace, target: SpectralSpace,
                 point_map: tuple[int, ...], stalks: tuple[Hom, ...]):
        self.source = source
        self.target = target
        self.point_map = point_map
        self.stalks = stalks

    def __eq__(self, other):
        """Field by field, so that lists of maps compare; the spaces
        themselves compare by identity."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.point_map, self.stalks)
                == (other.source, other.target, other.point_map,
                    other.stalks))

    @property
    def key(self) -> tuple:
        """Hashable, and equal for two maps between the same spaces exactly
        when the maps are."""
        return self.point_map, tuple(h.map for h in self.stalks)


def compose_apmaps(f: APMap, g: APMap) -> APMap:
    """g after f: an APMap from f.source to g.target, stalk by stalk."""
    if f.target is not g.source:
        raise InvariantViolation("maps of spaces not composable")
    return APMap(f.source, g.target,
                 tuple(g.point_map[q] for q in f.point_map),
                 tuple(compose(g.stalks[q], h)
                       for q, h in zip(f.point_map, f.stalks)))


# ---------------------------------------------------------------------------
# building Spec


def build_spec(ctx, R: FiniteAlgebra) -> SpectralSpace:
    """Spec R from its stalks: the local-form targets, along the maps that
    one form induces on another.

    The canonical map R -> O(U) lifts the form composites at the points of
    U, and the stalk iso at p is the projection of O(U_p) onto T_p.  Like
    the sections, each is built on its first read, so a Spec that is only
    searched for maps builds the limits at its minimal opens alone.
    """
    forms = tuple(ctx.local_forms(R))
    maps = {}
    for p, q in itertools.permutations(range(len(forms)), 2):
        h = tables.induced(forms[p], forms[q])
        if h is not None:
            maps[(p, q)] = h
    X = sheaf_from_stalks(ctx.name, R.kind,
                          tuple(f"p{i}" for i in range(len(forms))),
                          [f.target for f in forms], maps)
    X.base, X.forms = R, forms
    X.canonical = OnRead(lambda U: tables.lift(
        R, X.sections[U], X.lookup(U),
        [forms[p] for p in X.cones[U]]))
    X.stalk_iso = OnRead(lambda p: X.cones[X.mins[p]][p])
    return X


class Specs(OnRead):
    """One command's workspace: Spec R per algebra R, built on its first
    read, and in `maps` the Spec map of each hom, built on its first call.

    Maps of spaces compose only along the very same space, so the Specs that
    a composite passes through, and the Spec maps between them, come from
    one workspace.
    """

    def __init__(self, ctx):
        super().__init__(lambda R: build_spec(ctx, R))
        self.ctx = ctx
        self.maps = {}


# ---------------------------------------------------------------------------
# the contravariant action


def spec_map(specs: Specs, f: Hom) -> APMap:
    """The induced map Spec S -> Spec R for f: R -> S, once per workspace."""
    if f in specs.maps:
        return specs.maps[f]
    ctx, Y, X = specs.ctx, specs[f.source], specs[f.target]
    point_map = []
    stalks = []
    by_kernel = {p.kernel_sig(): i for i, p in enumerate(Y.forms)}
    for j, q in enumerate(X.forms):
        fq = compose(f, q)
        # by theorem, the localization part of fq is a local form of R
        i = by_kernel.get(ctx.localization_sig(fq))
        g = None if i is None else tables.induced(Y.forms[i], fq)
        if g is None:
            raise InvariantViolation("a localization part is not a local form")
        point_map.append(i)
        # the stalk map O_Y-stalk(i) -> O_X-stalk(j)
        stalks.append(compose(compose(Y.stalk_iso[i], g),
                              X.stalk_iso[j].inverse()))
    specs.maps[f] = APMap(X, Y, tuple(point_map), tuple(stalks))
    return specs.maps[f]


# ---------------------------------------------------------------------------
# exhaustive APMap enumeration (maps of AP-spaces)


def enumerate_apmaps(ctx, S: SpectralSpace, X: SpectralSpace) -> list[APMap]:
    """All maps S -> X, by their stalk maps.

    A map is a continuous point map pm with one admissible stalk map
    O_X(U_pm(i)) -> O_S(U_i) per point i of S, where the stalk maps at i and
    at each j in U_i agree on O_X(U_pm(i)) -> O_S(U_j).  That fixes the map:
    O_S(pre W) is the limit of the stalks at the points of pre W along these
    restrictions, so the legs through the stalk maps lift to a section map
    at each open W, and the lifts commute with restriction because stalks
    separate sections.  The maps come out by point map, in the order of
    `itertools.product`, then by stalk maps point by point, in the order of
    `homs.all_homs`.
    """
    return list(_maps_by_stalks(S, X, False, lambda A, B: [
        h for h in homs.all_homs(A, B) if ctx.is_admissible(h)]))


def _maps_by_stalks(S, X, injective, stalk_homs):
    """The maps S -> X, as `enumerate_apmaps` describes, with stalk maps
    from `stalk_homs(O_X(U_pm(i)), O_S(U_i))`, over injective point maps
    only if `injective` (then in the order of `itertools.permutations`).

    The maps over one point map are one `tables.agreeing_families` join of
    the stalk maps at each point i, with a meet per specialization pair
    (i, j): the maps O_X(U_pm(i)) -> O_S(U_j) that each side gives.  Each
    stalk list and each meet's key lists are built once per call.
    """
    if S.kind != X.kind:
        return
    pairs = S.specialization_order()

    @functools.cache
    def stalks(q, i):
        return stalk_homs(X.sections[X.mins[q]], S.sections[S.mins[i]])

    @functools.cache
    def meet(i, q, j, r):
        return (i, j,
                [compose(h, S.res(S.mins[i], S.mins[j])).map
                 for h in stalks(q, i)],
                [compose(X.res(X.mins[q], X.mins[r]), h).map
                 for h in stalks(r, j)])

    pm = []

    def point_maps():
        # point by point: k goes to q when the minimal opens of k and of the
        # placed points land in their images' and k has a stalk map over q
        k = len(pm)
        if k == S.n_points:
            yield tuple(pm)
            return
        for q in range(X.n_points):
            fits = all(pm[j] in X.mins[q] for j in S.mins[k] if j < k) and all(
                q in X.mins[pm[i]] for i in range(k) if k in S.mins[i])
            if fits and not (injective and q in pm) and stalks(q, k):
                pm.append(q)
                yield from point_maps()
                pm.pop()

    for p in point_maps():
        for f in tables.agreeing_families(
                [len(stalks(q, i)) for i, q in enumerate(p)],
                [meet(i, p[i], j, p[j]) for i, j in pairs]):
            yield APMap(S, X, p, tuple(stalks(q, i)[f[i]]
                                       for i, q in enumerate(p)))


def iter_space_isos(X: SpectralSpace, Y: SpectralSpace):
    """Isomorphisms X -> Y (as APMaps X -> Y), by their stalk maps.

    With as many specialization pairs on each side, a continuous bijection
    of points is a homeomorphism, and isomorphisms at the stalks lift to
    isomorphisms on every open; an isomorphism is admissible in every context.
    """
    if X.n_points != Y.n_points or (len(X.specialization_order())
                                    != len(Y.specialization_order())):
        return
    yield from _maps_by_stalks(
        X, Y, True, lambda A, B: list(homs.iter_isomorphisms(A, B)))


def spaces_isomorphic(X: SpectralSpace, Y: SpectralSpace) -> APMap | None:
    return next(iter_space_isos(X, Y), None)
