"""Gluing spectra along open subspaces, and the functor-of-points layer.

A glued space is the colimit of its charts.  An overlap is a bijection of
chart points with a stalk iso at each (on a finite T0 space a map of sheaves
is fixed by its stalk maps: Hartshorne, Ex. II.2.12).  The points are the
chart points identified along the overlaps.  The minimal open of a point
holds the minimal open of each of its chart points, and the stalk there is
the chart-section families that agree on every overlap.  The space is
`spectrum.sheaf_from_stalks` of these stalks along the restrictions between
them, so its opens are the sets whose trace in every chart is open.
"""

from __future__ import annotations

import itertools
import math

from . import hypercover as hc
from . import spectrum as sp
from . import tables
from .errors import CocycleViolation, InvariantViolation, SizeBound
from .spectrum import APMap, SpectralSpace, Specs, compose_apmaps, spec_map
from .tables import FiniteAlgebra, Hom, compose


class Overlap:
    """Charts i and j glued along Pts k_i and Pts k_j: the point a of chart i
    goes to the point b = point_map[a] of chart j, with the stalk iso
    stalks[a]: O_j(U_b) -> O_i(U_a)."""

    def __init__(self, i: int, j: int, point_map: dict, stalks: dict):
        self.i = i
        self.j = j
        self.point_map = point_map
        self.stalks = stalks


class GluingSpec:
    def __init__(self, charts: tuple[FiniteAlgebra, ...],
                 overlaps: tuple[Overlap, ...]):
        self.charts = charts
        self.overlaps = overlaps


def make_overlap(specs: Specs, i: int, j: int, k_i: Hom, k_j: Hom,
                 g: Hom | None = None) -> Overlap:
    """Glue chart i along k_i to chart j along k_j through Spec of the
    overlap algebra: along Spec g for an isomorphism g: target(k_j) ->
    target(k_i) when one is given, else along any isomorphism `mid` of the
    two spectra, which must exist.  The Spec map m of a localization is an
    open embedding, and a point x of Spec K_i glues m_i(x) to m_j(mid(x)),
    with the stalk iso of m_j, then mid, then the inverse of m_i's.
    """
    m_i = spec_map(specs, k_i)
    m_j = spec_map(specs, k_j)
    if g is not None:
        mid = spec_map(specs, g)
    else:
        mid = sp.spaces_isomorphic(specs[k_i.target], specs[k_j.target])
        if mid is None:
            raise CocycleViolation("overlap spectra are not isomorphic")
    point_map, stalks = {}, {}
    for x, (a, y) in enumerate(zip(m_i.point_map, mid.point_map)):
        point_map[a] = m_j.point_map[y]
        stalks[a] = compose(compose(m_j.stalks[y], mid.stalks[x]),
                            m_i.stalks[x].inverse())
    return Overlap(i, j, point_map, stalks)


def glue(specs: Specs, g: GluingSpec) -> SpectralSpace:
    """The colimit of the charts along the overlaps.

    Its sections are families of chart sections, so their size grows with
    the product of the charts.  As `tables.product` refuses a large
    carrier, a gluing whose chart product would have tables of more than
    SEARCH_MAX entries is refused before any work (SizeBound).
    """
    if math.prod(R.size for R in g.charts) ** 2 > tables.SEARCH_MAX:
        raise SizeBound("gluing chart product too large", tables.SEARCH_MAX)
    spaces = [specs[R] for R in g.charts]

    # identify points; all_points is sorted, so each class is named by its
    # least chart point, the root the union-find keeps
    all_points = [(i, p) for i, X in enumerate(spaces)
                  for p in range(X.n_points)]
    number = {x: n for n, x in enumerate(all_points)}
    uf = tables._UF(len(all_points))
    for ov in g.overlaps:
        for a, b in ov.point_map.items():
            uf.union(number[(ov.i, a)], number[(ov.j, b)])
    roots = [uf.find(n) for n in range(len(all_points))]
    classes = sorted(set(roots))
    index = {c: n for n, c in enumerate(classes)}
    glob = {x: index[r] for x, r in zip(all_points, roots)}

    # each chart must embed: no two of its points may collapse
    for i, X in enumerate(spaces):
        if len({glob[(i, p)] for p in range(X.n_points)}) != X.n_points:
            raise CocycleViolation("overlap identifications collapse a chart")

    n = len(classes)
    nc = len(spaces)
    chart_points = [[] for _ in range(n)]
    for (i, p), c in glob.items():
        chart_points[c].append((i, p))

    # the minimal open of c: the least set holding, with each of its points,
    # that point's minimal open in every chart that contains it
    mins = []
    for c in range(n):
        U, todo = set(), [c]
        while todo:
            d = todo.pop()
            if d not in U:
                U.add(d)
                todo.extend(glob[(i, q)] for i, p in chart_points[d]
                            for q in spaces[i].mins[p])
        mins.append(U)

    traces = [[frozenset(p for p in range(spaces[i].n_points)
                         if glob[(i, p)] in U) for i in range(nc)]
              for U in mins]
    stalks, cones, lookups = [], [], []
    for t in traces:
        L, cone = _glued_sections(spaces, g.overlaps, t)
        stalks.append(L)
        cones.append(cone)
        lookups.append(tables.cone_lookup(L, cone))
    # the restriction from U_c to U_d, lifted from the chart projections
    maps = {(c, d): tables.lift(stalks[c], stalks[d], lookups[d], [
        compose(cones[c][i], spaces[i].res(traces[c][i], traces[d][i]))
        for i in range(nc)]) for c, U in enumerate(mins) for d in U - {c}}
    X = sp.sheaf_from_stalks(
        specs.ctx.name, spaces[0].kind,
        tuple(f"c{i}p{p}" for (i, p) in (all_points[c] for c in classes)),
        stalks, maps)
    _check_glued(specs.ctx, X)
    return X


def _glued_sections(spaces, overlaps, traces):
    """The sections over the open with chart traces `traces`, with their cone
    of chart projections.

    They are the chart-section families that agree on every overlap: at
    each point a of W_i, the points of Pts k_i that the open holds, with b
    = point_map[a], chart i's section restricted to U_a equals chart j's
    restricted to U_b and carried over by the stalk iso.  Restrictions to
    the U_a separate the sections over W_i, so each side's key is the tuple
    of these values over the points of W_i.
    """
    objects = [spaces[i].sections[traces[i]] for i in range(len(spaces))]
    meets = []
    for ov in overlaps:
        X, Y, ti, tj = spaces[ov.i], spaces[ov.j], traces[ov.i], traces[ov.j]
        W = sorted(a for a in ov.point_map if a in ti)
        left = [X.res(ti, X.mins[a]) for a in W]
        right = [compose(Y.res(tj, Y.mins[ov.point_map[a]]),
                         ov.stalks[a]) for a in W]
        keys = [[tuple(h(x) for h in hs) for x in range(A.size)]
                for hs, A in ((left, objects[ov.i]), (right, objects[ov.j]))]
        meets.append((ov.i, ov.j, *keys))
    return tables.limit_from_families(spaces[0].kind, objects,
                                      tables.agreeing_families(
                                          [o.size for o in objects], meets))


def _check_glued(ctx, X):
    """The glued stalks are local."""
    for c in range(X.n_points):
        if not ctx.is_local(X.stalk(c)):
            raise InvariantViolation("glued stalk is not local")


def is_affine(specs: Specs, X: SpectralSpace) -> APMap | None:
    """An isomorphism Spec Γ -> X, Γ the global sections of X, or None.

    Spec Γ has `point_count(Γ)` points, so it is built only when they are
    as many as X's.  It builds its sections on first read, so the
    isomorphism search reads those at its minimal opens alone.
    """
    gamma = X.sections[X.total]
    if specs.ctx.point_count(gamma) != X.n_points:
        return None
    return sp.spaces_isomorphic(specs[gamma], X)


# ---------------------------------------------------------------------------
# nerves on a finite site


def default_site(ctx, max_size: int = 8):
    from . import corpus

    pool = {
        "zariski": corpus.zariski_corpus,
        "domain": corpus.domain_corpus,
        "deitmar": corpus.deitmar_corpus,
    }[ctx.name]()
    return tuple(A for A in pool if A.size <= max_size)


def nerve(specs: Specs, X: SpectralSpace, site) -> list[list[APMap]]:
    """N(X) on the site: the maps Spec S -> X, one list per site object S.

    Site homs act by precomposition with their Spec maps; the action stays
    in the table since each value is the complete set of maps.
    """
    return [sp.enumerate_apmaps(specs.ctx, specs[S], X) for S in site]


def nerve_sheaf_condition(specs: Specs, X: SpectralSpace, cover: hc.Opcover,
                          values: dict) -> bool:
    """N(X)(A) must equal the compatible families over the cover of A.

    A is the cover's base.  `values` maps an algebra K to N(X)(K), the maps
    Spec K -> X; each value it lacks, A's or a component's, is computed and
    stored there, so that callers sharing one dict compute each value once.
    """
    def at(K):
        if K not in values:
            values[K] = sp.enumerate_apmaps(specs.ctx, specs[K], X)
        return values[K]

    comp_maps = [spec_map(specs, k) for k in cover.components]
    families = _nerve_families(specs, cover,
                               [at(k.target) for k in cover.components])
    images = set()
    for phi in at(cover.base):
        key = tuple(compose_apmaps(m, phi).key for m in comp_maps)
        if key in images:
            return False
        images.add(key)
    return images == set(families)


def _nerve_families(specs: Specs, cover: hc.Opcover, at_K) -> list[tuple]:
    """The families of maps Spec K_t -> X, one from each at_K[t], that agree
    after the pushout legs of every pair t < u of components, in
    lexicographic order of their indices; each is the tuple of its maps'
    keys."""
    meets = []
    for t, u in itertools.combinations(range(len(at_K)), 2):
        _, in_t, in_u = tables.pushout(cover.components[t], cover.components[u])
        mt, mu = spec_map(specs, in_t), spec_map(specs, in_u)
        meets.append((t, u, [compose_apmaps(mt, phi).key for phi in at_K[t]],
                      [compose_apmaps(mu, phi).key for phi in at_K[u]]))
    keys = [[phi.key for phi in maps] for maps in at_K]
    return [tuple(keys[t][x] for t, x in enumerate(f)) for f in
            tables.agreeing_families([len(maps) for maps in at_K], meets)]
