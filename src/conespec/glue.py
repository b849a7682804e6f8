"""Gluing spectra along open subspaces, and the functor-of-points layer.

A glued space is the colimit of its charts.  Its points are the chart points
identified along the overlap isomorphisms.  The minimal open of a point holds
the minimal open of each of its chart points, and the stalk there is the
chart-section families that agree on every overlap.  The space is
`spectrum.sheaf_from_stalks` of these stalks along the restrictions between
them, so its opens are the sets whose trace in every chart is open.
"""

from __future__ import annotations

import itertools
import math

from . import hypercover as hc
from . import spectrum as sp
from . import tables
from .contexts import LocalizationPath, local_forms
from .errors import CocycleViolation, InvariantViolation, SizeBound
from .spectrum import APMap, SpectralSpace, Specs, compose_apmaps, spec_map
from .tables import FiniteAlgebra, Hom, compose


class Overlap:
    def __init__(self, i: int, j: int, k_i: LocalizationPath,
                 k_j: LocalizationPath, iso: APMap):
        self.i = i
        self.j = j
        self.k_i = k_i      # localization on chart i cutting out U_i
        self.k_j = k_j
        self.iso = iso      # restrict(Spec R_i, U_i) -> restrict(Spec R_j, U_j)


class GluingSpec:
    def __init__(self, charts: tuple[FiniteAlgebra, ...],
                 overlaps: tuple[Overlap, ...]):
        self.charts = charts
        self.overlaps = overlaps


def make_overlap(specs: Specs, charts, i: int, j: int,
                 k_i: LocalizationPath, k_j: LocalizationPath,
                 g: Hom | None = None) -> Overlap:
    """Build the overlap by composing the two open-embedding isos.

    The identification goes through Spec of the overlap algebra: along
    Spec g for an isomorphism g: target(k_j) -> target(k_i) when one is
    given, else along any isomorphism of the two spectra, which must exist.
    """
    _, emb_i = sp.open_embedding_data(specs, charts[i], k_i)
    _, emb_j = sp.open_embedding_data(specs, charts[j], k_j)
    if g is not None:
        mid = spec_map(specs, g)
    else:
        mid = sp.spaces_isomorphic(specs[k_i.target], specs[k_j.target])
        if mid is None:
            raise CocycleViolation("overlap spectra are not isomorphic")
    iso = compose_apmaps(compose_apmaps(emb_i, mid), sp.invert_apmap(emb_j))
    return Overlap(i, j, k_i, k_j, iso)


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
    opens_by_overlap = []
    for ov in g.overlaps:
        Ui = sp.distinguished_open(spaces[ov.i].forms, ov.k_i)
        Uj = sp.distinguished_open(spaces[ov.j].forms, ov.k_j)
        if not ov.iso.is_iso:
            raise CocycleViolation("overlap identification is not an isomorphism")
        opens_by_overlap.append((Ui, Uj))

    # identify points; all_points is sorted, so each class is named by its
    # least chart point, the root the union-find keeps
    all_points = [(i, p) for i, X in enumerate(spaces)
                  for p in range(X.n_points)]
    number = {x: n for n, x in enumerate(all_points)}
    uf = tables._UF(len(all_points))
    for ov, (Ui, Uj) in zip(g.overlaps, opens_by_overlap):
        pts_i, pts_j = sorted(Ui), sorted(Uj)
        for a, p in enumerate(pts_i):
            uf.union(number[(ov.i, p)],
                     number[(ov.j, pts_j[ov.iso.point_map[a]])])
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
                            for q in spaces[i].min_open(p))
        mins.append(U)

    # per overlap: its opens on charts i and j, and chart j's points of U_j
    # numbered as in the target of the overlap's iso
    remaps = [(ov, Ui, Uj, {p: a for a, p in enumerate(sorted(Uj))})
              for ov, (Ui, Uj) in zip(g.overlaps, opens_by_overlap)]
    traces = [[frozenset(p for p in range(spaces[i].n_points)
                         if glob[(i, p)] in U) for i in range(nc)]
              for U in mins]
    stalks, cones, lookups = [], [], []
    for t in traces:
        L, cone = _glued_sections(spaces, remaps, t)
        stalks.append(L)
        cones.append(cone)
        lookups.append(tables.cone_lookup(L, cone))
    # the restriction from U_c to U_d, lifted from the chart projections
    maps = {(c, d): tables.lift(stalks[c], stalks[d], lookups[d], [
        compose(cones[c][i], spaces[i].sheaf.res(traces[c][i], traces[d][i]))
        for i in range(nc)]) for c, U in enumerate(mins) for d in U - {c}}
    X = SpectralSpace(
        ctx_name=specs.ctx.name,
        kind=spaces[0].kind,
        point_labels=tuple(f"c{i}p{p}" for (i, p) in
                           (all_points[c] for c in classes)),
        sheaf=sp.sheaf_from_stalks(spaces[0].kind, stalks, maps),
    )
    _check_glued(specs.ctx, X)
    return X


def _glued_sections(spaces, remaps, traces):
    """The sections over the open with chart traces `traces`, with their cone
    of chart projections.

    They are the chart-section families that agree on every overlap W_i:
    chart i's section restricted to W_i equals chart j's restricted to W_j
    and carried over by the overlap's section map.
    """
    nc = len(spaces)
    objects = [spaces[i].sections(traces[i]) for i in range(nc)]
    meets = []
    for ov, Ui, Uj, rj in remaps:
        Wi, Wj = traces[ov.i] & Ui, traces[ov.j] & Uj
        h = ov.iso.section_maps[frozenset(rj[p] for p in Wj)]
        meets.append((ov.i, ov.j,
                      spaces[ov.i].sheaf.res(traces[ov.i], Wi).map,
                      compose(spaces[ov.j].sheaf.res(traces[ov.j], Wj), h).map))
    return tables.limit_from_families(spaces[0].kind, objects,
                                      tables.agreeing_families(
                                          [o.size for o in objects], meets))


def _check_glued(ctx, X):
    """The glued stalks are local."""
    for c in range(X.n_points):
        if not ctx.is_local(X.stalk(c)):
            raise InvariantViolation("glued stalk is not local")


def is_affine(specs: Specs, X: SpectralSpace):
    """(verdict, witness): is X isomorphic to Spec of its global sections?

    Spec Γ has one point per local form of Γ, so it is built only when the
    forms are as many as X's points; the witness of differing counts is
    read from the forms.
    Spec Γ builds its sections on first read, so the isomorphism search
    reads those at its minimal opens alone.
    """
    gamma = X.sections(X.total)
    forms = local_forms(specs.ctx, gamma)
    if len(forms) == X.n_points:
        if gamma not in specs:
            specs[gamma] = sp.build_spec(specs.ctx, gamma, forms)
        m = sp.spaces_isomorphic(specs[gamma], X)
        if m is not None:
            return True, m
    return False, {
        "points": (X.n_points, len(forms)),
        "stalks": (sorted(X.stalk(p).size for p in range(X.n_points)),
                   sorted(p.target.size for p in forms)),
    }


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

    comp_maps = [spec_map(specs, k.composite) for k in cover.components]
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
        _, in_t, in_u = tables.pushout(cover.components[t].composite,
                                       cover.components[u].composite)
        mt, mu = spec_map(specs, in_t), spec_map(specs, in_u)
        meets.append((t, u, [compose_apmaps(mt, phi).key for phi in at_K[t]],
                      [compose_apmaps(mu, phi).key for phi in at_K[u]]))
    keys = [[phi.key for phi in maps] for maps in at_K]
    return [tuple(keys[t][x] for t, x in enumerate(f)) for f in
            tables.agreeing_families([len(maps) for maps in at_K], meets)]
