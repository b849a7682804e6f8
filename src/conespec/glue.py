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

from . import hypercover as hc
from . import spectrum as sp
from . import tables
from .contexts import LocalizationPath, factorize, local_forms
from .errors import CocycleViolation, InvariantViolation
from .spectrum import APMap, SpectralSpace, build_spec, compose_apmaps, \
    restrict, spec_map
from .tables import FiniteAlgebra, Hom, all_homs, compose


class Overlap:
    def __init__(self, i: int, j: int, k_i: LocalizationPath,
                 k_j: LocalizationPath, iso: APMap):
        self.i = i
        self.j = j
        self.k_i = k_i      # localization on chart i cutting out U_i
        self.k_j = k_j
        self.iso = iso      # restrict(Spec R_i, U_i) -> restrict(Spec R_j, U_j)


class GluingSpec:
    def __init__(self, ctx_name: str, charts: tuple[FiniteAlgebra, ...],
                 overlaps: tuple[Overlap, ...]):
        self.ctx_name = ctx_name
        self.charts = charts
        self.overlaps = overlaps


def make_overlap(ctx, charts, i: int, j: int,
                 k_i: LocalizationPath, k_j: LocalizationPath,
                 g: Hom | None = None) -> Overlap:
    """Build the overlap by composing the two open-embedding isos.

    The identification goes through Spec of the overlap algebra: along
    Spec g for an isomorphism g: target(k_j) -> target(k_i) when one is
    given, else along any isomorphism of the two spectra, which must exist.
    """
    Ui, emb_i = sp.open_embedding_data(ctx, charts[i], k_i)
    Uj, emb_j = sp.open_embedding_data(ctx, charts[j], k_j)
    if g is not None:
        mid = spec_map(ctx, g)
    else:
        mid = sp.spaces_isomorphic(build_spec(ctx, k_i.target),
                                   build_spec(ctx, k_j.target))
        if mid is None:
            raise CocycleViolation("overlap spectra are not isomorphic")
    iso = compose_apmaps(compose_apmaps(emb_i, mid), sp.invert_apmap(emb_j))
    return Overlap(i, j, k_i, k_j, iso)


def glue(ctx, g: GluingSpec) -> SpectralSpace:
    spaces = [build_spec(ctx, R) for R in g.charts]
    opens_by_overlap = []
    for ov in g.overlaps:
        Ui = sp.distinguished_open(ctx, g.charts[ov.i], ov.k_i, spaces[ov.i].forms)
        Uj = sp.distinguished_open(ctx, g.charts[ov.j], ov.k_j, spaces[ov.j].forms)
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
        ctx_name=ctx.name,
        kind=spaces[0].kind,
        point_labels=tuple(f"c{i}p{p}" for (i, p) in
                           (all_points[c] for c in classes)),
        sheaf=sp.sheaf_from_stalks(spaces[0].kind, stalks, maps),
    )
    _check_glued(ctx, X)
    return X


def _glued_sections(spaces, remaps, traces):
    """The sections over the open with chart traces `traces`, with their cone
    of chart projections.

    They are the chart-section families that agree on every overlap W_i:
    the limit of the charts and one object O_i(W_i) per overlap, reached
    from chart i by restriction and from chart j by restriction then the
    overlap's section map.  The overlap coordinates are functions of the
    chart coordinates, so dropping them keeps the families distinct.
    """
    nc = len(spaces)
    objects = [spaces[i].sections(traces[i]) for i in range(nc)]
    arrows = []
    for ov, Ui, Uj, rj in remaps:
        Wi, Wj = traces[ov.i] & Ui, traces[ov.j] & Uj
        h = ov.iso.section_maps[frozenset(rj[p] for p in Wj)]
        arrows.append((ov.i, len(objects),
                       spaces[ov.i].sheaf.res(traces[ov.i], Wi)))
        arrows.append((ov.j, len(objects),
                       compose(spaces[ov.j].sheaf.res(traces[ov.j], Wj), h)))
        objects.append(spaces[ov.i].sections(Wi))
    families = tables.compatible_families([o.size for o in objects], arrows)
    return tables.limit_from_families(spaces[0].kind, objects[:nc],
                                      [f[:nc] for f in families])


def _check_glued(ctx, X):
    """The glued stalks are local."""
    for c in range(X.n_points):
        if not ctx.is_local(X.stalk(c)):
            raise InvariantViolation("glued stalk is not local")


def is_affine(ctx, X: SpectralSpace):
    """(verdict, witness): is X isomorphic to Spec of its global sections?

    Spec is built only when its point count, the number of local forms of
    the global sections, matches X; its stalks are the form targets.
    """
    gamma = X.sections(X.total)
    forms = local_forms(ctx, gamma)
    if len(forms) == X.n_points:
        m = sp.spaces_isomorphic(build_spec(ctx, gamma), X)
        if m is not None:
            return True, m
    return False, {
        "points": (X.n_points, len(forms)),
        "stalks": (sorted(X.stalk(p).size for p in range(X.n_points)),
                   sorted(p.target.size for p in forms)),
    }


# ---------------------------------------------------------------------------
# nerves on a finite site


class NerveTable:
    def __init__(self, ctx_name: str, site: tuple[FiniteAlgebra, ...],
                 values: dict, space: SpectralSpace):
        self.ctx_name = ctx_name
        self.site = site
        self.values = values    # site index -> list of APMaps Spec S -> X
        self.space = space


def default_site(ctx, max_size: int = 8):
    from . import corpus

    pool = {
        "zariski": corpus.zariski_corpus,
        "domain": corpus.domain_corpus,
        "deitmar": corpus.deitmar_corpus,
    }[ctx.name]()
    return tuple(A for A in pool if A.size <= max_size)


def _apmap_key(m: APMap):
    return (m.point_map,
            tuple(sorted((tuple(sorted(U)), h.map)
                         for U, h in m.section_maps.items())))


def nerve(ctx, X: SpectralSpace, site) -> NerveTable:
    """N(X) on the site: the maps Spec S -> X for each site object S.

    Site homs act by precomposition with their Spec maps; the action stays
    in the table since each value is the complete set of maps.
    """
    values = {}
    for s, S in enumerate(site):
        values[s] = sp.enumerate_apmaps(ctx, build_spec(ctx, S), X)
    return NerveTable(ctx.name, tuple(site), values, X)


def nerve_sheaf_condition(ctx, X: SpectralSpace, cover: hc.Opcover,
                          values: dict) -> bool:
    """N(X)(A) must equal the compatible families over the cover of A.

    A is the cover's base.  `values` maps an algebra K to N(X)(K), the maps
    Spec K -> X; each value it lacks, A's or a component's, is computed and
    stored there, so that callers sharing one dict compute each value once.
    """
    def at(K):
        if K not in values:
            values[K] = sp.enumerate_apmaps(ctx, build_spec(ctx, K), X)
        return values[K]

    comp_maps = [spec_map(ctx, k.composite) for k in cover.components]
    at_K = [at(k.target) for k in cover.components]
    # each family member's key, and its key after each pair's pushout leg
    keys = [[_apmap_key(phi) for phi in maps] for maps in at_K]
    pair_keys = []
    for t, kt in enumerate(cover.components):
        for u, ku in enumerate(cover.components):
            if t < u:
                _, in_t, in_u = tables.pushout(kt.composite, ku.composite)
                mt, mu = spec_map(ctx, in_t), spec_map(ctx, in_u)
                pair_keys.append((
                    t, u,
                    [_apmap_key(compose_apmaps(mt, phi)) for phi in at_K[t]],
                    [_apmap_key(compose_apmaps(mu, phi)) for phi in at_K[u]]))
    families = []
    for fam in itertools.product(*(range(len(maps)) for maps in at_K)):
        if all(left[fam[t]] == right[fam[u]]
               for t, u, left, right in pair_keys):
            families.append(tuple(keys[t][x] for t, x in enumerate(fam)))
    images = set()
    for phi in at(cover.base):
        key = tuple(_apmap_key(compose_apmaps(m, phi)) for m in comp_maps)
        if key in images:
            return False
        images.add(key)
    return images == set(families)


# ---------------------------------------------------------------------------
# open subfunctors and representability


def open_subfunctor_values(ctx, R: FiniteAlgebra, U: frozenset, site):
    """Per site object: homs R -> S whose local forms all land in U."""
    forms = local_forms(ctx, R)
    values = {}
    for s, S in enumerate(site):
        hits = []
        for f in all_homs(R, S):
            ok = True
            for q in local_forms(ctx, S):
                path, _ = factorize(ctx, compose(f, q.composite))
                idx = [i for i, p in enumerate(forms) if p.sig == path.sig]
                if len(idx) != 1 or idx[0] not in U:
                    ok = False
                    break
            if ok:
                hits.append(f)
        values[s] = hits
    return values


def open_subfunctor_is_representable(ctx, R, k: LocalizationPath, site) -> bool:
    """yR at Pts k agrees with the representable of the localization target."""
    U = sp.distinguished_open(ctx, R, k, None)
    values = open_subfunctor_values(ctx, R, U, site)
    for s, S in enumerate(site):
        through = {compose(k.composite, g).map for g in all_homs(k.target, S)}
        if {f.map for f in values[s]} != through:
            return False
    return True


def nerve_matches_representable(ctx, R: FiniteAlgebra, site) -> bool:
    """N(Spec R)(S) is in natural bijection with Hom(R, S) on the site."""
    X = build_spec(ctx, R)
    table = nerve(ctx, X, site)
    for s, S in enumerate(site):
        homs = all_homs(R, S)
        maps = table.values[s]
        if len(homs) != len(maps):
            return False
        keys = {_apmap_key(spec_map(ctx, f)) for f in homs}
        if keys != {_apmap_key(m) for m in maps}:
            return False
    # naturality: the bijection commutes with the site action for free since
    # both sides act by composition with spec maps
    return True


# ---------------------------------------------------------------------------
# affine opens and the communication property


def affine_opens(ctx, X: SpectralSpace):
    out = {}
    for U in X.opens:
        if not U:
            continue
        verdict, witness = is_affine(ctx, restrict(X, U))
        if verdict:
            out[U] = witness
    return out


def _distinguished_in(ctx, U, witness):
    """Subsets of U that are distinguished opens of the affine model.

    The witness is an iso Spec(sections over U) -> restrict(X, U); push each
    distinguished open forward along its point map.
    """
    pts = sorted(U)
    return {frozenset(pts[witness.point_map[q]] for q in V)
            for V in sp.distinguished_opens(ctx, witness.source.base)}


def affine_communication_check(ctx, X: SpectralSpace) -> bool:
    """Any point in two affine opens lies in a common distinguished open."""
    aff = affine_opens(ctx, X)
    dist = {U: _distinguished_in(ctx, U, w) for U, w in aff.items()}
    for U in aff:
        for V in aff:
            for p in U & V:
                if not any(p in W and W <= U & V
                           for W in dist[U] & dist[V]):
                    return False
    return True


# ---------------------------------------------------------------------------
# scheme equivalence probe


def natural_transformations(ctx, NX: NerveTable, NY: NerveTable):
    """All natural maps NX -> NY over the common site, by backtracking."""
    site = NX.site
    n = len(site)
    x_keys = [{_apmap_key(m): idx for idx, m in enumerate(NX.values[s])}
              for s in range(n)]
    y_keys = [{_apmap_key(m): idx for idx, m in enumerate(NY.values[s])}
              for s in range(n)]
    actions = []  # (a, b, x action as index map, y action as index map)
    for a in range(n):
        for b in range(n):
            for f in all_homs(site[a], site[b]):
                mf = spec_map(ctx, f)
                xa = [x_keys[b][_apmap_key(compose_apmaps(mf, m))]
                      for m in NX.values[a]]
                ya = [y_keys[b][_apmap_key(compose_apmaps(mf, m))]
                      for m in NY.values[a]]
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
        for cand in itertools.product(range(len(NY.values[s])),
                                      repeat=len(NX.values[s])):
            assignment[s] = cand
            if natural_so_far():
                rec(s + 1)
        assignment[s] = None

    rec(0)
    return results


def scheme_equivalence_probe(ctx, X: SpectralSpace, Y: SpectralSpace, site):
    """Compare Hom(X, Y) in spaces with Nat(NX, NY) over the finite site."""
    homs = sp.enumerate_apmaps(ctx, X, Y)
    NX = nerve(ctx, X, site)
    NY = nerve(ctx, Y, site)
    nats = natural_transformations(ctx, NX, NY)
    keyed = [{_apmap_key(v): idx for idx, v in enumerate(NY.values[s])}
             for s in range(len(site))]
    induced = set()
    for m in homs:
        tr = []
        for s in range(len(site)):
            tr.append(tuple(keyed[s][_apmap_key(compose_apmaps(phi, m))]
                            for phi in NX.values[s]))
        induced.add(tuple(tr))
    return {
        "site_size": len(site),
        "n_homs": len(homs),
        "n_nats": len(set(nats)),
        "bijective": len(homs) == len(set(nats)) and induced == set(nats),
    }
