"""Checkers for propositions of the paper, over the library's constructions.

Nothing in `conespec` calls these, and no subcommand reaches them: each
exists so that a test can check a claim about spectra and their functors of
points on a finite site.  Each local map factors through exactly one local
form, the distinguished opens are the opens Pts k over every localization k
and match those of red R, each localization is an open embedding, a cover
with an identity component has H0 the base, open subfunctors at
distinguished opens are representable, the nerve of Spec R is Hom(R, -),
affine opens communicate, and the maps of spaces X -> Y are the natural maps
of their nerves (`Probe`).  Those over every localization read the test-side
search `helpers.enumerate_localizations`.
"""

from __future__ import annotations

import functools
import itertools

from conespec import glue as gl
from conespec import hypercover as hc
from conespec import reduction as red
from conespec import spectrum as sp
from conespec import tables
from conespec.errors import InvariantViolation
from conespec.spectrum import APMap, compose_apmaps, spec_map
from conespec.homs import all_homs
from conespec.tables import compose, identity

from helpers import (distinguished_open, enumerate_localizations, is_iso,
                     open_embedding_data, preimage, restrict)


# ---------------------------------------------------------------------------
# local forms, reduction and localizations


def multi_reflection(ctx, f):
    """The unique factoring of f: R -> Q (Q local) through a local form.

    Returns (local_form, admissible_map); raises if existence or uniqueness
    fails, which would contradict the multi-reflection theorem.
    """
    hits = []
    for p in ctx.local_forms(f.source):
        h = tables.induced(p, f)
        if h is not None and ctx.is_admissible(h):
            hits.append((p, h))
    if len(hits) != 1:
        raise InvariantViolation(
            f"expected exactly one local form under the map, got {len(hits)}"
        )
    return hits[0]


def mono_reduce(ctx, R):
    """mono R, the image of ell, built from ell's distinct families.

    Returns (mono R, unit: R -> mono R, cone): the families are the
    elements of mono R, `tables.limit_from_families` gives its tables and
    its cone into the local-form targets, which is the inclusion into their
    product, and the unit lifts R into it.  With no local forms mono R is
    the terminal algebra, the empty product.
    """
    forms, families = red.ell_families(ctx, R)
    if forms:
        M, cone = tables.limit_from_families(
            R.kind, [p.target for p in forms], sorted(set(families)))
    else:
        M, cone = tables.terminal(R.kind), []
    unit = tables.lift(R, M, tables.cone_lookup(M, cone), forms)
    return M, unit, cone


def is_reduced(ctx, R) -> bool:
    return red.reduced(ctx, R)[0]


def is_mono_reduced(ctx, R) -> bool:
    return red.reduced(ctx, R, "mono")[0]


def is_geometric_iso(ctx, f) -> bool:
    return red.geometric_iso(ctx, f)[0]


def is_fixed_point(ctx, R) -> bool:
    return red.fixed_point(ctx, R)[0]


def is_spec_iso(ctx, f) -> bool:
    """Direct oracle: does f induce an isomorphism of spectra?"""
    return is_iso(spec_map(sp.Specs(ctx), f))


def identity_apmap(X) -> APMap:
    return APMap(X, X, tuple(range(X.n_points)),
                 tuple(identity(X.stalk(p)) for p in range(X.n_points)))


def distinguished_opens(ctx, R) -> set[frozenset]:
    """The distinguished opens Pts k of Spec R, over every localization k."""
    forms = ctx.local_forms(R)
    return {distinguished_open(forms, k)
            for k in enumerate_localizations(ctx, R).values()}


def distop_lattice_bijection(ctx, R) -> bool:
    """Distinguished opens of Spec R and Spec(red R) match along the unit."""
    unit, _ = red.reduce_admissible(ctx, R)
    m = spec_map(sp.Specs(ctx), unit)
    basis_R = distinguished_opens(ctx, R)
    basis_red = distinguished_opens(ctx, unit.target)
    image = {U: preimage(m, U) for U in basis_R}
    if set(image.values()) != basis_red:
        return False
    return len(set(image.values())) == len(basis_R)


def open_embedding_check(specs, R, k) -> bool:
    try:
        open_embedding_data(specs, R, k)
        return True
    except InvariantViolation:
        return False


# ---------------------------------------------------------------------------
# opcovers


def enumerate_opcovers(ctx, R, max_components: int | None = None):
    """All covering families of localization classes, smallest first."""
    locs = list(enumerate_localizations(ctx, R).values())
    forms = ctx.local_forms(R)
    hits = [frozenset(i for i, p in enumerate(forms)
                      if tables.induced(k, p) is not None)
            for k in locs]
    everything = frozenset(range(len(forms)))
    out = []
    top = max_components if max_components is not None else len(locs)
    for size in range(1, top + 1):
        for idxs in itertools.combinations(range(len(locs)), size):
            if frozenset().union(*(hits[i] for i in idxs)) == everything:
                out.append(hc.Opcover(ctx, R,
                                      tuple(locs[i] for i in idxs)))
    return out


def split_cover_check(ctx, cover) -> bool:
    """With a component iso, the base must map isomorphically to H0."""
    if not any(k.is_bijective for k in cover.components):
        raise InvariantViolation("no split component in the cover")
    _, eta = hc.h0(cover)
    if not eta.is_bijective:
        raise InvariantViolation("split cover with non-iso counit")
    return True


# ---------------------------------------------------------------------------
# open subfunctors and representability


def open_subfunctor_values(specs, R, U: frozenset, site):
    """Per site object: the homs R -> S whose Spec map lands in U."""
    return {s: [f for f in all_homs(R, S)
                if set(spec_map(specs, f).point_map) <= U]
            for s, S in enumerate(site)}


def open_subfunctor_is_representable(specs, R, k, site) -> bool:
    """yR at Pts k agrees with the representable of the localization target."""
    U = distinguished_open(specs[R].forms, k)
    values = open_subfunctor_values(specs, R, U, site)
    for s, S in enumerate(site):
        through = {compose(k, g).map for g in all_homs(k.target, S)}
        if {f.map for f in values[s]} != through:
            return False
    return True


def nerve_matches_representable(specs, R, site) -> bool:
    """N(Spec R)(S) is in natural bijection with Hom(R, S) on the site."""
    for S, maps in zip(site, gl.nerve(specs, specs[R], site)):
        homs = all_homs(R, S)
        if len(homs) != len(maps):
            return False
        keys = {spec_map(specs, f).key for f in homs}
        if keys != {m.key for m in maps}:
            return False
    # naturality: the bijection commutes with the site action for free since
    # both sides act by composition with spec maps
    return True


# ---------------------------------------------------------------------------
# affine opens and the communication property


def affine_opens(specs, X):
    out = {}
    for U in X.opens:
        if not U:
            continue
        iso = gl.is_affine(specs, restrict(X, U))
        if iso is not None:
            out[U] = iso
    return out


def _distinguished_in(ctx, U, witness):
    """Subsets of U that are distinguished opens of the affine model.

    The witness is an iso Spec(sections over U) -> restrict(X, U); push each
    distinguished open forward along its point map.
    """
    pts = sorted(U)
    return {frozenset(pts[witness.point_map[q]] for q in V)
            for V in distinguished_opens(ctx, witness.source.base)}


def affine_communication_check(specs, X) -> bool:
    """Any point in two affine opens lies in a common distinguished open."""
    aff = affine_opens(specs, X)
    dist = {U: _distinguished_in(specs.ctx, U, w) for U, w in aff.items()}
    for U in aff:
        for V in aff:
            for p in U & V:
                if not any(p in W and W <= U & V
                           for W in dist[U] & dist[V]):
                    return False
    return True


# ---------------------------------------------------------------------------
# scheme equivalence probe


class Probe:
    """Scheme-equivalence probes over one workspace and one finite site.

    The homs between site objects are listed once, and the nerve of each
    space, with the action of every site hom on it, is enumerated once; the
    workspace keeps the Spec map of each hom.  Spaces are told apart by
    identity, as maps of spaces are.
    """

    def __init__(self, specs, site):
        self.specs = specs
        self.site = tuple(site)
        self._nerves = {}
        self._actions = {}

    @functools.cached_property
    def site_homs(self) -> list:
        """(a, b, f) for every hom f: site[a] -> site[b]."""
        n = len(self.site)
        return [(a, b, f) for a, b in itertools.product(range(n), repeat=2)
                for f in all_homs(self.site[a], self.site[b])]

    def nerve(self, X) -> list:
        if X not in self._nerves:
            self._nerves[X] = gl.nerve(self.specs, X, self.site)
        return self._nerves[X]

    def actions(self, X) -> list:
        """For each (a, b, f) of `site_homs`, the map f induces from the
        indices of N(X)(site[a]) to those of N(X)(site[b])."""
        if X not in self._actions:
            NX = self.nerve(X)
            keys = [{m.key: i for i, m in enumerate(maps)} for maps in NX]
            self._actions[X] = [
                [keys[b][compose_apmaps(spec_map(self.specs, f), m).key]
                 for m in NX[a]] for a, b, f in self.site_homs]
        return self._actions[X]

    def natural_transformations(self, X, Y):
        """All natural maps NX -> NY, by one family search.

        Its objects are the pairs (s, m), m in NX(s), each ranging over the
        indices of NY(s); each site hom f: a -> b and each m in NX(a) give
        the arrow (a, m) -> (b, f.m) along f's action on NY(a), a meet of
        the join.  A natural map is one tuple of image indices per site
        object, and they come out in lexicographic order.
        """
        NX, NY = self.nerve(X), self.nerve(Y)
        n = len(self.site)
        offset = list(itertools.accumulate(map(len, NX), initial=0))
        sizes = [len(NY[s]) for s in range(n) for _ in NX[s]]
        meets = []
        for (a, b, _), xa, ya in zip(self.site_homs, self.actions(X),
                                      self.actions(Y)):
            meets += [(offset[a] + i, offset[b] + fm, ya, range(len(NY[b])))
                      for i, fm in enumerate(xa)]
        return [tuple(fam[offset[s]:offset[s + 1]] for s in range(n))
                for fam in tables.agreeing_families(sizes, meets)]

    def __call__(self, X, Y) -> dict:
        """Compare Hom(X, Y) in spaces with Nat(NX, NY) over the site."""
        homs = sp.enumerate_apmaps(self.specs.ctx, X, Y)
        NX, NY = self.nerve(X), self.nerve(Y)
        nats = self.natural_transformations(X, Y)
        keyed = [{v.key: idx for idx, v in enumerate(maps)} for maps in NY]
        # the transformation each map induces; the nats are distinct and
        # sorted
        induced = sorted(
            tuple(tuple(keyed[s][compose_apmaps(phi, m).key] for phi in maps)
                  for s, maps in enumerate(NX))
            for m in homs)
        return {
            "site_size": len(self.site),
            "n_homs": len(homs),
            "n_nats": len(nats),
            "bijective": induced == nats,
        }
