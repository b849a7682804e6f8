"""Distinguished opcovers, Čech hyperopcovers, and the limit H0.

Only levels 0 and 1 are ever materialized; H0 is one finite limit of the
level-0 components and the level-1 components over all ordered pairs, along
the two face maps into each level-1 component.
"""

from __future__ import annotations

import itertools

from . import contexts as cx
from . import tables
from .contexts import LocalizationPath, local_forms
from .errors import InvariantViolation
from .tables import FiniteAlgebra, Hom, compose, pushout


class Opcover:
    def __init__(self, ctx_name: str, base: FiniteAlgebra,
                 components: tuple[LocalizationPath, ...]):
        self.ctx_name = ctx_name
        self.base = base
        self.components = components


class Hyperopcover:
    def __init__(self, level0: Opcover, level1: dict):
        self.level0 = level0
        # (i0, i1) -> (pushout algebra, in0, in1, level-1 legs out of the pushout)
        self.level1 = level1


def is_opcover(ctx, c: Opcover) -> bool:
    """Every local form of the base factors through some component."""
    for p in local_forms(ctx, c.base):
        if not any(tables.induced(k.composite, p.composite) is not None
                   for k in c.components):
            return False
    return True


def kernel_hyperopcover(ctx, c: Opcover) -> Hyperopcover:
    """The Čech form: level 1 is the bare pairwise pushout."""
    level1 = {}
    for i0, k0 in enumerate(c.components):
        for i1, k1 in enumerate(c.components):
            P, in0, in1 = pushout(k0.composite, k1.composite)
            level1[(i0, i1)] = (P, in0, in1, [tables.identity(P)])
    return Hyperopcover(c, level1)


def h0(K: Hyperopcover):
    """(limit, induced map from the base) of the truncated diagram.

    One limit: the level-0 targets, then each level-1 leg target with its
    two face arrows in0∘leg from i0 and in1∘leg from i1.  The level-0
    coordinates determine the rest, so the map from the base is lifted
    through them alone.
    """
    comps = K.level0.components
    objects = [k.target for k in comps]
    arrows = []
    for (i0, i1), (_, in0, in1, legs) in sorted(K.level1.items()):
        for leg in legs:
            arrows.append((i0, len(objects), compose(in0, leg)))
            arrows.append((i1, len(objects), compose(in1, leg)))
            objects.append(leg.target)
    E, cone = tables.limit(K.level0.base.kind, objects, arrows)
    lookup = tables.cone_lookup(E, cone[:len(comps)])
    return E, tables.lift(K.level0.base, E, lookup, [k.composite for k in comps])


def cech_h0(ctx, c: Opcover):
    """H0 of the Čech hyperopcover of an opcover."""
    return h0(kernel_hyperopcover(ctx, c))


def split_cover_check(ctx, K: Hyperopcover) -> bool:
    """With a level-0 component iso, the base must map isomorphically to H0."""
    if not any(k.composite.is_bijective for k in K.level0.components):
        raise InvariantViolation("no split component in the cover")
    _, eta = h0(K)
    if not eta.is_bijective:
        raise InvariantViolation("split cover with non-iso counit")
    return True


def enumerate_opcovers(ctx, R: FiniteAlgebra, max_components: int | None = None):
    """All covering families of localization classes, smallest first."""
    locs = list(cx.enumerate_localizations(ctx, R).values())
    forms = local_forms(ctx, R)
    hits = [frozenset(i for i, p in enumerate(forms)
                      if tables.induced(k.composite, p.composite) is not None)
            for k in locs]
    everything = frozenset(range(len(forms)))
    out = []
    top = max_components if max_components is not None else len(locs)
    for size in range(1, top + 1):
        for idxs in itertools.combinations(range(len(locs)), size):
            if frozenset().union(*(hits[i] for i in idxs)) == everything:
                out.append(Opcover(ctx.name, R, tuple(locs[i] for i in idxs)))
    return out


def pushout_opcover(ctx, c: Opcover, f: Hom) -> Opcover:
    """The image cover on f's target: each component pushed out along f.

    Components are re-identified with localization classes of the target, so
    the result carries genuine localization paths.
    """
    if f.source != c.base:
        raise InvariantViolation("pushed map does not start at the cover base")
    S = f.target
    locs = cx.enumerate_localizations(ctx, S)
    pushed = []
    for k in c.components:
        _, _, in_l = pushout(k.composite, f)
        key = tables.normalize_sig(in_l.map)
        if key not in locs:
            raise InvariantViolation("pushed component is not a localization")
        pushed.append(locs[key])
    return Opcover(ctx.name, S, tuple(pushed))
