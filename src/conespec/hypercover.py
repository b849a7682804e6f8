"""Distinguished opcovers, Čech hyperopcovers, and the limit H0.

Only levels 0 and 1 are ever materialized; H0 is one finite limit of the
level-0 components and the level-1 components over all ordered pairs, along
the two face maps into each level-1 component.
"""

from __future__ import annotations

import functools

from . import contexts as cx
from . import tables
from .contexts import LocalizationPath, local_forms
from .errors import InvariantViolation
from .tables import FiniteAlgebra, Hom, compose, pushout


class Opcover:
    """A family of localizations of `base`.  The local forms of the base and
    the Čech H0 depend on the cover alone, so each is built on first read
    and kept."""

    def __init__(self, ctx_name: str, base: FiniteAlgebra,
                 components: tuple[LocalizationPath, ...]):
        self.ctx_name = ctx_name
        self.base = base
        self.components = components

    @functools.cached_property
    def forms(self) -> list[LocalizationPath]:
        return local_forms(cx.get_context(self.ctx_name), self.base)

    @functools.cached_property
    def cech_h0(self):
        return h0(kernel_hyperopcover(self))


class Hyperopcover:
    def __init__(self, level0: Opcover, level1: dict):
        self.level0 = level0
        # (i0, i1) -> (pushout algebra, in0, in1)
        self.level1 = level1


def is_opcover(ctx, c: Opcover) -> bool:
    """Every local form of the base factors through some component."""
    for p in c.forms:
        if not any(tables.induced(k.composite, p.composite) is not None
                   for k in c.components):
            return False
    return True


def kernel_hyperopcover(c: Opcover) -> Hyperopcover:
    """The Čech form: level 1 is the bare pairwise pushout."""
    level1 = {}
    for i0, k0 in enumerate(c.components):
        for i1, k1 in enumerate(c.components):
            level1[(i0, i1)] = pushout(k0.composite, k1.composite)
    return Hyperopcover(c, level1)


def h0(K: Hyperopcover):
    """(limit, induced map from the base) of the truncated diagram.

    One limit: the level-0 targets, then each level-1 pushout with its two
    face arrows in0 from i0 and in1 from i1.  The level-0 coordinates
    determine the rest, so the map from the base is lifted through them
    alone.
    """
    comps = K.level0.components
    objects = [k.target for k in comps]
    arrows = []
    for (i0, i1), (P, in0, in1) in sorted(K.level1.items()):
        arrows.append((i0, len(objects), in0))
        arrows.append((i1, len(objects), in1))
        objects.append(P)
    E, cone = tables.limit(K.level0.base.kind, objects, arrows)
    lookup = tables.cone_lookup(E, cone[:len(comps)])
    return E, tables.lift(K.level0.base, E, lookup, [k.composite for k in comps])


def cech_h0(ctx, c: Opcover):
    """H0 of the Čech hyperopcover of an opcover, built once per cover."""
    return c.cech_h0


def pushout_opcover(ctx, c: Opcover, f: Hom) -> Opcover:
    """The image cover on f's target: each component pushed out along f.

    Cells are stable under homs, so an attachment pushed out along a hom g
    is the attachment at the image of its datum under g.  Each component's
    steps are replayed on f's target, with g the map that f induces from
    the matching intermediate target.
    """
    if f.source != c.base:
        raise InvariantViolation("pushed map does not start at the cover base")
    pushed = []
    for k in c.components:
        path, g = cx.identity_path(f.target), f
        for datum, branch in k.steps:
            _, step = ctx.attach(g.source, datum, branch)
            image = cx.CellDatum(ctx.name, tuple(g.map[x] for x in datum.data))
            Q, new_step = ctx.attach(path.target, image, branch)
            path = cx.extend_path(ctx, path, image, branch, (Q, new_step))
            g = tables.induced(step, compose(g, new_step))
        pushed.append(path)
    return Opcover(ctx.name, f.target, tuple(pushed))
