"""Distinguished opcovers and their Čech H0.

H0 is the limit of the truncated Čech diagram: the component elements that
agree in the pushout of every pair of components.  The pushout of a
component with itself, and of a pair in the other order, adds no condition,
so H0 is one join over the unordered pairs.
"""

from __future__ import annotations

import functools
import itertools

from . import tables
from .errors import InvariantViolation
from .tables import FiniteAlgebra, Hom, pushout


class Opcover:
    """A family of localizations of `base` in the context `ctx`.  The local
    forms of the base and the Čech H0 depend on the cover alone, so each is
    built on first read and kept."""

    def __init__(self, ctx, base: FiniteAlgebra,
                 components: tuple[Hom, ...]):
        self.ctx = ctx
        self.base = base
        self.components = components

    @functools.cached_property
    def forms(self) -> list[Hom]:
        return self.ctx.local_forms(self.base)

    @functools.cached_property
    def cech_h0(self):
        return h0(self)


def is_opcover(c: Opcover) -> bool:
    """Every local form of the base factors through some component."""
    for p in c.forms:
        if not any(tables.induced(k, p) is not None for k in c.components):
            return False
    return True


def h0(c: Opcover):
    """(H0, eta: base -> H0): the families of component elements whose
    images agree along the legs of pushout(k_t, k_u) for every t < u, and
    the map from the base lifted through the components."""
    comps = c.components
    meets = []
    for t, u in itertools.combinations(range(len(comps)), 2):
        _, in_t, in_u = pushout(comps[t], comps[u])
        meets.append((t, u, in_t.map, in_u.map))
    targets = [k.target for k in comps]
    E, cone = tables.limit_from_families(c.base.kind, targets,
                                         tables.agreeing_families(
                                             [K.size for K in targets], meets))
    return E, tables.lift(c.base, E, tables.cone_lookup(E, cone), comps)


def pushout_opcover(c: Opcover, f: Hom) -> Opcover:
    """The image cover on f's target: each component pushed out along f.

    Cells are stable under homs, so the pushout of a localization along a
    hom is again a localization, the map out of f's target.
    """
    if f.source != c.base:
        raise InvariantViolation("pushed map does not start at the cover base")
    return Opcover(c.ctx, f.target,
                   tuple(pushout(k, f)[2] for k in c.components))
