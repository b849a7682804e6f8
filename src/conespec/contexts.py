"""Pluggable spectral contexts.

A context fixes the cone set semantically: which algebras it accepts, what a
cell attachment at an object is, which objects are local, and which maps are
admissible.  Each of the three, ``zariski`` and ``domain`` on rings and
``deitmar`` on monoids, is a module of its name holding its class and its one
instance, ``CONTEXT``.

A caller checks an algebra's kind once, with `accepts`; the other methods
take algebras of the context's kind and cell data of `cell_data` (or their
images under homs) as given.

A localization is its map, a finite composite of attachments.  On finite
tables it is surjective, so its kernel partition identifies it up to
isomorphism over its source, and localizations are compared by it.  The
points of Spec R are the local forms (`local_forms`); every other
localization the library meets is written by a caller or is the
localization part of a map.  Their number (`point_count`) is read off the
algebra without building any of them.  Each context gives the kernel of an
attachment (`attach_sig`) and of a map's localization part
(`localization_sig`) in closed form, so `factorize` builds one quotient
where the small-object argument attaches one cell after another: zariski
and deitmar invert the preimage of the units, one inversion at their
product; domain kills the kernel.
"""

from __future__ import annotations

import importlib

from . import tables
from .errors import InvariantViolation, KindMismatch
from .tables import FiniteAlgebra, Hom


BRANCHES = ("left", "right")


class SpectralContext:
    name: str
    kind: str

    def accepts(self, A: FiniteAlgebra) -> None:
        """Raise KindMismatch unless A is of this context's kind.  The other
        methods assume it and do not check it again."""
        if A.kind != self.kind:
            raise KindMismatch(f"context {self.name} expects a {self.kind}")

    # interface -----------------------------------------------------------
    def is_local(self, A: FiniteAlgebra) -> bool:
        raise NotImplementedError

    def is_admissible(self, f: Hom) -> bool:
        raise NotImplementedError

    def cell_data(self, A: FiniteAlgebra) -> list[tuple[int, ...]]:
        raise NotImplementedError

    def attach_sig(self, A, datum, branch) -> tuple[int, ...]:
        """Kernel partition of the attachment map out of A (not built)."""
        raise NotImplementedError

    def victim(self, datum, branch):
        """The element an attachment kills or inverts: a branch of a pair
        datum acts on the pair's matching entry."""
        return datum[0 if branch == "left" else 1]

    def attach(self, A, datum, branch):
        """The attachment as (quotient, quotient map)."""
        return tables.quotient_by_sig(A, self.attach_sig(A, datum, branch))

    def localization_sig(self, f: Hom) -> tuple[int, ...]:
        """Kernel partition of the localization part of f (not built):
        inverting the r with f(r) a unit, one inversion at their product."""
        A, a = f.source, f.source.one
        for r in range(A.size):
            if f.map[r] in f.target.units:
                a = A.mul[a][r]
        return tables.inversion_sig(A, a)

    def local_forms(self, A) -> list[Hom]:
        """One local form per point of Spec A, in kernel-partition order."""
        raise NotImplementedError

    def point_count(self, A) -> int:
        """How many points Spec A has, one per local factor of the ring."""
        return len(_primitive_idempotents(A))

    def __repr__(self):
        return f"<context {self.name}>"


def _reflects_invertibility(f: Hom) -> bool:
    return all(r in f.source.units for r in range(f.source.size)
               if f.map[r] in f.target.units)


def _primitive_idempotents(A: FiniteAlgebra) -> list[int]:
    """Nonzero idempotents e with no idempotent strictly between 0 and e.

    They cut A into its local factors eA, one per point of Spec A.
    """
    return [e for e in sorted(A.idempotents) if e != A.zero
            and {f for f in A.idempotents if A.mul[e][f] == f} == {A.zero, e}]


# the class of each context, in the module of its name with its instance
_CLASSES = {"zariski": "ZariskiContext", "domain": "DomainContext",
            "deitmar": "DeitmarContext"}


def __getattr__(attr: str):
    """The context classes are still names of this module (PEP 562), read off
    their own modules on first use, for callers that patch or wrap them."""
    for name, cls in _CLASSES.items():
        if attr == cls:
            return getattr(importlib.import_module(f".{name}", __package__),
                           cls)
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")


def get_context(name: str) -> SpectralContext:
    if not isinstance(name, str) or name not in _CLASSES:
        raise KindMismatch(f"unknown context {name!r}")
    cls = __getattr__(_CLASSES[name])
    return importlib.import_module(cls.__module__).CONTEXT


# ---------------------------------------------------------------------------
# the (localization, admissible) factorization


def factorize(ctx, f: Hom):
    """Factor f as an admissible map after a finite localization.

    Returns (localization, admissible): the quotient of f's source by
    `ctx.localization_sig(f)`, and the map it induces.  By uniqueness of the
    factorization it is the one that attaching cells step by step gives.
    """
    loc = tables.quotient_by_sig(f.source, ctx.localization_sig(f))[1]
    g = tables.induced(loc, f)
    if g is None:
        raise InvariantViolation("f does not factor through its localization")
    return loc, g
