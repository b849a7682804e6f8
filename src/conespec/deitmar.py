"""The deitmar context on monoids: a branch of a cell a keeps or inverts a."""

from __future__ import annotations

from . import tables
from .contexts import SpectralContext, _reflects_invertibility
from .tables import MONOID, Hom


class DeitmarContext(SpectralContext):
    name = "deitmar"
    kind = MONOID

    def is_local(self, A):
        return True

    def is_admissible(self, f):
        return _reflects_invertibility(f)

    def cell_data(self, A):
        return [(a,) for a in range(A.size)]

    def attach_sig(self, A, datum, branch):
        if branch == "left":  # the trivial cone component
            return tuple(range(A.size))
        return tables.inversion_sig(A, datum[0])

    def faces(self, A) -> list[frozenset[int]]:
        """Saturated submonoids; their complements are the prime ideals.

        The faces are the sets F(a) of divisors of powers of a: F(a) is a
        face, and a face F is F(a) for a the product of its elements.
        """
        multiples = [set(row) for row in A.mul]
        out = set()
        for a in range(A.size):
            powers = {A.one}
            p = a
            while p not in powers:
                powers.add(p)
                p = A.mul[p][a]
            out.add(frozenset(x for x in range(A.size)
                              if not multiples[x].isdisjoint(powers)))
        return sorted(out, key=lambda F: (len(F), sorted(F)))

    def point_count(self, A):
        return len(self.faces(A))

    def local_forms(self, A):
        """One per face F, inverting F: one attachment at the product of
        F's non-units, the identity for the unit face.  A face is the
        preimage of the units of its localization, so distinct faces give
        distinct kernels."""
        out = []
        for F in self.faces(A):
            a = A.one
            for x in F - A.units:
                a = A.mul[a][x]
            out.append(self.attach(A, (a,), "right")[1])
        return sorted(out, key=Hom.kernel_sig)


CONTEXT = DeitmarContext()
