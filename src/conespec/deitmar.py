"""The deitmar context on monoids: a branch of a cell a keeps or inverts a."""

from __future__ import annotations

from . import tables
from .contexts import (SpectralContext, _reflects_invertibility, extend_path,
                       identity_path)
from .tables import MONOID


class DeitmarContext(SpectralContext):
    name = "deitmar"
    kind = MONOID

    def is_local(self, A):
        return True

    def is_admissible(self, f):
        return _reflects_invertibility(f)

    def cell_data(self, A):
        return [(a,) for a in range(A.size)]

    def victim(self, datum, branch):
        # the left branch is the trivial cone component
        return None if branch == "left" else datum[0]

    def attach_sig(self, A, datum, branch):
        if branch == "left":
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

    def local_forms_direct(self, A):
        out = {}
        for F in self.faces(A):
            path = identity_path(A)
            for a in sorted(F):
                img = path.composite.map[a]
                if img in path.target.units:
                    continue
                path = extend_path(self, path, (img,), "right")
            out.setdefault(path.sig, path)
        return sorted(out.values(), key=lambda p: p.sig)


CONTEXT = DeitmarContext()
