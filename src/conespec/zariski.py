"""The zariski context: a branch of a cell r + s = 1 inverts r or s."""

from . import tables
from .contexts import (SpectralContext, _primitive_idempotents,
                       _reflects_invertibility)
from .tables import RING, Hom


class ZariskiContext(SpectralContext):
    name = "zariski"
    kind = RING

    def is_local(self, A):
        if A.is_trivial:
            # excluded by the empty cone with trivial summit
            return False
        non_units = [i for i in range(A.size) if i not in A.units]
        return all(A.add[i][j] not in A.units for i in non_units for j in non_units)

    def is_admissible(self, f):
        return _reflects_invertibility(f)

    def cell_data(self, A):
        return [(r, A.add[A.one][A.neg[r]]) for r in range(A.size)]  # s = 1 - r

    def attach_sig(self, A, datum, branch):
        return tables.inversion_sig(A, self.victim(datum, branch))

    def local_forms(self, A):
        """One per primitive idempotent e, inverting e (the identity for
        e = 1)."""
        out = [self.attach(A, (e, A.add[A.one][A.neg[e]]), "left")[1]
               for e in _primitive_idempotents(A)]
        return sorted(out, key=Hom.kernel_sig)


CONTEXT = ZariskiContext()
