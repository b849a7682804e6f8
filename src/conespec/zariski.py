"""The zariski context: a branch of a cell r + s = 1 inverts r or s."""

from . import tables
from .contexts import (SpectralContext, _primitive_idempotents,
                       _reflects_invertibility, extend_path, identity_path)
from .tables import RING


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
        out = []
        for e in _primitive_idempotents(A):
            if e == A.one:
                out.append(identity_path(A))
            else:
                out.append(extend_path(self, identity_path(A),
                                       (e, A.add[A.one][A.neg[e]]), "left"))
        return sorted(out, key=lambda p: p.sig)


CONTEXT = ZariskiContext()
