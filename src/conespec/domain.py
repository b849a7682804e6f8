"""The domain context: a branch of a cell a*b = 0 kills a or b."""

from . import tables
from .contexts import SpectralContext, _primitive_idempotents
from .tables import RING, Hom


class DomainContext(SpectralContext):
    name = "domain"
    kind = RING

    def is_local(self, A):
        if A.is_trivial:
            return False
        return all(
            A.mul[i][j] != A.zero
            for i in range(A.size) if i != A.zero
            for j in range(A.size) if j != A.zero
        )

    def is_admissible(self, f):
        return f.is_injective

    def cell_data(self, A):
        return [(a, b) for a in range(A.size) for b in range(A.size)
                if A.mul[a][b] == A.zero]

    def attach_sig(self, A, datum, branch):
        return tables.ideal_sig(
            tables.principal_ideal(A, self.victim(datum, branch)))

    def localization_sig(self, f):
        return f.kernel_sig()

    def local_forms(self, A):
        """One per primitive idempotent e: the quotient by the prime that
        is the preimage of the maximal ideal of the local factor eA."""
        out = []
        for e in _primitive_idempotents(A):
            eA = sorted({A.mul[e][r] for r in range(A.size)})
            units_eA = {x for x in eA if any(A.mul[x][y] == e for y in eA)}
            prime = frozenset(r for r in range(A.size)
                              if A.mul[e][r] not in units_eA)
            out.append(tables.quotient_by_sig(
                A, tables.ideal_sig(tables.Ideal(A, prime)))[1])
        return sorted(out, key=Hom.kernel_sig)


CONTEXT = DomainContext()
