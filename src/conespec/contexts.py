"""Pluggable spectral contexts.

A context fixes the cone set semantically: which algebras it accepts, what a
cell attachment at an object is, which objects are local, and which maps are
admissible.  Three contexts are provided:

* ``zariski``  — rings; cells are pairs (r, s) with r + s = 1, a branch
  inverts r or s; local objects are nontrivial local rings; admissible maps
  reflect invertibility.
* ``domain``   — rings; cells are pairs (a, b) with a*b = 0, a branch kills
  a or b by a quotient; local objects are nontrivial integral domains;
  admissible maps are injective.
* ``deitmar``  — monoids; a cell is an element a, a branch is trivial or
  inverts a; every monoid is local; admissible maps reflect invertibility.

Because localizations of finite table algebras are surjective, the kernel
partition of the composite identifies a finite localization up to
isomorphism over its source; that signature is the dedup key everywhere.
Each context gives the signature of one attachment (`attach_sig`) without
building its quotient, so the localization search and `factorize` compare
signatures first and build a quotient only for a class they keep.
"""

from __future__ import annotations

from . import tables
from .errors import DidNotStabilize, InvalidDatum, InvariantViolation, KindMismatch
from .tables import MONOID, RING, FiniteAlgebra, Hom, compose, identity, normalize_sig


class CellDatum:
    def __init__(self, context: str, data: tuple[int, ...]):
        self.context = context
        self.data = data

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.context, self.data) == (other.context, other.data)

    def __hash__(self):
        return hash((self.context, self.data))


class LocalizationPath:
    """A finite composite of single-cell attachments."""

    def __init__(self, source: FiniteAlgebra,
                 steps: tuple[tuple[CellDatum, str], ...],
                 target: FiniteAlgebra, composite: Hom):
        self.source = source
        self.steps = steps
        self.target = target
        self.composite = composite

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.steps, self.target, self.composite) ==
                (other.source, other.steps, other.target, other.composite))

    def __hash__(self):
        return hash((self.source, self.steps, self.target, self.composite))

    @property
    def sig(self) -> tuple[int, ...]:
        return self.composite.kernel_sig()

    @property
    def is_identity_class(self) -> bool:
        return self.composite.is_bijective


def identity_path(R: FiniteAlgebra) -> LocalizationPath:
    return LocalizationPath(R, (), R, identity(R))


BRANCHES = ("left", "right")


class SpectralContext:
    name: str
    kind: str

    def accepts(self, A: FiniteAlgebra) -> None:
        if A.kind != self.kind:
            raise KindMismatch(f"context {self.name} expects a {self.kind}")

    # interface -----------------------------------------------------------
    def is_local(self, A: FiniteAlgebra) -> bool:
        raise NotImplementedError

    def is_admissible(self, f: Hom) -> bool:
        raise NotImplementedError

    def cell_data(self, A: FiniteAlgebra) -> list[CellDatum]:
        raise NotImplementedError

    def attach_sig(self, A, datum, branch) -> tuple[int, ...]:
        """Kernel partition of the attachment map out of A (not built)."""
        raise NotImplementedError

    def victim(self, datum, branch):
        """The element an attachment kills or inverts; None for the identity.

        A branch of a pair datum acts on the pair's matching entry.
        """
        return datum.data[0 if branch == "left" else 1]

    def attach(self, A, datum, branch):
        """The attachment as (quotient, quotient map)."""
        return tables.quotient_by_sig(A, self.attach_sig(A, datum, branch))

    def attachments(self, A):
        """The (datum, branch) pairs of A in scan order, skipping any whose
        victim an earlier pair already had, since its step would be the same."""
        seen = set()
        for datum in self.cell_data(A):
            for branch in BRANCHES:
                v = self.victim(datum, branch)
                if v not in seen:
                    seen.add(v)
                    yield datum, branch

    def local_forms_direct(self, A) -> list[LocalizationPath]:
        """Context-specific enumeration (the prime-ideal route)."""
        raise NotImplementedError

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


class ZariskiContext(SpectralContext):
    name = "zariski"
    kind = RING

    def is_local(self, A):
        self.accepts(A)
        if A.is_trivial:
            # excluded by the empty cone with trivial summit
            return False
        non_units = [i for i in range(A.size) if i not in A.units]
        return all(A.add[i][j] not in A.units for i in non_units for j in non_units)

    def is_admissible(self, f):
        self.accepts(f.source)
        self.accepts(f.target)
        return _reflects_invertibility(f)

    def cell_data(self, A):
        self.accepts(A)
        out = []
        for r in range(A.size):
            s = A.add[A.one][A.neg[r]]  # s = 1 - r
            out.append(CellDatum(self.name, (r, s)))
        return out

    def attach_sig(self, A, datum, branch):
        r, s = datum.data
        if A.add[r][s] != A.one:
            raise InvalidDatum("r + s must equal 1")
        return tables.inversion_sig(A, self.victim(datum, branch))

    def local_forms_direct(self, A):
        self.accepts(A)
        if A.is_trivial:
            return []
        out = []
        for e in _primitive_idempotents(A):
            if e == A.one:
                out.append(identity_path(A))
            else:
                datum = CellDatum(self.name, (e, A.add[A.one][A.neg[e]]))
                out.append(extend_path(self, identity_path(A), datum, "left"))
        for p in out:
            if not self.is_local(p.target):
                raise InvariantViolation("localization at a prime is not local")
        return sorted(out, key=lambda p: p.sig)


class DomainContext(SpectralContext):
    name = "domain"
    kind = RING

    def is_local(self, A):
        self.accepts(A)
        if A.is_trivial:
            return False
        return all(
            A.mul[i][j] != A.zero
            for i in range(A.size) if i != A.zero
            for j in range(A.size) if j != A.zero
        )

    def is_admissible(self, f):
        self.accepts(f.source)
        self.accepts(f.target)
        return f.is_injective

    def cell_data(self, A):
        self.accepts(A)
        return [
            CellDatum(self.name, (a, b))
            for a in range(A.size)
            for b in range(A.size)
            if A.mul[a][b] == A.zero
        ]

    def attach_sig(self, A, datum, branch):
        a, b = datum.data
        if A.mul[a][b] != A.zero:
            raise InvalidDatum("a * b must equal 0")
        return tables.ideal_sig(
            tables.principal_ideal(A, self.victim(datum, branch)))

    def local_forms_direct(self, A):
        self.accepts(A)
        if A.is_trivial:
            return []
        out = []
        for e in _primitive_idempotents(A):
            # p = preimage of the maximal ideal of the local factor eA
            eA = sorted({A.mul[e][r] for r in range(A.size)})
            units_eA = {x for x in eA if any(A.mul[x][y] == e for y in eA)}
            prime = [r for r in range(A.size) if A.mul[e][r] not in units_eA]
            path = identity_path(A)
            while True:
                img = sorted({path.composite.map[r] for r in prime})
                live = [x for x in img if x != path.target.zero]
                if not live:
                    break
                datum = CellDatum(self.name, (live[0], path.target.zero))
                path = extend_path(self, path, datum, "left")
            if not self.is_local(path.target):
                raise InvariantViolation("prime quotient is not a domain")
            out.append(path)
        return sorted(out, key=lambda p: p.sig)


class DeitmarContext(SpectralContext):
    name = "deitmar"
    kind = MONOID

    def is_local(self, A):
        self.accepts(A)
        return True

    def is_admissible(self, f):
        self.accepts(f.source)
        self.accepts(f.target)
        return _reflects_invertibility(f)

    def cell_data(self, A):
        self.accepts(A)
        return [CellDatum(self.name, (a,)) for a in range(A.size)]

    def victim(self, datum, branch):
        # the left branch is the trivial cone component
        return None if branch == "left" else datum.data[0]

    def attach_sig(self, A, datum, branch):
        (a,) = datum.data
        if branch == "left":
            return tuple(range(A.size))
        return tables.inversion_sig(A, a)

    def faces(self, A) -> list[frozenset[int]]:
        """Saturated submonoids; their complements are the prime ideals.

        The faces are the sets F(a) of divisors of powers of a: F(a) is a
        face, and a face F is F(a) for a the product of its elements.
        """
        self.accepts(A)
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
        faces = self.faces(A)
        out = {}
        for F in faces:
            path = identity_path(A)
            for a in sorted(F):
                img = path.composite.map[a]
                if img in path.target.units:
                    continue
                path = extend_path(self, path, CellDatum(self.name, (img,)), "right")
            out.setdefault(path.sig, path)
        if len(out) != len(faces):
            raise InvariantViolation("points do not match the prime ideals")
        return sorted(out.values(), key=lambda p: p.sig)


_CONTEXTS = {
    "zariski": ZariskiContext(),
    "domain": DomainContext(),
    "deitmar": DeitmarContext(),
}


def get_context(name: str) -> SpectralContext:
    if not isinstance(name, str) or name not in _CONTEXTS:
        raise KindMismatch(f"unknown context {name!r}")
    return _CONTEXTS[name]


# ---------------------------------------------------------------------------
# paths


def extend_path(ctx, path: LocalizationPath, datum: CellDatum, branch: str,
                precomputed=None) -> LocalizationPath:
    Q, step = precomputed if precomputed is not None else ctx.attach(
        path.target, datum, branch)
    return LocalizationPath(
        path.source,
        path.steps + ((datum, branch),),
        Q,
        compose(path.composite, step),
    )


def _is_identity_sig(sig) -> bool:
    return max(sig) + 1 == len(sig)


def _refines(sig, values) -> bool:
    """Whether the partition `sig` refines the kernel of `values`."""
    image: dict = {}
    return all(image.setdefault(c, y) == y for c, y in zip(sig, values))


def enumerate_localizations(ctx, R, max_rounds: int | None = None
                            ) -> dict[tuple, LocalizationPath]:
    """All finite localizations of R up to iso over R, keyed by signature.

    Breadth-first over single-cell attachments; the first (hence shortest,
    lexicographically least in discovery order) path represents its class.
    An attachment's signature over R is its step signature read through the
    path's map, so only a new class has its quotient built.  With
    `max_rounds`, raises DidNotStabilize if a round after that many still
    finds new classes.
    """
    ctx.accepts(R)
    start = identity_path(R)
    found = {start.sig: start}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise DidNotStabilize(max_rounds)
        new = []
        for path in frontier:
            K = path.target
            for datum, branch in ctx.attachments(K):
                step_sig = ctx.attach_sig(K, datum, branch)
                if _is_identity_sig(step_sig):
                    continue
                sig = normalize_sig(step_sig[x] for x in path.composite.map)
                if sig not in found:
                    found[sig] = extend_path(ctx, path, datum, branch,
                                             tables.quotient_by_sig(K, step_sig))
                    new.append(found[sig])
        frontier = new
    return found


def local_forms(ctx, R) -> list[LocalizationPath]:
    """One local form per isomorphism class over R (direct enumeration)."""
    return ctx.local_forms_direct(R)


# ---------------------------------------------------------------------------
# the (localization, admissible) factorization


def factorize(ctx, f: Hom, shuffle_seed: int | None = None):
    """Factor f as an admissible map after a finite localization.

    Returns (path, admissible).  With `shuffle_seed` the cell scan order is
    randomized, which must not change the result up to iso over the source
    (uniqueness of the factorization).
    """
    ctx.accepts(f.source)
    ctx.accepts(f.target)
    rng = None
    if shuffle_seed is not None:
        import random
        rng = random.Random(shuffle_seed)
    path = identity_path(f.source)
    g = f
    while True:
        K = path.target
        options = list(ctx.attachments(K))
        if rng is not None:
            rng.shuffle(options)
        for datum, branch in options:
            # g factors through the step iff the step's kernel refines g's
            sig = ctx.attach_sig(K, datum, branch)
            if _is_identity_sig(sig) or not _refines(sig, g.map):
                continue
            Q, step = tables.quotient_by_sig(K, sig)
            path = extend_path(ctx, path, datum, branch, (Q, step))
            g = tables.induced(step, g)
            break
        else:
            break
    if not ctx.is_admissible(g):
        raise InvariantViolation("residual factor is not admissible")
    return path, g


def multi_reflection(ctx, f: Hom):
    """The unique factoring of f: R -> Q (Q local) through a local form.

    Returns (local_form, admissible_map); raises if existence or uniqueness
    fails, which would contradict the multi-reflection theorem.
    """
    hits = []
    for p in local_forms(ctx, f.source):
        h = tables.induced(p.composite, f)
        if h is not None and ctx.is_admissible(h):
            hits.append((p, h))
    if len(hits) != 1:
        raise InvariantViolation(
            f"expected exactly one local form under the map, got {len(hits)}"
        )
    return hits[0]
