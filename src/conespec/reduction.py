"""Reduction functors and the geometric-isomorphism test.

red R is the localization part of the canonical map into the product of
local-form targets; mono R is its image.  Geometric isomorphisms are detected
by pushing out along every local form and reducing, which agrees with a
direct comparison of spectra.
"""

from __future__ import annotations

from . import hypercover as hc
from . import spectrum as sp
from . import tables
from .contexts import LocalizationPath, factorize, local_forms
from .errors import InvariantViolation
from .spectrum import build_spec, ell
from .tables import FiniteAlgebra, Hom, compose, pushout


class ReductionResult:
    def __init__(self, cls: str, algebra: FiniteAlgebra, unit: Hom,
                 factor_witness: Hom):
        self.cls = cls                  # "admissible" or "mono"
        self.algebra = algebra
        self.unit = unit
        self.factor_witness = factor_witness


def reduce(ctx, R: FiniteAlgebra, cls: str = "admissible") -> ReductionResult:
    if cls == "admissible":
        return ReductionResult(cls, *sp.reduce_admissible(ctx, R))
    if cls == "mono":
        epi, mono = tables.image_factorization(ell(ctx, R))
        return ReductionResult(cls, epi.target, epi, mono)
    raise ValueError(f"unknown factorization class {cls!r}")


def is_reduced(ctx, R: FiniteAlgebra) -> bool:
    return ctx.is_admissible(ell(ctx, R))


def is_mono_reduced(ctx, R: FiniteAlgebra) -> bool:
    return ell(ctx, R).is_injective


def geometric_iso(ctx, f: Hom):
    """(verdict, certificate) for "f induces an isomorphism of spectra".

    The criterion: pushing S into every local-form target of R and reducing
    must give back that target.  The certificate is the family of comparison
    isos, or the first failing local form.
    """
    R = f.source
    witnesses = []
    for idx, p in enumerate(local_forms(ctx, R)):
        _, _, in_p = pushout(f, p.composite)
        res = reduce(ctx, in_p.target)
        comp = compose(in_p, res.unit)
        if not comp.is_bijective:
            return False, {"failing_form": idx, "comparison": comp}
        witnesses.append(comp)
    # surjectivity on points: every local form of S must come from one of R
    for q in local_forms(ctx, f.target):
        path, _ = factorize(ctx, compose(f, q.composite))
        if not any(path.sig == p.sig for p in local_forms(ctx, R)):
            return False, {"extra_form_sig": path.sig}
    return True, {"isos": witnesses}


def is_geometric_iso(ctx, f: Hom) -> bool:
    return geometric_iso(ctx, f)[0]


def is_fixed_point(ctx, R: FiniteAlgebra) -> bool:
    """Is the counit R -> global sections of Spec R an isomorphism?"""
    _, eps = sp.global_sections(build_spec(ctx, R))
    return eps.is_bijective


def check_flat_wrt_cover(ctx, p: LocalizationPath, cover: hc.Opcover) -> bool:
    """Pushout along p commutes with the Čech limit of this cover."""
    if p.source != cover.base:
        raise InvariantViolation("localization does not start at the cover base")
    H, eta = hc.cech_h0(ctx, cover)
    _, _, side1 = pushout(eta, p.composite)        # p_*(H0 K)
    pushed = hc.pushout_opcover(ctx, cover, p.composite)
    H2, eta2 = hc.cech_h0(ctx, pushed)             # H0(p_* K)
    # compare as objects under target(p)
    if side1.target.size != H2.size:
        return False
    for iso in tables.iter_isomorphisms(side1.target, H2):
        if compose(side1, iso) == eta2:
            return True
    return False


def distop_lattice_bijection(ctx, R: FiniteAlgebra) -> bool:
    """Distinguished opens of Spec R and Spec(red R) match along the unit."""
    res = reduce(ctx, R)
    m = sp.spec_map(ctx, res.unit)
    basis_R = sp.distinguished_opens(ctx, R)
    basis_red = sp.distinguished_opens(ctx, res.algebra)
    image = {U: m.preimage(U) for U in basis_R}
    if set(image.values()) != basis_red:
        return False
    return len(set(image.values())) == len(basis_R)
