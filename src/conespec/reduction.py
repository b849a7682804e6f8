"""Reduction functors and the geometric-isomorphism test.

red R is the localization part of the canonical map ell into the product of
local-form targets.  Geometric isomorphisms are detected by pushing out
along every local form and reducing, which agrees with a direct comparison
of spectra.  Only the fixed-point test reads a spectrum.
"""

from __future__ import annotations

from . import homs
from . import hypercover as hc
from . import spectrum as sp
from . import tables
from .contexts import factorize
from .errors import InvariantViolation
from .tables import FiniteAlgebra, Hom, compose, pushout


def ell_families(ctx, R: FiniteAlgebra):
    """(local forms, families): ell sends r to the family of its images in
    the local-form targets, `families[r]`."""
    forms = ctx.local_forms(R)
    return forms, [tuple(p.map[r] for p in forms)
                   for r in range(R.size)]


def reduce_admissible(ctx, R):
    """Factor ell: R -> product of local forms through a localization.

    Returns (unit: R -> red R, admissible residual).  The factoring
    is computed for the quotient map q: R -> R/ker ell, the image of ell up
    to isomorphism, so the product is never built.  That gives the same
    factoring: q and ell have the same kernel, and the same preimage of the
    units, since a family is a unit of the product exactly when each of its
    coordinates is, and in a finite monoid the units of a submonoid are its
    elements that are units of the ambient monoid (an inverse is a power).
    The localization part reads only these (`localization_sig`), and the
    residuals then differ by the inclusion R/ker ell -> product, which both
    admissibility notions survive.
    """
    _, families = ell_families(ctx, R)
    _, to_image = tables.quotient_by_sig(R, tables.normalize_sig(families))
    return factorize(ctx, to_image)


def reduced(ctx, R: FiniteAlgebra, cls: str = "admissible"):
    """(verdict, ell's map) for "R is reduced" (cls "admissible": ell is
    admissible) or "R is mono-reduced" (cls "mono": ell is injective).

    Both are read from ell's families, and the map gives the index of each
    in the product, which is not built.  ell is injective when the families
    are distinct.  It reflects units (zariski, deitmar) when each family of
    units comes from a unit of R, as a family is a unit of the product
    exactly when each of its coordinates is.
    """
    if cls not in ("admissible", "mono"):
        raise ValueError(f"unknown factorization class {cls!r}")
    forms, families = ell_families(ctx, R)
    index = tables.product_indices(R.kind, [p.target for p in forms],
                                   families)
    if cls == "mono" or ctx.name == "domain":
        return len(set(families)) == R.size, index
    return all(r in R.units for r, f in enumerate(families)
               if all(v in p.target.units for p, v in zip(forms, f))), index


def geometric_iso(ctx, f: Hom):
    """(verdict, certificate) for "f induces an isomorphism of spectra".

    The criterion: pushing S into every local-form target of R and reducing
    must give back that target.  The certificate is the family of comparison
    isos, or the first failing local form.
    """
    forms = ctx.local_forms(f.source)
    witnesses = []
    for idx, p in enumerate(forms):
        _, _, in_p = pushout(f, p)
        unit, _ = reduce_admissible(ctx, in_p.target)
        comp = compose(in_p, unit)
        if not comp.is_bijective:
            return False, {"failing_form": idx, "comparison": comp}
        witnesses.append(comp)
    # surjectivity on points: every local form of S must come from one of R
    kernels = {p.kernel_sig() for p in forms}
    for q in ctx.local_forms(f.target):
        sig = ctx.localization_sig(compose(f, q))
        if sig not in kernels:
            return False, {"extra_form_sig": sig}
    return True, {"isos": witnesses}


def fixed_point(ctx, R: FiniteAlgebra):
    """(verdict, counit) for "the counit R -> global sections of Spec R is
    an isomorphism"."""
    X = sp.build_spec(ctx, R)
    eps = X.canonical[X.total]
    return eps.is_bijective, eps


def check_flat_wrt_cover(p: Hom, cover: hc.Opcover) -> bool:
    """Pushout along p commutes with the Čech limit of this cover."""
    if p.source != cover.base:
        raise InvariantViolation("localization does not start at the cover base")
    H, eta = cover.cech_h0
    _, _, side1 = pushout(eta, p)                  # p_*(H0 K)
    pushed = hc.pushout_opcover(cover, p)
    H2, eta2 = pushed.cech_h0                      # H0(p_* K)
    # compare as objects under target(p)
    if side1.target.size != H2.size:
        return False
    for iso in homs.iter_isomorphisms(side1.target, H2):
        if compose(side1, iso) == eta2:
            return True
    return False
