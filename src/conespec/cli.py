"""Batch front-end: spec, check, glue and nerve subcommands.

Exit codes: 0 success (or property true), 1 property false, 2 input error,
3 resource bound exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

from . import contexts as cx
from . import io as cio
from . import spectrum as sp
from . import tables
from .errors import (
    CocycleViolation,
    DidNotStabilize,
    InvalidDatum,
    InvariantViolation,
    KindMismatch,
    SizeBound,
    ValidationError,
)


def _deferred(layer: str):
    """The module of `layer`, registered in sys.modules and on the package,
    whose body runs on its first attribute read.  A layer already imported is
    returned as it is, so that each layer has one module object."""
    name = f"{__package__}.{layer}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    setattr(sys.modules[__package__], layer, module)
    spec.loader.exec_module(module)
    return module


# deferred: uncached imports are compiled, and no subcommand runs all three
gl, hc, red = map(_deferred, ("glue", "hypercover", "reduction"))

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_BUG = 4


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _check_bounds(args, *algebras) -> None:
    if args.size_bound < 1 or (args.rounds is not None and args.rounds < 1):
        raise ValidationError("bounds must be at least 1", args.size_bound)
    if any(R.size > args.size_bound for R in algebras):
        raise SizeBound("input algebra exceeds the size bound", args.size_bound)


def cmd_spec(args) -> int:
    ctx = cx.get_context(args.context)
    R = cio.algebra_from_dict(cio.load_json(args.input))
    _check_bounds(args, R)
    X = sp.build_spec(ctx, R)
    # every section, before any file, as each is built on its first read
    sections = cio.dumps(cio.space_to_dict(X))
    stem = _stem(args.input)
    _write(args.out_dir, f"{stem}.topology.dot", cio.specialization_dot(X))
    _write(args.out_dir, f"{stem}.sections.json", sections)
    _write(args.out_dir, f"{stem}.stalks.json", cio.dumps(
        {str(p): cio.algebra_to_dict(X.stalk(p)) for p in range(X.n_points)}))
    _, eps = sp.global_sections(X)
    verdict = "iso" if eps is not None and eps.is_bijective else "not-iso"
    print(f"points={X.n_points} opens={len(X.opens)} epsilon={verdict}")
    return EXIT_OK


# the file options each property reads; the others read only --input
_PROPERTY_FILES = {"geometric-iso": ("hom",), "flat-cover": ("input", "cover")}


def cmd_check(args) -> int:
    ctx = cx.get_context(args.context)
    prop = args.property
    for name in _PROPERTY_FILES.get(prop, ("input",)):
        if getattr(args, name) is None:
            raise ValidationError(f"--property {prop} needs --{name}", name)
    if prop == "geometric-iso":
        f = cio.hom_from_dict(cio.load_json(args.hom))
        _check_bounds(args, f.source, f.target)
        verdict, cert = red.geometric_iso(ctx, f)
        if verdict:
            certificate = {"isos": [list(h.map) for h in cert["isos"]]}
        elif "failing_form" in cert:
            certificate = {"failing_form": cert["failing_form"],
                           "comparison": list(cert["comparison"].map)}
        else:
            certificate = {"extra_form_sig": list(cert["extra_form_sig"])}
    else:
        R = cio.algebra_from_dict(cio.load_json(args.input))
        _check_bounds(args, R)
        if prop in ("reduced", "mono-reduced"):
            verdict, h = red.reduced(
                ctx, R, "admissible" if prop == "reduced" else "mono")
            certificate = {"canonical_map": list(h.map)}
            if prop == "reduced" and not verdict:
                collisions = [(x, y) for x in range(R.size)
                              for y in range(x + 1, R.size)
                              if h.map[x] == h.map[y]]
                # prefer naming the element identified with zero
                witness = next((y for x, y in collisions
                                if R.is_ring and x == R.zero),
                               collisions[0][1] if collisions else None)
                certificate["witness"] = R.elements[witness] \
                    if witness is not None else None
        elif prop == "fixed-point":
            verdict, eps = red.fixed_point(ctx, R)
            certificate = {"counit": list(eps.map),
                           "global_sections": eps.target.size}
        elif prop == "flat-cover":
            cover_doc = cio.load_object(args.cover)
            comps = tuple(cio.path_from_dict(ctx, R, p)
                          for p in cio.list_field(cover_doc, "components"))
            cover = hc.Opcover(ctx.name, R, comps)
            if not hc.is_opcover(ctx, cover):
                raise ValidationError("component family is not an opcover",
                                      cover_doc)
            locs = cx.enumerate_localizations(ctx, R, max_rounds=args.rounds)
            per_form = [red.check_flat_wrt_cover(ctx, locs[p.sig], cover)
                        for p in cover.forms]
            verdict = all(per_form)
            certificate = {"per_form": per_form}
        else:
            raise ValidationError(f"unknown property {prop!r}", prop)
    print(cio.dumps({"property": prop, "verdict": verdict,
                     "certificate": certificate}), end="")
    return EXIT_OK if verdict else EXIT_FALSE


def _load_gluing(specs, doc, args) -> gl.GluingSpec:
    charts = tuple(cio._resolve_algebra(c["algebra"])
                   for c in cio.list_field(doc, "charts", dict))
    if not charts:
        raise ValidationError("a gluing needs at least one chart", doc)
    _check_bounds(args, *charts)
    overlaps = []
    for ov in cio.list_field(doc, "overlaps", dict):
        i, j = ov["i"], ov["j"]
        for v in (i, j):
            if type(v) is not int or not 0 <= v < len(charts):
                raise ValidationError(f"overlap chart index {v!r} out of range",
                                      ov)
        k_i = cio.path_from_dict(specs.ctx, charts[i], ov["k_i"])
        k_j = cio.path_from_dict(specs.ctx, charts[j], ov["k_j"])
        g = None
        if "iso" in ov:
            iso = ov["iso"]
            mapping = iso.get("map") if isinstance(iso, dict) else None
            if not isinstance(mapping, list) or not all(
                    type(v) is int for v in mapping):
                raise ValidationError(
                    "overlap iso is not {\"map\": [element indices]}", ov)
            g = tables.Hom(k_j.target, k_i.target, tuple(mapping))
            if not tables.is_hom(g) or not g.is_bijective:
                raise ValidationError("overlap iso is not an isomorphism", ov)
        overlaps.append(gl.make_overlap(specs, charts, i, j, k_i, k_j, g))
    return gl.GluingSpec(charts, tuple(overlaps))


def cmd_glue(args) -> int:
    doc = cio.load_object(args.input)
    specs = sp.Specs(cx.get_context(doc.get("context", args.context)))
    X = gl.glue(specs, _load_gluing(specs, doc, args))
    stem = _stem(args.input)
    _write(args.out_dir, f"{stem}.space.json", cio.dumps(cio.space_to_dict(X)))
    _write(args.out_dir, f"{stem}.topology.dot", cio.specialization_dot(X))
    verdict, _ = gl.is_affine(specs, X)
    print(f"points={X.n_points} affine={'true' if verdict else 'false'}")
    return EXIT_OK


def _space_from_input(specs, doc, args):
    if "charts" in doc:
        return gl.glue(specs, _load_gluing(specs, doc, args))
    R = cio.algebra_from_dict(doc)
    _check_bounds(args, R)
    return specs[R]


def cmd_nerve(args) -> int:
    if args.site != "default":
        raise ValidationError(f"unknown site {args.site!r}", args.site)
    if args.site_max < 1:
        raise ValidationError("--site-max must be at least 1", args.site_max)
    doc = cio.load_object(args.input)
    ctx = cx.get_context(doc.get("context", args.context))
    specs = sp.Specs(ctx)
    X = _space_from_input(specs, doc, args)
    site = tuple(A for A in gl.default_site(ctx) if A.size <= args.site_max)
    table = gl.nerve(specs, X, site)
    covers = []
    for A in site:
        locs = cx.enumerate_localizations(ctx, A)
        pointwise = [locs[p.sig] for p in cx.local_forms(ctx, A)]
        # an identity component fixes every compatible family, so such a
        # cover always meets the sheaf condition
        if pointwise and not any(k.is_identity_class for k in pointwise):
            covers.append(hc.Opcover(ctx.name, A, tuple(pointwise)))
    # N(X)(K) per algebra K, shared by the sheaf checks so each is computed once
    values = dict(zip(site, table))
    sheaf_ok = all(gl.nerve_sheaf_condition(specs, X, c, values)
                   for c in covers)
    report = {
        "site": [list(A.elements) for A in site],
        "counts": {str(s): len(maps) for s, maps in enumerate(table)},
        "sheaf_condition": "PASS" if sheaf_ok else "FAIL",
    }
    print(cio.dumps(report), end="")
    return EXIT_OK if sheaf_ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conespec")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--context", default="zariski",
                       choices=["zariski", "domain", "deitmar"])
        p.add_argument("--size-bound", type=int, default=4096)
        p.add_argument("--rounds", type=int, default=None)

    p = sub.add_parser("spec", help="compute Spec of an algebra")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("check", help="check a property")
    common(p)
    p.add_argument("--property", required=True,
                   choices=["reduced", "mono-reduced", "fixed-point",
                            "geometric-iso", "flat-cover"])
    p.add_argument("--input")
    p.add_argument("--hom")
    p.add_argument("--cover")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("glue", help="glue charts into a space")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("nerve", help="nerve report over a finite site")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--site", default="default")
    p.add_argument("--site-max", type=int, default=4)
    p.set_defaults(func=cmd_nerve)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, KindMismatch, InvalidDatum, CocycleViolation,
            FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SizeBound, DidNotStabilize) as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_BUG
    except Exception as exc:  # so that exit code 1 only means "false"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
