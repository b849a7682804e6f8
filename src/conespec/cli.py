"""Batch front-end: spec, check, glue and nerve subcommands.

Exit codes: 0 success (or property true), 1 property false, 2 input error,
3 resource bound exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from types import SimpleNamespace

from . import contexts as cx
from . import io as cio
from . import tables
from .errors import (
    CocycleViolation,
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


# deferred: uncached imports are compiled, and no subcommand runs all five
# (homs, the hom and iso search, runs only through spectrum and reduction);
# argparse (with gettext and locale) is imported only by build_parser, which
# reads the argv that read_argv leaves: help and usage errors
gl, hc, red, sp = map(_deferred, ("glue", "hypercover", "reduction",
                                  "spectrum"))
_deferred("homs")

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_BUG = 4


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise cio.file_error(exc, path) from None
    return path


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _check_inputs(args, ctx, *algebras) -> None:
    """The size bound, then the kind of each input algebra: the one place
    where either is checked, so that the library assumes both."""
    if args.size_bound < 1:
        raise ValidationError("bounds must be at least 1", args.size_bound)
    if any(R.size > args.size_bound for R in algebras):
        raise SizeBound("input algebra exceeds the size bound", args.size_bound)
    for R in algebras:
        ctx.accepts(R)


def cmd_spec(args) -> int:
    ctx = cx.get_context(args.context)
    R = cio.algebra_from_dict(cio.load_json(args.input))
    _check_inputs(args, ctx, R)
    X = sp.build_spec(ctx, R)
    # every section, before any file, as each is built on its first read
    sections = cio.dumps(cio.space_to_dict(X))
    stem = _stem(args.input)
    _write(args.out_dir, f"{stem}.topology.dot", cio.specialization_dot(X))
    _write(args.out_dir, f"{stem}.sections.json", sections)
    _write(args.out_dir, f"{stem}.stalks.json", cio.dumps(
        {str(p): cio.algebra_to_dict(X.stalk(p)) for p in range(X.n_points)}))
    verdict = "iso" if X.canonical[X.total].is_bijective else "not-iso"
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
        _check_inputs(args, ctx, f.source, f.target)
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
        _check_inputs(args, ctx, R)
        if prop in ("reduced", "mono-reduced"):
            verdict, index = red.reduced(
                ctx, R, "admissible" if prop == "reduced" else "mono")
            certificate = {"canonical_map": index}
            if prop == "reduced" and not verdict:
                collisions = [(x, y) for x in range(R.size)
                              for y in range(x + 1, R.size)
                              if index[x] == index[y]]
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
            comps = tuple(cio.path_from_dict(ctx, R, p) for p in
                          cio.list_field(cover_doc, "components", "cover"))
            cover = hc.Opcover(ctx, R, comps)
            if not hc.is_opcover(cover):
                raise ValidationError("component family is not an opcover",
                                      cover_doc)
            per_form = [red.check_flat_wrt_cover(p, cover)
                        for p in cover.forms]
            verdict = all(per_form)
            certificate = {"per_form": per_form}
        else:
            raise ValidationError(f"unknown property {prop!r}", prop)
    print(cio.dumps({"property": prop, "verdict": verdict,
                     "certificate": certificate}), end="")
    return EXIT_OK if verdict else EXIT_FALSE


def _load_gluing(specs, doc, args) -> gl.GluingSpec:
    charts = tuple(cio._resolve_algebra(cio.field(c, "algebra", "chart"))
                   for c in cio.list_field(doc, "charts", "gluing", dict))
    if not charts:
        raise ValidationError("a gluing needs at least one chart", doc)
    overlap_docs = cio.list_field(doc, "overlaps", "gluing", dict)
    # before any path is read, as the cell data assume the kind
    _check_inputs(args, specs.ctx, *charts)
    overlaps = []
    for ov in overlap_docs:
        i, j = (cio.field(ov, key, "overlap") for key in ("i", "j"))
        for v in (i, j):
            if type(v) is not int or not 0 <= v < len(charts):
                raise ValidationError(f"overlap chart index {v!r} out of range",
                                      ov)
        k_i = cio.path_from_dict(specs.ctx, charts[i],
                                 cio.field(ov, "k_i", "overlap"))
        k_j = cio.path_from_dict(specs.ctx, charts[j],
                                 cio.field(ov, "k_j", "overlap"))
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
        overlaps.append(gl.make_overlap(specs, i, j, k_i, k_j, g))
    return gl.GluingSpec(charts, tuple(overlaps))


def cmd_glue(args) -> int:
    doc = cio.load_object(args.input)
    specs = sp.Specs(cx.get_context(doc.get("context", args.context)))
    X = gl.glue(specs, _load_gluing(specs, doc, args))
    stem = _stem(args.input)
    _write(args.out_dir, f"{stem}.space.json", cio.dumps(cio.space_to_dict(X)))
    _write(args.out_dir, f"{stem}.topology.dot", cio.specialization_dot(X))
    affine = gl.is_affine(specs, X) is not None
    print(f"points={X.n_points} affine={'true' if affine else 'false'}")
    return EXIT_OK


def _space_from_input(specs, doc, args):
    if "charts" in doc:
        return gl.glue(specs, _load_gluing(specs, doc, args))
    R = cio.algebra_from_dict(doc)
    _check_inputs(args, specs.ctx, R)
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
        pointwise = ctx.local_forms(A)
        # an identity component fixes every compatible family, so such a
        # cover always meets the sheaf condition
        if pointwise and not any(k.is_bijective for k in pointwise):
            covers.append(hc.Opcover(ctx, A, tuple(pointwise)))
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


# The command line, defined here once: per subcommand its help, its handler
# and its options, each an option name with the keyword arguments of
# argparse's add_argument.
_COMMON = (
    ("--context", {"default": "zariski",
                   "choices": ("zariski", "domain", "deitmar")}),
    ("--size-bound", {"type": int, "default": 4096}),
)
COMMANDS = {
    "spec": ("compute Spec of an algebra", cmd_spec, _COMMON + (
        ("--input", {"required": True}),
        ("--out-dir", {"default": "."}),
    )),
    "check": ("check a property", cmd_check, _COMMON + (
        ("--property", {"required": True,
                        "choices": ("reduced", "mono-reduced", "fixed-point",
                                    "geometric-iso", "flat-cover")}),
        ("--input", {}),
        ("--hom", {}),
        ("--cover", {}),
    )),
    "glue": ("glue charts into a space", cmd_glue, _COMMON + (
        ("--input", {"required": True}),
        ("--out-dir", {"default": "."}),
    )),
    "nerve": ("nerve report over a finite site", cmd_nerve, _COMMON + (
        ("--input", {"required": True}),
        ("--site", {"default": "default"}),
        ("--site-max", {"type": int, "default": 4}),
    )),
}


def read_argv(argv):
    """The namespace argparse gives for `argv`, read without argparse, when
    argv is a subcommand and then `--option value` pairs: full option names,
    each at most once, no value starting with "-", every value of a valid
    type and choice, and every required option given.  Otherwise None."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, options = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for name, kw in options:
        if name not in given:
            if kw.get("required"):
                return None
            value = kw.get("default")
        else:
            value = given.pop(name)
            if value.startswith("-"):
                return None
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        setattr(args, name[2:].replace("-", "_"), value)
    return None if given else args


def build_parser():
    """The argparse parser of COMMANDS, which prints help and usage errors."""
    import argparse  # loads gettext and locale, which well-formed argv skips

    ap = argparse.ArgumentParser(prog="conespec")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, func, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, kw in options:
            p.add_argument(name, **kw)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, KindMismatch, CocycleViolation) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeBound as exc:
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
