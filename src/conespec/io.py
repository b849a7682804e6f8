"""JSON and DOT serialization.

Algebra files: {"kind","elements","mul","add"?,"zero"?,"one"}; homs reference
algebras by corpus name or carry them inline.  All emitters sort keys and end
with a newline so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import json

from . import contexts as cx
from . import corpus
from .contexts import CellDatum, LocalizationPath, identity_path
from .errors import ValidationError
from .tables import FiniteAlgebra, Hom, is_hom, validate


def algebra_to_dict(A: FiniteAlgebra) -> dict:
    out = {
        "kind": A.kind,
        "elements": list(A.elements),
        "mul": [list(row) for row in A.mul],
        "one": A.one,
    }
    if A.is_ring:
        out["add"] = [list(row) for row in A.add]
        out["zero"] = A.zero
    return out


def algebra_from_dict(d: dict) -> FiniteAlgebra:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError("not an algebra object", d)
    one = d.get("one", d.get("unit"))
    if one is None:
        raise ValidationError("missing identity index", d)
    return validate(
        d["kind"], list(d["elements"]),
        [list(r) for r in d["mul"]],
        add=[list(r) for r in d["add"]] if "add" in d else None,
        zero=d.get("zero"), one=one,
    )


def _resolve_algebra(spec) -> FiniteAlgebra:
    if isinstance(spec, str):
        return corpus.by_name(spec)
    return algebra_from_dict(spec)


def hom_from_dict(d: dict) -> Hom:
    try:
        source = _resolve_algebra(d["source"])
        target = _resolve_algebra(d["target"])
        mapping = d["map"]
    except KeyError as exc:
        raise ValidationError(f"hom object misses field {exc}", d) from exc
    if not isinstance(mapping, list) or not all(
            type(v) is int for v in mapping):
        raise ValidationError("hom map is not a list of element indices", d)
    f = Hom(source, target, tuple(mapping))
    if not is_hom(f):
        raise ValidationError("hom map is not a homomorphism", d)
    return f


def hom_to_dict(f: Hom) -> dict:
    return {
        "source": algebra_to_dict(f.source),
        "target": algebra_to_dict(f.target),
        "map": list(f.map),
    }


def path_to_dict(p: LocalizationPath) -> dict:
    return {"steps": [{"datum": list(datum.data), "branch": branch}
                      for (datum, branch) in p.steps]}


def path_from_dict(ctx, R: FiniteAlgebra, d: dict) -> LocalizationPath:
    path = identity_path(R)
    for step in d.get("steps", []):
        datum = CellDatum(ctx.name, tuple(step["datum"]))
        path = cx.extend_path(ctx, path, datum, step["branch"])
    return path


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def open_key(U) -> str:
    return ",".join(str(p) for p in sorted(U))


def space_to_dict(X) -> dict:
    return {
        "context": X.ctx_name,
        "points": list(X.point_labels),
        "opens": [sorted(U) for U in X.opens],
        "sections": {open_key(U): algebra_to_dict(X.sections(U))
                     for U in X.opens},
        "stalks": {str(p): algebra_to_dict(X.stalk(p))
                   for p in range(X.n_points)},
    }


def specialization_dot(X) -> str:
    lines = ["digraph specialization {"]
    for p in range(X.n_points):
        lines.append(f'  "{X.point_labels[p]}";')
    for p, q in X.specialization_order():
        lines.append(f'  "{X.point_labels[p]}" -> "{X.point_labels[q]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
