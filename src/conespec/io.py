"""JSON and DOT serialization.

Algebra files: {"kind","elements","mul","add"?,"zero"?,"one"}; homs reference
algebras by corpus name or carry them inline.  All emitters sort keys and end
with a newline so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import json

from . import contexts as cx
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


def _rows(d: dict, key: str) -> list:
    rows = d.get(key)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"algebra field {key!r} is not a list of rows", d)
    return rows


def algebra_from_dict(d: dict) -> FiniteAlgebra:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError("not an algebra object", d)
    one = d.get("one", d.get("unit"))
    if one is None:
        raise ValidationError("missing identity index", d)
    zero = d.get("zero")
    if type(one) is not int or (zero is not None and type(zero) is not int):
        raise ValidationError("identity or zero is not an element index", d)
    if not isinstance(d.get("elements"), list):
        raise ValidationError("algebra field 'elements' is not a list", d)
    return validate(
        d["kind"], d["elements"], _rows(d, "mul"),
        add=_rows(d, "add") if "add" in d else None, zero=zero, one=one,
    )


def _resolve_algebra(spec) -> FiniteAlgebra:
    if isinstance(spec, str):
        from . import corpus

        if spec not in corpus.names():
            raise ValidationError(f"unknown corpus algebra {spec!r}", spec)
        return corpus.by_name(spec)
    return algebra_from_dict(spec)


def hom_from_dict(d: dict) -> Hom:
    if not isinstance(d, dict):
        raise ValidationError("not a hom object", d)
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
    """Read a localization path, checking each step against its context."""
    steps = d.get("steps", []) if isinstance(d, dict) else None
    if not isinstance(steps, list) or not all(isinstance(s, dict) for s in steps):
        raise ValidationError("path is not an object with a list of steps", d)
    path = identity_path(R)
    for step in steps:
        data, branch = step.get("datum"), step.get("branch")
        if branch not in cx.BRANCHES:
            raise ValidationError(f"unknown branch {branch!r}", step)
        if not isinstance(data, list) or not all(type(v) is int for v in data):
            raise ValidationError("step datum is not a list of element indices",
                                  step)
        # the cell data of a context fix the arity, range and relation of a datum
        datum = CellDatum(ctx.name, tuple(data))
        if datum not in ctx.cell_data(path.target):
            raise ValidationError(f"{data} is not a {ctx.name} cell datum", step)
        path = cx.extend_path(ctx, path, datum, branch)
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


def load_object(path: str) -> dict:
    """A JSON document whose top level must be an object."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} does not hold a JSON object", doc)
    return doc


def list_field(d: dict, key: str, item=object) -> list:
    """d[key], which must be a list of `item` values."""
    value = d[key]
    if not isinstance(value, list):
        raise ValidationError(f"field {key!r} is not a list", d)
    if not all(isinstance(v, item) for v in value):
        raise ValidationError(f"field {key!r} holds an item of the wrong type", d)
    return value
