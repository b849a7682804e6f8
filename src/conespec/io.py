"""JSON and DOT serialization.

Algebra files: {"kind","elements","mul","add"?,"zero"?,"one"}; homs reference
algebras by corpus name or carry them inline.  All emitters sort keys and end
with a newline so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import json

from . import contexts as cx
from .errors import ValidationError
from .tables import FiniteAlgebra, Hom, compose, identity, is_hom, validate


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
    if not isinstance(d, dict):
        raise ValidationError("not an algebra object", d)
    kind = field(d, "kind", "algebra")
    one = d.get("one")
    if one is None:
        raise ValidationError("missing identity index", d)
    zero = d.get("zero")
    if type(one) is not int or (zero is not None and type(zero) is not int):
        raise ValidationError("identity or zero is not an element index", d)
    elements = field(d, "elements", "algebra")
    if not isinstance(elements, list):
        raise ValidationError("algebra field 'elements' is not a list", d)
    return validate(
        kind, elements, _rows(d, "mul"),
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
    source = _resolve_algebra(field(d, "source", "hom object"))
    target = _resolve_algebra(field(d, "target", "hom object"))
    mapping = field(d, "map", "hom object")
    if not isinstance(mapping, list) or not all(
            type(v) is int for v in mapping):
        raise ValidationError("hom map is not a list of element indices", d)
    f = Hom(source, target, tuple(mapping))
    if not is_hom(f):
        raise ValidationError("hom map is not a homomorphism", d)
    return f


def path_from_dict(ctx, R: FiniteAlgebra, d: dict) -> Hom:
    """Read a localization from its steps, checking each against its
    context: the composite of their attachments."""
    steps = d.get("steps", []) if isinstance(d, dict) else None
    if not isinstance(steps, list) or not all(isinstance(s, dict) for s in steps):
        raise ValidationError("path is not an object with a list of steps", d)
    loc = identity(R)
    for step in steps:
        data, branch = step.get("datum"), step.get("branch")
        if branch not in cx.BRANCHES:
            raise ValidationError(f"unknown branch {branch!r}", step)
        if not isinstance(data, list) or not all(type(v) is int for v in data):
            raise ValidationError("step datum is not a list of element indices",
                                  step)
        # the cell data of a context fix the arity, range and relation of a datum
        datum = tuple(data)
        if datum not in ctx.cell_data(loc.target):
            raise ValidationError(f"{data} is not a {ctx.name} cell datum", step)
        loc = compose(loc, ctx.attach(loc.target, datum, branch)[1])
    return loc


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def open_key(U) -> str:
    return ",".join(str(p) for p in sorted(U))


def space_to_dict(X) -> dict:
    return {
        "context": X.ctx_name,
        "points": list(X.point_labels),
        "opens": [sorted(U) for U in X.opens],
        "sections": {open_key(U): algebra_to_dict(X.sections[U])
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


def file_error(exc: OSError, path: str) -> ValidationError:
    """The input error for a file operation on `path` that failed."""
    return ValidationError(str(exc) if exc.filename else f"{exc}: {path!r}",
                           path)


def load_json(path: str):
    """The JSON document in the file `path`; a file that cannot be read, is
    not UTF-8 text or not JSON is an input error that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise file_error(exc, path) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not UTF-8 text: {exc.reason}",
                              path) from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path!r} is not JSON: {exc}", path) from None


def load_object(path: str) -> dict:
    """A JSON document whose top level must be an object."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} does not hold a JSON object", doc)
    return doc


def field(d: dict, key: str, what: str):
    """d[key]; a ValidationError names the field when the object `what`
    lacks it."""
    if key not in d:
        raise ValidationError(f"{what} misses field {key!r}", d)
    return d[key]


def list_field(d: dict, key: str, what: str, item=object) -> list:
    """field(d, key, what), which must be a list of `item` values."""
    value = field(d, key, what)
    if not isinstance(value, list):
        raise ValidationError(f"field {key!r} is not a list", d)
    if not all(isinstance(v, item) for v in value):
        raise ValidationError(f"field {key!r} holds an item of the wrong type", d)
    return value
