"""Every golden command on a mutated golden input: a field dropped or
retyped, a table entry changed, a row, chart or overlap duplicated or
dropped.  The command ends with a defined exit code (0-3, never 4), prints
nothing on stderr when it succeeds and one line when it refuses, and never a
traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import cli
from test_golden import CASES, INPUTS

# values that replace a node of a document: one of each JSON type, and a few
# that the readers look for (an element index, a corpus name, a path)
OTHER_VALUES = (None, True, -1, 0, 2, 1.5, "", "z6", [], {}, [0],
                {"steps": []})


def nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def in_list(path, doc) -> bool:
    return bool(path) and isinstance(at(doc, path[:-1]), list)


def gluing_item(path, doc) -> bool:
    return len(path) == 2 and path[0] in ("charts", "overlaps") and \
        isinstance(doc, dict) and isinstance(doc.get(path[0]), list)


# mutation -> (the nodes it applies to, what it does to the node's parent)
MUTATIONS = {
    "drop a field": (lambda p, v, doc: p and not in_list(p, doc),
                     lambda parent, key, data: parent.pop(key)),
    "retype a node": (lambda p, v, doc: True, None),
    "change a table entry": (
        lambda p, v, doc: type(v) is int and in_list(p, doc),
        lambda parent, key, data: parent.__setitem__(
            key, data.draw(st.integers(-1, 9)))),
    "duplicate a row": (
        lambda p, v, doc: in_list(p, doc),
        lambda parent, key, data: parent.insert(key,
                                                copy.deepcopy(parent[key]))),
    "drop a row": (lambda p, v, doc: in_list(p, doc),
                   lambda parent, key, data: parent.pop(key)),
    "duplicate a chart or overlap": (
        lambda p, v, doc: gluing_item(p, doc),
        lambda parent, key, data: parent.append(copy.deepcopy(parent[key]))),
    "drop a chart or overlap": (lambda p, v, doc: gluing_item(p, doc),
                                lambda parent, key, data: parent.pop(key)),
}


def mutate(doc, data):
    """`doc` after one mutation drawn from `data`, where one applies."""
    name = data.draw(st.sampled_from(sorted(MUTATIONS)))
    applies, change = MUTATIONS[name]
    paths = [p for p, v in nodes(doc) if applies(p, v, doc)]
    if not paths:
        return doc
    path = data.draw(st.sampled_from(paths))
    if change is None:
        value = data.draw(st.sampled_from(OTHER_VALUES))
        if not path:
            return copy.deepcopy(value)
        at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    else:
        change(at(doc, path[:-1]), path[-1], data)
    return doc


def run(argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_golden_commands_on_mutated_inputs_end_with_a_defined_exit(case, data):
    argv = CASES[case]
    files = [a[1:] for a in argv if a.startswith("@")]
    target = data.draw(st.sampled_from(files))
    with open(os.path.join(INPUTS, target), encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        for name in files:
            with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
                text = fh.read() if name != target else json.dumps(doc)
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        code, err = run([os.path.join(tmp, a[1:]) if a.startswith("@")
                         else os.path.join(tmp, "out") if a == "OUT" else a
                         for a in argv])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code in (0, 1):
        assert err == ""
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err
