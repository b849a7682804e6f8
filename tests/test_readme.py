"""The README's library examples run as written."""

from __future__ import annotations

import os
import re

from conespec import glue

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def python_blocks() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(),
                          re.MULTILINE | re.DOTALL)


def test_the_readme_examples_run_in_order_in_one_namespace():
    quick_start, gluing = python_blocks()
    ns: dict = {}
    exec(quick_start, ns)
    X = ns["X"]
    assert X.n_points == 2
    assert [X.stalk(p).size for p in range(X.n_points)] == [2, 3]
    assert X.sections[X.total].size == 6
    exec(gluing, ns)
    assert ns["P1"].n_points == 3
    assert glue.is_affine(ns["specs"], ns["P1"]) is None
