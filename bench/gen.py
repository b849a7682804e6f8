"""Seeded benchmark inputs and their known answers.

Every algebra is built here from its definition, without importing conespec,
and every expected answer is derived from theory, never from a conespec run:

- zariski and domain points of Z/n (or of a product of Z/n's) are its prime
  ideals; zariski stalks are the local factors (prime-power parts of n);
- every finite ring is affine in the zariski context, so the counit
  R -> Gamma(Spec R) is an iso and R is reduced and mono-reduced there;
- in the domain context the stalks are the residue fields, so the fixed-point,
  reduced and mono-reduced properties hold exactly when n is squarefree;
- deitmar points of a product monoid are products of faces (e2: 2,
  chain3: 3, nil3: 2, c_n: 1) and every monoid is a deitmar fixed point;
- glued points are the chart points minus the points identified;
- the nerve of Spec Z/n at a site ring S has one element when char S | n
  (the one ring map Z/n -> S) and none otherwise.

A seed relabels the elements, keeping their sort order, and permutes the
table rows; it never changes the algebra, so the answers hold for every seed.  Inputs that refer to
elements by index (hom maps, localization paths) are written in the order
conespec reads them back in: distinguished elements first, then by label.
"""

from __future__ import annotations

import itertools
import random

RING = "ring"
MONOID = "monoid"

# ---------------------------------------------------------------------------
# algebras as conespec JSON documents


def zn(n: int) -> dict:
    r = range(n)
    return {"kind": RING, "elements": [str(i) for i in r],
            "mul": [[i * j % n for j in r] for i in r],
            "add": [[(i + j) % n for j in r] for i in r],
            "zero": 0, "one": 1 % n}


_MONOIDS = {
    # name: (labels, mul); index 0 is the unit
    "e2": (["1", "e"], [[0, 1], [1, 1]]),
    "chain3": (["1", "e", "f"], [[0, 1, 2], [1, 1, 2], [2, 2, 2]]),
    "nil3": (["1", "x", "y"], [[0, 1, 2], [1, 2, 2], [2, 2, 2]]),
}
FACES = {"e2": 2, "chain3": 3, "nil3": 2}   # c<n> has one face


def monoid(name: str) -> dict:
    if name not in _MONOIDS:            # c<n>: the cyclic group of order n
        n = int(name[1:])
        return {"kind": MONOID,
                "elements": ["1"] + [f"g{i}" for i in range(1, n)],
                "mul": [[(i + j) % n for j in range(n)] for i in range(n)],
                "one": 0}
    labels, mul = _MONOIDS[name]
    return {"kind": MONOID, "elements": list(labels),
            "mul": [list(row) for row in mul], "one": 0}


def product(algs: list[dict]) -> dict:
    kind = algs[0]["kind"]
    elems = list(itertools.product(*[range(len(a["elements"])) for a in algs]))
    index = {e: i for i, e in enumerate(elems)}

    def table(op):
        return [[index[tuple(a[op][x][y] for a, x, y in zip(algs, e1, e2))]
                 for e2 in elems] for e1 in elems]

    doc = {"kind": kind,
           "elements": ["(" + ",".join(a["elements"][v] for a, v in zip(algs, e))
                        + ")" for e in elems],
           "mul": table("mul"),
           "one": index[tuple(a["one"] for a in algs)]}
    if kind == RING:
        doc["add"] = table("add")
        doc["zero"] = index[tuple(a["zero"] for a in algs)]
    return doc


def _reorder(doc: dict, order: list[int], labels: list[str]):
    """Element `order[k]` of `doc` becomes element k, labelled `labels[k]`.

    Returns the new document and `pos`, where pos[old index] = new index.
    """
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new
    out = {"kind": doc["kind"], "elements": labels,
           "mul": [[pos[doc["mul"][i][j]] for j in order] for i in order],
           "one": pos[doc["one"]]}
    if doc["kind"] == RING:
        out["add"] = [[pos[doc["add"][i][j]] for j in order] for i in order]
        out["zero"] = pos[doc["zero"]]
    return out, pos


def relabel(doc: dict, rng: random.Random):
    """Fresh labels in the old labels' sort order, and the rows shuffled.

    conespec orders elements by label, so keeping the sort order keeps the
    work the same for every seed.  With labels in a random order the work
    depends on the seed: the three-chart e2 nerve took 1.8 s for some seeds
    and 9 s for others.
    """
    n = len(doc["elements"])
    by_label = sorted(range(n), key=lambda i: doc["elements"][i])
    prefix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    width = len(str(n - 1))
    names = [""] * n
    for rank, i in enumerate(by_label):
        names[i] = f"{prefix}{rank:0{width}d}"
    order = rng.sample(range(n), n)
    return _reorder(doc, order, [names[i] for i in order])


def canonical(doc: dict, rng: random.Random):
    """A relabelled copy whose rows are in the order conespec stores them.

    Hom maps and localization paths address elements by this order.
    """
    doc, pos = relabel(doc, rng)
    dist = {doc["one"], doc.get("zero", doc["one"])}
    order = sorted(range(len(doc["elements"])),
                   key=lambda i: (i not in dist, doc["elements"][i]))
    doc, pos2 = _reorder(doc, order, [doc["elements"][i] for i in order])
    return doc, [pos2[p] for p in pos]


# ---------------------------------------------------------------------------
# number theory for the known answers


def primes_of(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def prime_powers(n: int) -> list[int]:
    out = []
    for p in primes_of(n):
        q = 1
        while n % (q * p) == 0:
            q *= p
        out.append(q)
    return sorted(out)


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in primes_of(n))


def ring_stalks(ns: list[int]) -> list[int]:
    """Zariski stalk sizes of Z/n1 x ... x Z/nk: the local factors."""
    return sorted(q for n in ns for q in prime_powers(n))


# ---------------------------------------------------------------------------
# documents that refer to elements by index


def invert_path(doc: dict, ctx: str, r: int) -> dict:
    """One-step localization path that inverts element r of `doc`.

    zariski: the cell datum (r, 1 - r), left branch; deitmar: (r,), right
    branch.
    """
    if ctx == "deitmar":
        return {"steps": [{"datum": [r], "branch": "right"}]}
    neg_r = doc["add"][r].index(doc["zero"])
    return {"steps": [{"datum": [r, doc["add"][doc["one"]][neg_r]],
                       "branch": "left"}]}


def kill_path(doc: dict, a: int, b: int) -> dict:
    """Domain path: the quotient by (a), where a * b = 0."""
    assert doc["mul"][a][b] == doc["zero"], "not a zero-divisor pair"
    return {"steps": [{"datum": [a, b], "branch": "left"}]}


def gluing(ctx: str, charts: list[dict], overlaps) -> dict:
    """`overlaps` lists (i, j, path on chart i, path on chart j)."""
    return {"context": ctx,
            "charts": [{"algebra": c} for c in charts],
            "overlaps": [{"i": i, "j": j, "k_i": ki, "k_j": kj}
                         for i, j, ki, kj in overlaps]}


def residue_hom(n: int, m: int, rng: random.Random) -> dict:
    """The reduction map Z/n -> Z/m (m | n) between relabelled rings."""
    src, ps = canonical(zn(n), rng)
    dst, pd = canonical(zn(m), rng)
    mapping = [0] * n
    for v in range(n):
        mapping[ps[v]] = pd[v % m]
    return {"source": src, "target": dst, "map": mapping}


def char_of(site_labels: list[str]) -> int:
    """Characteristic of a zariski site ring, from conespec's corpus labels."""
    n = len(site_labels)
    if n == 1:
        return 1
    if all(lab.isdigit() for lab in site_labels):
        return n                                        # Z/n
    return 2                                            # F4, F2[x]/x^2, Z2xZ2
