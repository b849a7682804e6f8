"""The workloads: fixed job lists, seeded inputs and known answers.

A job is one `conespec` command line.  Its inputs come from `gen` and its
`answer` from theory (see `gen`), never from a conespec run.  `Job.check`
returns None when the output agrees with the answer and a message when it
does not.  `refusal` is the stderr text of the bound refusal a job is known
to hit today (exit 3); such a run is undecided, but it is not a wrong answer.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import gen


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    job_dir: str


@dataclass
class Job:
    name: str
    context: str
    command: str
    args: list[str]                     # after `<command> --context <ctx>`
    files: dict[str, object]            # input file name -> JSON document
    answer: dict
    refusal: str | None = None

    def argv(self) -> list[str]:
        return [self.command, "--context", self.context, *self.args]

    def check(self, o: Outcome) -> str | None:
        a = self.answer
        if self.command in ("spec", "glue"):
            if o.exit_code != 0:
                return f"exit {o.exit_code}"
            fields = dict(kv.split("=", 1) for kv in o.stdout.split()
                          if "=" in kv)
            for key in ("points", "opens", "epsilon", "affine"):
                if key in a and fields.get(key) != str(a[key]):
                    return f"{key}: expected {a[key]}, got {o.stdout.strip()!r}"
            if "stalks" in a:
                with open(os.path.join(o.job_dir, "out", "in.stalks.json"),
                          encoding="utf-8") as fh:
                    got = sorted(len(s["elements"]) for s in json.load(fh).values())
                if got != a["stalks"]:
                    return f"stalk sizes: expected {a['stalks']}, got {got}"
            return None
        try:
            out = json.loads(o.stdout)
        except json.JSONDecodeError:
            return f"exit {o.exit_code}, no JSON on stdout"
        if "verdict" in a:
            if o.exit_code != (0 if a["verdict"] else 1) \
                    or out.get("verdict") is not a["verdict"]:
                return f"expected verdict {a['verdict']}, got exit {o.exit_code}"
        if "per_form" in a:
            per_form = out["certificate"]["per_form"]
            if len(per_form) != a["per_form"] \
                    or o.exit_code != (0 if all(per_form) else 1):
                return f"per_form {per_form} for {a['per_form']} points"
        if "sheaf_condition" in a:
            if o.exit_code != 0 or out["sheaf_condition"] != a["sheaf_condition"]:
                return f"expected PASS, got exit {o.exit_code}"
            n = a.get("char_divides")
            for s, labels in enumerate(out["site"] if n else ()):
                want = 1 if n % gen.char_of(labels) == 0 else 0
                if out["counts"][str(s)] != want:
                    return f"nerve at {labels}: {out['counts'][str(s)]} != {want}"
        return None


# ---------------------------------------------------------------------------
# job builders


def _label(names) -> str:
    return "x".join(str(n) for n in names)


def ring_spec(ctx: str, ns: list[int], rng) -> Job:
    """Spec of Z/n1 x ... x Z/nk: one point per prime of each factor.

    The space is discrete, since every prime of a finite ring is maximal.
    """
    doc = gen.relabel(gen.product([gen.zn(n) for n in ns]), rng)[0]
    primes = sorted(p for n in ns for p in gen.primes_of(n))
    if ctx == "zariski":
        stalks, epsilon = gen.ring_stalks(ns), "iso"
    else:
        stalks = primes
        epsilon = "iso" if all(gen.squarefree(n) for n in ns) else "not-iso"
    answer = {"points": len(primes), "opens": 2 ** len(primes),
              "epsilon": epsilon, "stalks": stalks}
    return Job(f"{ctx}-spec-{_label('z%d' % n for n in ns)}", ctx, "spec",
               ["--input", "in.json", "--out-dir", "out"], {"in.json": doc},
               answer)


def monoid_spec(names: list[str], rng, refusal=None) -> Job:
    doc = gen.relabel(gen.product([gen.monoid(m) for m in names]), rng)[0]
    points = 1
    for m in names:
        points *= gen.FACES.get(m, 1)
    return Job(f"deitmar-spec-{_label(names)}", "deitmar", "spec",
               ["--input", "in.json", "--out-dir", "out"], {"in.json": doc},
               {"points": points, "epsilon": "iso"}, refusal)


def ring_property(ctx: str, prop: str, n: int, rng) -> Job:
    """reduced / mono-reduced of Z/n."""
    doc = gen.relabel(gen.zn(n), rng)[0]
    verdict = ctx == "zariski" or gen.squarefree(n)
    return Job(f"{ctx}-{prop}-z{n}", ctx, "check",
               ["--property", prop, "--input", "in.json"], {"in.json": doc},
               {"verdict": verdict})


def monoid_fixed_point(names: list[str], rng) -> Job:
    doc = gen.relabel(gen.product([gen.monoid(m) for m in names]), rng)[0]
    return Job(f"deitmar-fixed-point-{_label(names)}", "deitmar", "check",
               ["--property", "fixed-point", "--input", "in.json"],
               {"in.json": doc}, {"verdict": True})


def geometric_iso(ctx: str, n: int, m: int, rng) -> Job:
    """The residue map Z/n -> Z/m.

    zariski: an iso of spectra exactly when the stalks agree, i.e. n == m;
    domain: exactly when n and m have the same primes, because the stalks
    are the residue fields.
    """
    verdict = (n == m if ctx == "zariski"
               else gen.primes_of(n) == gen.primes_of(m))
    return Job(f"{ctx}-geometric-iso-z{n}-z{m}", ctx, "check",
               ["--property", "geometric-iso", "--hom", "hom.json"],
               {"hom.json": gen.residue_hom(n, m, rng)}, {"verdict": verdict})


def flat_cover(n: int, d: int, rng) -> Job:
    """zariski Z/n with the cover where e or 1 - e is invertible.

    e is the idempotent that is 1 mod d and 0 mod n/d (d and n/d coprime).
    The verdict has no closed form; the certificate has one entry per point.
    """
    doc, pos = gen.canonical(gen.zn(n), rng)
    e = next(x for x in range(n) if x % d == 1 % d and x % (n // d) == 0)
    comps = [gen.invert_path(doc, "zariski", pos[e]),
             gen.invert_path(doc, "zariski", pos[(1 - e) % n])]
    return Job(f"zariski-flat-cover-z{n}", "zariski", "check",
               ["--property", "flat-cover", "--input", "in.json",
                "--cover", "cover.json"],
               {"in.json": doc, "cover.json": {"components": comps}},
               {"per_form": len(gen.primes_of(n))})


def _glued(ctx: str, base: dict, element: int, rng, n_charts=2) -> dict:
    """Relabelled copies of Spec(base) glued in a row along one element.

    zariski and deitmar charts overlap where `element` is inverted, domain
    charts where it vanishes (the quotient by it).
    """
    charts, paths = [], []
    for _ in range(n_charts):
        doc, pos = gen.canonical(base, rng)
        charts.append(doc)
        if ctx == "domain":
            r = pos[element]
            partner = next(b for b in range(len(doc["elements"]))
                           if doc["mul"][r][b] == doc["zero"]
                           and b != doc["zero"])
            paths.append(gen.kill_path(doc, r, partner))
        else:
            paths.append(gen.invert_path(doc, ctx, pos[element]))
    return gen.gluing(ctx, charts, [(i, i + 1, paths[i], paths[i + 1])
                                    for i in range(n_charts - 1)])


def glue_zn(ctx: str, n: int, element: int, points: int, rng, **answer) -> Job:
    doc = _glued(ctx, gen.zn(n), element, rng)
    return Job(f"{ctx}-glue-doubled-z{n}", ctx, "glue",
               ["--input", "in.json", "--out-dir", "out"], {"in.json": doc},
               dict(answer, points=points))


def monoid_chart(names: list[str]) -> dict:
    return gen.product([gen.monoid(m) for m in names])


def glue_monoid(name: str, names: list[str], element: int, points: int, rng,
                refusal=None, **answer) -> Job:
    doc = _glued("deitmar", monoid_chart(names), element, rng)
    return Job(f"deitmar-glue-{name}", "deitmar", "glue",
               ["--input", "in.json", "--out-dir", "out"], {"in.json": doc},
               dict(answer, points=points), refusal)


def nerve(name: str, ctx: str, doc: dict, **answer) -> Job:
    return Job(f"{ctx}-nerve-{name}", ctx, "nerve",
               ["--input", "in.json", "--site-max", "4"], {"in.json": doc},
               dict(answer, sheaf_condition="PASS"))


# ---------------------------------------------------------------------------
# the workloads

LIMIT_REFUSAL = "limit search space too large"       # SizeBound, tables.limit
PRODUCT_REFUSAL = "product carrier too large"        # SizeBound, tables.product


def ring_spectra(rng) -> list[Job]:
    # Each job has the layer profile of a larger ring at a quarter of its
    # time, so a run holds about ten samples of each: Z/42 spends 91% in
    # quotient_by_sig as Z/60 does, domain Z/21 and Z/24 split between it and
    # congruence_closure as Z/30 and Z/36 do, and Z/72 is above FULL_CHECK_MAX
    # as Z/120 is.
    return [ring_spec("zariski", [42], rng),
            ring_spec("zariski", [72], rng),
            ring_spec("zariski", [2, 3, 2, 2], rng),
            ring_spec("domain", [21], rng),
            ring_spec("domain", [24], rng)]


def monoid_spectra(rng) -> list[Job]:
    return [monoid_spec(["e2", "e2"], rng),
            monoid_spec(["e2", "nil3"], rng),
            monoid_spec(["nil3", "nil3"], rng),
            monoid_spec(["chain3", "c3"], rng),
            monoid_spec(["e2", "e2", "c2"], rng),
            monoid_spec(["e2", "chain3"], rng),
            monoid_fixed_point(["e2", "chain3"], rng),
            monoid_spec(["chain3", "nil3"], rng, refusal=LIMIT_REFUSAL)]


def ring_checks(rng) -> list[Job]:
    return [ring_property("zariski", "reduced", 72, rng),
            ring_property("zariski", "mono-reduced", 100, rng),
            ring_property("domain", "reduced", 30, rng),
            ring_property("domain", "reduced", 128, rng),
            ring_property("domain", "mono-reduced", 42, rng),
            ring_property("domain", "mono-reduced", 90, rng),
            geometric_iso("zariski", 60, 30, rng),
            geometric_iso("domain", 90, 30, rng),
            flat_cover(30, 2, rng),
            flat_cover(66, 6, rng)]


def gluing_nerves(rng) -> list[Job]:
    # element indices: in Z/n the element v is index v; in a product monoid
    # the last factor varies fastest (e2: 1 e; chain3: 1 e f)
    return [
        # Z/6 = Z/2 x Z/3 doubled at the point (2): invert 3, or kill 2
        glue_zn("zariski", 6, 3, 3, rng, affine="true"),
        # Z/12 = Z/4 x Z/3 doubled at the point (3): invert 4
        glue_zn("zariski", 12, 4, 3, rng, affine="true"),
        glue_zn("domain", 6, 2, 3, rng),
        # P^1 over F1: two copies of Spec e2 glued where e is invertible
        glue_monoid("p1", ["e2"], 1, 3, rng, affine="false"),
        glue_monoid("doubled-e2xe2", ["e2", "e2"], 3, 7, rng,
                    refusal=PRODUCT_REFUSAL),
        nerve("p1", "deitmar", _glued("deitmar", monoid_chart(["e2"]), 1, rng)),
        nerve("e2-three-charts", "deitmar",
              _glued("deitmar", monoid_chart(["e2"]), 1, rng, n_charts=3)),
        nerve("doubled-chain3", "deitmar",
              _glued("deitmar", monoid_chart(["chain3"]), 1, rng)),
        nerve("z12", "zariski", gen.relabel(gen.zn(12), rng)[0],
              char_divides=12),
    ]


# Two workloads rather than four: on a shared two-core machine a run needs
# about a minute to average out the drift in machine speed, and ten such runs
# per workload on each of two commits stay within an hour only for two.  The
# split keeps the ring contexts apart from the monoid and gluing code, so each
# side's optimizations have a workload that bypasses them.
WORKLOADS = {
    "rings": lambda rng: ring_spectra(rng) + ring_checks(rng),
    "monoids-gluing": lambda rng: monoid_spectra(rng) + gluing_nerves(rng),
}


def jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
