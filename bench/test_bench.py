"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

The known answers are checked against brute force over the generated
tables, relabelling must not change any answer, tracing must not change any
output, and the traced layer times must account for each job's wall time.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import gen
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2)


def prime_ideals(doc: dict) -> list[frozenset]:
    """Prime ideals by brute force; every ideal of a product of Z/n's is
    principal, and a monoid here has at most 9 elements."""
    n, mul = len(doc["elements"]), doc["mul"]
    if doc["kind"] == gen.RING:
        ideals = {frozenset(mul[a][r] for r in range(n)) for a in range(n)}
    else:
        subsets = (frozenset(c) for k in range(n + 1)
                   for c in itertools.combinations(range(n), k))
        ideals = [s for s in subsets
                  if all(mul[i][r] in s for i in s for r in range(n))]
    return [p for p in ideals if doc["one"] not in p
            and all(x in p or y in p for x in range(n) for y in range(n)
                    if mul[x][y] in p)]


def nilpotent_free(doc: dict) -> bool:
    zero, mul = doc["zero"], doc["mul"]
    for x in range(len(doc["elements"])):
        y = x
        for _ in range(len(doc["elements"])):
            y = mul[y][x]
        if y == zero and x != zero:
            return False
    return True


def overlap_points(ctx: str, chart: dict, path: dict) -> int:
    """Points of a chart in the open cut out by a one-step path: where r is
    invertible, or in the domain context where r vanishes."""
    r = path["steps"][0]["datum"][0]
    return sum((r in p) == (ctx == "domain") for p in prime_ideals(chart))


def is_prime_power(q: int) -> bool:
    return len(gen.primes_of(q)) == 1


def brute_force_check(job: workloads.Job) -> None:
    a = job.answer
    if job.command == "spec":
        doc = job.files["in.json"]
        primes = prime_ideals(doc)
        assert a["points"] == len(primes)
        n = len(doc["elements"])
        if "opens" in a:   # every prime maximal, so the space is discrete
            assert not any(p < q for p in primes for q in primes)
            assert a["opens"] == 2 ** len(primes)
        if job.context == "domain":
            assert a["stalks"] == sorted(n // len(p) for p in primes)
            assert (a["epsilon"] == "iso") == nilpotent_free(doc)
        elif job.context == "zariski":
            assert math.prod(a["stalks"]) == n
            assert len(a["stalks"]) == len(primes)
            assert all(is_prime_power(q) for q in a["stalks"])
    elif job.command == "glue":
        doc = job.files["in.json"]
        charts = [c["algebra"] for c in doc["charts"]]
        glued = sum(overlap_points(job.context, charts[ov["i"]], ov["k_i"])
                    for ov in doc["overlaps"])
        assert a["points"] == sum(len(prime_ideals(c)) for c in charts) - glued
    elif "per_form" in a:
        assert a["per_form"] == len(prime_ideals(job.files["in.json"]))
    elif "--hom" in job.args:
        hom = job.files["hom.json"]
        src, dst, f = hom["source"], hom["target"], hom["map"]
        for op in ("mul", "add"):
            assert all(f[src[op][x][y]] == dst[op][f[x]][f[y]]
                       for x in range(len(f)) for y in range(len(f)))
        if job.context == "zariski":
            assert a["verdict"] == (len(src["elements"]) == len(dst["elements"]))
        else:
            assert a["verdict"] == (len(prime_ideals(src))
                                    == len(prime_ideals(dst)))
    elif "verdict" in a:
        doc = job.files["in.json"]
        if job.context == "domain":
            assert a["verdict"] == nilpotent_free(doc)
        else:
            assert a["verdict"] is True


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_known_answers_match_brute_force(workload, seed):
    for job in workloads.jobs(workload, seed):
        brute_force_check(job)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_relabelling_keeps_every_answer(workload):
    a, b = (workloads.jobs(workload, s) for s in SEEDS)
    assert [j.name for j in a] == [j.name for j in b]
    for x, y in zip(a, b):
        assert x.answer == y.answer
        assert x.files != y.files


def run_jobs(workload: str, seed: int, names, traced: bool) -> dict:
    jobs = [j for j in run.setup(workload, seed) if j.name in names]
    assert len(jobs) == len(names)
    return {j.name: run.run_job(j, traced, run.JOB_LIMIT_S) for j in jobs}


CHEAP = {
    "monoids-gluing": ["deitmar-spec-e2xe2", "deitmar-spec-nil3xnil3",
                       "zariski-glue-doubled-z6", "deitmar-glue-p1",
                       "deitmar-nerve-p1", "zariski-nerve-z12"],
    "rings": ["domain-reduced-z30", "zariski-flat-cover-z30"],
}


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_relabelled_runs_print_the_same(workload):
    # spec and glue print no element labels, so their output must not move
    names = [n for n in CHEAP[workload] if "-spec-" in n or "-glue-" in n]
    outs = [{k: (r.exit_code, r.stdout) for k, r in
             run_jobs(workload, seed, names, False).items()} for seed in SEEDS]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_tracing_leaves_stdout_byte_identical(workload):
    names = CHEAP[workload]
    plain = run_jobs(workload, 1, names, False)
    traced = run_jobs(workload, 1, names, True)
    for name in names:
        assert plain[name].decided and traced[name].decided
        assert (plain[name].exit_code, plain[name].stdout) == \
            (traced[name].exit_code, traced[name].stdout)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_times_account_for_each_job(workload):
    for (r,) in (s[0] for s in run.measure(run.setup(workload, 1), (True,), 0)):
        layers = run.job_layers(run.job_stats([r]))
        assert all(v >= -1e-6 for v in r.stats["self_s"].values()), r.job.name
        wall = r.ref_wall_s
        assert abs(sum(layers.values()) - wall) <= 0.1 * wall, \
            (r.job.name, layers, wall)


def bench(*args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    p = bench("--workload", "rings", "--seed", "3", "--seconds", "1",
              "--trace", str(trace), cwd=root)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_program():
    """A checkout holding only BENCHMARK.json and bench/ prints no result."""
    bare = os.path.join(run.WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), bare)
    p = bench("--workload", "rings", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=bare)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
