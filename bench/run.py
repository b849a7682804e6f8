"""conespec benchmark: one workload of CLI jobs, timed end to end.

    python3 bench/run.py --workload rings --seed 1 --seconds 55 --trace 0

Each job is a fresh `conespec` process and jobs run one at a time (a closed
loop with one client), which is what a command-line user pays on every call:
interpreter start-up, import, input validation and empty caches.  The run
cycles through the workload's jobs while `--seconds` last and reports, per
job, the median over its runs.  Every answer is checked against the
known-answer table in `workloads`.

Every time is reported at reference speed.  A shared machine slows every
process, CPU time included, by up to a factor of two in phases that last from
seconds to minutes, longer than a run.  So the run times a fixed pure-Python
loop, the speed probe, before and after each job, and scales the job's times
by REF_PROBE_S over the mean of the two: a job reads the same whether it ran
in a slow phase or a fast one.  The probe runs in this process and imports
nothing from the program, so a change to the program cannot move it.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are one JSON row per
job.  `--trace 0` reports the end-to-end metrics; `--trace 1` runs every job
untraced and then through `traced.py`, and reports the per-layer metrics and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
TRACED = os.path.join(BENCH, "traced.py")

JOB_LIMIT_S = 20.0      # per-job time limit; an undecided job is charged it
DEADLINE_S = 150.0      # cap on --seconds, so that a run ends within 180 s
SETUP_REPEATS = 5       # set-ups before and again after the measured runs
REF_PROBE_S = 0.025     # speed-probe time that defines the reference speed
CLI = "import sys; from conespec.cli import main; sys.exit(main())"
ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


@dataclass
class Run:
    """One execution of one job."""
    job: workloads.Job
    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    decided: bool
    wrong: str | None       # why the answer is wrong, if it is
    stdout: str
    stderr: str
    stats: dict | None = None   # layer totals of a traced run
    scale: float = 1.0          # reference speed over the machine's speed

    @property
    def failed(self) -> bool:
        """Undecided for any reason other than the job's known refusal."""
        if self.decided:
            return False
        known = (self.job.refusal is not None and self.exit_code == 3
                 and self.job.refusal in self.stderr)
        return not known

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale

    @property
    def charged_s(self) -> float:
        return self.ref_wall_s if self.decided else JOB_LIMIT_S


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed now."""
    rows = [[i * j % 13 for j in range(13)] for i in range(13)]
    start = time.perf_counter()
    total = 0
    for k in range(250_000):
        row = rows[k % 13]
        total += row[k * 7 % 13] + len(row)
    return time.perf_counter() - start


def spawn(argv: list[str], cwd: str, limit: float):
    """Run argv in cwd; return (exit code, wall s, cpu s, max-RSS MiB).

    Output goes to files in cwd.  The child is killed after `limit` seconds
    and then reports exit code -9.
    """
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                if not select.select([fd], [], [], limit)[0]:
                    os.kill(proc.pid, signal.SIGKILL)
                wall = time.perf_counter() - start
            finally:
                os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:       # never leave a child running
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def job_dir(job: workloads.Job) -> str:
    return os.path.join(WORK, job.name)


def run_job(job: workloads.Job, traced: bool, limit: float) -> Run:
    cwd = job_dir(job)
    shutil.rmtree(os.path.join(cwd, "out"), ignore_errors=True)
    stats_path = os.path.join(cwd, "stats.json")
    if traced:
        argv = [sys.executable, TRACED, stats_path, *job.argv()]
    else:
        argv = [sys.executable, "-c", CLI, *job.argv()]
    code, wall, cpu, rss = spawn(argv, cwd, limit)
    with open(os.path.join(cwd, "stdout.txt"), encoding="utf-8") as fh:
        stdout = fh.read()
    with open(os.path.join(cwd, "stderr.txt"), encoding="utf-8") as fh:
        stderr = fh.read()
    wrong = None
    decided = False
    if code in (0, 1):
        wrong = job.check(workloads.Outcome(code, stdout, cwd))
        decided = wrong is None
    stats = None
    if traced and os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        os.remove(stats_path)
    return Run(job, code, wall, cpu, rss, decided, wrong, stdout, stderr,
               stats)


def setup(workload: str, seed: int) -> list[workloads.Job]:
    """Generate the inputs and known answers and start one warm-up process."""
    shutil.rmtree(WORK, ignore_errors=True)
    jobs = workloads.jobs(workload, seed)
    for job in jobs:
        os.makedirs(job_dir(job))
        for name, doc in job.files.items():
            with open(os.path.join(job_dir(job), name), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh)
    code, *_ = spawn([sys.executable, "-c", "import conespec.cli"], WORK,
                     JOB_LIMIT_S)
    if code != 0:
        with open(os.path.join(WORK, "stderr.txt"), encoding="utf-8") as fh:
            sys.exit(f"conespec does not import: {fh.read().strip()}")
    return jobs


def measure(jobs, modes: tuple[bool, ...], seconds: float) -> list[list[tuple]]:
    """Run the jobs in turn, over and over, while `seconds` last.

    The first pass always completes; after it a job runs again only while
    its last sample still fits in the time left.  Returns, per job, its
    samples: one run per mode (untraced, traced).  With two modes the job
    runs in both back to back, so a drift in machine speed affects both alike.
    Each run is scaled by the speed probes taken just before and after it.
    """
    started = time.perf_counter()
    samples: list[list[tuple]] = [[] for _ in jobs]
    before = probe()
    for k in itertools.count():
        i = k % len(jobs)
        elapsed = time.perf_counter() - started
        if k >= len(jobs) and elapsed + sum(
                r.wall_s for r in samples[i][-1]) > min(seconds, DEADLINE_S):
            break
        limit = max(1.0, min(JOB_LIMIT_S, DEADLINE_S + JOB_LIMIT_S - elapsed))
        runs = []
        for traced in modes:
            r = run_job(jobs[i], traced, limit)
            after = probe()
            r.scale = 2 * REF_PROBE_S / (before + after)
            before = after
            runs.append(r)
        samples[i].append(tuple(runs))
    return samples


def median(runs: list[Run], attr: str) -> float:
    return statistics.median(getattr(r, attr) for r in runs)


def end_to_end(per_job: list[list[Run]], setup_s: float) -> dict:
    return {
        "wall_s": (sum(median(rs, "charged_s") for rs in per_job), "s"),
        "cpu_s": (sum(median(rs, "ref_cpu_s") for rs in per_job), "s"),
        "slowest_job_s": (max((median(rs, "ref_wall_s") for rs in per_job
                               if all(r.decided for r in rs)),
                              default=JOB_LIMIT_S), "s"),
        "peak_rss_mb": (max(median(rs, "max_rss_mb") for rs in per_job),
                        "MiB"),
        "decided_frac": (statistics.mean(
            statistics.mean(r.decided for r in rs) for rs in per_job), "ratio"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from traced runs

FUNCTIONS = {
    "tables": ["validate", "quotient_by_sig", "congruence_closure",
               "invert_element", "pushout", "product", "limit", "subalgebra",
               "all_homs", "iter_isomorphisms", "is_hom"],
    "contexts": ["enumerate_localizations", "local_forms", "factorize",
                 "attach", "faces"],
    "spectrum": ["build_spec", "sheafify", "ell", "reduce_admissible",
                 "spec_map", "enumerate_apmaps", "spaces_isomorphic"],
    "reduction": ["geometric_iso", "reduce", "check_flat_wrt_cover"],
    "hypercover": ["cech_h0", "pushout_opcover"],
    "glue": ["glue", "is_affine", "nerve", "check_nerve_functorial",
             "nerve_sheaf_condition"],
    "io": ["algebra_from_dict", "hom_from_dict", "space_to_dict"],
}
MODULES = ("io", "tables", "contexts", "spectrum", "reduction", "hypercover",
           "glue")
COUNTS = ("tables.limit.scanned", "tables.product.elements",
          "spectrum.build_spec.repeat_calls", "tables.all_homs.found")
SIZES = ("tables.quotient_by_sig.max_size", "tables.limit.max_size",
         "tables.product.max_size")


def job_stats(runs: list[Run]) -> dict[str, float]:
    """Median over a job's traced runs of each of its totals, flattened.

    Times are at reference speed, like the end-to-end ones.
    """
    flat = []
    for r in runs:
        st = r.stats or {}      # none when the job was killed at its limit
        d = {"wall_s": r.ref_wall_s,
             "main_span_s": st.get("main_span_s", 0.0) * r.scale}
        for group in ("calls", "self_s", "counters"):
            f = r.scale if group == "self_s" else 1
            d.update({f"{group}:{k}": v * f
                      for k, v in st.get(group, {}).items()})
        flat.append(d)
    keys = set().union(*flat)
    return {k: statistics.median(d.get(k, 0) for d in flat) for k in keys}


def job_layers(st: dict[str, float]) -> dict[str, float]:
    """Self time per layer of one traced job, and its start-up time.

    Start-up is the job's wall time outside the `cli.main` span:
    interpreter start and exit, imports and installing the tracer.
    """
    out = {m: 0.0 for m in MODULES}
    for key, t in st.items():
        group, _, name = key.partition(":")
        if group == "self_s" and name.split(".")[0] in out:
            out[name.split(".")[0]] += t
    out["cli"] = st.get("self_s:cli.main", 0.0)
    out["startup"] = st["wall_s"] - st["main_span_s"]
    return out


def per_layer(untraced: list[list[Run]], traced: list[list[Run]]) -> dict:
    """Per-layer metrics: per-job medians, summed over the jobs."""
    stats = [job_stats(rs) for rs in traced]
    layers = [job_layers(st) for st in stats]

    def total(key):
        return sum(st.get(key, 0) for st in stats)

    m = {"cli.startup_s": (sum(x["startup"] for x in layers), "s"),
         "cli.self_s": (sum(x["cli"] for x in layers), "s")}
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(x[mod] for x in layers), "s")
    for mod, names in FUNCTIONS.items():
        for fn in names:
            m[f"{mod}.{fn}.calls"] = (total(f"calls:{mod}.{fn}"), "count")
            m[f"{mod}.{fn}.self_s"] = (total(f"self_s:{mod}.{fn}"), "s")
    for key in COUNTS:
        m[key] = (total(f"counters:{key}"), "count")
    for key in SIZES:
        m[key] = (max(st.get(f"counters:{key}", 0) for st in stats), "count")
    scanned = total("counters:tables.limit.scanned")
    m["tables.limit.kept_ratio"] = (
        total("counters:tables.limit.kept") / scanned if scanned else 0.0,
        "ratio")
    attaches = total("counters:contexts.attach_in_enumeration")
    m["contexts.localization_yield"] = (
        total("counters:contexts.localization_classes") / attaches
        if attaches else 0.0, "ratio")
    m["trace.overhead_s"] = (sum(
        statistics.median(t.ref_wall_s - u.ref_wall_s
                          for u, t in zip(us, ts))
        for us, ts in zip(untraced, traced)), "s")
    return m


def job_rows(per_job: list[list[Run]], traced: bool) -> list[dict]:
    """One row per job, with medians over its runs.

    `wall_s` and `cpu_s` are at reference speed, `raw_wall_s` as measured.
    """
    rows = []
    for runs in per_job:
        job = runs[0].job
        row = {"job": job.name, "context": job.context,
               "command": job.command, "exit": runs[0].exit_code,
               "wall_s": round(median(runs, "ref_wall_s"), 4),
               "raw_wall_s": round(median(runs, "wall_s"), 4),
               "cpu_s": round(median(runs, "ref_cpu_s"), 4),
               "max_rss_mb": round(median(runs, "max_rss_mb"), 4),
               "decided": all(r.decided for r in runs),
               "runs": len(runs), "traced": traced}
        if traced:
            row["layers_s"] = {k: round(v, 4) for k, v in
                               job_layers(job_stats(runs)).items()}
        rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "conespec", "cli.py")):
        sys.exit(f"no conespec sources under {SRC}")

    def timed_setup():
        before = probe()
        t = time.perf_counter()
        jobs = setup(args.workload, args.seed)
        elapsed = time.perf_counter() - t
        setup_times.append(elapsed * 2 * REF_PROBE_S / (before + probe()))
        return jobs

    # set-ups on both sides of the runs, so that their median does not
    # hang on the machine's speed at one moment
    setup_times: list[float] = []
    jobs = [timed_setup() for _ in range(SETUP_REPEATS)][-1]
    samples = measure(jobs, (False, True) if args.trace else (False,),
                      args.seconds)
    for _ in range(SETUP_REPEATS):
        timed_setup()
    untraced = [[s[0] for s in ss] for ss in samples]
    traced = [[s[1] for s in ss] for ss in samples] if args.trace else []

    runs = [r for rs in untraced + traced for r in rs]
    wrong = [r for r in runs if r.wrong]
    for r in wrong:
        print(f"wrong answer from {r.job.name}: {r.wrong}", file=sys.stderr)
    for row in job_rows(untraced, False) + (
            job_rows(traced, True) if traced else []):
        print(json.dumps(row))
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, statistics.median(setup_times))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
