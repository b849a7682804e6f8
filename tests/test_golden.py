"""Byte-identity of the command line on a small committed input set.

Each case runs one CLI command in-process on `golden/inputs` and compares its
exit code, stdout, stderr and every file it writes with `golden/expected`.
To record new expected outputs (only when a change of output is intended):

    PYTHONPATH=src python3 tests/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

import pytest

from conespec import cli

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(HERE, "inputs")
EXPECTED = os.path.join(HERE, "expected")

# name -> argv; "@x" is the input file x, "OUT" the output directory
CASES = {
    "spec-zariski-z12": ["spec", "--context", "zariski", "--input", "@z12.json",
                         "--out-dir", "OUT"],
    "spec-domain-z6": ["spec", "--context", "domain", "--input", "@z6.json",
                       "--out-dir", "OUT"],
    "spec-deitmar-e2xe2": ["spec", "--context", "deitmar", "--input",
                           "@e2xe2.json", "--out-dir", "OUT"],
    "spec-deitmar-chain3xe2": ["spec", "--context", "deitmar", "--input",
                               "@chain3xe2.json", "--out-dir", "OUT"],
    "check-reduced-domain-f2x2": ["check", "--context", "domain", "--property",
                                  "reduced", "--input", "@f2x2.json"],
    "check-reduced-zariski-z12": ["check", "--context", "zariski", "--property",
                                  "reduced", "--input", "@z12.json"],
    "check-reduced-domain-z12": ["check", "--context", "domain", "--property",
                                 "reduced", "--input", "@z12.json"],
    "check-mono-reduced-domain-z12": ["check", "--context", "domain",
                                      "--property", "mono-reduced", "--input",
                                      "@z12.json"],
    "check-fixed-point-deitmar-e2xe2": ["check", "--context", "deitmar",
                                        "--property", "fixed-point", "--input",
                                        "@e2xe2.json"],
    "check-geometric-iso-z6-z2": ["check", "--property", "geometric-iso",
                                  "--hom", "@z6-to-z2.json"],
    "check-geometric-iso-domain-z12-z6": ["check", "--context", "domain",
                                          "--property", "geometric-iso",
                                          "--hom", "@z12-to-z6.json"],
    "check-geometric-iso-domain-z12-z4": ["check", "--context", "domain",
                                          "--property", "geometric-iso",
                                          "--hom", "@z12-to-z4.json"],
    "check-flat-cover-z6": ["check", "--property", "flat-cover", "--input",
                            "@z6.json", "--cover", "@z6-cover.json"],
    "check-flat-cover-zariski-multistep": [
        "check", "--context", "zariski", "--property", "flat-cover", "--input",
        "@z30.json", "--cover", "@z30-multistep-cover.json"],
    "glue-doubled-z6": ["glue", "--input", "@doubled-z6.json", "--out-dir", "OUT"],
    "glue-deitmar-doubled-e2xe2": ["glue", "--input", "@doubled-e2xe2.json",
                                   "--out-dir", "OUT"],
    "glue-zariski-doubled-z12": ["glue", "--input", "@doubled-z12.json",
                                 "--out-dir", "OUT"],
    "glue-deitmar-twisted-c3xe2": ["glue", "--input", "@twisted-c3xe2.json",
                                   "--out-dir", "OUT"],
    "glue-deitmar-three-charts-c3xe2": ["glue", "--input",
                                        "@three-charts-c3xe2.json",
                                        "--out-dir", "OUT"],
    "nerve-p1-f1": ["nerve", "--input", "@p1-f1.json", "--site-max", "3"],
    "nerve-deitmar-e2-three-charts": ["nerve", "--input",
                                      "@e2-three-charts.json", "--site-max",
                                      "4"],
    "nerve-deitmar-doubled-chain3": ["nerve", "--input", "@doubled-chain3.json",
                                     "--site-max", "4"],
    "nerve-zariski-z12": ["nerve", "--context", "zariski", "--input",
                          "@z12.json", "--site-max", "4"],
}


def resolve(argv, out: str) -> list[str]:
    """`argv` with its input files and its output directory `out` filled in."""
    return [os.path.join(INPUTS, a[1:]) if a.startswith("@")
            else out if a == "OUT" else a for a in argv]


def run_case(argv) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one command, as bytes."""
    with tempfile.TemporaryDirectory() as out:
        args = resolve(argv, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        result = {"exit": f"{code}\n".encode(),
                  "stdout": stdout.getvalue().encode(),
                  "stderr": stderr.getvalue().encode()}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                result[name] = fh.read()
    return result


def read_expected(name) -> dict[str, bytes]:
    d = os.path.join(EXPECTED, name)
    out = {}
    for f in sorted(os.listdir(d)):
        with open(os.path.join(d, f), "rb") as fh:
            out[f] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    assert run_case(CASES[name]) == read_expected(name)


def regen() -> None:
    for name, argv in sorted(CASES.items()):
        d = os.path.join(EXPECTED, name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        for f, data in run_case(argv).items():
            with open(os.path.join(d, f), "wb") as fh:
                fh.write(data)


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    regen()
