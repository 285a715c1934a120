"""Golden CLI outputs: stdout and every written file, byte for byte.

Each case runs one ``heis-tsp`` command in-process on a small fixture and
compares its stdout and output files with the copies under
``tests/golden/<case>/``.  The expected files were produced with numpy
2.4.6 and scipy 1.17.1 on CPython 3.11; other versions may round
differently and legitimately fail this module while the rest of the suite
passes.

Regenerate the expected files (after an intended output change only) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import collections
import contextlib
import io
import math
import os
import random
import sys
import tempfile

import pytest

from heistsp.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _circle(n):
    ts = [1.5 * math.pi * i / (n - 1) for i in range(n)]
    return [(math.cos(t), math.sin(t), 2.0 * t) for t in ts]


def _sine(n):
    ts = [2.0 * math.pi * i / (n - 1) for i in range(n)]
    return [(t, math.sin(t), 2.0 * t * math.sin(t) + 4.0 * math.cos(t) - 4.0) for t in ts]


def _parabola(n):
    ts = [-1.0 + 2.0 * i / (n - 1) for i in range(n)]
    return [(t, t * t, (2.0 / 3.0) * t ** 3) for t in ts]


def _cloud(n, seed):
    rnd = random.Random(seed)
    return [tuple(rnd.uniform(-1.0, 1.0) for _ in range(3)) for _ in range(n)]


#: input files, written as plain "x y z" lines independently of heistsp
FIXTURES = {
    "tri.txt": [(-1.0, 0.0, 0.0), (0.0, 0.0, 0.1), (1.0, 0.0, 0.0)],
    "corner.txt": [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.5, 0.5)],
    "one.txt": [(0.25, -0.5, 1.0)],
    "circle.txt": _circle(14),
    "sine.txt": _sine(12),
    "parabola.txt": _parabola(12),
    "cloud.txt": _cloud(40, 1),
}

#: case name -> (argv with {d} for the work directory, output files it writes)
CASES = {
    "beta-ball": (["beta", "{d}/tri.txt", "--ball", "0 0 0 1.5"], []),
    "beta-enclosing": (["beta", "{d}/circle.txt", "--seed", "3", "--out", "{d}/beta.txt"],
                       ["beta.txt"]),
    "build-circle": (["build", "{d}/circle.txt", "--out", "{d}/circle", "--seed", "0"],
                     ["circle.curve.txt", "circle.ledger.csv"]),
    "build-sine": (["build", "{d}/sine.txt", "--out", "{d}/sine", "--seed", "2", "--eps0", "0.1"],
                   ["sine.curve.txt", "sine.ledger.csv"]),
    "build-one": (["build", "{d}/one.txt", "--out", "{d}/one"],
                  ["one.curve.txt", "one.ledger.csv"]),
    # the only case whose build needs connectivity repair
    "build-cloud": (["build", "{d}/cloud.txt", "--out", "{d}/cloud", "--seed", "0"],
                    ["cloud.curve.txt", "cloud.ledger.csv"]),
    "carleson": (["carleson", "{d}/tri.txt", "--r", "3", "--a", "4"], []),
    "carleson-density": (["carleson", "{d}/corner.txt", "--density", "16", "--out",
                          "{d}/carleson.csv"], ["carleson.csv"]),
    "theorem-a": (["theorem-a", "{d}/parabola.txt", "--r", "3.5", "--seed", "1"], []),
    "theorem-b": (["theorem-b", "{d}/corner.txt", "--density", "16"], []),
    "verify": (["verify", "--seed", "3", "--samples", "300", "--out", "{d}/report.json"],
               ["report.json"]),
}


def _write_fixtures(d: str) -> None:
    for name, pts in FIXTURES.items():
        with open(os.path.join(d, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join("%s %s %s\n" % tuple(format(v, ".17g") for v in p) for p in pts))


def run_case(case: str, d: str) -> dict[str, bytes]:
    """Run one case in directory d; returns exit code, stdout and files as bytes."""
    argv, files = CASES[case]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.format(d=d) for a in argv])
    got = {"exit": b"%d\n" % code, "stdout": buf.getvalue().encode("utf-8")}
    for name in files:
        with open(os.path.join(d, name), "rb") as fh:
            got[name] = fh.read()
    return got


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        _write_fixtures(d)
        yield d


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, workdir):
    got = run_case(case, workdir)
    for name, data in got.items():
        with open(os.path.join(GOLDEN, case, name), "rb") as fh:
            assert data == fh.read(), "%s: %s differs from the golden copy" % (case, name)


def test_cloud_golden_bridges_one_ball_repeatedly():
    """The build-cloud ledger has a ball bridged at least twice, so the golden
    pins the repair's bookkeeping across successive detours in one ball."""
    with open(os.path.join(GOLDEN, "build-cloud", "cloud.ledger.csv"), encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines() if ln.count(",") == 5]
    per_ball = collections.Counter((k, anchor) for k, anchor, case, *_ in rows if case == "bridge")
    assert max(per_ball.values(), default=0) >= 2


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as d:
        _write_fixtures(d)
        for case in sorted(CASES):
            out = os.path.join(GOLDEN, case)
            os.makedirs(out, exist_ok=True)
            for name, data in run_case(case, d).items():
                with open(os.path.join(out, name), "wb") as fh:
                    fh.write(data)
            print("wrote", out)


if __name__ == "__main__":
    sys.exit(_regenerate())
