"""Golden CLI outputs: exit code, stdout and every written file, byte for byte.

CASES is the one list of golden cases.  Each runs one ``heis-tsp`` command
on a small fixture and compares its exit code, stdout and output files with
the copies under ``tests/golden/<case>/``.  test_golden runs every case
in-process through ``main``; check_console runs every case through the
installed ``heis-tsp`` console script, in a subprocess, and returns the
number of cases that differ:

    PYTHONPATH=tests python -c "import sys, test_golden_cli as g; sys.exit(g.check_console())"

The expected files were produced with numpy 2.4.6 and scipy 1.17.1 on
CPython 3.11; other versions may round differently and legitimately fail
this module while the rest of the suite passes.

Regenerate the expected files (after an intended output change only) with
the in-process runner; check_console then holds the installed script to the
same copies:

    PYTHONPATH=src python tests/test_golden_cli.py

The same change regenerates the frozen tables of the engine's tests
(FROZEN, FROZEN_CARLESON and FROZEN_BUILD in test_lockstep.py,
FROZEN_DICHOTOMY in test_verify.py).  This prints each of them, from the
code as it is, as the source to paste over the old one:

    PYTHONPATH=src python tests/test_lockstep.py
"""

from __future__ import annotations

import collections
import contextlib
import io
import math
import os
import random
import shutil
import subprocess
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
    # a ball given by --ball rather than the enclosing one
    "beta-ball": (["beta", "{d}/tri.txt", "--ball", "0 0 0 1.5"], []),
    # a lone ball's beta: a Nelder-Mead lockstep of only its own starts
    "beta-enclosing": (["beta", "{d}/circle.txt", "--seed", "3", "--out", "{d}/beta.txt"],
                       ["beta.txt"]),
    # the benchmark's build command at default flags: the builder's fits
    # and the Carleson balls in one engine call, one Nelder-Mead lockstep
    "build-circle": (["build", "{d}/circle.txt", "--out", "{d}/circle", "--seed", "0"],
                     ["circle.curve.txt", "circle.ledger.csv"]),
    # eleven flat-ball insertions, each in the order of the points' feet on
    # the fitted line
    "build-sine": (["build", "{d}/sine.txt", "--out", "{d}/sine", "--seed", "2", "--eps0", "0.1"],
                   ["sine.curve.txt", "sine.ledger.csv"]),
    # a single point: a one-vertex curve and an empty ledger
    "build-one": (["build", "{d}/one.txt", "--out", "{d}/one"],
                  ["one.curve.txt", "one.ledger.csv"]),
    # the only case whose build needs connectivity repair
    "build-cloud": (["build", "{d}/cloud.txt", "--out", "{d}/cloud", "--seed", "0"],
                    ["cloud.curve.txt", "cloud.ledger.csv"]),
    # the Carleson sum of the input points themselves, to stdout
    "carleson": (["carleson", "{d}/tri.txt", "--r", "3", "--a", "4"], []),
    # a resampled curve: every scale's balls in one beta_heis_many call
    "carleson-density": (["carleson", "{d}/corner.txt", "--density", "16", "--out",
                          "{d}/carleson.csv"], ["carleson.csv"]),
    # the builder's fits and then the Carleson balls in one merged engine
    # call, polishing all their balls in one Nelder-Mead lockstep
    "theorem-a": (["theorem-a", "{d}/parabola.txt", "--r", "3.5", "--seed", "1"], []),
    # a curve resampled at a density, then its Carleson sum against its length
    "theorem-b": (["theorem-b", "{d}/corner.txt", "--density", "16"], []),
    # the lemma suite, its report and its stdout
    "verify": (["verify", "--seed", "3", "--samples", "300", "--out", "{d}/report.json"],
               ["report.json"]),
}


def _write_fixtures(d: str) -> None:
    for name, pts in FIXTURES.items():
        with open(os.path.join(d, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join("%s %s %s\n" % tuple(format(v, ".17g") for v in p) for p in pts))


def in_process(argv: list[str]) -> tuple[int, bytes]:
    """Runner: main in this process; its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


def console(argv: list[str]) -> tuple[int, bytes]:
    """Runner: the installed heis-tsp script in a subprocess; its exit code and stdout."""
    proc = subprocess.run(["heis-tsp", *argv], stdout=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout


def run_case(case: str, d: str, runner) -> dict[str, bytes]:
    """Run one case in directory d with runner (in_process or console);
    returns exit code, stdout and files as bytes."""
    argv, files = CASES[case]
    code, out = runner([a.format(d=d) for a in argv])
    got = {"exit": b"%d\n" % code, "stdout": out}
    for name in files:
        with open(os.path.join(d, name), "rb") as fh:
            got[name] = fh.read()
    return got


def differing(case: str, got: dict[str, bytes]) -> list[str]:
    """The outputs of run_case that differ from their copies in tests/golden/<case>/."""
    bad = []
    for name, data in got.items():
        with open(os.path.join(GOLDEN, case, name), "rb") as fh:
            if data != fh.read():
                bad.append(name)
    return bad


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        _write_fixtures(d)
        yield d


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, workdir):
    bad = differing(case, run_case(case, workdir, in_process))
    assert not bad, "%s: golden mismatch in %s" % (case, ", ".join(bad))


def check_console() -> int:
    """Run every case through the installed heis-tsp console script; returns
    the number of cases whose output differs from tests/golden/, each named
    on stderr.  Raises RuntimeError when heis-tsp is not on PATH."""
    if shutil.which("heis-tsp") is None:
        raise RuntimeError("heis-tsp is not on PATH; install the package first")
    failed = 0
    with tempfile.TemporaryDirectory() as d:
        _write_fixtures(d)
        for case in sorted(CASES):
            bad = differing(case, run_case(case, d, console))
            if bad:
                failed += 1
                sys.stderr.write("%s: golden mismatch in %s\n" % (case, ", ".join(bad)))
    return failed


def test_check_console_counts_differing_cases(tmp_path, monkeypatch, capsys):
    # check_console's bookkeeping, with main in-process standing in for the
    # installed script: one flipped golden byte is one differing case
    monkeypatch.setattr(sys.modules[__name__], "console", in_process)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(RuntimeError, match="not on PATH"):
        check_console()
    monkeypatch.setattr(shutil, "which", lambda name: name)
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", str(golden))
    assert check_console() == 0
    stdout = golden / "theorem-b" / "stdout"
    stdout.write_bytes(stdout.read_bytes().replace(b"ratio", b"ratiO"))
    assert check_console() == 1
    assert "theorem-b: golden mismatch in stdout" in capsys.readouterr().err


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
            for name, data in run_case(case, d, in_process).items():
                with open(os.path.join(out, name), "wb") as fh:
                    fh.write(data)
            print("wrote", out)


if __name__ == "__main__":
    sys.exit(_regenerate())
