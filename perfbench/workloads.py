"""The four benchmark workloads: inputs made from a seed, one job, its check.

A job is one top-level call into heistsp, run in a closed loop in this
process.  Each workload's inputs come from ``--seed`` alone; heistsp sees
only the generated inputs (and, where its API takes one, the seed).  The
inputs are chosen so that the seed changes what heistsp reads but not how
much work it does: the benchmark compares times across seeds.

The random clouds of ``cloud-build`` and ``nets-8k`` are one fixed draw,
``sample_box(default_rng(0), n, 1.0)``, moved by a seed-drawn isometry (a
rotation about the z axis, then a left translation).  Fresh draws per seed
would change the work itself: on ten seeds the 400-point build took
1.0-1.8 s and the 8000-point nets 5.3-7.3 s, because the number of scales
follows the closest pair.  An isometric copy keeps every distance, so the
seed changes every coordinate the program reads but not the geometry it
has to work through, and the net sizes stay those recorded below.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from typing import NamedTuple

import numpy as np

import heistsp.builder
import heistsp.cli
import heistsp.multiscale
import heistsp.verify
from heistsp.core import HeisPoint, diameter, left_translate_arr, rotate_arr, sample_box

from spans import VERIFY_IDS


class Size(NamedTuple):
    lifted: int         # points per lifted-curve fixture
    cloud: int          # points of the cloud-build cloud
    nets: int           # points of the nets-8k cloud
    exact: int          # samples of each exact-constant check
    family_div: int     # constructed-family checks run at DEFAULT_COUNTS / family_div
    family_floor: int   # ... but at least this many


SIZES = {
    "full": Size(lifted=50, cloud=400, nets=8000, exact=100_000, family_div=10, family_floor=4),
    # a few seconds per workload, for the self-tests
    "tiny": Size(lifted=12, cloud=40, nets=300, exact=2000, family_div=100, family_floor=1),
}

#: theorem-a ratios printed by ``build`` at seed 0, recorded at the commit
#: that added this benchmark; a job's ratio must lie within the acceptance
#: module's 10% band around them
LIFTED_RATIO = {
    ("full", "circle"): 1.3470171281012666,
    ("full", "sine"): 1.2085874068425977,
    ("full", "parabola"): 1.1357588147617839,
    ("tiny", "circle"): 1.3636061504392967,
    ("tiny", "sine"): 1.2096959021531817,
    ("tiny", "parabola"): 1.1387008427506851,
}
RATIO_BAND = 0.10

LEDGER_RTOL = 1e-12

#: (k_min, k_max, net size per scale) of the base cloud, recorded at the
#: commit that added this benchmark
NET_SIZES = {
    "full": (-2, 6, [1, 1, 16, 128, 1051, 5217, 7701, 7988, 8000]),
    "tiny": (-2, 4, [1, 3, 12, 69, 241, 295, 300]),
}


def lifted_circle(n: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.5 * math.pi, n)
    return np.array([(math.cos(t), math.sin(t), 2.0 * t) for t in ts])


def lifted_parabola(n: int) -> np.ndarray:
    ts = np.linspace(-1.0, 1.0, n)
    return np.array([(t, t * t, (2.0 / 3.0) * t ** 3) for t in ts])


def lifted_sine(n: int) -> np.ndarray:
    ts = np.linspace(0.0, 2.0 * math.pi, n)
    return np.array([(t, math.sin(t), 2.0 * t * math.sin(t) + 4.0 * math.cos(t) - 4.0)
                     for t in ts])


# Circle and sine cost about the same and parabola about a quarter more, so
# putting parabola last keeps a run's median job steady whether one, two
# or three jobs fit in it.
FIXTURES = (("circle", lifted_circle), ("sine", lifted_sine), ("parabola", lifted_parabola))


def moved_cloud(n: int, seed: int) -> np.ndarray:
    """The base cloud of n points under the isometry drawn from seed."""
    base = sample_box(np.random.default_rng(0), n, 1.0)
    rng = np.random.default_rng([seed, 7])
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    g = HeisPoint(*(float(v) for v in rng.uniform(-1.0, 1.0, 3)))
    return left_translate_arr(g, rotate_arr(theta, base))


def key_set(arr) -> set[tuple[float, float, float]]:
    return {(float(x), float(y), float(z)) for x, y, z in arr}


def read_points(path: str) -> list[tuple[float, float, float]]:
    """Points of a heis-tsp point file, parsed independently of heistsp."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                x, y, z = (float(t) for t in line.split())
                out.append((x, y, z))
    return out


def missing_vertices(inputs, vertices) -> list[str]:
    lost = key_set(inputs) - key_set(vertices)
    return ["%d input points are not curve vertices" % len(lost)] if lost else []


# ---------------------------------------------------------------------------

class LiftedBuild:
    """``heis-tsp build FILE --out DIR --seed SEED`` on the lifted fixtures."""

    name = "lifted-build"

    def __init__(self, seed: int, workdir: str, size: str):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.inputs = []
        for name, make in FIXTURES:
            arr = make(SIZES[size].lifted)
            path = os.path.join(workdir, name + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join("%s %s %s\n" % tuple(format(float(v), ".17g") for v in row)
                                 for row in arr))
            self.inputs.append((name, path, arr, diameter(arr)))

    def job(self, j: int, tracer=None):
        name, path, _, _ = self.inputs[j % len(self.inputs)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = heistsp.cli.main(["build", path, "--out", os.path.join(self.workdir, name),
                                     "--seed", str(self.seed)])
        return code, buf.getvalue()

    def _summary(self, text: str) -> dict[str, float]:
        return {k: float(v) for k, _, v in (ln.partition(" ") for ln in text.splitlines())
                if k in ("vertices", "length", "bound", "ratio")}

    def check(self, j: int, out) -> list[str]:
        code, text = out
        name, _, arr, _ = self.inputs[j % len(self.inputs)]
        if code != 0:
            return ["exit code %d" % code]
        problems = missing_vertices(arr, read_points(os.path.join(self.workdir,
                                                                  name + ".curve.txt")))
        ratio = self._summary(text).get("ratio", math.nan)
        ref = LIFTED_RATIO[(self.size, name)]
        if not abs(ratio - ref) <= RATIO_BAND * ref:
            problems.append("%s ratio %r outside %g of %r" % (name, ratio, RATIO_BAND, ref))
        return problems

    def observe(self, j: int, out) -> dict[str, float]:
        name, _, _, diam = self.inputs[j % len(self.inputs)]
        s = self._summary(out[1])
        with open(os.path.join(self.workdir, name + ".ledger.csv"), encoding="utf-8") as fh:
            bridges = sum(1 for ln in fh if ",bridge," in ln)
        return {"builder.vertices": s["vertices"], "builder.bridges": bridges,
                "curve_len_ratio": s["length"] / diam, "carleson_total": s["bound"] - diam}


class CloudBuild:
    """``build_curve(points, BuilderConfig(seed=seed))`` on a 400-point cloud."""

    name = "cloud-build"

    def __init__(self, seed: int, workdir: str, size: str):
        self.seed = seed
        arr = moved_cloud(SIZES[size].cloud, seed)
        self.points = [HeisPoint(*(float(v) for v in row)) for row in arr]
        self.diam = diameter(arr)

    def job(self, j: int, tracer=None):
        cfg = heistsp.builder.BuilderConfig(seed=self.seed)
        return heistsp.builder.build_curve(self.points, cfg)

    def check(self, j: int, out) -> list[str]:
        curve, ledger = out
        problems = missing_vertices(self.points, curve.vertices)
        # Each ledger cost is a rounded difference of distances, so the sum
        # can sit an ulp or so away from the fsum of the edges.
        if not math.isclose(ledger.total_cost(), curve.length, rel_tol=LEDGER_RTOL):
            problems.append("ledger total %r != curve length %r"
                            % (ledger.total_cost(), curve.length))
        return problems

    def observe(self, j: int, out) -> dict[str, float]:
        curve, ledger = out
        return {"builder.vertices": len(curve.vertices),
                "builder.bridges": sum(1 for e in ledger.entries if e.case == "bridge"),
                "curve_len_ratio": curve.length / self.diam}


#: seed of the verify-suite job, whatever ``--seed`` is: the suite's seed
#: draws its own set sizes (the lifted-point climb of
#: angle-improvement-dichotomy has (12/m)^2 points for a random m, 7e4 to
#: 6.4e5), and on seeds 1-5 one suite took 5.5-10.5 s and 120-216 MB
SUITE_SEED = 0


class VerifySuite:
    """One ``run_suite(SUITE_SEED, counts)``; traced, one ``include=[id]`` call per check."""

    name = "verify-suite"

    def __init__(self, seed: int, workdir: str, size: str):
        self.seed = SUITE_SEED
        sz = SIZES[size]
        self.counts = {cid: sz.exact if cid in heistsp.verify.EXACT_CHECK_IDS
                       else max(sz.family_floor, round(n / sz.family_div))
                       for cid, n in heistsp.verify.DEFAULT_COUNTS.items()}

    def job(self, j: int, tracer=None):
        if tracer is None:
            return heistsp.verify.run_suite(self.seed, self.counts)
        results = []
        for cid in VERIFY_IDS:
            with tracer.span("verify." + cid):
                results += heistsp.verify.run_suite(self.seed, self.counts, include=[cid])
        return results

    def check(self, j: int, results) -> list[str]:
        problems = ["%s: %d violations" % (r.id, r.violations) for r in results if r.violations]
        if [r.id for r in results] != list(VERIFY_IDS):
            problems.append("checks run: %s" % [r.id for r in results])
        if not heistsp.verify.suite_passed(results):
            problems.append("suite_passed is false")
        return problems

    def observe(self, j: int, out) -> dict[str, float]:
        return {}


class Nets8k:
    """``default_scale_range`` then ``build_nets`` on an 8000-point cloud."""

    name = "nets-8k"

    def __init__(self, seed: int, workdir: str, size: str):
        self.size = size
        self.arr = moved_cloud(SIZES[size].nets, seed)

    def job(self, j: int, tracer=None):
        k_min, k_max = heistsp.multiscale.default_scale_range(self.arr)
        h = heistsp.multiscale.build_nets(self.arr, k_min, k_max)
        return k_min, k_max, [len(h.nets[k]) for k in range(k_min, k_max + 1)]

    def check(self, j: int, out) -> list[str]:
        ref = NET_SIZES[self.size]
        return [] if tuple(out) == ref else ["nets %r != reference %r" % (out, ref)]

    def observe(self, j: int, out) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (LiftedBuild, CloudBuild, VerifySuite, Nets8k)}
