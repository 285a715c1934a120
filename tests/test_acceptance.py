"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print.  Universal constants of the underlying theorems are not pinned
numerically anywhere, so pipeline criteria assert stability bands around
frozen regression values rather than absolute constants.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from heistsp.core import HeisPoint, ORIGIN, as_array, dilate, dist
from heistsp.lines import line_dist, line_from_point_direction
from heistsp.beta import Ball, beta_heis, beta_heis_oracle, members_in_ball
from heistsp.builder import BuilderConfig, build_curve, excess, future_ball_search, theorem_a_check
from heistsp.curves import PolygonalCurve
from heistsp.multiscale import theorem_b_check
from heistsp.verify import EXACT_CHECK_IDS, run_suite
from heistsp.cli import main as cli_main, save_points, PointSetFile

from conftest import (
    corner_curve_vertices,
    horizontal_points,
    intro_triple,
    lifted_circle,
    lifted_parabola,
    lifted_point_fixture,
    lifted_sine,
)

# frozen regression values (default budget, seed 0)
FROZEN = {
    "circle_ratio": 1.3447,
    "parabola_ratio": 1.1352,
    "sine_ratio": 1.2082,
    "corner_ratio": 0.0011981,
}


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d %-58s FAIL" % (num, text))
        raise
    print("ACCEPTANCE %d %-58s PASS" % (num, text))


def test_criterion_1_exact_lemma_suite():
    with criterion(1, "exact-constant lemma suite, 1e5 samples, <= 60 s"):
        t0 = time.time()
        results = run_suite(seed=0, include=list(EXACT_CHECK_IDS))
        elapsed = time.time() - t0
        for r in results:
            assert r.samples == 100_000
            assert r.violations == 0
            assert r.worst_margin >= -1e-9
        assert elapsed <= 60.0


def test_criterion_2_intro_example():
    with criterion(2, "central-bump triple: excess/eps^2 and witness line"):
        for eps in (0.2, 0.1, 0.05, 0.025):
            a, b, c = intro_triple(eps)
            ratio = excess(a, b, c) / eps ** 2
            assert 0.45 <= ratio <= 0.55
            witness = line_from_point_direction(
                b, math.atan2(eps / 2.0, 1.0 - eps / 2.0))
            worst = max(line_dist(p, witness) for p in (a, b, c))
            assert worst <= 2.0 * eps


def test_criterion_3_theorem_a_pipeline():
    with criterion(3, "builder: flat optimality, seed and scale stability"):
        for n in (20, 21):
            curve, _ = build_curve(horizontal_points(n))
            assert curve.length <= (1.0 + 1e-6) * 1.0
        cases = [("circle_ratio", lifted_circle()),
                 ("parabola_ratio", lifted_parabola()),
                 ("sine_ratio", lifted_sine())]
        for key, pts in cases:
            r0 = theorem_a_check(pts, BuilderConfig(seed=0))
            r1 = theorem_a_check(pts, BuilderConfig(seed=1))
            assert math.isfinite(r0.ratio) and r0.ratio > 0.0
            assert r1[:3] == r0[:3]     # no fit reads the seed
            assert abs(r0.ratio - FROZEN[key]) <= 0.10 * FROZEN[key]
            for lam in (0.5, 2.0):
                rs = theorem_a_check([dilate(lam, p) for p in pts], BuilderConfig(seed=0))
                assert abs(rs.ratio - r0.ratio) <= 0.05 * r0.ratio


def test_criterion_4_theorem_b_pipeline():
    with criterion(4, "converse sum: zero on segments, stable on the corner"):
        seg = PolygonalCurve([ORIGIN, HeisPoint(1.0, 0.0, 0.0)])
        total, length, _ = theorem_b_check(seg, 64.0)
        assert total <= 1e-9 * length
        corner = PolygonalCurve(corner_curve_vertices())
        r0 = theorem_b_check(corner, 64.0)
        r1 = theorem_b_check(PolygonalCurve(list(corner.vertices)), 64.0)
        assert math.isfinite(r0[2]) and r0[2] > 0.0
        assert r1 == r0             # a function of the curve: no seed reaches a fit
        assert abs(r0[2] - FROZEN["corner_ratio"]) <= 0.10 * FROZEN["corner_ratio"]


def _beta_fixtures():
    rng = np.random.default_rng(99)
    cloud = [HeisPoint(*map(float, r)) for r in rng.uniform(-0.6, 0.6, (30, 3))]
    return [
        ("collinear-20", horizontal_points(20), Ball(HeisPoint(0.5, 0, 0), 1.0)),
        ("vertical-pair", [ORIGIN, HeisPoint(0, 0, 1)], Ball(ORIGIN, 1.0)),
        ("intro-triple", intro_triple(0.1), Ball(ORIGIN, 2.0)),
        ("random-cloud-30", cloud, Ball(ORIGIN, 1.2)),
        ("circle-40", lifted_circle(40), Ball(HeisPoint(1.0, 0.0, 0.0), 3.0)),
    ]


def test_criterion_5_beta_engine():
    with criterion(5, "beta vs oracle, collinear exactness, pair floors"):
        for name, pts, ball in _beta_fixtures():
            assert len(pts) <= 50
            res = beta_heis(pts, ball)
            orc = beta_heis_oracle(pts, ball, resolution=48)
            tol = max(res.certified_gap, 0.05 * max(res.beta, orc.beta))
            assert abs(res.beta - orc.beta) <= tol + 1e-12, name
            arr = as_array(pts)
            mem = arr[members_in_ball(arr, ball)]
            diam = 2.0 * ball.radius
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    a = HeisPoint(*map(float, mem[i]))
                    b = HeisPoint(*map(float, mem[j]))
                    d = dist(a, b)
                    if d == 0.0:
                        continue
                    dz = abs(b.z - a.z - 2.0 * (a.x * b.y - b.x * a.y))
                    assert res.beta * diam >= dz / (16.0 * d) * (1.0 - 1e-9), name
        collinear = beta_heis(horizontal_points(20), Ball(HeisPoint(0.5, 0, 0), 1.0))
        assert collinear.beta <= 1e-10


def test_criterion_6_determinism(tmp_path, capsys):
    with criterion(6, "byte-reproducible commands and verify reports"):
        seg = tmp_path / "seg.txt"
        save_points(str(seg), PointSetFile(horizontal_points(12)))
        outs = []
        for tag in ("x", "y"):
            code = cli_main(["build", str(seg), "--seed", "7",
                             "--out", str(tmp_path / tag)])
            assert code == 0
            outs.append(((tmp_path / (tag + ".curve.txt")).read_bytes(),
                         (tmp_path / (tag + ".ledger.csv")).read_bytes()))
        assert outs[0] == outs[1]
        reports = []
        for tag in ("r1", "r2"):
            out = tmp_path / (tag + ".json")
            code = cli_main(["verify", "--seed", "42", "--samples", "20000",
                             "--out", str(out)])
            assert code == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["passed"] is True


def test_criterion_7_future_ball():
    with criterion(7, "future-ball search localizes the lifted point"):
        pts, lifted = lifted_point_fixture()
        cfg = BuilderConfig(c1=2.0, alpha1=0.2, alpha2=0.9)
        triple = (HeisPoint(-0.5, 0, 0), lifted, HeisPoint(0.5, 0, 0))
        rep = future_ball_search(pts, Ball(ORIGIN, 1.0), triple, cfg)
        assert not rep.out_of_regime
        assert rep.found_ball is not None
        assert dist(rep.found_ball.center, lifted) <= rep.found_ball.radius
        assert rep.satisfies_e_at_2
