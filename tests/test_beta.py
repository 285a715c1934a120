import math
import re

import numpy as np
import pytest

from heistsp.core import (
    HeisPoint,
    ORIGIN,
    as_array,
    dilate,
    dilate_arr,
    dist,
    group_mul,
    left_translate_arr,
    sample_box,
)
from heistsp.lines import line_dist, line_dists_arr, line_from_point_direction
from heistsp.beta import (
    BUILDER_BUDGET,
    Ball,
    ResourceBudgetError,
    beta_euclidean_2d,
    beta_heis,
    beta_heis_many,
    beta_heis_oracle,
    min_width_strip,
    members_in_ball,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import heistsp.beta
from conftest import intro_triple, horizontal_points
import sequential

#: frozen regression: optimal beta of {0, (0,0,1)} in the unit ball at 0
PAIR_BETA = 0.297302


class TestBetaHeis:
    def test_collinear_zero(self):
        pts = horizontal_points(5)
        res = beta_heis(pts, Ball(HeisPoint(0.5, 0, 0), 1.0))
        assert res.beta == 0.0
        assert not res.vacuous
        # the witness realizes the value: recompute the sup at the line
        d = line_dists_arr(as_array(pts), res.line)
        assert float(d.max()) <= 1e-10

    def test_empty_vacuous(self):
        res = beta_heis([], Ball(ORIGIN, 1.0))
        assert res.beta == 0.0 and res.vacuous
        far = [HeisPoint(50.0, 0.0, 0.0)]
        res2 = beta_heis(far, Ball(ORIGIN, 1.0))
        assert res2.beta == 0.0 and res2.vacuous

    def test_singleton_zero(self):
        res = beta_heis([HeisPoint(0.1, 0.2, 0.3)], Ball(ORIGIN, 1.0))
        assert res.beta == 0.0 and not res.vacuous

    def test_intro_triple_upper_bound(self):
        eps = 0.1
        ball = Ball(ORIGIN, 2.0)
        res = beta_heis(intro_triple(eps), ball)
        # the tilted witness through the bump keeps all three within ~eps/2
        assert res.beta <= 2.0 * eps / (2.0 * ball.radius)
        explicit = line_from_point_direction(
            HeisPoint(0.0, 0.0, eps), math.atan2(eps / 2.0, 1.0 - eps / 2.0))
        worst = max(line_dist(p, explicit) for p in intro_triple(eps))
        assert res.beta <= worst / (2.0 * ball.radius) + 1e-12

    def test_vertical_pair_floor_and_value(self):
        pts = [ORIGIN, HeisPoint(0, 0, 1)]
        ball = Ball(ORIGIN, 1.0)
        res = beta_heis(pts, ball)
        # flatness floor: nh^2 / (16 d) / diam = 1/32 for this pair
        assert res.beta >= 1.0 / 32.0
        assert res.beta == pytest.approx(PAIR_BETA, abs=2e-4)

    def test_oracle_matches_on_pair(self):
        pts = [ORIGIN, HeisPoint(0, 0, 1)]
        ball = Ball(ORIGIN, 1.0)
        res = beta_heis(pts, ball)
        orc = beta_heis_oracle(pts, ball, resolution=60)
        assert abs(res.beta - orc.beta) <= max(res.certified_gap, 0.05 * orc.beta)

    def test_oracle_two_resolutions(self):
        pts = intro_triple(0.1)
        ball = Ball(ORIGIN, 2.0)
        lo = beta_heis_oracle(pts, ball, resolution=24)
        hi = beta_heis_oracle(pts, ball, resolution=60)
        assert abs(lo.beta - hi.beta) <= 0.05 * max(lo.beta, hi.beta)

    def test_oracle_collinear_zero(self):
        pts = horizontal_points(6)
        res = beta_heis_oracle(pts, Ball(HeisPoint(0.5, 0, 0), 1.0), resolution=16)
        assert res.beta == 0.0  # the center-line incumbent is exact here

    def test_oracle_singleton(self):
        res = beta_heis_oracle([HeisPoint(0.1, 0.2, 0.0)], Ball(ORIGIN, 1.0))
        assert res.beta == 0.0

    def test_oracle_resolution_below_one(self):
        pts = intro_triple(0.1)
        for res in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                beta_heis_oracle(pts, Ball(ORIGIN, 2.0), resolution=res)
        # one cell per axis: the grid is a single line, then the polish
        assert beta_heis_oracle(pts, Ball(ORIGIN, 2.0), resolution=1).beta > 0.0

    def test_oracle_budget_guards(self):
        with pytest.raises(ResourceBudgetError):
            beta_heis_oracle([ORIGIN, HeisPoint(0, 0, 1)], Ball(ORIGIN, 1.0), resolution=500)
        many = sample_box(np.random.default_rng(0), 10_001, 0.5)
        with pytest.raises(ResourceBudgetError):
            beta_heis_oracle(many, Ball(ORIGIN, 10.0), resolution=24)

    def test_beta_at_most_half(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pts = sample_box(rng, 12, 0.8)
            res = beta_heis(pts, Ball(ORIGIN, 1.0), BUILDER_BUDGET)
            assert 0.0 <= res.beta <= 0.5 + 1e-12

    def test_scale_translate_covariance(self):
        rng = np.random.default_rng(22)
        pts = [HeisPoint(*map(float, r)) for r in sample_box(rng, 15, 0.8)]
        ball = Ball(ORIGIN, 1.0)
        base = beta_heis(pts, ball)
        for _ in range(100):
            g = HeisPoint(*map(float, sample_box(rng, 1, 2.0)[0]))
            lam = float(10.0 ** rng.uniform(-2, 2))
            moved = [dilate(lam, group_mul(g, p)) for p in pts]
            mball = Ball(dilate(lam, group_mul(g, ball.center)), lam * ball.radius)
            res = beta_heis(moved, mball)
            assert res.beta == pytest.approx(base.beta, rel=1e-6, abs=1e-9)

    def test_witness_realizes_beta(self):
        rng = np.random.default_rng(23)
        pts = sample_box(rng, 30, 0.9)
        ball = Ball(ORIGIN, 1.0)
        res = beta_heis(pts, ball)
        idx = members_in_ball(pts, ball)
        d = line_dists_arr(pts[idx], res.line)
        assert res.beta == pytest.approx(float(d.max()) / 2.0, abs=1e-10)
        worst = float(line_dist(res.achieving_point, res.line))
        assert worst == pytest.approx(float(d.max()), rel=1e-9, abs=1e-12)

    def test_pair_flatness_floor_on_fixture(self):
        rng = np.random.default_rng(24)
        pts = sample_box(rng, 12, 0.8)
        ball = Ball(ORIGIN, 1.0)
        res = beta_heis(pts, ball)
        idx = members_in_ball(pts, ball)
        mem = pts[idx]
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                a, b = HeisPoint(*map(float, mem[i])), HeisPoint(*map(float, mem[j]))
                dz = abs(b.z - a.z - 2.0 * (a.x * b.y - b.x * a.y))
                dab = dist(a, b)
                if dab == 0.0:
                    continue
                assert res.beta * 2.0 >= dz / (16.0 * dab) * (1.0 - 1e-9)

    def test_monotone_in_point_set(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            big = sample_box(rng, 24, 0.8)
            small = big[: 12]
            ball = Ball(ORIGIN, 1.0)
            lo = beta_heis(small, ball)
            hi = beta_heis(big, ball)
            slack = max(lo.certified_gap, hi.certified_gap) + 1e-9
            assert lo.beta <= hi.beta + slack


def hull_by_unique(pts):
    """The one-set hull, sequential.convex_hull_2d, with np.unique(axis=0) as its dedupe."""
    pts = np.unique(pts.round(decimals=15), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]

    def half(seq):
        out = []
        for q in seq:
            while len(out) > 1:
                u = out[-1] - out[-2]
                v = q - out[-2]
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                out.pop()
            out.append(q)
        return out

    lower = half(p)
    upper = half(p[::-1])
    return np.array(lower[:-1] + upper[:-1])


class TestBetaEuclidean:
    def test_collinear_zero(self):
        pts = horizontal_points(7)
        assert beta_euclidean_2d(pts, Ball(HeisPoint(0.5, 0, 0), 1.0)) == 0.0

    def test_singleton_zero(self):
        assert beta_euclidean_2d([HeisPoint(0.3, 0.1, 0.0)], Ball(ORIGIN, 1.0)) == 0.0

    def test_thin_triangle(self):
        h = 0.1
        pts = [HeisPoint(0, 0, 0), HeisPoint(2, 0, 0), HeisPoint(1, h, 0)]
        ball = Ball(HeisPoint(1, 0, 0), 1.0)
        got = beta_euclidean_2d(pts, ball)
        assert got == pytest.approx(h / 4.0)
        # brute-force direction sweep agrees
        arr = as_array(pts)[:, :2]
        widths = []
        for theta in np.linspace(0.0, math.pi, 10_000, endpoint=False):
            s = -math.sin(theta) * arr[:, 0] + math.cos(theta) * arr[:, 1]
            widths.append(s.max() - s.min())
        assert got == pytest.approx(min(widths) / 2.0 / 2.0, rel=1e-4)

    def test_translate_dilate_covariance(self):
        rng = np.random.default_rng(27)
        arr = sample_box(rng, 40, 1.0)
        ball = Ball(HeisPoint(0.1, -0.2, 0.05), 1.2)
        gaps = [abs(dist(ball.center, HeisPoint(*map(float, p))) - ball.radius) for p in arr]
        assert min(gaps) > 1e-6 * ball.radius     # no member sits on the sphere
        base = beta_euclidean_2d(arr, ball)
        assert 0.0 < base < 0.5
        for lam in (1e-14, 1e-12, 1e-8, 1e-3, 1e3, 1e6):
            got = beta_euclidean_2d(dilate_arr(lam, arr), Ball(dilate(lam, ball.center),
                                                               lam * ball.radius))
            assert got == pytest.approx(base, rel=1e-12, abs=0.0), lam
        g = HeisPoint(0.7, -1.3, 2.1)
        got = beta_euclidean_2d(left_translate_arr(g, arr), Ball(group_mul(g, ball.center),
                                                                 ball.radius))
        assert got == pytest.approx(base, rel=1e-12, abs=0.0)

    def test_vacuous_warns(self):
        with pytest.warns(UserWarning):
            val = beta_euclidean_2d([HeisPoint(9, 9, 0)], Ball(ORIGIN, 1.0))
        assert val == 0.0

    def test_projected_below_heis(self):
        rng = np.random.default_rng(26)
        ball = Ball(ORIGIN, 1.0)
        sets = [sample_box(rng, 8, 0.8) for _ in range(1000)]
        fulls = beta_heis_many([(pts, ball) for pts in sets], BUILDER_BUDGET)
        for pts, full in zip(sets, fulls):
            tilde = beta_euclidean_2d(pts, ball)
            assert tilde <= 2.0 * full.beta + full.certified_gap + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           zeros=st.integers(0, 12), dups=st.integers(0, 12))
    def test_strip_matches_unique_dedupe(self, seed, n, zeros, dups):
        """min_width_strip gives the floats of the one-set strip with
        np.unique(axis=0) as the hull's dedupe, on points with repeats,
        including coordinates that round to +0.0 and -0.0 (equal, so merged
        by either dedupe)."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        # coordinates within 1e-16 of 0 that round(15) sends to +-0.0
        tiny = rng.choice([-1e-16, -0.0, 0.0, 1e-16], (zeros, 2))
        tiny[:, rng.integers(0, 2)] = rng.choice(pts.ravel(), zeros)
        pts = np.concatenate([pts, tiny, pts[rng.integers(0, n, dups)]])
        pts = pts[rng.permutation(pts.shape[0])]
        reference = sequential.min_width_strip(pts, hull_by_unique)
        assert [v.hex() for v in min_width_strip(pts)] == [v.hex() for v in reference]

    def test_hull_degenerates(self):
        hull = heistsp.beta._hulls
        assert hull(np.array([[0.0, 0.0]]), np.array([1]))[1].tolist() == [1]
        col = np.column_stack([np.linspace(0, 1, 5), np.zeros(5)])
        assert hull(col, np.array([5]))[1].tolist() == [2]
        w, theta, off = min_width_strip(col)
        assert w == 0.0 and theta == pytest.approx(0.0) and off == pytest.approx(0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("fn", [beta_heis, lambda pts, ball: beta_heis_many([(pts, ball)])[0],
                                beta_heis_oracle, beta_euclidean_2d],
                         ids=["heis", "many", "oracle", "euclidean"])
def test_ball_radius_must_be_finite_and_positive(fn, radius):
    # one ValueError naming the radius, before any scan: not a division by
    # zero, a dilation error, a numpy warning or a vacuous beta of 0
    with pytest.raises(ValueError, match="radius must be finite and positive, got %s"
                       % re.escape(repr(radius))):
        fn(intro_triple(0.1), Ball(ORIGIN, radius))
