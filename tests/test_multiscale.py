import sys
import warnings

import numpy as np
import pytest

import heistsp.curves
import heistsp.multiscale
from heistsp.beta import ResourceBudgetError
from heistsp.core import HeisPoint, ORIGIN, as_array, diameter, dilate, dist, dist_matrix
from heistsp.curves import PolygonalCurve, curve_length, resample_curve
from heistsp.multiscale import (
    NetHierarchy,
    build_nets,
    carleson_sum,
    default_scale_range,
    farthest_point_order,
    theorem_b_check,
)
from conftest import corner_curve_vertices, horizontal_points, intro_triple

#: frozen regressions (default budget, seed 0)
INTRO_CARLESON = 5.8953e-06       # r=3, A=2 on the eps=0.1 triple
CORNER_RATIO = 0.0011981          # theorem-b, density 64, r=4, A=4


def assert_net_invariants(h: NetHierarchy):
    dm = dist_matrix(h.points)
    n = h.points.shape[0]
    for k in range(h.k_min, h.k_max + 1):
        net = h.nets[k]
        cut = 2.0 ** (-k)
        for i, a in enumerate(net):
            for b in net[i + 1:]:
                assert dm[a, b] > cut
        if net:
            assert np.all(dm[:, net].min(axis=1) <= cut * (1.0 + 1e-12))
        if k > h.k_min:
            assert set(h.nets[k - 1]) <= set(net)


class TestNets:
    def test_single_point(self):
        h = build_nets([HeisPoint(1, 2, 3)], 0, 4)
        for k in range(0, 5):
            assert h.nets[k] == [0]

    def test_two_points_at_the_boundary(self):
        pts = [ORIGIN, HeisPoint(1, 0, 0)]
        h = build_nets(pts, 0, 2)
        # d = 1 is not > 2^0, so the strict rule keeps only the seed at k=0
        assert h.nets[0] == [0]
        assert h.nets[1] == [0, 1]
        # both one-point candidates are valid nets: separation is vacuous and
        # each covers the other point at distance exactly 1 (closed condition)
        for cand in ([0], [1]):
            other = 1 - cand[0]
            assert dist(pts[cand[0]], pts[other]) <= 1.0

    def test_invariants_random_cloud(self):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-0.5, 0.5, (100, 3))
        h = build_nets(pts, -1, 5)
        assert_net_invariants(h)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_nets([], 0, 3)

    def test_warns_when_top_scale_small(self):
        with pytest.warns(UserWarning):
            build_nets([ORIGIN, HeisPoint(4, 0, 0)], 2, 4)

    def test_no_warning_when_coarsest_net_is_one_point(self):
        # diam 1.2 exceeds 2^0, yet every point lies within 1 of the seed
        pts = [ORIGIN, HeisPoint(0.6, 0, 0), HeisPoint(-0.6, 0, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = build_nets(pts, 0, 2)
        assert h.nets[0] == [0]

    def test_default_range_from_one_traversal(self, monkeypatch):
        rng = np.random.default_rng(36)
        arr = rng.uniform(-0.5, 0.5, (60, 3))
        ref = build_nets(arr, *default_scale_range(arr))
        calls = []
        for name in ("farthest_point_order", "diameter"):
            orig = getattr(heistsp.multiscale, name)
            monkeypatch.setattr(heistsp.multiscale, name,
                                lambda *a, _n=name, _f=orig: calls.append(_n) or _f(*a))
        h = build_nets(arr)
        assert sorted(calls) == ["diameter", "farthest_point_order"]
        assert (h.k_min, h.k_max, h.nets) == (ref.k_min, ref.k_max, ref.nets)
        assert h.diam == diameter(arr) and ref.diam is None
        assert carleson_sum(h, 3.0, 2.0).diam_e == h.diam
        assert build_nets([HeisPoint(1, 2, 3)] * 2).nets == {0: [0]}
        with pytest.raises(ValueError):
            build_nets(arr, 0)

    def test_farthest_order_prefix(self):
        rng = np.random.default_rng(35)
        pts = rng.uniform(-1, 1, (40, 3))
        order, radii = farthest_point_order(pts)
        for m in (1, 7, 40, 55):
            assert farthest_point_order(pts, m) == (order[:m], radii[:m])

    def test_farthest_order_radii_decrease(self):
        rng = np.random.default_rng(33)
        pts = rng.uniform(-1, 1, (50, 3))
        _, radii = farthest_point_order(pts)
        finite = radii[1:]
        assert all(x >= y for x, y in zip(finite, finite[1:]))


class TestCarleson:
    def test_horizontal_zero(self):
        pts = horizontal_points(12)
        arr = as_array(pts)
        k0, k1 = default_scale_range(arr)
        h = build_nets(arr, k0, k1)
        for r in (2.5, 3.0, 4.0):
            rep = carleson_sum(h, r, 2.0)
            assert rep.total <= 1e-9 * rep.diam_e

    def test_single_point_zero(self):
        h = build_nets([HeisPoint(1, 1, 1)], 0, 3)
        assert carleson_sum(h, 3.0, 2.0).total == 0.0

    def test_intro_triple_regression(self):
        arr = as_array(intro_triple(0.1))
        k0, k1 = default_scale_range(arr)
        rep = carleson_sum(build_nets(arr, k0, k1), 3.0, 2.0)
        assert rep.total > 0.0
        assert rep.total == pytest.approx(INTRO_CARLESON, rel=0.10)
        # dominated by the scales near diam(E)
        coarse = sum(t.contribution for t in rep.terms if t.k <= k0 + 1)
        assert coarse >= 0.9 * rep.total

    def test_parameter_validation(self):
        h = build_nets([ORIGIN, HeisPoint(1, 0, 0)], 0, 2)
        with pytest.raises(ValueError):
            carleson_sum(h, 9.0, 2.0)
        with pytest.raises(ValueError):
            carleson_sum(h, 3.0, 0.5)

    def test_beta_failure_keeps_its_exception(self, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        err = TwoArgError(7, "no fit")

        def fail(*args, **kwargs):
            raise err

        monkeypatch.setattr(heistsp.multiscale, "beta_heis_many", fail)
        with pytest.raises(TwoArgError) as info:   # one scale of one ball
            carleson_sum(build_nets([ORIGIN, HeisPoint(1, 0, 0)], 0, 0), 3.0, 2.0)
        assert info.value is err and err.args == (7, "no fit")
        if sys.version_info >= (3, 11):
            assert err.__notes__ == ["in carleson_sum at scale k=0, net point %r" % (ORIGIN,)]

    def test_beta_failure_in_a_batch_names_the_scale(self, monkeypatch):
        err = RuntimeError("no fit")
        batches = []

        def fail(items, budget, seeds):
            batches.append(len(items))
            raise err

        monkeypatch.setattr(heistsp.multiscale, "beta_heis_many", fail)
        # one call for every scale (one ball at k=0, two below): the note
        # gives the scale range and the ball count, or the scale when there is one
        for k0, k1, n, where in [(0, 2, 5, "scales k=0..2, 5 net points"),
                                 (0, 1, 3, "scales k=0..1, 3 net points"),
                                 (1, 1, 2, "scale k=1, 2 net points")]:
            batches.clear()
            err.__notes__ = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")    # two points in the coarsest net at k0 = 1
                h = build_nets([ORIGIN, HeisPoint(1, 0, 0)], k0, k1)
            with pytest.raises(RuntimeError) as info:
                carleson_sum(h, 3.0, 2.0)
            assert info.value is err and batches == [n]
            if sys.version_info >= (3, 11):
                assert err.__notes__ == ["in carleson_sum at " + where]

    def test_unnormalized_minimax_monotone_in_a(self):
        # beta * diam is monotone under ball enlargement (superset of points,
        # same competitor lines); the normalized report reflects that per term
        arr = as_array(intro_triple(0.1))
        k0, k1 = default_scale_range(arr)
        h = build_nets(arr, k0, k1)
        lo = carleson_sum(h, 3.0, 2.0)
        hi = carleson_sum(h, 3.0, 4.0)
        for tl, th in zip(lo.terms, hi.terms):
            slack = (tl.gap * 2.0 + th.gap * 4.0) + 1e-9
            assert th.beta * 4.0 >= tl.beta * 2.0 - slack

    def test_larger_exponent_smaller_sum(self):
        arr = as_array(intro_triple(0.1))
        k0, k1 = default_scale_range(arr)
        h = build_nets(arr, k0, k1)
        assert carleson_sum(h, 3.5, 2.0).total <= carleson_sum(h, 3.0, 2.0).total + 1e-15


class TestTheoremB:
    def test_horizontal_segment(self):
        seg = PolygonalCurve([ORIGIN, HeisPoint(1, 0, 0)])
        total, length, ratio = theorem_b_check(seg, 64.0)
        assert length == pytest.approx(1.0)
        assert total <= 1e-9 * length
        assert ratio <= 1e-9

    def test_corner_regression(self):
        corner = PolygonalCurve(corner_curve_vertices())
        r0 = theorem_b_check(corner, 64.0, seed=0)
        r1 = theorem_b_check(corner, 64.0, seed=1)
        assert r0[2] == pytest.approx(CORNER_RATIO, rel=0.10)
        assert r1[2] == pytest.approx(r0[2], rel=0.10)

    def test_scaling_invariance(self):
        corner = PolygonalCurve(corner_curve_vertices())
        base = theorem_b_check(corner, 64.0, seed=0)
        for lam in (0.5, 2.0):
            dilated = PolygonalCurve([dilate(lam, v) for v in corner.vertices])
            scaled = theorem_b_check(dilated, 64.0 / lam, seed=0)
            assert scaled[2] == pytest.approx(base[2], rel=0.05)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            theorem_b_check(PolygonalCurve([ORIGIN]), 8.0)


class TestResample:
    def test_horizontal_chord(self):
        seg = PolygonalCurve([ORIGIN, HeisPoint(1, 0, 0)])
        pts = resample_curve(seg, 0.25)
        arr = as_array(pts)
        assert np.all(np.abs(arr[:, 1]) == 0.0) and np.all(np.abs(arr[:, 2]) == 0.0)
        assert len(pts) == 5
        assert pts[0] == ORIGIN and pts[-1] == HeisPoint(1, 0, 0)

    def test_vertical_edge_closes_z_gap(self):
        curve = PolygonalCurve([ORIGIN, HeisPoint(0, 0, 0.5)])
        pts = resample_curve(curve, 0.05)
        assert pts[-1] == HeisPoint(0, 0, 0.5)
        steps = [dist(a, b) for a, b in zip(pts, pts[1:])]
        assert max(steps) <= 0.2  # small horizontal hops realize the lift

    def test_sampled_length_near_curve_length(self):
        curve = PolygonalCurve(corner_curve_vertices())
        pts = resample_curve(curve, 0.01)
        total = sum(dist(a, b) for a, b in zip(pts, pts[1:]))
        assert total == pytest.approx(curve_length(curve), rel=1e-6)

    def test_count_capped_before_allocating(self, monkeypatch):
        # 1e12 points along the chord, or an overflowed one: an uncapped run never ends
        for far in (HeisPoint(1e12, 0, 0), HeisPoint(1e200, -1e200, 0)):
            with pytest.raises(ResourceBudgetError, match="needs more than"):
                resample_curve(PolygonalCurve([ORIGIN, far]), 1.0)
        # the cap counts every point: the start, 4 chord steps, then the
        # vertical edge's one zero chord step and 6 loop steps
        curve = PolygonalCurve([ORIGIN, HeisPoint(1, 0, 0), HeisPoint(1, 0, 0.5)])
        assert len(resample_curve(curve, 0.25)) == 12
        monkeypatch.setattr(heistsp.curves, "MAX_SAMPLES", 11)
        with pytest.raises(ResourceBudgetError):
            resample_curve(curve, 0.25)
        monkeypatch.setattr(heistsp.curves, "MAX_SAMPLES", 12)
        assert len(resample_curve(curve, 0.25)) == 12
