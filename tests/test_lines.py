import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heistsp.core import (
    HeisPoint,
    ORIGIN,
    dist,
    group_inv,
    group_mul,
    koranyi_norm,
    nh,
    norm_arr,
    proj_pi,
    relative,
    sample_box,
    sigma,
)
from heistsp.lines import (
    HorizontalLine,
    canon_coords,
    foot,
    foot_params_arr,
    horizontal_line,
    golden_min_many,
    line_area,
    line_dist,
    line_from_point_direction,
    line_point_at,
    line_through_two,
    quartic_dists,
    sigma_l,
    transform_line,
    trapezoid_area,
)
from sequential import golden_min, point_canon_coords, quartic

X_AXIS = horizontal_line(0.0, 0.0, 0.0)


def line_dist_bracket(p: HeisPoint, line: HorizontalLine, iters: int = 120) -> float:
    """Golden-section distance on t in [-T, T], T = 4(N(p~)+1): the 1D oracle
    for the cubic root solve of line_dist, independent of it."""
    xt, yt, zt = point_canon_coords(p, line)
    hi = 4.0 * (koranyi_norm(HeisPoint(xt, yt, zt)) + 1.0)
    return golden_min(lambda t: quartic(t, xt, yt, zt), -hi, hi, iters)[1] ** 0.25


def line_dists_bracket_rowwise(pts, thetas, offsets, heights, iters: int = 100):
    """Golden-section distances for matched rows: the bulk oracle for the cubic solve."""
    xt, yt, zt = canon_coords(pts, np.cos(thetas), np.sin(thetas), offsets, heights)
    hi = 4.0 * (norm_arr(np.column_stack([xt, yt, zt])) + 1.0)
    return golden_min_many(lambda t: quartic(t, xt, yt, zt), -hi, hi, iters)[1] ** 0.25


def lines_close(l1: HorizontalLine, l2: HorizontalLine, tol: float = 1e-12) -> bool:
    """Compare canonical fields, handling the theta wrap at pi."""
    dt = abs(l1.theta - l2.theta)
    if dt < tol:
        return abs(l1.offset - l2.offset) <= tol and abs(l1.height - l2.height) <= tol
    if abs(dt - math.pi) < tol:  # same direction mod pi, flipped frame
        return abs(l1.offset + l2.offset) <= tol and abs(l1.height - l2.height) <= tol
    return False


def random_lines(rng, n, s=2.0):
    return (rng.uniform(0.0, math.pi, n), rng.uniform(-s, s, n),
            rng.uniform(-s * s, s * s, n))


class TestCanonicalForm:
    def test_from_point_direction_examples(self):
        assert line_from_point_direction(ORIGIN, 0.0) == HorizontalLine(0.0, 0.0, 0.0)
        ln = line_from_point_direction(HeisPoint(0, 1, 0), 0.0)
        assert ln == HorizontalLine(0.0, 1.0, 0.0)
        # the line is {(t, 1, -2t)}
        for t in (-1.0, 0.0, 2.5):
            p = line_point_at(ln, t)
            assert (p.x, p.y, p.z) == (pytest.approx(t), 1.0, pytest.approx(-2.0 * t))
        assert line_from_point_direction(HeisPoint(0, 0, 5), 0.0) == HorizontalLine(0.0, 0.0, 5.0)

    def test_contains_anchor(self):
        rng = np.random.default_rng(5)
        for row, theta in zip(sample_box(rng, 200), rng.uniform(-9, 9, 200)):
            g = HeisPoint(*map(float, row))
            ln = line_from_point_direction(g, theta)
            assert line_dist(g, ln) <= 1e-12 * (1.0 + koranyi_norm(g))

    @given(st.floats(-50.0, 50.0), st.floats(-3.0, 3.0), st.floats(-9.0, 9.0))
    @example(-5e-324, 0.0, 0.0)  # theta / pi underflows to -0.0
    @settings(max_examples=200, deadline=None)
    def test_theta_wrap_preserves_point_set(self, theta, offset, height):
        ln = horizontal_line(theta, offset, height)
        assert 0.0 <= ln.theta < math.pi
        # the raw frame (theta, offset, height) and the canonical triple
        # describe the same set: a raw-frame point lies on the canonical line
        # rotation roundoff of order 1e-16 in z shows up as ~1e-8 in
        # Koranyi distance (square-root scaling); tolerance reflects that
        for t in (-1.0, 0.7):
            c, s = math.cos(theta), math.sin(theta)
            raw = HeisPoint(c * t - s * offset, s * t + c * offset,
                            height - 2.0 * offset * t)
            assert line_dist(raw, ln) <= 1e-6 * (1.0 + abs(theta) + abs(height) + abs(offset))
        # a flip by pi negates the offset and keeps the set
        assert lines_close(horizontal_line(theta + math.pi, offset, height),
                           horizontal_line(theta, -offset, height), tol=1e-9)

    def test_point_at_examples(self):
        assert line_point_at(X_AXIS, 3.0) == HeisPoint(3.0, 0.0, 0.0)
        ln = horizontal_line(0.0, 1.0, 0.0)
        assert line_point_at(ln, 1.0) == HeisPoint(1.0, 1.0, -2.0)

    def test_point_at_isometry(self):
        rng = np.random.default_rng(6)
        for theta, off, hgt in zip(*random_lines(rng, 100)):
            ln = horizontal_line(theta, off, hgt)
            s, t = rng.uniform(-5, 5, 2)
            assert dist(line_point_at(ln, s), line_point_at(ln, t)) == pytest.approx(
                abs(s - t), rel=1e-12, abs=1e-12)
            assert dist(line_point_at(ln, 0.0), line_point_at(ln, 1.0)) == pytest.approx(1.0)


class TestFoot:
    def test_perpendicular_drop(self):
        ft = foot(HeisPoint(0, 2, 0), X_AXIS)
        assert ft.co_foot == HeisPoint(0.0, 0.0, 0.0)
        assert ft.line_point == HeisPoint(0.0, 0.0, 0.0)
        assert ft.param == 0.0

    def test_point_on_line(self):
        p = line_point_at(horizontal_line(0.3, -0.4, 1.2), 0.8)
        ft = foot(p, horizontal_line(0.3, -0.4, 1.2))
        assert dist(ft.co_foot, p) <= 1e-12
        assert dist(ft.line_point, p) <= 1e-12

    def test_vertical_branch(self):
        ft = foot(HeisPoint(0, 0, 1), X_AXIS)
        assert ft.co_foot == HeisPoint(0.0, 0.0, 1.0)
        assert ft.line_point == HeisPoint(0.0, 0.0, 0.0)

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        pts = sample_box(rng, 500)
        for row, (theta, off, hgt) in zip(pts, zip(*random_lines(rng, 500))):
            p = HeisPoint(*map(float, row))
            ln = horizontal_line(theta, off, hgt)
            ft = foot(p, ln)
            assert proj_pi(ft.co_foot) == pytest.approx(proj_pi(ft.line_point))
            # co-horizontality: assert the z coordinate at machine precision;
            # nh takes its square root, so 1e-16 roundoff reads as ~1e-8
            gap = group_mul(group_inv(ft.co_foot), p)
            scale = 1.0 + abs(p.z) + koranyi_norm(p) ** 2
            assert abs(gap.z) <= 1e-13 * scale
            assert nh(gap) <= 1e-6 * scale
            # plane perpendicularity against the line direction
            dvec = (math.cos(ln.theta), math.sin(ln.theta))
            drop = (p.x - ft.co_foot.x, p.y - ft.co_foot.y)
            scale = max(1.0, abs(drop[0]) + abs(drop[1]))
            assert abs(dvec[0] * drop[0] + dvec[1] * drop[1]) <= 1e-10 * scale


class TestLineDist:
    def test_examples(self):
        assert line_dist(HeisPoint(0, 2.5, 0), X_AXIS) == pytest.approx(2.5)
        assert line_dist(HeisPoint(0, 0, 4), X_AXIS) == pytest.approx(2.0)
        assert line_dist(line_point_at(X_AXIS, 1.3), X_AXIS) == 0.0

    def test_cubic_against_golden_scalar(self):
        rng = np.random.default_rng(8)
        for row, (theta, off, hgt) in zip(sample_box(rng, 300), zip(*random_lines(rng, 300))):
            p = HeisPoint(*map(float, row))
            ln = horizontal_line(theta, off, hgt)
            d1, d2 = line_dist(p, ln), line_dist_bracket(p, ln)
            assert d1 == pytest.approx(d2, rel=1e-8, abs=1e-12)

    def test_cubic_against_golden_bulk(self):
        rng = np.random.default_rng(9)
        n = 100_000
        pts = sample_box(rng, n)
        th, off, hgt = random_lines(rng, n)
        d1 = quartic_dists(*canon_coords(pts, np.cos(th), np.sin(th), off, hgt))
        d2 = line_dists_bracket_rowwise(pts, th, off, hgt)
        assert np.all(np.abs(d1 - d2) <= 1e-8 * np.maximum(d2, 1e-12))

    def test_two_sided_split_bound(self):
        rng = np.random.default_rng(10)
        n = 100_000
        pts = sample_box(rng, n)
        th, off, hgt = random_lines(rng, n)
        xt, yt, zt = canon_coords(pts, np.cos(th), np.sin(th), off, hgt)
        mix = (yt ** 4 + (zt - 2.0 * xt * yt) ** 2) ** 0.25
        d = quartic_dists(xt, yt, zt)
        assert np.all(d >= 0.5 * mix * (1.0 - 1e-9))
        assert np.all(d <= 2.0 * mix * (1.0 + 1e-9) + 1e-300)

    def test_foot_point_factor(self):
        rng = np.random.default_rng(11)
        n = 100_000
        pts = sample_box(rng, n)
        th, off, hgt = random_lines(rng, n)
        xt, yt, zt = canon_coords(pts, np.cos(th), np.sin(th), off, hgt)
        d_vert = ((yt * yt) ** 2 + (zt - 2.0 * xt * yt) ** 2) ** 0.25
        d = quartic_dists(xt, yt, zt)
        assert np.all(d_vert <= 4.0 * d * (1.0 + 1e-9))


def _central_differences(f, args, j, h):
    """(f(args + h e_j) - f(args - h e_j)) / 2h, over arrays of args."""
    up, down = list(args), list(args)
    up[j], down[j] = args[j] + h, args[j] - h
    return (f(*up) - f(*down)) / (2.0 * h)


#: rows at y~ of about 1e-12, where the vertical drop beats the cubic root
#: on a few rows by a rounding
DROP_ROWS = np.random.default_rng(4).uniform([-2.0, -1e-12, -4.0], [2.0, 1e-12, 4.0], (400, 3)).T


@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-120, 1e-12, 1.0]),
                          st.floats(-2.0, 2.0), st.floats(-4.0, 4.0)), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_kernel_gradient_against_central_differences(rows):
    """The derivatives of d^4 that quartic_dists returns match central
    differences of quartic_dists on rows with y~ = 0, rows at y~ = 1e-120,
    whose cubic root takes the -cbrt(q) form, and rows where the vertical
    drop wins (at y~ near 1e-12, where d(d^4)/dy~ has a cusp of height
    4 |z~| cbrt(|y~ z~|) that a step wider than y~ averages out); and its
    Hessian matches central differences of that gradient on the rows with
    |y~| >= 0.1, where the step is small against the root's scale y~^2."""
    x, ys, ym, z = (np.array(v) for v in zip(*rows))
    x, y, z = (np.concatenate([v, w]) for v, w in zip((x, ys * ym, z), DROP_ROWS))
    d, grad, hess = quartic_dists(x.copy(), y.copy(), z.copy(), grad=True)
    assert np.array_equal(d, quartic_dists(x.copy(), y.copy(), z.copy()))
    assert (grad[0][-400:] == 0.0).any()        # t = x~: the drop won
    scale = 1.0 + np.maximum(np.maximum(np.abs(x), np.abs(y)), np.sqrt(np.abs(z)))
    h = 1e-6
    cusp = np.where(np.abs(y) < h, 8.0 * np.abs(z) * np.cbrt(np.abs(z) * h), 0.0)
    for j, g in enumerate(grad):
        num = _central_differences(lambda *a: quartic_dists(*a) ** 4, (x, y, z), j, h)
        assert np.all(np.abs(g - num) <= 1e-6 * scale ** 3 + (cusp if j == 1 else 0.0)), j
    smooth = np.abs(y) >= 0.1
    for (a, b), hab in zip([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)], hess):
        num = _central_differences(lambda *q: quartic_dists(*(v.copy() for v in q), grad=True)[1][a],
                                   (x, y, z), b, h)
        assert np.all((np.abs(hab - num) <= 1e-4 * scale ** 2)[smooth]), (a, b)


class TestAreas:
    def test_trapezoid_examples(self):
        a, b = HeisPoint(1.0, 0.0, 0.3), HeisPoint(2.0, 0.0, -0.1)
        assert trapezoid_area(a, b, X_AXIS) == 0.0  # both project onto the line
        a, b = HeisPoint(0, 1, 0), HeisPoint(1, 1, 0)
        assert trapezoid_area(a, b, X_AXIS) == pytest.approx(-1.0)
        assert trapezoid_area(b, a, X_AXIS) == pytest.approx(1.0)

    def test_sigma_l_degenerate(self):
        ln = horizontal_line(0.4, 0.7, -1.0)
        a, b = line_point_at(ln, -1.0), line_point_at(ln, 2.0)
        assert sigma_l(a, b, ln) == pytest.approx(0.0, abs=1e-12)
        p = HeisPoint(1, 2, 3)
        assert sigma_l(p, p, ln) == 0.0

    def test_sigma_l_feet_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = HeisPoint(*map(float, sample_box(rng, 1)[0]))
            b = HeisPoint(*map(float, sample_box(rng, 1)[0]))
            ln = horizontal_line(rng.uniform(0, math.pi), rng.uniform(-2, 2), rng.uniform(-4, 4))
            fa, fb = foot(a, ln), foot(b, ln)
            val = sigma_l(a, b, ln)
            assert val == pytest.approx(sigma(fa.co_foot, fb.co_foot), rel=1e-9, abs=1e-12)
            assert nh(group_mul(group_inv(fa.co_foot), fb.co_foot)) == pytest.approx(
                2.0 * abs(val) ** 0.5, rel=1e-9, abs=1e-9)

    def test_sigma_l_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000 // 10):  # 1e3 triples of fresh draws, plus the bulk below
            a, b, c = (HeisPoint(*map(float, r)) for r in sample_box(rng, 3))
            ln = horizontal_line(rng.uniform(0, math.pi), rng.uniform(-2, 2), rng.uniform(-4, 4))
            whole = sigma_l(a, c, ln)
            split = sigma_l(a, b, ln) + sigma_l(b, c, ln)
            scale = max(abs(whole), abs(split), koranyi_norm(a) ** 2, 1e-30)
            assert abs(whole - split) <= 1e-10 * scale

    def test_sigma_l_additivity_bulk(self):
        # the same identity through the line-area kernel on rows, as verify calls it
        rng = np.random.default_rng(14)
        n = 10_000
        a, b, c = sample_box(rng, n), sample_box(rng, n), sample_box(rng, n)
        th = rng.uniform(0, math.pi, n)
        off = rng.uniform(-2, 2, n)
        hgt = rng.uniform(-4, 4, n)
        cs, sn = np.cos(th), np.sin(th)

        def sigma_rows(p, q):
            xp, yp, _ = canon_coords(p, cs, sn, off, hgt)
            xq, yq, _ = canon_coords(q, cs, sn, off, hgt)
            return 0.25 * relative(*p.T, *q.T)[2] + line_area(xp, yp, xq, yq, off)

        whole = sigma_rows(a, c)
        split = sigma_rows(a, b) + sigma_rows(b, c)
        scale = np.maximum(np.abs(whole), 1.0)
        assert np.all(np.abs(whole - split) <= 1e-10 * scale)

    def test_split_example_on_unit_square(self):
        a, b = HeisPoint(0, 1, 0), HeisPoint(1, 1, 0)
        m = HeisPoint(0.5, 1.0, 0.7)
        whole = sigma_l(a, b, X_AXIS)
        assert whole == pytest.approx(sigma(a, b) + trapezoid_area(a, b, X_AXIS))
        assert sigma_l(a, m, X_AXIS) + sigma_l(m, b, X_AXIS) == pytest.approx(whole)


class TestPairBounds:
    def test_line_area_bound_sampled(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            a = HeisPoint(*map(float, sample_box(rng, 1)[0]))
            b = HeisPoint(*map(float, sample_box(rng, 1)[0]))
            ln = horizontal_line(rng.uniform(0, math.pi), rng.uniform(-2, 2), rng.uniform(-4, 4))
            lhs = max(line_dist(a, ln), line_dist(b, ln))
            assert lhs >= 0.5 * abs(sigma_l(a, b, ln)) ** 0.5 * (1.0 - 1e-9)

    def test_pair_flatness_floor_uniform_in_line(self):
        # the bound does not depend on the line: stress each pair with many lines
        rng = np.random.default_rng(16)
        n_pairs, n_lines = 2000, 100
        a = np.repeat(sample_box(rng, n_pairs), n_lines, axis=0)
        b = np.repeat(sample_box(rng, n_pairs), n_lines, axis=0)
        th, off, hgt = random_lines(rng, n_pairs * n_lines)
        cs, sn = np.cos(th), np.sin(th)
        da = quartic_dists(*canon_coords(a, cs, sn, off, hgt))
        db = quartic_dists(*canon_coords(b, cs, sn, off, hgt))
        dz = np.abs(b[:, 2] - a[:, 2] - 2.0 * (a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))
        dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
        r2 = dx * dx + dy * dy
        dab = (r2 * r2 + dz * dz) ** 0.25
        keep = dab > 0
        lhs = np.maximum(da, db)[keep]
        rhs = dz[keep] / (16.0 * dab[keep])
        assert np.all(lhs >= rhs * (1.0 - 1e-9))


class TestTransform:
    def test_transform_maps_points(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ln = horizontal_line(rng.uniform(0, math.pi), rng.uniform(-2, 2), rng.uniform(-4, 4))
            g = HeisPoint(*map(float, sample_box(rng, 1)[0]))
            lam = float(10.0 ** rng.uniform(-1, 1))
            image = transform_line(ln, g=g, lam=lam)
            for t in (-1.0, 0.5, 2.0):
                from heistsp.core import dilate
                moved = group_mul(g, dilate(lam, line_point_at(ln, t)))
                # sqrt-scale tolerance: z roundoff enters the metric as its root
                assert line_dist(moved, image) <= 2e-7 * (1.0 + koranyi_norm(moved)) ** 2

    def test_line_through_two_collinear(self):
        a = HeisPoint(0.2, -0.3, 0.15)
        direction = 0.77
        b = line_point_at(line_from_point_direction(a, direction), 2.0)
        ln = line_through_two(a, b)
        assert line_dist(a, ln) <= 1e-12
        assert line_dist(b, ln) <= 1e-7

    def test_foot_params_match_scalar(self):
        rng = np.random.default_rng(18)
        pts = sample_box(rng, 50)
        ln = horizontal_line(1.1, 0.3, -0.7)
        params = foot_params_arr(pts, ln)
        for row, t in zip(pts, params):
            assert foot(HeisPoint(*map(float, row)), ln).param == pytest.approx(float(t))
