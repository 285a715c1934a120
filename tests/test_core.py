import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heistsp
from heistsp.core import (
    HeisPoint,
    ORIGIN,
    dilate,
    dilate_arr,
    dist,
    dist_arr,
    dist_matrix,
    dist_point_arr,
    frame,
    gauge,
    group_inv,
    group_mul,
    heis_point,
    koranyi_norm,
    left_translate_arr,
    nh,
    norm_arr,
    product,
    proj_pi,
    proj_tilde,
    relative,
    rotate_arr,
    rotate_z,
    sample_box,
    sigma,
)

coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
points = st.builds(HeisPoint, coord, coord, coord)


class TestGroupLaw:
    def test_identity(self):
        assert group_mul(ORIGIN, HeisPoint(3, -1, 5)) == HeisPoint(3, -1, 5)

    def test_cross_term(self):
        assert group_mul(HeisPoint(1, 0, 0), HeisPoint(0, 1, 0)) == HeisPoint(1, 1, 2)

    def test_inverse_product(self):
        assert group_mul(HeisPoint(1, 2, 3), HeisPoint(-1, -2, -3)) == ORIGIN

    def test_inverse_values(self):
        assert group_inv(ORIGIN) == ORIGIN
        assert group_inv(HeisPoint(1, 2, 3)) == HeisPoint(-1, -2, -3)
        assert group_inv(HeisPoint(0, 0, 7)) == HeisPoint(0, 0, -7)

    @given(points, points, points)
    @settings(max_examples=200, deadline=None)
    def test_associative(self, a, b, c):
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        scale = 1.0 + max(abs(v) for v in lhs)
        assert all(abs(x - y) <= 1e-9 * scale for x, y in zip(lhs, rhs))

    @given(points)
    @settings(max_examples=200, deadline=None)
    def test_inverse_cancels(self, a):
        assert group_mul(a, group_inv(a)) == ORIGIN


class TestNormAndDist:
    def test_norm_values(self):
        assert koranyi_norm(HeisPoint(1, 0, 0)) == 1.0
        assert koranyi_norm(HeisPoint(0, 0, 4)) == 2.0
        # two independent evaluation paths for ((x^2+y^2)^2 + z^2)^(1/4)
        direct = koranyi_norm(HeisPoint(1, 1, 2))
        r2 = 1.0 + 1.0
        assert direct == pytest.approx((r2 * r2 + 4.0) ** 0.25)
        assert direct == pytest.approx(8.0 ** 0.25)

    def test_gauge_on_floats_and_arrays(self):
        assert gauge(3.0, -4.0, 0.0) == 5.0 and gauge(0.0, 0.0, -4.0) == 2.0
        arr = sample_box(np.random.default_rng(4), 20)
        got = gauge(arr[:, 0], arr[:, 1], arr[:, 2])
        assert np.array_equal(got, norm_arr(arr))
        assert got == pytest.approx([koranyi_norm(HeisPoint(*row)) for row in arr.tolist()],
                                    rel=1e-15)

    def test_dist_values(self):
        p = HeisPoint(0.3, -0.2, 1.1)
        assert dist(p, p) == 0.0
        assert dist(ORIGIN, HeisPoint(1, 0, 0)) == 1.0
        assert dist(HeisPoint(-1, 0, 0), HeisPoint(1, 0, 0)) == 2.0

    def test_norm_zero_only_at_origin(self):
        assert koranyi_norm(ORIGIN) == 0.0
        assert koranyi_norm(HeisPoint(0, 0, 1e-12)) > 0.0


class TestSymmetries:
    def test_dilate_values(self):
        p = HeisPoint(1.0, 1.0, 1.0)
        assert dilate(1.0, p) == p
        assert dilate(2.0, p) == HeisPoint(2, 2, 4)
        assert dilate(0.5, HeisPoint(2, 0, 4)) == HeisPoint(1, 0, 1)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_dilate_rejects(self, lam):
        with pytest.raises(ValueError):
            dilate(lam, ORIGIN)
        with pytest.raises(ValueError):
            dilate_arr(lam, np.zeros((1, 3)))

    def test_rotate_values(self):
        p = HeisPoint(1.0, 0.0, 5.0)
        assert rotate_z(0.0, p) == p
        q = rotate_z(math.pi / 2.0, p)
        assert q.x == pytest.approx(0.0, abs=1e-15)
        assert q.y == pytest.approx(1.0)
        assert q.z == 5.0
        r = rotate_z(math.pi, HeisPoint(1, 1, -2))
        assert (r.x, r.y) == (pytest.approx(-1.0), pytest.approx(-1.0))
        assert r.z == -2.0

    def test_projections(self):
        assert proj_pi(HeisPoint(1, 2, 3)) == (1.0, 2.0)
        assert proj_pi(HeisPoint(0, 0, 9)) == (0.0, 0.0)
        a, b = HeisPoint(1, 0, 0), HeisPoint(0, 1, 0)
        assert proj_pi(group_mul(a, b)) == (1.0, 1.0)  # homomorphism
        assert proj_tilde(HeisPoint(1, 2, 3)) == HeisPoint(1, 2, 0)

    def test_nh_values(self):
        assert nh(HeisPoint(5, -3, 0)) == 0.0
        assert nh(HeisPoint(0, 0, 4)) == 2.0
        p = HeisPoint(1, 1, 2)
        composed = koranyi_norm(group_mul(group_inv(p), proj_tilde(p)))
        assert nh(p) == pytest.approx(math.sqrt(2.0))
        assert composed == pytest.approx(nh(p))

    def test_sigma_values(self):
        p = HeisPoint(0.1, 0.2, 0.3)
        assert sigma(p, p) == 0.0
        assert sigma(ORIGIN, HeisPoint(0, 0, 4)) == 1.0
        a, b = HeisPoint(1, 0, 0), HeisPoint(0, 1, 0)
        assert sigma(a, b) == -0.5
        assert nh(group_mul(group_inv(a), b)) == pytest.approx(2.0 * abs(sigma(a, b)) ** 0.5)

    def test_heis_point_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            heis_point(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            heis_point(0.0, float("inf"), 0.0)


class TestDistanceKernel:
    """dist_arr against the scalar dist on every shape it serves, bit for
    bit: both take the fourth root as a square root of a square root, which
    is correctly rounded on floats (math.sqrt) and arrays (np.sqrt) alike."""

    def test_point_against_rows(self):
        arr = sample_box(np.random.default_rng(108), 200)
        for row in arr[:10]:
            p = HeisPoint(*map(float, row))
            want = np.array([dist(p, HeisPoint(*map(float, q))) for q in arr])
            got = dist_arr(row, arr)
            assert np.array_equal(got, want)
            assert np.array_equal(dist_point_arr(p, arr), got)
            assert [float(dist_arr(row, q)) for q in arr] == want.tolist()

    def test_all_pairs(self):
        arr = sample_box(np.random.default_rng(109), 40)
        pts = [HeisPoint(*map(float, row)) for row in arr]
        want = np.array([[dist(a, b) for b in pts] for a in pts])
        got = dist_arr(arr[:, None, :], arr[None, :, :])
        assert np.array_equal(got, want)
        assert np.array_equal(dist_matrix(arr), got)
        for row, a in zip(got, arr):
            assert np.array_equal(row, dist_arr(a, arr))


class TestMetricProperties:
    """Seeded batch checks of the metric axioms and symmetry invariances."""

    def test_triangle_inequality(self):
        rng = np.random.default_rng(101)
        n = 100_000
        a, b, c = sample_box(rng, n), sample_box(rng, n), sample_box(rng, n)
        dab = dist_arr(a, b)
        dbc = dist_arr(b, c)
        dac = dist_arr(a, c)
        scale = np.maximum(np.maximum(dab, dbc), dac)
        assert np.all(dac <= dab + dbc + 1e-12 * scale)

    def test_left_invariance(self):
        rng = np.random.default_rng(102)
        n = 100_000
        a, b, g = sample_box(rng, n), sample_box(rng, n), sample_box(rng, n)
        base = dist_arr(a, b)
        moved = np.empty(n)
        # translate in blocks sharing one g to keep this vectorized
        for lo in range(0, n, 1000):
            hi = min(lo + 1000, n)
            gp = HeisPoint(*map(float, g[lo]))
            moved[lo:hi] = dist_arr(
                left_translate_arr(gp, a[lo:hi]), left_translate_arr(gp, b[lo:hi]))
        mask = base > 0
        assert np.all(np.abs(moved[mask] - base[mask]) <= 1e-12 * base[mask] + 1e-13)

    def test_dilation_scaling(self):
        rng = np.random.default_rng(103)
        n = 10_000
        a, b = sample_box(rng, n), sample_box(rng, n)
        base = dist_arr(a, b)
        for lam in 10.0 ** rng.uniform(-3, 3, 8):
            scaled = dist_arr(dilate_arr(lam, a.copy()), dilate_arr(lam, b.copy()))
            assert np.all(np.abs(scaled - lam * base) <= 1e-10 * lam * base + 1e-300)

    def test_rotation_isometry(self):
        rng = np.random.default_rng(104)
        n = 10_000
        a, b = sample_box(rng, n), sample_box(rng, n)
        base = dist_arr(a, b)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 8):
            rotated = dist_arr(rotate_arr(theta, a), rotate_arr(theta, b))
            assert np.all(np.abs(rotated - base) <= 1e-12 * base + 1e-13)

    def test_projection_lipschitz(self):
        rng = np.random.default_rng(105)
        n = 100_000
        a, b = sample_box(rng, n), sample_box(rng, n)
        planar = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
        assert np.all(planar <= dist_arr(a, b) * (1.0 + 1e-12))

    def test_nh_below_dist(self):
        rng = np.random.default_rng(106)
        n = 100_000
        a, b = sample_box(rng, n), sample_box(rng, n)
        dz = np.abs(b[:, 2] - a[:, 2] - 2.0 * (a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))
        assert np.all(np.sqrt(dz) <= dist_arr(a, b) * (1.0 + 1e-12))

    def test_norm_dilation_homogeneity(self):
        rng = np.random.default_rng(107)
        arr = sample_box(rng, 1000)
        base = norm_arr(arr)
        for lam in (0.001, 0.1, 7.0, 1000.0):
            scaled = norm_arr(dilate_arr(lam, arr.copy()))
            assert np.allclose(scaled, lam * base, rtol=1e-12)


def test_group_law_kernels_on_floats_and_arrays():
    """product, relative and frame give on Python floats the bits of each
    element of one array call, and the point and array forms built on them
    agree bit for bit."""
    rng = np.random.default_rng(12)
    a, b = sample_box(rng, 200), sample_box(rng, 200)
    theta = rng.uniform(-math.pi, math.pi, 200)
    c, s = np.cos(theta), np.sin(theta)
    for kernel, args in ((product, (*a.T, *b.T)), (relative, (*a.T, *b.T)),
                         (frame, (c, s, a[:, 0], a[:, 1]))):
        got = np.column_stack(kernel(*args))
        want = np.array([kernel(*row) for row in zip(*(v.tolist() for v in args))])
        assert got.tobytes() == want.tobytes(), kernel.__name__
    pts = [HeisPoint(*row) for row in b.tolist()]
    for g, t in zip([HeisPoint(*row) for row in a[:5].tolist()], theta[:5].tolist()):
        assert left_translate_arr(g, b).tobytes() == np.array([group_mul(g, q) for q in pts]).tobytes()
        assert rotate_arr(t, b).tobytes() == np.array([rotate_z(t, q) for q in pts]).tobytes()
    a, b = sample_box(rng, 20000, 3.0), sample_box(rng, 20000, 3.0)
    assert dist_arr(a, b).tobytes() == dist_arr(b, a).tobytes()


def test_import_loads_no_scipy(tmp_path):
    """Importing heistsp, building a curve that needs connectivity repair or
    running the grid oracle loads no scipy module; with scipy made
    unimportable, the oracle and the beta and theorem-b commands still run.
    The runtime needs numpy only."""
    src = os.path.dirname(os.path.dirname(heistsp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    build = ("import random; from heistsp import HeisPoint, build_curve; "
             "rnd = random.Random(1); "
             "_, ledger = build_curve([HeisPoint(*(rnd.uniform(-1, 1) for _ in range(3))) "
             "for _ in range(40)]); "
             "assert sum(e.case == 'bridge' for e in ledger.entries) >= 2")
    oracle = ("from heistsp import Ball, HeisPoint, beta_heis_oracle; "
              "res = beta_heis_oracle([HeisPoint(0, 0, 0), HeisPoint(1, 0, 0.2), "
              "HeisPoint(0.5, 0.5, 0)], Ball(HeisPoint(0, 0, 0), 2.0), resolution=16); "
              "assert res.beta > 0.0")
    for work in ("import heistsp", build, oracle):
        code = work + "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]", work
    path = tmp_path / "tri.txt"
    path.write_text("0 0 0\n1 0 0.2\n0.5 0.5 0\n")
    # None in sys.modules makes every import of scipy raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; " + oracle + "; "
            "from heistsp.cli import main; "
            "assert main(['beta', %r]) == 0; assert main(['theorem-b', %r]) == 0"
            % (str(path), str(path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "beta " in out.stdout and "ratio " in out.stdout
