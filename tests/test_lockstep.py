"""The lockstep beta engine against the sequential references it replays.

Every comparison here is exact: the batched distance kernel, the lockstep
golden-section height search and the lockstep Nelder-Mead must reproduce
line_dists_arr, golden_min and scipy.optimize.minimize bit for bit, and a
batch of balls must give each ball the result it gets alone.  scipy is the
reference here only; no runtime path imports it.
"""

import gc
import hashlib
import math
import pprint
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import heistsp.beta
import heistsp.builder
import heistsp.multiscale
from heistsp.builder import BuilderConfig, ScaleRangeError, _build, theorem_a_check
from heistsp.core import ORIGIN, HeisPoint, as_array, point_of, sample_box
from heistsp.curves import curve_length
from heistsp.multiscale import build_nets, carleson_sum
from heistsp.lines import (
    HorizontalLine,
    canon_coords,
    golden_min_many,
    line_dists_arr,
    quartic_dists,
)
from heistsp.beta import (
    BUILDER_BUDGET,
    Ball,
    BetaBudget,
    _NM_STEPS,
    _Rows,
    _pair_candidates,
    _best_heights,
    _nelder_mead,
    beta_heis,
    beta_heis_many,
    beta_heis_oracle,
    members_in_ball,
)
from conftest import lifted_circle, lifted_parabola, lifted_sine
from test_acceptance import _beta_fixtures
from test_golden_cli import FIXTURES as GOLDEN_FIXTURES
from sequential import (golden_min, member_frame, min_width_strip, pair_candidates, pair_lines,
                        quartic, subsample, witness)


def _masked_quartic_dists(xt, yt, zt):
    """quartic_dists with the cubic root taken on the y~ != 0 rows only."""
    ay = np.abs(yt)
    q = yt * (2.0 * xt * yt - zt)
    u = np.zeros_like(xt)
    nz = ay > 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u_nz = -2.0 * ay[nz] * np.sinh(np.arcsinh(q[nz] / (2.0 * ay[nz] ** 3)) / 3.0)
    bad = ~np.isfinite(u_nz)
    u_nz[bad] = -np.cbrt(q[nz][bad])
    u[nz] = u_nz
    f = quartic(xt + u, xt, yt, zt)
    f_alt = (yt * yt) ** 2 + (zt - 2.0 * xt * yt) ** 2
    return np.minimum(f, f_alt) ** 0.25


@pytest.mark.parametrize("shape", [(50,), (3, 50), (1, 18), (40, 96)])
def test_cubic_root_matches_masked_form(shape):
    rng = np.random.default_rng(7)
    for scale in (1e-30, 1e-3, 1.0, 1e3, 1e30, 1e200):
        xt, yt, zt = (scale * rng.standard_normal(shape) for _ in range(3))
        flat = yt.reshape(-1)
        flat[::7] = 0.0
        flat[3::11] = 1e-300
        with np.errstate(over="ignore", invalid="ignore"):
            zt *= scale            # z scales as the square; inf at the largest scale
            assert np.array_equal(quartic_dists(xt, yt, zt), _masked_quartic_dists(xt, yt, zt),
                                  equal_nan=True), scale


def _many_lines(arr, params):
    """The distances of the members arr to every line (theta, offset, height)
    of params (L, 3) in one broadcast, each line's row of (L, m)."""
    th = params[:, :1]
    return quartic_dists(*canon_coords(arr, np.cos(th), np.sin(th), params[:, 1:2], params[:, 2:3]))


def test_batched_kernel_rows_equal_one_line_kernel():
    rng = np.random.default_rng(8)
    arr = sample_box(rng, 37, 0.9)
    arr[5, 1] = 0.0        # a member on the projection of the theta = 0 lines
    params = np.column_stack([rng.uniform(-7.0, 7.0, 300), rng.uniform(-2.0, 2.0, 300),
                              rng.uniform(-3.0, 3.0, 300)])
    params[:4] = [(0.0, 0.0, 0.0), (math.pi, 0.0, 1.0), (-1e-300, 1e8, -1e8), (1e5, 0.0, 0.0)]
    params[200:, 0] = rng.uniform(-1e4, 1e4, 100)     # directions far outside [0, pi)
    got = _many_lines(arr, params)
    assert got.shape == (300, 37)
    for row, p in zip(got, params):
        assert np.array_equal(row, line_dists_arr(arr, HorizontalLine(*p)))


def test_golden_min_many_rows_equal_golden_min():
    rng = np.random.default_rng(12)
    n = 64
    a = rng.uniform(-5.0, 5.0, n)
    b = a + rng.uniform(-10.0, 10.0, n)      # some brackets reversed
    b[:4] = a[:4]                            # one-point brackets
    xt, yt, zt = (rng.standard_normal(n) for _ in range(3))
    w = rng.uniform(0.5, 8.0, n)
    is_quartic = np.arange(n) % 2 == 0

    def f(t):   # unimodal quartic profiles, and sine waves with many minima
        return np.where(is_quartic, quartic(t, xt, yt, zt), np.sin(w * t))

    for iters in (0, 1, 60):
        got_t, got_f = golden_min_many(f, a, b, iters)
        for i in range(n):
            t, ft = golden_min(lambda t, i=i: f(np.full(n, t))[i], a[i], b[i], iters)
            assert (got_t[i], got_f[i]) == (t, ft)


def _one_ball(arr, n_lines):
    """n_lines lines over the members arr, in ragged member rows."""
    return _Rows([arr]).lines([0] * n_lines)


def _best_height_reference(arr, theta, c, iters=60):
    """One line's minimax height by golden_min, one distance call per probe."""
    cs, sn = math.cos(theta), math.sin(theta)
    px = cs * arr[:, 0] + sn * arr[:, 1]
    py = -sn * arr[:, 0] + cs * arr[:, 1]
    targets = arr[:, 2] + 2.0 * px * (c - py) + 2.0 * c * px
    a, b = float(targets.min()), float(targets.max())
    if a == b:
        return a
    return golden_min(lambda h: float(line_dists_arr(arr, HorizontalLine(theta, c, h)).max()),
                      a, b, iters)[0]


def test_lockstep_heights_equal_golden_min():
    rng = np.random.default_rng(9)
    horizontal = np.column_stack([np.linspace(-0.8, 0.8, 9), np.zeros(9), np.zeros(9)])
    for arr in (sample_box(rng, 24, 0.8), horizontal):
        thetas = [0.0, 0.5 * math.pi, 2.1, -0.4, 3.5]
        offsets = [0.0, 0.0, 0.3, -0.2, 0.05]
        got = _best_heights(_one_ball(arr, len(thetas)), thetas, offsets)
        want = [_best_height_reference(arr, t, c) for t, c in zip(thetas, offsets)]
        assert got == want
    # the horizontal set's own line has a one-point bracket, whose every
    # golden-section probe is that height
    assert _best_heights(_one_ball(horizontal, 1), [0.0], [0.0]) == [0.0]


#: (initial simplex steps, xatol, fatol) of the two polishes: the engine's,
#: and beta_heis_oracle's, whose steps are one grid cell along each axis
#: (here at resolution 48, theta spacing, heights in [-20, 20])
POLISHES = {"engine": (_NM_STEPS, 1e-10, 1e-13),
            "oracle": ((math.pi / 48, math.pi / 48, 40.0 / 48), 1e-11, 1e-14)}


def _scipy_polish(arr, x0, maxiter, polish=POLISHES["engine"]):
    steps, xatol, fatol = polish

    def objective(x):
        return float(line_dists_arr(arr, HorizontalLine(x[0], x[1], x[2])).max())

    x0 = np.array(x0)
    simplex = np.vstack([x0, x0 + np.diag(steps)])
    return minimize(objective, x0, method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol,
                             "disp": False, "initial_simplex": simplex})


STARTS = [(0.5 * math.pi, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.1, -0.2)]
THREE_POINT = np.array([(-0.5, 0.0, 0.0), (0.0, 0.0, 0.05), (0.5, 0.0, 0.0)])


@pytest.mark.parametrize("n_starts", [1, 2, 3])
@pytest.mark.parametrize("case, polish", [
    pytest.param(case, polish, id=case if polish == "engine" else case + "-oracle")
    for polish in POLISHES for case in ("three-point", "cloud", "shrink")])
def test_lockstep_nelder_mead_equals_scipy(case, polish, n_starts, monkeypatch):
    maxiter = 120
    if case == "three-point":
        arr = THREE_POINT
        maxiter = 400
    elif case == "cloud":
        arr = sample_box(np.random.default_rng(10), 40, 0.7)
    else:   # the first start shrinks its simplex once
        arr = sample_box(np.random.default_rng(21), 3, 0.7)
    # start i runs in a ball of i + 1 copies of arr: the same max distances,
    # and each line's row count tells its start
    sets = [np.concatenate([arr] * (i + 1)) for i in range(n_starts)]
    starts = STARTS[:n_starts]
    refs = [_scipy_polish(arr, x0, maxiter, POLISHES[polish]) for x0 in starts]
    calls = []
    max_dists = heistsp.beta._max_dists

    def spy(lines, params):
        copies = lines.count // len(arr)
        calls.append((np.shape(params), copies - 1))     # the start of each line
        return max_dists(lines, params)

    monkeypatch.setattr(heistsp.beta, "_max_dists", spy)
    steps, xatol, fatol = POLISHES[polish]
    got = _nelder_mead(_Rows(sets), list(range(n_starts)), starts, steps, maxiter, xatol, fatol)
    assert len(got) == n_starts
    lines = np.bincount(np.concatenate([s for _, s in calls]), minlength=n_starts)
    # a shrink call evaluates three new vertices of each start it shrinks
    shrinks = np.bincount(np.concatenate([s for shape, s in calls if shape[1:] == (3, 3)]
                                         + [np.empty(0, dtype=int)]), minlength=n_starts) // 3
    for i, ((fun, x), ref) in enumerate(zip(got, refs)):
        assert fun == float(ref.fun)
        assert x == tuple(float(v) for v in ref.x)
        assert lines[i] == ref.nfev      # each start evaluates the points scipy evaluates
        if case == "three-point" and polish == "engine":
            assert ref.nit < maxiter      # converged early
    # the fixtures exercise convergence and the shrink under the engine's
    # steps; under the oracle's, the replay alone is checked
    if case == "shrink" and polish == "engine":
        assert shrinks[0] > 0, "no shrink step was exercised"


def test_lockstep_nelder_mead_polishes_each_distinct_start_once(monkeypatch):
    # ball 0 holds one copy of the cloud and ball 1 two, so each line's row
    # count tells its ball; -0.0 and 0.0 are different starts, bit for bit
    arr = sample_box(np.random.default_rng(10), 40, 0.7)
    a, b, signed = STARTS[0], STARTS[2], (0.0, -0.0, 0.0)
    balls = [0, 1, 0, 0, 1, 0, 0]
    starts = [a, a, a, b, a, signed, STARTS[1]]
    refs = {x0: _scipy_polish(arr, x0, 120) for x0 in (a, b, signed, STARTS[1])}
    calls = []
    max_dists = heistsp.beta._max_dists

    def spy(lines, params):
        calls.append(lines.count // len(arr) - 1)
        return max_dists(lines, params)

    monkeypatch.setattr(heistsp.beta, "_max_dists", spy)
    got = _nelder_mead(_Rows([arr, np.concatenate([arr, arr])]), balls, starts, _NM_STEPS,
                       120, 1e-10, 1e-13)
    for (fun, x), x0 in zip(got, starts):
        assert fun == float(refs[x0].fun)
        assert x == tuple(float(v) for v in refs[x0].x)
    # each distinct (ball, start) evaluates the points scipy evaluates, once
    lines = np.bincount(np.concatenate(calls), minlength=2)
    assert lines.tolist() == [refs[a].nfev + refs[b].nfev + refs[signed].nfev
                              + refs[STARTS[1]].nfev, refs[a].nfev]


@st.composite
def _polish_batches(draw):
    """One lockstep's sets and starts: 2-10 sample_box sets of 3-40 rows,
    then the three-point set, which converges early, and the shrink set;
    each set takes 1-3 starts from a pool of four, so bit-equal copies of a
    start in one set are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sets = [sample_box(rng, int(rng.integers(3, 41)), 0.7) for _ in range(draw(st.integers(2, 10)))]
    sets += [THREE_POINT, sample_box(np.random.default_rng(21), 3, 0.7)]
    pool = STARTS + [tuple(rng.uniform([0.0, -0.3, -0.3], [math.pi, 0.3, 0.3]).tolist())]
    return sets, [draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)) for _ in sets]


@given(_polish_batches())
@settings(max_examples=5, deadline=None)
def test_lockstep_that_changes_shape_equals_each_start_alone(case):
    """Starts that leave the lockstep at different iterations, so that its
    live block is cut down during the run, each give the result and make
    the evaluations of their own scipy run and of a lockstep of their own."""
    sets, starts = case
    maxiter = 400
    # one ball per distinct (set, start), its set padded with copies of its
    # first row to 41 + its index rows: the same max distances, and a line's
    # row count names its ball
    ball_of: dict = {}
    balls = [ball_of.setdefault((k, x0), len(ball_of)) for k, xs in enumerate(starts) for x0 in xs]
    padded = [np.concatenate([sets[k], np.repeat(sets[k][:1], 41 + b - len(sets[k]), axis=0)])
              for (k, _), b in ball_of.items()]
    x0s = [x0 for xs in starts for x0 in xs]
    refs = [_scipy_polish(sets[k], x0, maxiter) for k, x0 in ball_of]
    calls = []
    max_dists = heistsp.beta._max_dists

    def spy(lines, params):
        calls.append(lines.count - 41)      # the ball of each line
        return max_dists(lines, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heistsp.beta, "_max_dists", spy)
        got = _nelder_mead(_Rows(padded), balls, x0s, _NM_STEPS, maxiter, 1e-10, 1e-13)
    alone = [_nelder_mead(_Rows([padded[b]]), [0], [x0], _NM_STEPS, maxiter, 1e-10, 1e-13)[0]
             for b, x0 in zip(balls, x0s)]
    assert got == alone
    assert got == [(float(refs[b].fun), tuple(float(v) for v in refs[b].x)) for b in balls]
    # each distinct start evaluates the points scipy evaluates, once
    assert np.bincount(np.concatenate(calls), minlength=len(refs)).tolist() == \
        [ref.nfev for ref in refs]
    assert len({ref.nit for ref in refs}) >= 2      # starts leave at different iterations


def _table():
    """Fixed beta_heis inputs of 2 to 120 points (clouds, helix arcs, parabolas)
    under the default and the builder budget; 120 exceeds both subsample sizes."""
    rng = np.random.default_rng(20261018)
    out = []
    for t, m in enumerate((2, 3, 5, 9, 12, 30, 50, 120)):
        if t % 3 == 0:
            pts = sample_box(rng, m, 0.8)
        elif t % 3 == 1:
            ts = np.linspace(0.0, 1.5 * math.pi, m)
            pts = np.column_stack([np.cos(ts), np.sin(ts), 2.0 * ts])
        else:
            ts = np.linspace(-1.0, 1.0, m)
            pts = np.column_stack([ts, ts * ts, (2.0 / 3.0) * ts ** 3])
        c = HeisPoint(*(float(v) for v in pts[m // 2]))
        for budget in (BetaBudget(), BUILDER_BUDGET):
            out.append((pts, Ball(c, 1.5), budget))
    return out


def _fields(res):
    vals = (res.beta, *res.line, *res.achieving_point, res.certified_gap)
    return tuple(float(v).hex() for v in vals) + (res.vacuous,)


#: _fields of every _table() case, recorded with the engine that fits in
#: the members' frame, under numpy 2.4.6 and scipy 1.17.1; printed, with
#: the other frozen tables, by running this module as a script
FROZEN = [
    ('0x1.22dcdf524fb9fp-6', '0x1.170cfd3942566p+1', '-0x1.7f75c368ab1f0p-7',
     '0x1.8522ee68abc16p-2', '0x1.32e5152bd25fcp-1', '-0x1.7db3ad31555b7p-1',
     '0x1.d694f8e68e4acp-2', '0x1.c059ab35ac0c5p-4', False),
    ('0x1.23842fc0e86dbp-6', '0x1.17068d3d6566dp+1', '-0x1.7fd28bf442548p-7',
     '0x1.853a4c709994fp-2', '0x1.32e5152bd25fcp-1', '-0x1.7db3ad31555b7p-1',
     '0x1.d694f8e68e4acp-2', '0x1.c02fd71a05dfcp-4', False),
    ('0x0.0p+0', '0x0.0p+0', '0x1.6a09e667f3bcdp-1', '0x1.db2f8fe6643a4p+1',
     '-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1', '0x1.2d97c7f3321d2p+2', '0x0.0p+0', False),
    ('0x0.0p+0', '0x0.0p+0', '0x1.6a09e667f3bcdp-1', '0x1.db2f8fe6643a4p+1',
     '-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1', '0x1.2d97c7f3321d2p+2', '0x0.0p+0', False),
    ('0x1.cb0ec368a97d0p-3', '0x1.921fb542517bcp+1', '-0x1.4f8e742cfa96ep-2',
     '-0x1.fb0df2c2e39bcp-28', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '0x1.5555555555555p-1', '0x1.0defb0bdd2a4ap-5', False),
    ('0x1.cb56f18cab07dp-3', '0x1.921633b3811d3p+1', '-0x1.4f6ea9205081ap-2',
     '-0x1.73b8636853fcdp-11', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '0x1.5555555555555p-1', '0x1.7fb6d22fc2a97p-5', False),
    ('0x1.cadf16bd6538dp-3', '0x1.ef758c990f356p+0', '-0x1.0c2fd11ce7a53p-4',
     '-0x1.1f14759773f45p-3', '0x1.2ddec6decc500p-1', '0x1.04af1e02dff1ap-1',
     '-0x1.49b2c7f3ccf06p-2', '0x1.221af988f2b67p-5', False),
    ('0x1.cae8e886744bbp-3', '0x1.eea1c2d63b708p+0', '-0x1.0c98de7439a67p-4',
     '-0x1.33c332d7a460fp-3', '-0x1.a00cc0ec6688ap-2', '-0x1.380f712193c9cp-1',
     '-0x1.24e6ac916608ap-1', '0x1.21f3b264b66a6p-5', False),
    ('0x1.5d333e9ec1259p-3', '0x1.ffcb40077782cp-1', '0x1.93e36aa2c54adp-1',
     '0x1.4902a9372375ep+2', '-0x1.82f19bb3a28a4p-1', '-0x1.4f49e7f775883p-1',
     '0x1.ed84015f6946ep+2', '0x1.b8f56f2bff200p-5', False),
    ('0x1.5d42d9b107df1p-3', '0x1.ffc5ee96f14f2p-1', '0x1.93f6b7fb348dap-1',
     '0x1.4907b56c90537p+2', '0x1.207e7fd768dc1p-2', '0x1.eb42a9bcd5057p-1',
     '0x1.4902ab94f0d9fp+1', '0x1.b8b702e2e43bdp-5', False),
    ('0x1.d295e4eed5af0p-3', '0x1.490373f3202dcp-21', '0x1.453042182fd6cp-2',
     '0x1.8300ae2b9151cp-21', '-0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '-0x1.5555555555555p-1', '0x1.6e1e50a177610p-6', False),
    ('0x1.d2abc760aa685p-3', '0x1.2a027e19c7bc0p-13', '0x1.4533d2b51efbfp-2',
     '0x1.8c2d4bc4fa02cp-13', '-0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '-0x1.5555555555555p-1', '0x1.6d6f3d12d1950p-6', False),
    ('0x1.1674c793407c2p-2', '0x1.7734591befddfp-2', '0x1.cd9bc3c2a75e3p-3',
     '0x1.9f56360529bdep-3', '-0x1.688de0efd74c0p-1', '0x1.65506d58f6016p-1',
     '0x1.42ad0e694ae7cp-1', '0x1.3de70dc8d803ep-6', False),
    ('0x1.196f31f63a038p-2', '0x1.8f847adfac9bep-2', '0x1.baed7c2314bfcp-3',
     '0x1.ad9e3b39a86b2p-3', '-0x1.688de0efd74c0p-1', '0x1.65506d58f6016p-1',
     '0x1.42ad0e694ae7cp-1', '0x1.0e4067993f8fep-6', False),
    ('0x1.e7cb31e82b619p-3', '0x1.9c42ed7ea4f39p-1', '0x1.75141b230d625p-1',
     '0x1.30209677533a9p+2', '0x1.58eea2a9d6da3p-1', '0x1.7a5f6075d4885p-1',
     '0x1.a9c7386664ddep+0', '0x1.00f97d11d45e1p-7', False),
    ('0x1.e7cc495531580p-3', '0x1.9c4319bb13433p-1', '0x1.75153409d333ap-1',
     '0x1.3020264b2a6f1p+2', '-0x1.6c6b937b20382p-1', '-0x1.67a42fcf7e1d0p-1',
     '0x1.f5cf5de66497cp+2', '0x1.ff4fa4b5994bdp-13', False),
]


def _fixed_table_fields():
    return [_fields(beta_heis(pts, ball, budget)) for pts, ball, budget in _table()]


def test_beta_heis_field_equal_on_fixed_table():
    assert _fixed_table_fields() == FROZEN


def _oracle_table():
    """(points, ball, resolution) of beta_heis_oracle: criterion 5's fixtures
    at resolution 48, and ten sample_box sets at resolutions 24 and 32.  Every
    other set is flattened towards the x axis, so the grid spacing of the
    polish's first two steps is the theta spacing pi / resolution on those
    and the offset spacing on the rest."""
    out = [(pts, ball, 48) for _, pts, ball in _beta_fixtures()]
    rng = np.random.default_rng(20261022)
    for k, m in enumerate((3, 4, 5, 6, 8, 10, 12, 16, 20, 30)):
        pts = sample_box(rng, m, 1.0)
        if k % 2:
            pts[:, 1:] *= 0.05
        out += [(pts, Ball(ORIGIN, 2.0), res) for res in (24, 32)]
    return out


def _oracle_fields():
    return [tuple(float(v).hex() for v in (r.beta, *r.line, r.certified_gap))
            for r in (beta_heis_oracle(*case) for case in _oracle_table())]


#: (beta, line, certified_gap) as hex of every _oracle_table() case, recorded
#: under numpy 2.4.6 when the oracle still polished with scipy 1.17.1's
#: Nelder-Mead: its one _nelder_mead start gives the same bits
FROZEN_ORACLE = [
    ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.12e0be826d695p-31'),
    ('0x1.306fe0a352c91p-2', '0x1.7a38543b1bc20p+1', '-0x1.6a08db0bd89bap-2',
     '0x1.0000000000002p-1', '0x1.ccd02e25079e1p-5'),
    ('0x1.8f9d98eab6da3p-7', '0x1.8f10031815692p-5', '-0x1.4c56053e3a858p-58',
     '0x1.8fda670ad7552p-4', '0x1.660af62151384p-5'),
    ('0x1.1a01f1e0b253fp-2', '0x1.76906afc97ccbp+1', '0x1.1163cea64c809p-4',
     '0x1.4719d326b6a92p-8', '0x1.1f02f4aeab036p-6'),
    ('0x1.2afdf1c169866p-3', '0x1.7330f62d8de6ap-3', '0x1.4689ae0fa1b54p-1',
     '0x1.c085d402b122fp+1', '0x1.e6502d3b7c665p-6'),
    ('0x1.3ef67023b0a4fp-3', '0x1.078f530379d48p+0', '0x1.77109fd18d833p-1',
     '-0x1.c5b0a66f1f214p+0', '0x1.a2a0850a2117fp-6'),
    ('0x1.3f0d43aab23c8p-3', '0x1.10ad1ff05bc12p+0', '0x1.8a17b8119d182p-1',
     '-0x1.d080fe991dd10p+0', '0x1.a1e9e8d2145bdp-6'),
    ('0x1.c02580e388adcp-5', '0x1.1643ae7fd7036p-4', '0x1.70766289b20e4p-8',
     '0x1.0f3b097b23ea0p-7', '0x1.cd518a1a26533p-8'),
    ('0x1.c052fdf54fed1p-5', '0x1.16fdf325e11abp-4', '0x1.73ea98069a8c8p-8',
     '0x1.0fe4eec8f9f09p-7', '0x1.cbe5a18bec594p-8'),
    ('0x1.83a1f25051c83p-3', '0x1.4ed5d5a0cde35p+1', '0x1.d04db7ee5f190p-6',
     '-0x1.3144b6490b92ap-6', '0x1.6b10874d6d416p-7'),
    ('0x1.83a1f1ef1db72p-3', '0x1.4ed5d5d31954ep+1', '0x1.d04dc16675818p-6',
     '-0x1.314493c82799cp-6', '0x1.6b108d60ae506p-7'),
    ('0x1.c656e72db7d24p-5', '0x1.26e934fb3dfdfp-5', '0x1.624ccd290d07ap-9',
     '0x1.0722d12a7481dp-5', '0x1.a7c7eb67c823cp-10'),
    ('0x1.c61d7fbb3b0d2p-5', '0x1.26bb3eb0acb87p-5', '0x1.602e7062e0f06p-9',
     '0x1.06eb44e14c3f0p-5', '0x1.aef4d9b760c51p-10'),
    ('0x1.ae82e880a68c6p-3', '0x1.1667d5957549ep+1', '-0x1.4503d35042d00p-4',
     '0x1.6c129ca65363fp-4', '0x1.9c1b0edd580ecp-5'),
    ('0x1.ae86612c32fbbp-3', '0x1.17304f0baa61cp+1', '-0x1.46b7d459d550bp-4',
     '0x1.93aadbf615a70p-4', '0x1.9c0d2c2f26521p-5'),
    ('0x1.9b5e746fc332fp-5', '0x1.49a5da1253729p-6', '0x1.32e114fe46489p-8',
     '0x1.92326ea90bebep-10', '0x1.33e9ff8750886p-7'),
    ('0x1.9b6047e6497dfp-5', '0x1.4993fadc5c406p-6', '0x1.32f14567259fcp-8',
     '0x1.91c93251ef518p-10', '0x1.33e2b1ad375c3p-7'),
    ('0x1.0632562704f42p-2', '0x1.9b925d2e01c02p-3', '0x1.6a24cf8a45212p-4',
     '-0x1.e3253044b4b2cp-2', '0x1.9a3e0a53da0f7p-7'),
    ('0x1.0636110d62c87p-2', '0x1.9c0c48735d76bp-3', '0x1.6a2438e7ba008p-4',
     '-0x1.e2e410d7440a1p-2', '0x1.99c6ad881f852p-7'),
    ('0x1.be8ae810e108dp-5', '0x1.ed964cb14240dp-7', '0x1.11cf735e4ac1fp-7',
     '0x1.073020c9747cap-6', '0x1.710f78672e98bp-8'),
    ('0x1.be8ae810e0ae0p-5', '0x1.ed964cb13c983p-7', '0x1.11cf735e4a585p-7',
     '0x1.073020c971cc2p-6', '0x1.710f7867316f9p-8'),
    ('0x1.f2352c1de1b3bp-3', '0x1.73382ab0706bap+1', '-0x1.1e4c607640a3fp-7',
     '0x1.98a061cb3d67fp-2', '0x1.7c11ba0128203p-6'),
    ('0x1.f27b8a6fcb628p-3', '0x1.7306625e94d7bp+1', '-0x1.0d72eb58827b6p-7',
     '0x1.9871f6e275eadp-2', '0x1.79dec771daaa9p-6'),
    ('0x1.04f26f9838bebp-4', '0x1.888ebfd8abfb1p-5', '-0x1.f9aea3c93b1f9p-9',
     '0x1.6691b9007a449p-6', '0x1.9cb955fc6f34ep-7'),
    ('0x1.05b2d4fbd7359p-4', '0x1.7251a88e2b45cp-5', '-0x1.6906adb981d4ep-9',
     '0x1.67657af2d77efp-6', '0x1.96b62adf7b7dep-7'),
]


def test_oracle_field_equal_on_fixed_table():
    assert _oracle_fields() == FROZEN_ORACLE


def test_budget_without_refits_or_polish():
    pts = [ORIGIN, HeisPoint(0.0, 0.0, 1.0)]
    res = beta_heis(pts, Ball(ORIGIN, 1.0), BetaBudget(refine_starts=0, nm_starts=0))
    assert res.beta > 0.0
    assert _nelder_mead(_Rows([np.zeros((2, 3))]), [], [], _NM_STEPS, 10, 1e-10, 1e-13) == []


def test_kernels_take_one_member_array_per_line():
    rng = np.random.default_rng(11)
    sets = [sample_box(rng, 9, 0.8) for _ in range(4)]
    params = np.column_stack([rng.uniform(0.0, 3.0, 4), rng.uniform(-0.5, 0.5, 4),
                              rng.uniform(-0.5, 0.5, 4)])
    got = _many_lines(np.array(sets), params)
    for row, pts, p in zip(got, sets, params):
        assert np.array_equal(row, line_dists_arr(pts, HorizontalLine(*p)))
    # the engine's ragged rows: balls of 9, 2, 30 and 5 members
    sets = [sample_box(rng, m, 0.8) for m in (9, 2, 30, 5)]
    rows = _Rows(sets)
    balls = [2, 0, 3, 1, 2, 0]          # lines of a ball apart, one ball twice
    lines = rows.lines(balls)
    params = params[[0, 1, 2, 3, 1, 3]]
    assert np.array_equal(heistsp.beta._max_dists(lines, params),
                          [line_dists_arr(sets[b], HorizontalLine(*p)).max()
                           for b, p in zip(balls, params)])
    thetas, offsets = params[:, 0], params[:, 1]
    assert _best_heights(lines, thetas, offsets) == \
        [_best_heights(_one_ball(sets[b], 1), [t], [c])[0]
         for b, t, c in zip(balls, thetas, offsets)]
    starts = [tuple(p) for p in params]
    assert _nelder_mead(rows, balls, starts, _NM_STEPS, 60, 1e-10, 1e-13) == \
        [_nelder_mead(_Rows([sets[b]]), [0], [x0], _NM_STEPS, 60, 1e-10, 1e-13)[0]
         for b, x0 in zip(balls, starts)]


def _mixed_table():
    """(points, ball) with 0, 1, 2, 3, 50 and 120 members (above both
    budgets' max_members), repeated points, balls centred on a member and off
    the set, and one set seen through two balls."""
    rng = np.random.default_rng(20261019)
    cloud = sample_box(rng, 120, 1.0)
    ts = np.linspace(0.0, 1.5 * math.pi, 50)
    helix = np.column_stack([np.cos(ts), np.sin(ts), 2.0 * ts])
    repeated = cloud[rng.integers(0, 4, 30)]
    far = Ball(HeisPoint(9.0, 9.0, 9.0), 1.0)
    return [
        (cloud, far),                                         # no members
        (cloud, Ball(HeisPoint(*cloud[0]), 1e-9)),            # one member
        (cloud[:2], Ball(HeisPoint(*cloud[0]), 3.0)),         # two
        (cloud[:3], Ball(HeisPoint(0.3, -0.2, 0.1), 3.0)),    # three
        (helix, Ball(HeisPoint(0.1, 0.2, 4.0), 20.0)),        # 50
        (cloud, Ball(HeisPoint(*cloud[7]), 3.0)),             # 120
        (repeated, Ball(HeisPoint(*repeated[0]), 3.0)),       # repeated points
        (helix, Ball(HeisPoint(0.9, 0.4, 1.0), 1.0)),         # a part of the helix
        (cloud[:3], Ball(HeisPoint(*cloud[1]), 3.0)),         # an item again, another array
    ]


@pytest.mark.parametrize("budget", [BetaBudget(), BUILDER_BUDGET], ids=["default", "builder"])
def test_batch_equals_one_at_a_time(budget):
    table = _mixed_table()
    got = beta_heis_many(table, budget)
    want = [beta_heis(p, b, budget) for p, b in table]
    assert [_fields(r) for r in got] == [_fields(r) for r in want]
    assert got[0].vacuous and not any(r.vacuous for r in got[1:])


def _sizes_table():
    """(points, ball) with 2, 3, 48, 96 and 300 members: below, at and
    above both budgets' max_members, so one batch mixes subsample lengths."""
    rng = np.random.default_rng(20261020)
    out = []
    for m in (2, 3, 48, 96, 300):
        pts = sample_box(rng, m, 0.5)
        out.append((pts, Ball(HeisPoint(*pts[0]), 4.0)))
    return out


def _member_sets(items):
    """The distinct (point array, member set) keys of the items that the
    engine fits: two or more members, not all at one point."""
    keys = set()
    for p, b in items:
        idx = members_in_ball(p, b)
        if idx.size >= 2 and np.ptp(p[idx], axis=0).any():
            keys.add((id(p), idx.tobytes()))
    return keys


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    chunks = []
    solve = heistsp.beta._solve

    def spy(fits, budget):
        chunks.append(len(fits))
        return solve(fits, budget)

    monkeypatch.setattr(heistsp.beta, "_solve", spy)
    assert [len(members_in_ball(p, b)) for p, b in _sizes_table()] == [2, 3, 48, 96, 300]
    for items, budget in [(_mixed_table(), BUILDER_BUDGET), (_sizes_table(), BUILDER_BUDGET),
                          (_sizes_table(), BetaBudget())]:
        fitted = len(_member_sets(items))
        chunks.clear()
        whole = beta_heis_many(items, budget)
        assert chunks == [fitted]      # every distinct member set to fit, in one chunk
        with monkeypatch.context() as m:
            m.setattr(heistsp.beta, "BATCH_PAIRS", 1)
            one_by_one = beta_heis_many(items, budget)
        assert chunks[1:] == [1] * fitted
        assert [_fields(r) for r in one_by_one] == [_fields(r) for r in whole]
        # a ragged batch of mixed subsample lengths equals one ball at a time
        alone = [beta_heis(p, b, budget) for p, b in items]
        assert [_fields(r) for r in alone] == [_fields(r) for r in whole]


@pytest.mark.parametrize("bound", [None, 1], ids=["one-chunk", "chunk-per-set"])
def test_balls_with_equal_members_share_one_fit(bound, monkeypatch):
    """Balls of one call with the same members get the same witness line and
    the same sup, beta * diam(B), bit for bit, from one fit; with a chunk per
    set, the repeats arrive after their fit's chunk has been solved."""
    if bound is not None:
        monkeypatch.setattr(heistsp.beta, "BATCH_PAIRS", bound)
    fits = []
    solve = heistsp.beta._solve

    def spy(chunk, budget):
        fits.extend(f.key for f in chunk)
        return solve(chunk, budget)

    monkeypatch.setattr(heistsp.beta, "_solve", spy)
    arr = sample_box(np.random.default_rng(31), 40, 0.5)
    other = sample_box(np.random.default_rng(32), 12, 0.5)
    c = HeisPoint(*arr[0])
    # every ball below holds all of arr; the radii differ by powers of two,
    # so beta * diam(B) is exact
    balls = [Ball(c, 4.0), Ball(c, 8.0), Ball(HeisPoint(0.1, -0.1, 0.2), 4.0), Ball(c, 64.0)]
    items = ([(arr, balls[0]), (other, Ball(ORIGIN, 4.0)), (arr, balls[1])]
             + [(arr, b) for b in balls[2:]])
    got = beta_heis_many(items, BetaBudget())
    assert len(fits) == len(set(fits)) == 2
    same = [got[0], got[2], got[3], got[4]]
    for res, ball in zip(same, balls):
        assert res.line == same[0].line and res.achieving_point == same[0].achieving_point
        assert res.beta * (2.0 * ball.radius) == same[0].beta * (2.0 * balls[0].radius)
        assert res.certified_gap * ball.radius == same[0].certified_gap * balls[0].radius
    assert _fields(got[4]) == _fields(beta_heis(arr, balls[3]))


@pytest.mark.parametrize("budget", [BetaBudget(), BUILDER_BUDGET], ids=["default", "builder"])
def test_kernel_calls_stay_within_batch_pairs(budget, monkeypatch):
    """No kernel call of a mixed batch evaluates more than BATCH_PAIRS
    line-member pairs, unless it serves one ball alone; no membership scan,
    frame pass or other ragged set-up or witness pass reads more than
    BATCH_PAIRS rows, unless it serves one set alone; and the bound leaves
    every result unchanged."""
    rng = np.random.default_rng(20261021)
    items = []
    for _ in range(60):
        pts = sample_box(rng, int(rng.choice([2, 3, 12, 48, 96, 300])), 0.5)
        items.append((pts, Ball(HeisPoint(*pts[0]), 4.0)))
    # balls over one shared array, whose memberships are scanned in blocks
    shared = sample_box(rng, 300, 0.5)
    items += [(shared, Ball(HeisPoint(*p), r)) for p, r in zip(shared[:40], [0.3, 4.0] * 20)]
    calls, passes, chunk = [], [], [0]
    kernel, solve = heistsp.beta.quartic_dists, heistsp.beta._solve
    witnesses, scan, frames, first_max = (heistsp.beta._witnesses, heistsp.beta._memberships,
                                          heistsp.beta._frames, heistsp.beta._first_max)

    def spy_kernel(xt, yt, zt):
        calls.append((np.broadcast(xt, yt, zt).size, chunk[0]))
        return kernel(xt, yt, zt)

    def spy_solve(fits, budget):
        chunk[0] = len(fits)
        return solve(fits, budget)

    def spy_witnesses(fits, solved):
        chunk[0] = None         # a witness pass's rows are counted by _first_max
        return witnesses(fits, solved)

    def spy_scan(arr, balls):
        passes.append((len(arr) * len(balls), len(balls)))
        return scan(arr, balls)

    def spy_frames(members, count):
        passes.append((len(members), len(count)))
        return frames(members, count)

    def spy_first_max(v, count):
        passes.append((v.size, len(count)))
        return first_max(v, count)

    for name, spy in [("quartic_dists", spy_kernel), ("_solve", spy_solve),
                      ("_witnesses", spy_witnesses), ("_memberships", spy_scan),
                      ("_frames", spy_frames), ("_first_max", spy_first_max)]:
        monkeypatch.setattr(heistsp.beta, name, spy)
    want = None
    for bound in (heistsp.beta.BATCH_PAIRS, 3000, 200):
        calls.clear()
        passes.clear()
        monkeypatch.setattr(heistsp.beta, "BATCH_PAIRS", bound)
        got = [_fields(r) for r in beta_heis_many(items, budget)]
        solving = [(rows, balls) for rows, balls in calls if balls is not None]
        assert all(rows <= bound or balls == 1 for rows, balls in solving), bound
        assert max(rows for rows, _ in solving) > bound // 2      # the bound is reached
        assert all(rows <= bound or sets == 1 for rows, sets in passes), bound
        assert any(sets > 1 for _, sets in passes)       # passes serve several sets
        want = want or got
        assert got == want


@pytest.mark.parametrize("bound", [200, 3000])
def test_live_fits_stay_within_one_chunk(bound, monkeypatch):
    """When a chunk is solved, the only fits alive are its own and the one
    that closed it: what a batch holds follows BATCH_PAIRS, not the batch."""
    rng = np.random.default_rng(20261022)
    items = []
    for _ in range(40):
        pts = sample_box(rng, int(rng.choice([2, 3, 12, 48, 96, 300])), 0.5)
        items.append((pts, Ball(HeisPoint(*pts[0]), 4.0)))
    live = weakref.WeakSet()
    held = []
    init, solve = heistsp.beta._Fit.__init__, heistsp.beta._solve

    def spy_init(self, *args):
        init(self, *args)
        live.add(self)

    def spy_solve(fits, budget):
        gc.collect()
        held.append((len(live), len(fits)))
        return solve(fits, budget)

    monkeypatch.setattr(heistsp.beta._Fit, "__init__", spy_init)
    monkeypatch.setattr(heistsp.beta, "_solve", spy_solve)
    monkeypatch.setattr(heistsp.beta, "BATCH_PAIRS", bound)
    beta_heis_many(items, BetaBudget())
    assert len(held) >= 3
    assert all(alive <= chunk + 1 for alive, chunk in held), held


def test_carleson_sum_polishes_in_one_lockstep(monkeypatch):
    starts = []
    nelder_mead = heistsp.beta._nelder_mead

    def spy(rows, balls, *args):
        starts.append(len(balls))
        return nelder_mead(rows, balls, *args)

    monkeypatch.setattr(heistsp.beta, "_nelder_mead", spy)
    arr = as_array(lifted_circle(50))
    rep = carleson_sum(build_nets(arr), 3.0, 4.0, BetaBudget())
    fitted = _member_sets([(arr, Ball(t.point, 4.0 * 2.0 ** -t.k)) for t in rep.terms])
    # one lockstep; its starts are each distinct member set's nm_starts
    assert starts == [BetaBudget().nm_starts * len(fitted)] == [285]


@pytest.mark.parametrize("n", [5, 9, 10, 13, 48, 64, 96, 97, 1000])
def test_pair_candidates_equal_one_draw_per_pair(n):
    # the library draws each round's missing pairs in one call; with ten to
    # two hundred starts on as few as 9 points many draws have i == j
    rng = np.random.default_rng(n)
    for _ in range(6):
        canon = sample_box(rng, n, 1.0)
        for starts in (10, 24, 200):
            ii, jj, _ = _pair_candidates(canon, np.array([n]), BetaBudget(pair_starts=starts))
            assert list(zip(ii.tolist(), jj.tolist())) == pair_candidates(canon, starts)


def test_pair_candidates_of_a_chunk_equal_each_sets():
    # sets on both sides of the 8-row all-pairs limit in one chunk, at every
    # pair_starts up to 90: each set gets its own pairs and its own fill
    rng = np.random.default_rng(5)
    sets = [sample_box(rng, n, 1.0) for n in (2, 8, 9, 9, 10, 30, 8)]
    rows = _Rows(sets)
    for starts in range(1, 91):
        ii, jj, owner = _pair_candidates(rows.cols.T, rows.count, BetaBudget(pair_starts=starts))
        got = zip(owner.tolist(), (ii - rows.start[owner]).tolist(), (jj - rows.start[owner]).tolist())
        assert list(got) == [(k, i, j) for k, s in enumerate(sets)
                             for i, j in pair_candidates(s, starts)], starts


@pytest.mark.parametrize("n", [3, 1000, 2 ** 31 + 1, 3 * 2 ** 30 + 7])
def test_one_integer_draw_equals_a_draw_per_pair(n):
    # the stream property _pair_candidates relies on, also at sizes where the
    # bounded draw rejects about every other raw value
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        per_pair = [a.integers(0, n, 2).tolist() for _ in range(40)]
        assert b.integers(0, n, (40, 2)).tolist() == per_pair


LIFTED = [("circle", lifted_circle), ("sine", lifted_sine), ("parabola", lifted_parabola)]


#: (terms, total as hex, SHA-1 of the terms as hex) of carleson_sum at r = 3,
#: a = 4 and the default budget (the effort of build's default --budget 24)
#: on the 50-point lifted fixtures
FROZEN_CARLESON = {
    "circle": (103, '0x1.79fa40771da74p-4', 'd68c4a26ee45c6b72a7239ac05ab137a8de1efd0'),
    "sine": (92, '0x1.3843968dbded7p-5', 'a951b4f3d55bba8824782af7cff5d60de6e475c1'),
    "parabola": (122, '0x1.6cc44c9a72dd6p-6', '1facba978e4b4a73f99f722f70dfce21a2be935d'),
}


@pytest.mark.parametrize("name, make", LIFTED)
def test_carleson_terms_frozen_on_lifted_fixtures(name, make):
    assert _carleson_digest(make) == FROZEN_CARLESON[name]


def _carleson_digest(make):
    rep = carleson_sum(build_nets(as_array(make(50))), 3.0, 4.0, BetaBudget())
    lines = ["%d %s %s %s %s" % (t.k, float(t.beta).hex(), float(t.contribution).hex(),
                                 float(t.gap).hex(), " ".join(float(v).hex() for v in t.point))
             for t in rep.terms]
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    return len(rep.terms), float(rep.total).hex(), digest


#: SHA-1 of the curve vertices, of the ledger entries (costs as hex) and of
#: the sorted snapshots of _build on the 50-point lifted fixtures
FROZEN_BUILD = {
    "circle": ('e1a2ac4be3df1d5a4cfec753433a1b656e91e169',
               '1f9cf4d341e335b711721ce20f881f401611eb10',
               'e1d8ca1454ae8e1719be89d64af265d55b2b96d7'),
    "sine": ('99e03523d2ecfa63a04eb6795162833baa060287',
             '9549f6c1bcd406800c97f725ad3705000482809f',
             '68d86e94c45a0a5b1b781f05f6f759bd9c7f3be9'),
    "parabola": ('3074ddc4e851f5f40725f26a25d91cd0ad9fa2d2',
                 'e2de75c1479dbf4d592a8e15dff56f54a7de7914',
                 'f857f69a518ae56a0667a47390d54de4c0f5e7f1'),
}


@pytest.mark.parametrize("name, make", LIFTED)
def test_build_frozen_on_lifted_fixtures(name, make):
    assert _build_digest(make) == FROZEN_BUILD[name]


def _build_digest(make):
    curve, ledger, _ = _build(make(50), BuilderConfig())
    texts = (repr([tuple(v) for v in curve.vertices]),
             repr([(e.k, e.anchor, e.case, e.op, e.point, e.cost.hex(), e.deleted_edge)
                   for e in ledger.entries]),
             repr(sorted(ledger.snapshots.items())))
    return tuple(hashlib.sha1(t.encode()).hexdigest() for t in texts)


@pytest.mark.parametrize("name, pts", [
    ("circle", lifted_circle(50)), ("sine", lifted_sine(50)), ("parabola", lifted_parabola(50)),
    ("cloud", [HeisPoint(*p) for p in GOLDEN_FIXTURES["cloud.txt"]])],
    ids=["circle", "sine", "parabola", "cloud"])
def test_theorem_a_check_is_one_engine_call(name, pts, monkeypatch):
    """The builder's fits and then the Carleson balls go through one
    beta_heis_many call, which gives the results of _build followed by
    carleson_sum; on a 50-point lifted curve at build's default budget that
    call is one chunk and one Nelder-Mead lockstep."""
    cfg = BuilderConfig(beta_budget=BetaBudget())
    curve, ledger, hierarchy = _build(pts, cfg)
    rep = carleson_sum(hierarchy, cfg.r, cfg.carleson_a, cfg.beta_budget)
    length = curve_length(curve)
    bound = rep.diam_e + rep.total

    calls, chunks, locksteps, reports = [], [], [], []

    def spy(log, fn):
        def wrapped(*args):
            out = fn(*args)
            log.append(out)
            return out
        return wrapped

    monkeypatch.setattr(heistsp.builder, "beta_heis_many",
                        spy(calls, heistsp.builder.beta_heis_many))
    monkeypatch.setattr(heistsp.multiscale, "beta_heis_many",
                        spy(calls, heistsp.multiscale.beta_heis_many))
    monkeypatch.setattr(heistsp.beta, "_solve", spy(chunks, heistsp.beta._solve))
    monkeypatch.setattr(heistsp.beta, "_nelder_mead", spy(locksteps, heistsp.beta._nelder_mead))
    monkeypatch.setattr(heistsp.builder, "_carleson_report",
                        spy(reports, heistsp.builder._carleson_report))
    got = theorem_a_check(pts, cfg)
    assert len(calls) == 1
    if name == "cloud":
        assert any(e.case == "bridge" for e in ledger.entries)
    else:
        assert (len(chunks), len(locksteps)) == (1, 1)
    assert ([float(v).hex() for v in got[:3]]
            == [v.hex() for v in (length, bound, length / bound)])
    assert _ledger_hex(got.ledger) == _ledger_hex(ledger)
    assert got.ledger.snapshots == ledger.snapshots
    assert _terms_hex(reports[0]) == _terms_hex(rep)


def _ledger_hex(ledger):
    return [(e.k, e.anchor, e.case, e.op, e.point, e.cost.hex(), e.deleted_edge)
            for e in ledger.entries]


def _terms_hex(rep):
    return [(t.k, float(t.beta).hex(), float(t.contribution).hex(), float(t.gap).hex(),
             tuple(float(v).hex() for v in t.point)) for t in rep.terms]


def test_theorem_a_check_fits_nothing_without_two_resolved_points(monkeypatch):
    def no_fit(*args):
        raise AssertionError("an engine call")

    monkeypatch.setattr(heistsp.builder, "beta_heis_many", no_fit)
    p = HeisPoint(0.25, -0.5, 1.0)
    res = theorem_a_check([p, p])      # one distinct point: its curve, nothing to bound
    assert res[:3] == (0.0, 0.0, 0.0) and res.curve.vertices == [p]
    assert res.ledger.entries == [] and res.ledger.snapshots == {}
    with pytest.raises(ScaleRangeError):      # raised while planning, before any fit
        theorem_a_check([ORIGIN, HeisPoint(1.0, 0.0, 0.0), HeisPoint(1e-20, 0.0, 0.0)])


def _hex(values):
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


#: sub rows whose pair directions take both wrap guards of theta_mod_pi:
#: atan2 of (-5e-324, 1) over pi rounds to -0.0, which leaves t < 0, and
#: -2e-17 + pi rounds to pi, which leaves t >= pi
WRAPS = [np.array([[0.0, 0.0, 0.0], [1.0, -5e-324, 0.3], [0.5, -1e-17, -0.2]]),
         np.array([[0.2, 0.0, 0.1], [0.7, -1e-17, 0.0], [-0.3, 0.0, 0.2], [0.2, 1e-300, 0.0]])]


@st.composite
def _chunk_sets(draw):
    """Member sets of one chunk, drawn to mix 2-8, 9-120 and more than
    max_members members, coincident members, vertical stacks and more than
    max_members members at fewer distinct points (so the subsample repeats
    rows), with a budget, a BATCH_PAIRS bound and a witness line per set;
    and subsamples whose rows come in runs of repeats, with zeros of both
    signs, for the strip and pair passes."""
    kinds = draw(st.lists(st.sampled_from(["few", "mid", "big", "coincident", "stack", "repeats"]),
                          min_size=1, max_size=6))
    budget = BetaBudget(pair_starts=draw(st.sampled_from([10, 24, 70])),
                        max_members=draw(st.sampled_from([48, 96])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sets = []
    for kind in kinds:
        lo, hi = {"few": (2, 9), "mid": (9, 121), "big": (budget.max_members + 1, 160),
                  "repeats": (budget.max_members + 1, 160)}.get(kind, (2, 20))
        lam = 10.0 ** rng.uniform(-3, 3)
        pts = sample_box(rng, int(rng.integers(lo, hi)), lam) + rng.uniform(-5, 5, 3)
        if kind == "coincident":
            pts[:] = pts[0]
        elif kind == "stack":
            pts[:, :2] = pts[0, :2]
        elif kind == "repeats":
            pts = pts[rng.integers(0, 20, len(pts))]
        sets.append(pts)
    params = rng.uniform([0.0, -0.5, -0.5], [math.pi, 0.5, 0.5], (len(sets), 3))
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        base = rng.choice([0.0, 0.5, -0.25, 1.0], (int(rng.integers(1, 12)), 3))
        rows = np.repeat(base, rng.integers(1, 5, len(base)), axis=0)
        rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0
        runs.append(rows)
    return sets, budget, draw(st.sampled_from([heistsp.beta.BATCH_PAIRS, 150])), params, runs


@given(_chunk_sets())
@settings(max_examples=30, deadline=None)
def test_chunk_passes_equal_per_set_forms(case):
    """The engine's set-up passes over a chunk equal the per-set forms of
    tests/sequential.py bit for bit: frames, subsamples, strips, pair
    candidates, pair lines and witnesses."""
    sets, budget, bound, params, runs = case
    count = np.array([len(s) for s in sets])
    start = np.cumsum(count) - count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heistsp.beta, "BATCH_PAIRS", bound)
        origin, unit, canon = heistsp.beta._frames(np.concatenate(sets), count)
        frames = [member_frame(s) for s in sets]
        for (o, u, c), o2, u2, a, n in zip(frames, origin, unit, start, count):
            assert (_hex(o), _hex(u), _hex(c)) == (_hex(o2), _hex(u2), _hex(canon[a:a + n]))
        fit = unit > 0.0
        subs = [subsample(c, budget.max_members) for _, u, c in frames if u > 0.0]
        sub = heistsp.beta._subsamples(canon[np.repeat(fit, count)], count[fit],
                                       budget.max_members)
        assert _hex(sub) == _hex(np.concatenate(subs or [np.empty((0, 3))]))
        subs += WRAPS + runs
        rows = _Rows(subs)
        want = [min_width_strip(s[:, :2]) for s in subs]
        got = heistsp.beta._strips(rows.cols[:2].T, rows.count)
        assert [_hex(v) for v in got] == [_hex(v) for v in zip(*want)]
        pairs = [pair_candidates(s, budget.pair_starts) for s in subs]
        ii, jj, owner = _pair_candidates(rows.cols.T, rows.count, budget)
        assert (list(zip(owner.tolist(), (ii - rows.start[owner]).tolist(),
                         (jj - rows.start[owner]).tolist()))
                == [(k, i, j) for k, p in enumerate(pairs) for i, j in p])
        want = [pair_lines(s, p) for s, p in zip(subs, pairs)]
        lines, n_lines = heistsp.beta._pair_lines(rows, budget)
        assert n_lines.tolist() == [len(w) for w in want]
        assert _hex(lines) == _hex([line for w in want for line in w])
        fits = [heistsp.beta._Fit(k, s, np.arange(len(s)), point_of(o), float(u), None)
                for k, (s, o, u) in enumerate(zip(sets, origin, unit)) if u > 0.0]
        got = heistsp.beta._witnesses(fits, [(tuple(params[f.key]), 0.0) for f in fits])
        for f, w in zip(fits, got):
            sup, line, point = witness(f.points, f.origin, f.unit, tuple(params[f.key]))
            assert (_hex(w.sup), _hex(w.line), _hex(w.point)) == (_hex(sup), _hex(line),
                                                                  _hex(point))


def test_wrap_rows_take_both_guards():
    assert math.atan2(-5e-324, 1.0) / math.pi == 0.0 and math.atan2(-5e-324, 1.0) < 0.0
    assert math.floor(math.atan2(-1e-17, 0.5) / math.pi) == -1
    assert math.atan2(-1e-17, 0.5) + math.pi == math.pi
    lines, _ = heistsp.beta._pair_lines(_Rows(WRAPS), BetaBudget())
    assert (lines[:, 0] >= 0.0).all() and (lines[:, 0] < math.pi).all()
    # one point: its strip runs through it, -0.0 kept
    point = np.array([[-0.5, -0.0]])
    assert _hex(heistsp.beta.min_width_strip(point)) == _hex(min_width_strip(point))


coords = st.floats(-1.0, 1.0, allow_nan=False)
small_sets = st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=12)


@given(st.lists(st.tuples(small_sets, st.tuples(coords, coords, coords), st.floats(0.05, 3.0)),
                min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_batch_equals_one_at_a_time_on_random_sets(cases):
    items = [(np.array(pts), Ball(HeisPoint(*center), radius)) for pts, center, radius in cases]
    got = beta_heis_many(items, BUILDER_BUDGET)
    want = [beta_heis(arr, ball, BUILDER_BUDGET) for arr, ball in items]
    assert [_fields(r) for r in got] == [_fields(r) for r in want]


def _source(name, table):
    """The Python source of name = table, a list or a dict of str keys, one
    entry per line."""
    if isinstance(table, dict):
        entries, brackets = [('"%s": ' % k, v) for k, v in table.items()], "{}"
    else:
        entries, brackets = [("", v) for v in table], "[]"
    out = ["%s = %s" % (name, brackets[0])]
    for head, v in entries:
        pad = "\n" + " " * (4 + len(head))
        body = pprint.pformat(v, width=95 - len(head), compact=True, sort_dicts=False).replace("\n", pad)
        out.append("    %s%s," % (head, body))
    out.append(brackets[1])
    return "\n".join(out)


if __name__ == "__main__":
    # every frozen table, of this module and of test_verify, from the code as it is
    from test_verify import DICHOTOMY_CASES, _dichotomy_fits
    print(_source("FROZEN", _fixed_table_fields()))
    print(_source("FROZEN_ORACLE", _oracle_fields()))
    print(_source("FROZEN_CARLESON", {name: _carleson_digest(make) for name, make in LIFTED}))
    print(_source("FROZEN_BUILD", {name: _build_digest(make) for name, make in LIFTED}))
    print(_source("FROZEN_DICHOTOMY", {name: _dichotomy_fits(check, n)[2]
                                       for name, check, n in DICHOTOMY_CASES}))
