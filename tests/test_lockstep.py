"""The lockstep beta engine against the sequential references it replays.

Every comparison here is exact: the batched distance kernel, the lockstep
golden-section height search and the lockstep Nelder-Mead must reproduce
line_dists_arr, golden_min and scipy.optimize.minimize bit for bit, and a
batch of balls must give each ball the result it gets alone.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import heistsp.beta
import heistsp.builder
import heistsp.multiscale
from heistsp.builder import BuilderConfig, ScaleRangeError, _build, theorem_a_check
from heistsp.core import ORIGIN, HeisPoint, as_array, sample_box
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
    members_in_ball,
)
from conftest import lifted_circle, lifted_parabola, lifted_sine
from test_golden_cli import FIXTURES as GOLDEN_FIXTURES
from sequential import golden_min, pair_candidates, quartic


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


def _scipy_polish(arr, x0, maxiter):
    def objective(x):
        return float(line_dists_arr(arr, HorizontalLine(x[0], x[1], x[2])).max())

    x0 = np.array(x0)
    simplex = np.vstack([x0, x0 + np.diag(_NM_STEPS)])
    return minimize(objective, x0, method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-13,
                             "disp": False, "initial_simplex": simplex})


STARTS = [(0.5 * math.pi, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.1, -0.2)]


@pytest.mark.parametrize("n_starts", [1, 2, 3])
@pytest.mark.parametrize("case", ["three-point", "cloud", "shrink"])
def test_lockstep_nelder_mead_equals_scipy(case, n_starts, monkeypatch):
    maxiter = 120
    if case == "three-point":
        arr = np.array([(-0.5, 0.0, 0.0), (0.0, 0.0, 0.05), (0.5, 0.0, 0.0)])
        maxiter = 400
    elif case == "cloud":
        arr = sample_box(np.random.default_rng(10), 40, 0.7)
    else:   # the first start shrinks its simplex once
        arr = sample_box(np.random.default_rng(21), 3, 0.7)
    # start i runs in a ball of i + 1 copies of arr: the same max distances,
    # and each line's row count tells its start
    sets = [np.concatenate([arr] * (i + 1)) for i in range(n_starts)]
    starts = STARTS[:n_starts]
    refs = [_scipy_polish(arr, x0, maxiter) for x0 in starts]
    calls = []
    max_dists = heistsp.beta._max_dists

    def spy(lines, params):
        copies = np.diff(lines.first, append=len(lines.line)) // len(arr)
        calls.append((np.shape(params), copies - 1))     # the start of each line
        return max_dists(lines, params)

    monkeypatch.setattr(heistsp.beta, "_max_dists", spy)
    got = _nelder_mead(_Rows(sets), list(range(n_starts)), starts, maxiter, 1e-10, 1e-13)
    assert len(got) == n_starts
    lines = np.bincount(np.concatenate([s for _, s in calls]), minlength=n_starts)
    # a shrink call evaluates three new vertices of each start it shrinks
    shrinks = np.bincount(np.concatenate([s for shape, s in calls if shape[1:] == (3, 3)]
                                         + [np.empty(0, dtype=int)]), minlength=n_starts) // 3
    for i, ((fun, x), ref) in enumerate(zip(got, refs)):
        assert fun == float(ref.fun)
        assert x == tuple(float(v) for v in ref.x)
        assert lines[i] == ref.nfev      # each start evaluates the points scipy evaluates
        if case == "three-point":
            assert ref.nit < maxiter      # converged early
    if case == "shrink":
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
        calls.append(np.diff(lines.first, append=len(lines.line)) // len(arr) - 1)
        return max_dists(lines, params)

    monkeypatch.setattr(heistsp.beta, "_max_dists", spy)
    got = _nelder_mead(_Rows([arr, np.concatenate([arr, arr])]), balls, starts, 120,
                       1e-10, 1e-13)
    for (fun, x), x0 in zip(got, starts):
        assert fun == float(refs[x0].fun)
        assert x == tuple(float(v) for v in refs[x0].x)
    # each distinct (ball, start) evaluates the points scipy evaluates, once
    lines = np.bincount(np.concatenate(calls), minlength=2)
    assert lines.tolist() == [refs[a].nfev + refs[b].nfev + refs[signed].nfev
                              + refs[STARTS[1]].nfev, refs[a].nfev]


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
            out.append((pts, Ball(c, 1.5), budget, t))
    return out


def _fields(res):
    vals = (res.beta, *res.line, *res.achieving_point, res.certified_gap)
    return tuple(float(v).hex() for v in vals) + (res.vacuous,)


#: _fields of every _table() case, recorded with the sequential engine
#: (scipy.optimize.minimize polish) under numpy 2.4.6 and scipy 1.17.1
FROZEN = [
    ('0x1.22ddfff426d61p-6', '0x1.170d99a1e75adp+1', '-0x1.7f62e340d3540p-7',
     '0x1.851e82a7edc82p-2', '0x1.32e5152bd25fcp-1', '-0x1.7db3ad31555b7p-1',
     '0x1.d694f8e68e4acp-2', '0x1.c059630d36454p-4', False),
    ('0x1.23241ad50b963p-6', '0x1.1709b11245a98p+1', '-0x1.81c8cd1223c70p-7',
     '0x1.8528f251c179cp-2', '0x1.32e5152bd25fcp-1', '-0x1.7db3ad31555b7p-1',
     '0x1.d694f8e68e4acp-2', '0x1.c047dc54fd151p-4', False),
    ('0x0.0p+0', '0x0.0p+0', '0x1.6a09e667f3bcdp-1',
     '0x1.db2f8fe6643a4p+1', '-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1',
     '0x1.2d97c7f3321d2p+2', '0x0.0p+0', False),
    ('0x0.0p+0', '0x0.0p+0', '0x1.6a09e667f3bcdp-1',
     '0x1.db2f8fe6643a4p+1', '-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1',
     '0x1.2d97c7f3321d2p+2', '0x0.0p+0', False),
    ('0x1.cb0ec439327b0p-3', '0x1.921fb52269d60p+1', '-0x1.4f8e755478302p-2',
     '0x1.5b8dc9abdf96dp-28', '-0x1.0000000000000p-1', '0x1.0000000000000p-2',
     '-0x1.5555555555555p-4', '0x1.0defad7baeac0p-5', False),
    ('0x1.cb2d837bdb2a1p-3', '0x1.921c565a13b8ep+1', '-0x1.4f7bef0be0358p-2',
     '-0x1.bc210df0f177cp-13', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '0x1.5555555555555p-1', '0x1.0d74b0710bf04p-5', False),
    ('0x1.cae00a5c69597p-3', '0x1.ef85dd1946487p+0', '-0x1.0c1fbe61cc68ap-4',
     '-0x1.1d6bcd861bc1dp-3', '0x1.2ddec6decc500p-1', '0x1.04af1e02dff1ap-1',
     '-0x1.49b2c7f3ccf06p-2', '0x1.25e4165270d18p-4', False),
    ('0x1.cdc9942e4831fp-3', '0x1.f28c8beb42024p+0', '-0x1.0f232dcfe2f58p-4',
     '-0x1.0e970ee9c36d8p-3', '-0x1.a00cc0ec6688ap-2', '-0x1.380f712193c9cp-1',
     '-0x1.24e6ac916608ap-1', '0x1.201102aeb3208p-4', False),
    ('0x1.5d333adf13f78p-3', '0x1.ffcb44b1a6d4bp-1', '0x1.93e36bd8e6e45p-1',
     '0x1.4902a9ee0a8bep+2', '-0x1.eb42a9bcd5058p-1', '-0x1.207e7fd768dbap-2',
     '0x1.b6ae3a1bebcd4p+2', '0x1.b8f57e2ab3d78p-5', False),
    ('0x1.5de3a612fa100p-3', '0x1.001360d7aefa8p+0', '0x1.94bbd311758b9p-1',
     '0x1.48b1127c0e4cap+2', '0x1.207e7fd768dc1p-2', '0x1.eb42a9bcd5057p-1',
     '0x1.4902ab94f0d9fp+1', '0x1.b633d15b1b770p-5', False),
    ('0x1.d296129efe263p-3', '0x1.921fb35a2b75fp+1', '-0x1.452feab34ae27p-2',
     '-0x1.23a99c70c0000p-19', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '0x1.5555555555555p-1', '0x1.8225760cb776ap-4', False),
    ('0x1.e75432a311788p-3', '0x1.7ecb5c965eb59p-5', '0x1.5788080f47ff0p-2',
     '0x1.7fcc4bfb3db00p-5', '-0x1.2c234f72c2350p-1', '0x1.5fe2c713c9356p-2',
     '-0x1.13098700c093ap-3', '0x1.58a9360490d14p-4', False),
    ('0x1.1aeff1c7a03d2p-2', '0x1.48a7049a3feb1p-2', '0x1.c6733a7acd65ap-3',
     '0x1.434cde40d712ap-3', '-0x1.688de0efd74c0p-1', '0x1.65506d58f6016p-1',
     '0x1.42ad0e694ae7cp-1', '0x1.ec68d505b7e80p-7', False),
    ('0x1.1d477dd63e45dp-2', '0x1.8e0cdae11d221p-3', '0x1.05d7fd21b0e82p-2',
     '0x1.0e0db2875a400p-12', '-0x1.688de0efd74c0p-1', '0x1.65506d58f6016p-1',
     '0x1.42ad0e694ae7cp-1', '0x1.a1775331f6d20p-7', False),
    ('0x1.e7cb30797a187p-3', '0x1.9c42ed7be8924p-1', '0x1.751419acdafd7p-1',
     '0x1.302095fd092f2p+2', '-0x1.fff494cb43a57p-1', '0x1.b08626b060d9cp-7',
     '0x1.906f2be664f53p+2', '0x1.00f993fce8f60p-7', False),
    ('0x1.eb946b9433a5cp-3', '0x1.9c884c4ad4219p-1', '0x1.7468422bc1d00p-1',
     '0x1.2fe47db78ad6bp+2', '-0x1.fff494cb43a57p-1', '0x1.b08626b060d9cp-7',
     '0x1.906f2be664f53p+2', '0x1.a2c539d38f4a8p-6', False),
]


def test_beta_heis_field_equal_on_fixed_table():
    got = [_fields(beta_heis(pts, ball, budget, seed=seed))
           for pts, ball, budget, seed in _table()]
    assert got == FROZEN


def test_budget_without_refits_or_polish():
    pts = [ORIGIN, HeisPoint(0.0, 0.0, 1.0)]
    res = beta_heis(pts, Ball(ORIGIN, 1.0), BetaBudget(refine_starts=0, nm_starts=0))
    assert res.beta > 0.0
    assert _nelder_mead(_Rows([np.zeros((2, 3))]), [], [], 10, 1e-10, 1e-13) == []


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
    assert _nelder_mead(rows, balls, starts, 60, 1e-10, 1e-13) == \
        [_nelder_mead(_Rows([sets[b]]), [0], [x0], 60, 1e-10, 1e-13)[0]
         for b, x0 in zip(balls, starts)]


def _mixed_table():
    """(points, ball, seed) with 0, 1, 2, 3, 50 and 120 members (above both
    budgets' max_members), repeated points, balls centred on a member and off
    the set, and one set seen through two balls."""
    rng = np.random.default_rng(20261019)
    cloud = sample_box(rng, 120, 1.0)
    ts = np.linspace(0.0, 1.5 * math.pi, 50)
    helix = np.column_stack([np.cos(ts), np.sin(ts), 2.0 * ts])
    repeated = cloud[rng.integers(0, 4, 30)]
    far = Ball(HeisPoint(9.0, 9.0, 9.0), 1.0)
    return [
        (cloud, far, 1),                                         # no members
        (cloud, Ball(HeisPoint(*cloud[0]), 1e-9), 2),            # one member
        (cloud[:2], Ball(HeisPoint(*cloud[0]), 3.0), 3),         # two
        (cloud[:3], Ball(HeisPoint(0.3, -0.2, 0.1), 3.0), 4),    # three
        (helix, Ball(HeisPoint(0.1, 0.2, 4.0), 20.0), 5),        # 50
        (cloud, Ball(HeisPoint(*cloud[7]), 3.0), 6),             # 120
        (repeated, Ball(HeisPoint(*repeated[0]), 3.0), 7),       # repeated points
        (helix, Ball(HeisPoint(0.9, 0.4, 1.0), 1.0), 8),         # a part of the helix
        (cloud[:3], Ball(HeisPoint(*cloud[1]), 3.0), 9),         # an item again, new seed
    ]


@pytest.mark.parametrize("budget", [BetaBudget(), BUILDER_BUDGET], ids=["default", "builder"])
def test_batch_equals_one_at_a_time(budget):
    table = _mixed_table()
    got = beta_heis_many([(p, b) for p, b, _ in table], budget, [s for _, _, s in table])
    want = [beta_heis(p, b, budget, seed=s) for p, b, s in table]
    assert [_fields(r) for r in got] == [_fields(r) for r in want]
    assert got[0].vacuous and not any(r.vacuous for r in got[1:])


def _sizes_table():
    """(points, ball, seed) with 2, 3, 48, 96 and 300 members: below, at and
    above both budgets' max_members, so one batch mixes subsample lengths."""
    rng = np.random.default_rng(20261020)
    out = []
    for seed, m in enumerate((2, 3, 48, 96, 300)):
        pts = sample_box(rng, m, 0.5)
        out.append((pts, Ball(HeisPoint(*pts[0]), 4.0), seed))
    return out


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    chunks = []
    solve = heistsp.beta._solve

    def spy(fits, budget):
        chunks.append(len(fits))
        return solve(fits, budget)

    monkeypatch.setattr(heistsp.beta, "_solve", spy)
    assert [len(members_in_ball(p, b)) for p, b, _ in _sizes_table()] == [2, 3, 48, 96, 300]
    for table, budget in [(_mixed_table(), BUILDER_BUDGET), (_sizes_table(), BUILDER_BUDGET),
                          (_sizes_table(), BetaBudget())]:
        items, seeds = [(p, b) for p, b, _ in table], [s for _, _, s in table]
        fitted = sum(len(members_in_ball(p, b)) >= 2 for p, b in items)
        chunks.clear()
        whole = beta_heis_many(items, budget, seeds)
        assert chunks == [fitted]      # every ball with two or more members, in one chunk
        with monkeypatch.context() as m:
            m.setattr(heistsp.beta, "BATCH_PAIRS", 1)
            one_by_one = beta_heis_many(items, budget, seeds)
        assert chunks[1:] == [1] * fitted
        assert [_fields(r) for r in one_by_one] == [_fields(r) for r in whole]
        # a ragged batch of mixed subsample lengths equals one ball at a time
        alone = [beta_heis(p, b, budget, seed=s) for (p, b), s in zip(items, seeds)]
        assert [_fields(r) for r in alone] == [_fields(r) for r in whole]


@pytest.mark.parametrize("budget", [BetaBudget(), BUILDER_BUDGET], ids=["default", "builder"])
def test_kernel_calls_stay_within_batch_pairs(budget, monkeypatch):
    """No kernel call of a mixed batch evaluates more than BATCH_PAIRS
    line-member pairs, unless it serves one ball alone, and the bound
    leaves every result unchanged."""
    rng = np.random.default_rng(20261021)
    items, seeds = [], []
    for seed in range(60):
        pts = sample_box(rng, int(rng.choice([2, 3, 12, 48, 96, 300])), 0.5)
        items.append((pts, Ball(HeisPoint(*pts[0]), 4.0)))
        seeds.append(seed)
    calls, chunk = [], [0]
    kernel, solve = heistsp.beta.quartic_dists, heistsp.beta._solve

    def spy_kernel(xt, yt, zt):
        calls.append((np.broadcast(xt, yt, zt).size, chunk[0]))
        return kernel(xt, yt, zt)

    def spy_solve(fits, budget):
        chunk[0] = len(fits)
        return solve(fits, budget)

    monkeypatch.setattr(heistsp.beta, "quartic_dists", spy_kernel)
    monkeypatch.setattr(heistsp.beta, "_solve", spy_solve)
    want = None
    for bound in (heistsp.beta.BATCH_PAIRS, 3000, 200):
        calls.clear()
        monkeypatch.setattr(heistsp.beta, "BATCH_PAIRS", bound)
        got = [_fields(r) for r in beta_heis_many(items, budget, seeds)]
        assert all(rows <= bound or balls == 1 for rows, balls in calls), bound
        assert max(rows for rows, _ in calls) > bound // 2      # the bound is reached
        want = want or got
        assert got == want


def test_carleson_sum_polishes_in_one_lockstep(monkeypatch):
    starts = []
    nelder_mead = heistsp.beta._nelder_mead

    def spy(rows, balls, *args):
        starts.append(len(balls))
        return nelder_mead(rows, balls, *args)

    monkeypatch.setattr(heistsp.beta, "_nelder_mead", spy)
    arr = as_array(lifted_circle(50))
    rep = carleson_sum(build_nets(arr), 3.0, 4.0, BetaBudget(), seed=0)
    fitted = sum(len(members_in_ball(arr, Ball(t.point, 4.0 * 2.0 ** -t.k))) >= 2
                 for t in rep.terms)
    assert starts == [BetaBudget().nm_starts * fitted]


@pytest.mark.parametrize("n", [5, 9, 10, 13, 48, 64, 96, 97, 1000])
def test_pair_candidates_equal_one_draw_per_pair(n):
    # the library draws each round's missing pairs in one call; with ten to
    # two hundred starts on as few as 9 points many draws have i == j
    rng = np.random.default_rng(n)
    for seed in range(6):
        canon = sample_box(rng, n, 1.0)
        for starts in (10, 24, 200):
            budget = BetaBudget(pair_starts=starts)
            assert _pair_candidates(canon, budget, seed) == pair_candidates(canon, starts, seed)


@pytest.mark.parametrize("n", [3, 1000, 2 ** 31 + 1, 3 * 2 ** 30 + 7])
def test_one_integer_draw_equals_a_draw_per_pair(n):
    # the stream property _pair_candidates relies on, also at sizes where the
    # bounded draw rejects about every other raw value
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        per_pair = [a.integers(0, n, 2).tolist() for _ in range(40)]
        assert b.integers(0, n, (40, 2)).tolist() == per_pair


def test_seed_count_must_match():
    with pytest.raises(ValueError):
        beta_heis_many([([ORIGIN], Ball(ORIGIN, 1.0))], None, [0, 1])


#: (terms, total as hex, SHA-1 of the terms as hex) of carleson_sum at r = 3,
#: a = 4, seed 0 and the default budget (the effort of build's default
#: --budget 24) on the 50-point lifted fixtures, recorded with the
#: one-ball-at-a-time engine
FROZEN_CARLESON = {
    "circle": (103, "0x1.79fa3f8bb1582p-4", "0367c8636a27df2961f3b4406b1bff9e428ca899"),
    "sine": (92, "0x1.3843d9724115ap-5", "5549d119308603536960d19ca7d27fb8e5af8e4c"),
    "parabola": (122, "0x1.6cc4f3b49520dp-6", "b8086c41ead036b618d14c1b21e28838d7b8971e"),
}


@pytest.mark.parametrize("name, make", [("circle", lifted_circle), ("sine", lifted_sine),
                                        ("parabola", lifted_parabola)])
def test_carleson_terms_frozen_on_lifted_fixtures(name, make):
    rep = carleson_sum(build_nets(as_array(make(50))), 3.0, 4.0, BetaBudget(), seed=0)
    lines = ["%d %s %s %s %s" % (t.k, float(t.beta).hex(), float(t.contribution).hex(),
                                 float(t.gap).hex(), " ".join(float(v).hex() for v in t.point))
             for t in rep.terms]
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert (len(rep.terms), float(rep.total).hex(), digest) == FROZEN_CARLESON[name]


#: SHA-1 of the curve vertices, of the ledger entries (costs as hex) and of
#: the sorted snapshots of _build at seed 0 on the 50-point lifted fixtures,
#: recorded before the reflect-first polish
FROZEN_BUILD = {
    "circle": ("e1a2ac4be3df1d5a4cfec753433a1b656e91e169",
               "1f9cf4d341e335b711721ce20f881f401611eb10",
               "e1d8ca1454ae8e1719be89d64af265d55b2b96d7"),
    "sine": ("99e03523d2ecfa63a04eb6795162833baa060287",
             "9549f6c1bcd406800c97f725ad3705000482809f",
             "68d86e94c45a0a5b1b781f05f6f759bd9c7f3be9"),
    "parabola": ("3074ddc4e851f5f40725f26a25d91cd0ad9fa2d2",
                 "999bb9749698ce591ca2990c40504b8bf6799449",
                 "f857f69a518ae56a0667a47390d54de4c0f5e7f1"),
}


@pytest.mark.parametrize("name, make", [("circle", lifted_circle), ("sine", lifted_sine),
                                        ("parabola", lifted_parabola)])
def test_build_frozen_on_lifted_fixtures(name, make):
    curve, ledger, _ = _build(make(50), BuilderConfig(seed=0))
    texts = (repr([tuple(v) for v in curve.vertices]),
             repr([(e.k, e.anchor, e.case, e.op, e.point, e.cost.hex(), e.deleted_edge)
                   for e in ledger.entries]),
             repr(sorted(ledger.snapshots.items())))
    assert tuple(hashlib.sha1(t.encode()).hexdigest() for t in texts) == FROZEN_BUILD[name]


@pytest.mark.parametrize("name, pts", [
    ("circle", lifted_circle(50)), ("sine", lifted_sine(50)), ("parabola", lifted_parabola(50)),
    ("cloud", [HeisPoint(*p) for p in GOLDEN_FIXTURES["cloud.txt"]])],
    ids=["circle", "sine", "parabola", "cloud"])
def test_theorem_a_check_is_one_engine_call(name, pts, monkeypatch):
    """The builder's fits and then the Carleson balls go through one
    beta_heis_many call, which gives the results of _build followed by
    carleson_sum; on a 50-point lifted curve at build's default budget that
    call is one chunk and one Nelder-Mead lockstep."""
    cfg = BuilderConfig(beta_budget=BetaBudget(), seed=0)
    curve, ledger, hierarchy = _build(pts, cfg)
    rep = carleson_sum(hierarchy, cfg.r, cfg.carleson_a, cfg.beta_budget, seed=cfg.seed)
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


coords = st.floats(-1.0, 1.0, allow_nan=False)
small_sets = st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=12)


@given(st.lists(st.tuples(small_sets, st.tuples(coords, coords, coords), st.floats(0.05, 3.0),
                          st.integers(0, 2 ** 31 - 1)), min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_batch_equals_one_at_a_time_on_random_sets(cases):
    items, seeds = [], []
    for pts, center, radius, seed in cases:
        items.append((np.array(pts), Ball(HeisPoint(*center), radius)))
        seeds.append(seed)
    got = beta_heis_many(items, BUILDER_BUDGET, seeds)
    want = [beta_heis(arr, ball, BUILDER_BUDGET, seed=s) for (arr, ball), s in zip(items, seeds)]
    assert [_fields(r) for r in got] == [_fields(r) for r in want]
