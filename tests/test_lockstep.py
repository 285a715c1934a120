"""The lockstep beta engine against the sequential references it replays.

Almost every comparison here is exact: the batched distance kernel must
reproduce line_dists_arr, and golden_min_many golden_min, bit for bit; each
line's height search must give the result it gets alone, and each set's
polish starts the results they get polished alone; and a batch of balls
must give each ball the result it gets alone.
Two comparisons have a tolerance: the height search's max distances are at
most those of the 60-step golden section it replaced times 1 + 1e-13, and
the polish is held to scipy's Nelder-Mead, the polish it replaced.
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

import heistsp.beta
import heistsp.builder
import heistsp.multiscale
from heistsp.builder import BuilderConfig, ScaleRangeError, _build, theorem_a_check
from heistsp.cli import _budget_from_level
from heistsp.core import (ORIGIN, HeisPoint, as_array, left_translate_arr, norm_arr, point_of,
                          rotate_arr, sample_box)
from heistsp.curves import curve_length
from heistsp.multiscale import build_nets, carleson_sum
from heistsp.lines import (
    HorizontalLine,
    canon_coords,
    line_dists_arr,
    quartic_dists,
)
from heistsp.beta import (
    BUILDER_BUDGET,
    ORACLE_POLISH_ITERS,
    POLISH_MERGE,
    Ball,
    BetaBudget,
    _Rows,
    _pair_candidates,
    _best_heights,
    _polish,
    beta_heis,
    beta_heis_many,
    beta_heis_oracle,
    members_in_ball,
)
from conftest import lifted_circle, lifted_parabola, lifted_sine
from test_acceptance import _beta_fixtures
from test_golden_cli import FIXTURES as GOLDEN_FIXTURES
from sequential import (golden_min, golden_min_many, member_frame, min_width_strip, pair_candidates,
                        pair_lines, quartic, subsample, witness)


def _masked_quartic_dists(xt, yt, zt):
    """quartic_dists with the cubic root taken on the y~ != 0 rows only."""
    ay = np.abs(yt)
    q = yt * (2.0 * xt * yt - zt)
    u = np.zeros_like(xt)
    nz = ay > 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u_nz = -2.0 * ay[nz] * np.sinh(np.arcsinh(q[nz] / (2.0 * (ay[nz] * ay[nz] * ay[nz]))) / 3.0)
    bad = ~np.isfinite(u_nz)
    u_nz[bad] = -np.cbrt(q[nz][bad])
    u[nz] = u_nz
    f = quartic(xt + u, xt, yt, zt)
    f_alt = (yt * yt) ** 2 + (zt - 2.0 * xt * yt) ** 2
    return np.sqrt(np.sqrt(np.minimum(f, f_alt)))


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


def _golden_heights(lines, thetas, offsets, iters=60):
    """The height search the engine replaced, as the reference of its
    heights: golden_min_many over each line's bracket [a, b] of targets, one
    kernel call a probe; the max distances at its heights, and a and b."""
    count, first = lines.count, lines.first
    th, off = np.asarray(thetas, dtype=float), np.repeat(np.asarray(offsets, dtype=float), count)
    xt, yt, z0 = canon_coords(lines.cols.T, np.repeat(np.cos(th), count),
                              np.repeat(np.sin(th), count), off, 0.0)
    targets = lines.cols[2] - 2.0 * xt * yt + 2.0 * off * xt
    a, b = np.minimum.reduceat(targets, first), np.maximum.reduceat(targets, first)
    top = golden_min_many(
        lambda h: np.maximum.reduceat(quartic_dists(xt, yt, z0 - np.repeat(h, count)), first),
        a, b, iters)[1]
    return top, a, b


@st.composite
def _height_searches(draw):
    """A member set and 1-5 lines over it.  The sets: sample_box sets,
    vertical stacks, two-row sets, sets with y~ = 0 rows and sets with
    |y~| near 1e-160, whose roots take the kernel's -cbrt(q) branch (both on
    the line theta = 0, offset 0, always drawn for them), and sets on one
    horizontal line at dyadic coordinates, whose own line's targets are one
    height exactly (a one-point bracket)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["box", "stack", "pair", "flat", "cbrt", "on-line"]))
    n = int(rng.integers(3, 41))
    arr = sample_box(rng, 2 if kind == "pair" else n, 0.8)
    n_lines = draw(st.integers(1, 5))
    thetas, offsets = rng.uniform(0.0, math.pi, n_lines), rng.uniform(-0.5, 0.5, n_lines)
    if kind == "stack":
        arr[:, :2] = arr[0, :2]
    elif kind in ("flat", "cbrt"):
        arr[::2, 1] = 0.0 if kind == "flat" else 1e-160 * rng.uniform(-1.0, 1.0, len(arr[::2]))
        thetas[0] = offsets[0] = 0.0
    elif kind == "on-line":
        t, (c, h) = rng.integers(-8, 9, n) / 8.0, rng.integers(-8, 9, 2) / 8.0
        arr = np.column_stack([t, np.full(n, c), h - 2.0 * c * t])
        thetas[0], offsets[0] = 0.0, c
    return kind, arr, thetas, offsets


@given(_height_searches())
@settings(max_examples=150, deadline=None)
def test_height_search_no_worse_than_golden_section(case):
    """Each line's height leaves its max distance at most 1 + 1e-13 times
    that of 60 golden-section steps over the same bracket; a one-point
    bracket gives its height exactly."""
    kind, arr, thetas, offsets = case
    lines = _one_ball(arr, len(thetas))
    got = np.array(_best_heights(lines, thetas, offsets))
    top, a, b = _golden_heights(lines, thetas, offsets)
    got_top = heistsp.beta._max_dists(lines, np.column_stack([thetas, offsets, got]))
    assert np.all(got_top <= top * (1.0 + 1e-13)), (got_top / top - 1.0)
    assert np.array_equal(got[a == b], a[a == b])
    if kind == "on-line":
        assert a[0] == b[0] == got[0]


#: the iterations of the two polishes: the engine's at the default budget,
#: and beta_heis_oracle's
POLISH_ITERS = {"engine": BetaBudget().nm_iter, "oracle": ORACLE_POLISH_ITERS}

STARTS = [(0.5 * math.pi, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.1, -0.2)]
THREE_POINT = np.array([(-0.5, 0.0, 0.0), (0.0, 0.0, 0.05), (0.5, 0.0, 0.0)])
VERTICAL_PAIR = np.array([(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)])


def _spy_polish_calls(monkeypatch, calls, rows_per_ball):
    """Record the ball of each line of every _dists_grads call, told by its
    row count, rows_per_ball(count)."""
    dists_grads = heistsp.beta._dists_grads

    def spy(lines, params, **grad):
        calls.append(rows_per_ball(lines.count))
        return dists_grads(lines, params, **grad)

    monkeypatch.setattr(heistsp.beta, "_dists_grads", spy)


@pytest.mark.parametrize("n_starts", [1, 2, 3])
@pytest.mark.parametrize("case, polish", [
    pytest.param(case, polish, id=case if polish == "engine" else case + "-oracle")
    for polish in POLISH_ITERS for case in ("three-point", "cloud", "vertical-pair")])
def test_lockstep_polish_equals_each_start_alone(case, polish, n_starts, monkeypatch):
    """Starts polished together give what each gives alone, bit for bit; each
    is never worse than its start, and its value is the exact max distance
    at its line; every kernel call of the lockstep serves every start."""
    arr = {"three-point": THREE_POINT, "vertical-pair": VERTICAL_PAIR,
           "cloud": sample_box(np.random.default_rng(10), 40, 0.7)}[case]
    iters = POLISH_ITERS[polish]
    # start i runs in a ball of i + 1 copies of arr: the same max distances,
    # and each line's row count tells its start
    sets = [np.concatenate([arr] * (i + 1)) for i in range(n_starts)]
    starts = STARTS[:n_starts]
    calls = []
    with monkeypatch.context() as m:
        _spy_polish_calls(m, calls, lambda count: (count // len(arr) - 1).tolist())
        got = _polish(_Rows(sets), list(range(n_starts)), starts, iters)
    # the start's rows, its probe's and one trial point an iteration
    assert calls == [list(range(n_starts))] * (iters + 2)
    assert got == [_polish(_Rows([s]), [0], [x0], iters)[0] for s, x0 in zip(sets, starts)]
    for (fun, x), x0 in zip(got, starts):
        assert fun == line_dists_arr(arr, HorizontalLine(*x)).max()
        assert fun <= line_dists_arr(arr, HorizontalLine(*x0)).max()
    if case == "vertical-pair":     # the probe leaves the symmetric saddle
        assert all(fun < 0.99 for fun, _ in got)


#: (initial simplex steps, xatol, fatol) of scipy's Nelder-Mead, the polish
#: that _polish replaced: the engine's, and beta_heis_oracle's, whose steps
#: were one grid cell along each axis (resolution 48, heights in [-20, 20])
NELDER_MEAD = {"engine": ((0.25, 0.2, 0.3), 1e-10, 1e-13),
               "oracle": ((math.pi / 48, math.pi / 48, 40.0 / 48), 1e-11, 1e-14)}


@pytest.mark.parametrize("n_starts", [1, 2, 3])
@pytest.mark.parametrize("case, polish", [
    pytest.param(case, polish, id=case if polish == "engine" else case + "-oracle")
    for polish in NELDER_MEAD for case in ("three-point", "cloud", "shrink")])
def test_lockstep_nelder_mead_equals_scipy(case, polish, n_starts):
    """The least-pth polish that replaced Nelder-Mead, at the iteration count
    of its caller (the engine's at BetaBudget(), or beta_heis_oracle's),
    ends within 1e-6 relative of scipy's Nelder-Mead minimum from every
    start, under that caller's former initial simplex, or below it; scipy
    runs through heistsp.beta.minimize.  On the shrink set, three points
    whose first start made Nelder-Mead shrink its simplex, Nelder-Mead
    stalls on the nonsmooth max from that start, and the polish ends over 5%
    lower."""
    arr = {"three-point": THREE_POINT, "cloud": sample_box(np.random.default_rng(10), 40, 0.7),
           "shrink": sample_box(np.random.default_rng(21), 3, 0.7)}[case]
    steps, xatol, fatol = NELDER_MEAD[polish]
    maxiter = 400 if case == "three-point" else 120

    def objective(x):
        return float(line_dists_arr(arr, HorizontalLine(x[0], x[1], x[2])).max())

    refs = []
    for x0 in STARTS[:n_starts]:
        x0 = np.array(x0)
        refs.append(heistsp.beta.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol, "disp": False,
                     "initial_simplex": np.vstack([x0, x0 + np.diag(steps)])}))
    sets = [np.concatenate([arr] * (i + 1)) for i in range(n_starts)]
    got = _polish(_Rows(sets), list(range(n_starts)), STARTS[:n_starts], POLISH_ITERS[polish])
    for (fun, x), ref in zip(got, refs):
        assert fun == objective(x)
        assert fun <= float(ref.fun) * (1.0 + 1e-6)
    if case == "shrink":
        assert got[0][0] < 0.95 * float(refs[0].fun)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_polish_derivatives_against_central_differences(seed):
    """The gradients of log d in (theta, offset, height) that _dists_grads
    returns match central differences of log d, and the Hessians of log d
    (those of d^4 over 4 d^4, less 4 g g^T) central differences of the
    gradients, on drawn rows and lines; the Hessians on rows with |y~| >=
    0.1, where the step is small against the scale y~^2 of the root."""
    rng = np.random.default_rng(seed)
    arr = sample_box(rng, 12, 0.8)
    params = rng.uniform([0.0, -0.5, -0.5], [math.pi, 0.5, 0.5], (5, 3))
    lines = _Rows([arr]).lines([0] * len(params))
    d, g, c = heistsp.beta._dists_grads(lines, params)
    yt = canon_coords(np.tile(arr, (len(params), 1)), *np.repeat(
        [np.cos(params[:, 0]), np.sin(params[:, 0]), params[:, 1], params[:, 2]], len(arr), axis=1))[1]
    smooth = np.abs(yt) >= 0.1
    h = 1e-6
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        up, down = (heistsp.beta._dists_grads(lines, params + s) for s in (step, -step))
        num = (np.log(up[0]) - np.log(down[0])) / (2.0 * h)
        assert np.allclose(g[k], num, rtol=1e-5, atol=1e-5 * np.abs(g).max()), k
        for e, (a, b) in enumerate([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]):
            if b != k:
                continue
            num = (up[1][a] - down[1][a]) / (2.0 * h)
            want = c[e] - 4.0 * g[a] * g[b]
            assert np.allclose(want[smooth], num[smooth], rtol=1e-4,
                               atol=1e-4 * np.abs(want[smooth]).max()), (a, b)


def test_polish_merges_starts_that_converge_together(monkeypatch):
    # ball 0 holds one copy of the cloud and ball 1 two, so each line's row
    # count tells its ball; start 2 is start 0 moved under the tolerance
    arr = sample_box(np.random.default_rng(10), 40, 0.7)
    a, b = STARTS[0], STARTS[2]
    near = (a[0] + 3e-3, a[1] - 2e-3, a[2] + 1e-3)
    balls = [0, 0, 0, 0, 1, 0]
    starts = [a, a, near, b, a, STARTS[1]]
    rows = _Rows([arr, np.concatenate([arr, arr])])
    calls = []
    with monkeypatch.context() as m:
        _spy_polish_calls(m, calls, lambda count: (count // len(arr) - 1).tolist())
        got = _polish(rows, balls, starts, 20)
    # every start until iteration 20 // 4, then the kept ones: the copy of
    # start 0 and start 2 stop
    assert calls == [balls] * 7 + [[0, 0, 1, 0]] * 15
    alone = [_polish(rows, [k], [x0], 20)[0] for k, x0 in zip(balls, starts)]
    assert got[0] == got[1] == got[2] == alone[0]
    assert got[2] != alone[2]
    assert got[3:] == alone[3:]


@st.composite
def _polish_batches(draw):
    """One lockstep's sets and starts: 2-10 sample_box sets of 3-40 rows,
    then the three-point set and the vertical pair; each set takes 1-3
    starts from a pool of six, four starts and two of them moved under the
    merge's tolerance, so bit-equal copies of a start in one set and
    near-duplicates are common; and an iteration count."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sets = [sample_box(rng, int(rng.integers(3, 41)), 0.7) for _ in range(draw(st.integers(2, 10)))]
    sets += [THREE_POINT, VERTICAL_PAIR]
    pool = STARTS + [tuple(rng.uniform([0.0, -0.3, -0.3], [math.pi, 0.3, 0.3]).tolist())]
    tol = POLISH_MERGE[1]
    pool += [tuple((np.array(pool[k]) + rng.uniform(-tol, tol, 3)).tolist())
             for k in rng.integers(0, len(pool), 2)]
    return (sets, [draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)) for _ in sets],
            draw(st.sampled_from([0, 1, 7, 32])))


@given(_polish_batches())
@settings(max_examples=5, deadline=None)
def test_polish_lockstep_equals_each_set_alone(case):
    """A lockstep of many sets, each with its own starts, gives every start
    the result of a lockstep of its set alone, bit for bit."""
    sets, starts, iters = case
    balls = [k for k, xs in enumerate(starts) for _ in xs]
    x0s = [x0 for xs in starts for x0 in xs]
    got = _polish(_Rows(sets), balls, x0s, iters)
    alone = [r for s, xs in zip(sets, starts) for r in _polish(_Rows([s]), [0] * len(xs), xs, iters)]
    assert got == alone


@given(_polish_batches())
@settings(max_examples=5, deadline=None)
def test_polish_merge_reads_its_own_set(case):
    """Each set's least result in a lockstep equals, bit for bit, that of the
    set polished alone; and no start reports more than the least max it met
    before the merge, its result polished alone for the merge's iterations."""
    sets, starts, iters = case
    balls = [k for k, xs in enumerate(starts) for _ in xs]
    got = iter(_polish(_Rows(sets), balls, [x0 for xs in starts for x0 in xs], iters))
    for s, xs in zip(sets, starts):
        mine = [next(got) for _ in xs]
        assert min(mine) == min(_polish(_Rows([s]), [0] * len(xs), xs, iters))
        for (fun, _), x0 in zip(mine, xs):
            assert fun <= _polish(_Rows([s]), [0], [x0], iters // POLISH_MERGE[0])[0][0]


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


#: _fields of every _table() case, recorded with the least-pth polish under
#: numpy 2.4.6; printed, with the other frozen tables, by running this
#: module as a script
FROZEN = [
    ('0x1.22dcdebb11616p-6', '0x1.170cfd7fa253ap+1', '-0x1.7f79cb5011cb8p-7',
     '0x1.85230fca85f19p-2', '0x1.32e5152bd25fcp-1', '-0x1.7db3ad31555b7p-1',
     '0x1.d694f8e68e4acp-2', '0x1.c059ab5b7b8f9p-4', False),
    ('0x1.22dcdebb11616p-6', '0x1.170cfd7fa253ap+1', '-0x1.7f79cb5011cb8p-7',
     '0x1.85230fca85f19p-2', '0x1.32e5152bd25fcp-1', '-0x1.7db3ad31555b7p-1',
     '0x1.d694f8e68e4acp-2', '0x1.c059ab5b7b8f9p-4', False),
    ('0x0.0p+0', '0x0.0p+0', '0x1.6a09e667f3bcdp-1', '0x1.db2f8fe6643a4p+1',
     '-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1', '0x1.2d97c7f3321d2p+2', '0x0.0p+0', False),
    ('0x0.0p+0', '0x0.0p+0', '0x1.6a09e667f3bcdp-1', '0x1.db2f8fe6643a4p+1',
     '-0x1.6a09e667f3bccp-1', '0x1.6a09e667f3bcdp-1', '0x1.2d97c7f3321d2p+2', '0x0.0p+0', False),
    ('0x1.cb0ec345f2864p-3', '0x0.0p+0', '0x1.4f8e747804397p-2', '0x0.0p+0',
     '-0x1.0000000000000p-1', '0x1.0000000000000p-2', '-0x1.5555555555555p-4',
     '0x1.80d78b4aa4ae9p-5', False),
    ('0x1.cb0ecedbc1674p-3', '0x0.0p+0', '0x1.4f8e85a2245b4p-2', '0x1.7c9c638033fb2p-59',
     '-0x1.0000000000000p-1', '0x1.0000000000000p-2', '-0x1.5555555555555p-4',
     '0x1.80d75cf3692a8p-5', False),
    ('0x1.cadf1796b8351p-3', '0x1.ef73e7e141d68p+0', '-0x1.0c3091da004bap-4',
     '-0x1.1f3cee98c6867p-3', '0x1.2ddec6decc500p-1', '0x1.04af1e02dff1ap-1',
     '-0x1.49b2c7f3ccf06p-2', '0x1.224e3c6c1e538p-5', False),
    ('0x1.cae00f5e61ccdp-3', '0x1.ef7360cc6475fp+0', '-0x1.0c28e8b8d94aap-4',
     '-0x1.1f3920ced797bp-3', '0x1.2ddec6decc500p-1', '0x1.04af1e02dff1ap-1',
     '-0x1.49b2c7f3ccf06p-2', '0x1.224a5d4d77f4dp-5', False),
    ('0x1.5d33377afff20p-3', '0x1.ffcb43cb3e283p-1', '0x1.93e3691f03688p-1',
     '0x1.4902ab94f08b1p+2', '0x1.207e7fd768dc1p-2', '0x1.eb42a9bcd5057p-1',
     '0x1.4902ab94f0d9fp+1', '0x1.fb62241e1b10cp-5', False),
    ('0x1.5d33ec54a0364p-3', '0x1.ffcb43c647b37p-1', '0x1.93e4562120d6ap-1',
     '0x1.4902ab98e28eep+2', '0x1.207e7fd768dc1p-2', '0x1.eb42a9bcd5057p-1',
     '0x1.4902ab94f0d9fp+1', '0x1.fb5f50b799ffbp-5', False),
    ('0x1.d295d392ed900p-3', '0x0.0p+0', '0x1.453034c37f9efp-2', '-0x1.df0d267da6478p-55',
     '-0x1.0000000000000p+0', '0x1.0000000000000p+0', '-0x1.5555555555555p-1',
     '0x1.6e1edb80b8588p-6', False),
    ('0x1.d296a49b5f685p-3', '0x0.0p+0', '0x1.452f1e9fecea0p-2', '-0x1.595a0fa7b93c2p-53',
     '-0x1.0000000000000p+0', '0x1.0000000000000p+0', '-0x1.5555555555555p-1',
     '0x1.6e18533d29960p-6', False),
    ('0x1.1639dc296a3c1p-2', '0x1.79d9eb590247ap-2', '0x1.d07dac30cc9f4p-3',
     '0x1.9b89fadc1faabp-3', '-0x1.688de0efd74c0p-1', '0x1.65506d58f6016p-1',
     '0x1.42ad0e694ae7cp-1', '0x1.4195c4663bbe5p-6', False),
    ('0x1.163aaff27ba04p-2', '0x1.79d7b7c7056b8p-2', '0x1.d07976faebbabp-3',
     '0x1.9b861a4115c66p-3', '-0x1.688de0efd74c0p-1', '0x1.65506d58f6016p-1',
     '0x1.42ad0e694ae7cp-1', '0x1.418887d5257a6p-6', False),
    ('0x1.e7cb31391a4c4p-3', '0x1.9c42ed7776086p-1', '0x1.75141af3485bcp-1',
     '0x1.302095fffedc8p+2', '0x1.58eea2a9d6da3p-1', '0x1.7a5f6075d4885p-1',
     '0x1.a9c7386664ddep+0', '0x1.c18758664faacp-4', False),
    ('0x1.e7cc44ddc391fp-3', '0x1.9c42ed72dcd7dp-1', '0x1.7515a3dda515ep-1',
     '0x1.30209603f70e7p+2', '0x1.58eea2a9d6da3p-1', '0x1.7a5f6075d4885p-1',
     '0x1.a9c7386664ddep+0', '0x1.8f39d53d0a0d9p-4', False),
]


def _fixed_table_fields():
    return [_fields(beta_heis(pts, ball, budget)) for pts, ball, budget in _table()]


def test_beta_heis_field_equal_on_fixed_table():
    assert _fixed_table_fields() == FROZEN


def _oracle_table():
    """(points, ball, resolution) of beta_heis_oracle: criterion 5's fixtures
    at resolution 48, and ten sample_box sets at resolutions 24 and 32, every
    other set flattened towards the x axis."""
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
#: with the least-pth polish under numpy 2.4.6
FROZEN_ORACLE = [
    ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.12e0be826d695p-31'),
    ('0x1.306fe0a31b715p-2', '0x1.9999999999999p-5', '0x1.6a09e667f582bp-2',
     '0x1.0000000000000p-1', '0x1.ccd02e26c25bep-5'),
    ('0x1.8f9d993169685p-7', '0x1.8f10040c4482fp-5', '0x0.0p+0', '0x1.8fda6751aa3aep-4',
     '0x1.660af60fa4839p-5'),
    ('0x1.19f3059572522p-2', '0x1.76b2cef39cddep+1', '0x1.11f7bfe6baaa9p-4',
     '0x1.4c713d1272f2cp-8', '0x1.1ff1b962aad8fp-6'),
    ('0x1.2afdf212d6288p-3', '0x1.7330f4c8e91dep-3', '0x1.4689b15e3740ep-1',
     '0x1.c085d44cc123dp+1', '0x1.e6502ab016e5dp-6'),
    ('0x1.3ef6703c90d9cp-3', '0x1.079f9a03ba1e5p+0', '0x1.773229487d7d0p-1',
     '-0x1.c5c4239d7666fp+0', '0x1.a2a084431f1bep-6'),
    ('0x1.3ef6703c90d9cp-3', '0x1.079f9a03ba1e5p+0', '0x1.773229487d7d0p-1',
     '-0x1.c5c4239d7666fp+0', '0x1.a2a084431f1bep-6'),
    ('0x1.c02581e0cc114p-5', '0x1.1643afa493a95p-4', '0x1.70767ae3f260ep-8',
     '0x1.0f3afce3cb2bdp-7', '0x1.cd5182300ae01p-8'),
    ('0x1.c02581e0cc114p-5', '0x1.1643afa493a95p-4', '0x1.70767ae3f260ep-8',
     '0x1.0f3afce3cb2bdp-7', '0x1.cd5182300ae01p-8'),
    ('0x1.83a1f31e6c305p-3', '0x1.4ed5d52e1a4cep+1', '0x1.d04d87cc6f400p-6',
     '-0x1.3144853cc03fcp-6', '0x1.6b107a6bc5dcfp-7'),
    ('0x1.83a1f31e6c305p-3', '0x1.4ed5d52e1a4cep+1', '0x1.d04d87cc6f400p-6',
     '-0x1.3144853cc03fcp-6', '0x1.6b107a6bc5dcfp-7'),
    ('0x1.c61d6f0473241p-5', '0x1.26bac87100c8ap-5', '0x1.602e1bf654236p-9',
     '0x1.06ead54c14261p-5', '0x1.aef6f0905d36fp-10'),
    ('0x1.c61d6f0473241p-5', '0x1.26bac87100c8ap-5', '0x1.602e1bf654236p-9',
     '0x1.06ead54c14261p-5', '0x1.aef6f0905d36fp-10'),
    ('0x1.ae82e4cd992fdp-3', '0x1.16795ac5fc2b4p+1', '-0x1.4529625bf8c2dp-4',
     '0x1.6f8288951234ep-4', '0x1.9c1b1da98d35cp-5'),
    ('0x1.ae82e4cd992fdp-3', '0x1.16795ac5fc2b4p+1', '-0x1.4529625bf8c2dp-4',
     '0x1.6f8288951234ep-4', '0x1.9c1b1da98d35cp-5'),
    ('0x1.9b5e757747bd5p-5', '0x1.49a5dfe0b97e7p-6', '0x1.32e1208212144p-8',
     '0x1.923277be31836p-10', '0x1.33e9fb693e140p-7'),
    ('0x1.9b5e757747bd5p-5', '0x1.49a5dfe0b97e7p-6', '0x1.32e1208212144p-8',
     '0x1.923277be31836p-10', '0x1.33e9fb693e140p-7'),
    ('0x1.063256fcbe0dep-2', '0x1.9b92652e3a94ep-3', '0x1.6a24c0add073ep-4',
     '-0x1.e325306353baap-2', '0x1.9a3def9cb650cp-7'),
    ('0x1.063256fcbe0dep-2', '0x1.9b92652e3a94ep-3', '0x1.6a24c0add073ep-4',
     '-0x1.e325306353baap-2', '0x1.9a3def9cb650cp-7'),
    ('0x1.be8ae8cfbb886p-5', '0x1.ed964e96b37e2p-7', '0x1.11cf75d458813p-7',
     '0x1.0730217c86e08p-6', '0x1.710f72705a069p-8'),
    ('0x1.be8ae8cfbb886p-5', '0x1.ed964e96b37e2p-7', '0x1.11cf75d458813p-7',
     '0x1.0730217c86e08p-6', '0x1.710f72705a069p-8'),
    ('0x1.f2352cec339f2p-3', '0x1.73382bde4b08ep+1', '-0x1.1e4c68fcfc93cp-7',
     '0x1.98a059de2b93dp-2', '0x1.7c11b38e98c47p-6'),
    ('0x1.f2352cec339f2p-3', '0x1.73382bde4b08ep+1', '-0x1.1e4c68fcfc93cp-7',
     '0x1.98a059de2b93dp-2', '0x1.7c11b38e98c47p-6'),
    ('0x1.04f26fe904b41p-4', '0x1.888eae06c83cfp-5', '-0x1.f9ae877872ba2p-9',
     '0x1.66919d54d788cp-6', '0x1.9cb953760f733p-7'),
    ('0x1.04f26fe904b41p-4', '0x1.888eae06c83cfp-5', '-0x1.f9ae877872ba2p-9',
     '0x1.66919d54d788cp-6', '0x1.9cb953760f733p-7'),
]


def test_oracle_field_equal_on_fixed_table():
    assert _oracle_fields() == FROZEN_ORACLE


def test_budget_without_polish():
    pts = [ORIGIN, HeisPoint(0.0, 0.0, 1.0)]
    res = beta_heis(pts, Ball(ORIGIN, 1.0), BetaBudget(nm_starts=0))
    assert res.beta > 0.0
    assert _polish(_Rows([np.zeros((2, 3))]), [], [], 10) == []


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
    assert _polish(rows, balls, starts, 24) == \
        [_polish(_Rows([sets[b]]), [0], [x0], 24)[0]
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


def test_lone_beta_kernel_calls(monkeypatch):
    """A lone ball's beta at BetaBudget() makes 82 kernel calls: 14 in the
    strip line's height search (the bracket's two ends and 12 steps), one
    scoring the candidates, 66 in the polish (its start, its probe and 64
    iterations) and one for the witness."""
    calls = []
    kernel = heistsp.beta.quartic_dists

    def spy(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(heistsp.beta, "quartic_dists", spy)
    beta_heis(sample_box(np.random.default_rng(3), 30, 0.8), Ball(ORIGIN, 1.0))
    assert len(calls) == 82


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

    def spy_kernel(xt, yt, zt, **grad):
        calls.append((np.broadcast(xt, yt, zt).size, chunk[0]))
        return kernel(xt, yt, zt, **grad)

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


@pytest.mark.parametrize("bound", [200, 2250])
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
    polish = heistsp.beta._polish

    def spy(rows, balls, *args):
        starts.append(len(balls))
        return polish(rows, balls, *args)

    monkeypatch.setattr(heistsp.beta, "_polish", spy)
    arr = as_array(lifted_circle(50))
    rep = carleson_sum(build_nets(arr), 3.0, 4.0, BetaBudget())
    fitted = _member_sets([(arr, Ball(t.point, 4.0 * 2.0 ** -t.k)) for t in rep.terms])
    # one lockstep; its starts are each distinct member set's nm_starts
    assert starts == [BetaBudget().nm_starts * len(fitted)] == [285]


def _moved_cloud():
    """The benchmark's cloud: sample_box(default_rng(0), 400, 1.0) under the
    isometry drawn from seed 0."""
    rng = np.random.default_rng([0, 7])
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    g = HeisPoint(*(float(v) for v in rng.uniform(-1.0, 1.0, 3)))
    return left_translate_arr(g, rotate_arr(theta, sample_box(np.random.default_rng(0), 400, 1.0)))


#: sum of beta^3 over the Carleson balls (r = 3, a = 4) at BetaBudget(),
#: recorded with the Nelder-Mead polish this one replaced: ceilings
QUALITY_CEILINGS = {"circle": 0.3103923374211683, "sine": 0.12448107693772179,
                    "cloud": 46.67187364957194}


def test_polish_quality_ceilings():
    """The polish fits the Carleson balls of lifted_circle(200),
    lifted_sine(200) and the 400-point benchmark cloud no worse in sum of
    beta^3 than the Nelder-Mead polish it replaced; and on the circle four
    times its iterations improve fewer than 5% of the betas by more than
    1e-6 relative."""
    budget = BetaBudget()
    for name, arr in [("circle", as_array(lifted_circle(200))), ("sine", as_array(lifted_sine(200))),
                      ("cloud", _moved_cloud())]:
        nets = build_nets(arr)
        betas = np.array([t.beta for t in carleson_sum(nets, 3.0, 4.0, budget).terms])
        assert (betas ** 3).sum() <= QUALITY_CEILINGS[name], name
        if name == "circle":
            longer = carleson_sum(nets, 3.0, 4.0, BetaBudget(nm_iter=4 * budget.nm_iter))
            improved = np.array([t.beta for t in longer.terms]) < betas * (1.0 - 1e-6)
            assert improved.mean() < 0.05


@pytest.mark.parametrize("seed, k, enclosing", [(5, 36, True), (6, 39, False)])
def test_builder_budget_within_five_percent_of_oracle(seed, k, enclosing):
    """At BUILDER_BUDGET the engine stays within criterion 5's 5% of
    beta_heis_oracle(resolution=32) on two of 40 sample_box sets of 3 to 39
    points drawn in turn from a seed: set 36 of seed 5, 3 points, in the
    ball at the origin of 1.01 times their largest norm, and set 39 of
    seed 6, 29 points, in the unit ball.  With a height refit of its best
    candidates before the polish, the engine was 26.65% and 9.17% above the
    oracle on them."""
    rng = np.random.default_rng(seed)
    pts = [sample_box(rng, int(rng.integers(3, 40)), 1.0) for _ in range(40)][k]
    ball = Ball(ORIGIN, 1.01 * float(norm_arr(pts).max()) if enclosing else 1.0)
    assert beta_heis(pts, ball, BUILDER_BUDGET).beta <= 1.05 * beta_heis_oracle(pts, ball, 32).beta


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
    "circle": (103, '0x1.7e6bc33f74935p-4', 'cc8f9a9ee6575755e862b49e8876bd53e0835e93'),
    "sine": (92, '0x1.384329d77ddefp-5', 'e5047fdfadf506f7a0b2d0dd4c13bf4c86e39695'),
    "parabola": (122, '0x1.6cc3c9cf3155dp-6', 'c0965252fd39dbadb2c71edad4361d81a883fa0f'),
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
               'fec3397dc06f2bc75c01d3395678f767d8f0c56c',
               'bf088108a53f24d616a8757f8c67657d2c603487'),
    "sine": ('99e03523d2ecfa63a04eb6795162833baa060287',
             '2356f9b9fbf9a7401e0ec12f073bdb596c1c8f9d',
             '68d86e94c45a0a5b1b781f05f6f759bd9c7f3be9'),
    "parabola": ('3074ddc4e851f5f40725f26a25d91cd0ad9fa2d2',
                 '2c4d5c0a15f39ec32b576e1ae8f75890c88d848c',
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
    call is one chunk and one polish lockstep."""
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
    monkeypatch.setattr(heistsp.beta, "_polish", spy(locksteps, heistsp.beta._polish))
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


def test_polish_merge_stops_most_starts_on_a_lifted_curve(monkeypatch):
    """On lifted_circle(50)'s theorem_a_check at the CLI's level 24 (3
    polish starts of 32 iterations), the starts fall into few basins: at
    most 60% of them stay live after the merge."""
    kept = []
    representatives = heistsp.beta._representatives

    def spy(balls, best, x):
        rep = representatives(balls, best, x)
        kept.append((np.count_nonzero(rep == np.arange(len(rep))), len(rep)))
        return rep

    monkeypatch.setattr(heistsp.beta, "_representatives", spy)
    theorem_a_check(lifted_circle(50), BuilderConfig(beta_budget=_budget_from_level(24)))
    live, total = map(sum, zip(*kept))
    assert total > 0 and live <= 0.6 * total, (live, total)


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
