"""Flatness numbers: minimax fit over horizontal lines, exact planar fit.

beta_heis runs a canonical-frame multistart: the ball is normalized to the
unit ball at the origin (left translation + dilation commute with every
candidate line, so the result is translation/dilation covariant by
construction).  Candidate lines come from the exact planar strip fit,
lines through point pairs, and lines through the ball center; the best
few are polished with Nelder-Mead over (theta, offset, height).  The
returned beta is always the exact sup over members evaluated at the
returned witness line, hence an upper bound on the true infimum.

The engine runs in lockstep, over many balls at once: beta_heis_many takes
(point set, ball) items, and beta_heis is its one-item case.  Every step
evaluates all the lines it needs, for all balls, in one (lines x members)
broadcast (lines.line_dists_many), each line against its own ball's
members.  All candidates are scored in one call; the golden-section height
searches run side by side, first for the strip lines and then for every
refit candidate; and the Nelder-Mead starts of all balls advance together,
each iteration evaluating the four trial points of every start in one call
(a shrink takes a second).  Each search replays its sequential form bit for
bit (golden_min, and scipy 1.17.1's Nelder-Mead), so results equal the
one-line-at-a-time engine's.  The balls' subsamples share one
(balls, members, 3) array, a short one padded by repeating one of its own
members: the engine reads the members only through maxima and minima over
them, which a repeated member leaves unchanged, so padding is exact and a
ball's result does not depend on the batch it runs in.  A batch runs in
chunks under BATCH_PAIRS line-member pairs per broadcast.
beta_heis_oracle keeps scipy.optimize.minimize as an independent reference.

certified_gap is the improvement the polish stage achieved over the best
direct candidate (floored at 1e-9): a self-consistency estimate of the
remaining optimization slack, not a global certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence
import warnings

import numpy as np

from .core import (
    HeisPoint,
    as_array,
    point_of,
    dilate_arr,
    dist_point_arr,
    farthest_point_order,
    group_inv,
    left_translate_arr,
    norm_arr,
    within,
)
from .lines import (
    _INV_GOLDEN,
    HorizontalLine,
    directions,
    horizontal_line,
    line_dists_arr,
    line_dists_many,
    line_through_two,
    quartic_dists,
    transform_line,
)


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first use: only the oracle needs
    scipy, so importing heistsp does not load scipy.optimize."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


class Ball(NamedTuple):
    center: HeisPoint
    radius: float


def ball_diam(b: Ball) -> float:
    return 2.0 * b.radius


def scale_ball(c: float, b: Ball) -> Ball:
    """c*B: same center, c times the radius."""
    return Ball(b.center, c * b.radius)


class ResourceBudgetError(RuntimeError):
    """A beta evaluation exceeded its configured cost guard."""


@dataclass(frozen=True)
class BetaBudget:
    pair_starts: int = 24      # candidate lines through point pairs
    refine_starts: int = 4     # candidates given an exact height refit
    nm_starts: int = 3         # Nelder-Mead polish runs
    nm_iter: int = 120
    max_members: int = 96      # optimization subsample; final eval uses all
    gap_floor: float = 1e-9


#: lighter budget for the inner loops of the curve builder
BUILDER_BUDGET = BetaBudget(pair_starts=10, refine_starts=2, nm_starts=2,
                            nm_iter=60, max_members=48)


@dataclass
class BetaResult:
    beta: float
    line: HorizontalLine
    achieving_point: HeisPoint
    certified_gap: float
    vacuous: bool = False


def members_in_ball(arr: np.ndarray, ball: Ball) -> np.ndarray:
    """Indices of rows inside the closed ball (tolerance 1e-12 * radius)."""
    return np.flatnonzero(within(dist_point_arr(ball.center, arr), ball.radius))


def _best_heights(arr: np.ndarray, thetas, offsets, iters: int = 60) -> list[float]:
    """Minimax-optimal height of each line (thetas[i], offsets[i]) over the
    members arr: one (m, 3) array shared by all lines, or one per line, (L, m, 3).

    max_i d(p_i, L_h) is quasiconvex in h (each d^4 is jointly convex in
    (t, h)), so golden-section over the hull of the per-point zero-mismatch
    heights finds the optimum.  All lines search in lockstep, one broadcast
    per step, with golden_min's update arithmetic row by row; a line whose
    bracket is a single height returns it unsearched.
    """
    cs, sn = directions(thetas)
    off = np.asarray(offsets, dtype=float)[:, None]
    px = cs * arr[..., 0] + sn * arr[..., 1]
    py = -sn * arr[..., 0] + cs * arr[..., 1]
    tz = 2.0 * off * px
    w = arr[..., 2] + 2.0 * px * (off - py)   # z of the co-horizontal foot
    targets = w + tz                          # h with zero mismatch at the foot
    a = targets.min(axis=1)
    b = targets.max(axis=1)
    out = a.copy()
    rows = np.flatnonzero(a != b)
    if rows.size == 0:
        return out.tolist()
    a, b = a[rows], b[rows]
    # line_dists_arr's canonical coordinates, less the height
    xt, yt, z0 = px[rows], (py - off)[rows], (arr[..., 2] + tz)[rows]

    def f(h: np.ndarray) -> np.ndarray:
        return quartic_dists(xt, yt, z0 - h[:, None]).max(axis=1)

    c1 = b - _INV_GOLDEN * (b - a)
    c2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        left = f1 <= f2
        a = np.where(left, a, c1)
        b = np.where(left, c2, b)
        step = _INV_GOLDEN * (b - a)
        t = np.where(left, b - step, a + step)
        ft = f(t)
        c1, f1, c2, f2 = (np.where(left, t, c2), np.where(left, ft, f2),
                          np.where(left, c1, t), np.where(left, f1, ft))
    out[rows] = np.where(f1 <= f2, c1, c2)
    return out.tolist()


def convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in ccw order."""
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


def min_width_strip(pts: np.ndarray) -> tuple[float, float, float]:
    """Minimal-width strip of a planar point set.

    Returns (width, theta, offset): theta the direction of the strip
    midline, offset its signed distance from the origin.  Width is exact
    (the optimal direction is attained on a hull edge).
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 1:
        return 0.0, 0.0, float(pts[0, 1])
    hull = convex_hull_2d(pts)
    if hull.shape[0] <= 2:
        d = hull[-1] - hull[0]
        theta = math.atan2(d[1], d[0]) if np.any(d != 0.0) else 0.0
        s = -math.sin(theta) * pts[:, 0] + math.cos(theta) * pts[:, 1]
        return 0.0, theta, 0.5 * float(s.max() + s.min())
    best = (math.inf, 0.0, 0.0)
    m = hull.shape[0]
    for i in range(m):
        d = hull[(i + 1) % m] - hull[i]
        ln = math.hypot(d[0], d[1])
        if ln == 0.0:
            continue
        theta = math.atan2(d[1], d[0])
        s = (-d[1] * hull[:, 0] + d[0] * hull[:, 1]) / ln
        width = float(s.max() - s.min())
        if width < best[0]:
            best = (width, theta, 0.5 * float(s.max() + s.min()))
    return best


def beta_euclidean_2d(points: Sequence[HeisPoint] | np.ndarray, ball: Ball) -> float:
    """Exact planar Jones beta of the projected members.

    Half the minimal strip width containing pi(E & B), divided by diam(B)
    (the projected diameter is taken equal to the Koranyi diameter by
    convention; the projection is 1-Lipschitz).
    """
    arr = points if isinstance(points, np.ndarray) else as_array(points)
    idx = members_in_ball(arr, ball)
    if idx.size == 0:
        warnings.warn("beta_euclidean_2d: empty intersection, vacuous 0")
        return 0.0
    width, _, _ = min_width_strip(arr[idx][:, :2])
    return 0.5 * width / ball_diam(ball)


def _setup(points: Sequence[HeisPoint] | np.ndarray,
           ball: Ball) -> BetaResult | tuple[np.ndarray, np.ndarray]:
    """Members of E & B and their copy in the canonical frame (unit ball at
    the origin), or the final result when fewer than two points are members."""
    arr = points if isinstance(points, np.ndarray) else as_array(points)
    center_line = transform_line(horizontal_line(0.0, 0.0, 0.0),
                                 g=ball.center, lam=ball.radius)
    idx = members_in_ball(arr, ball)
    if idx.size == 0:
        return BetaResult(0.0, center_line, ball.center, 0.0, vacuous=True)
    members = arr[idx]
    if idx.size == 1:
        p = point_of(members[0])
        ln = line_through_two(p, HeisPoint(p.x + 1.0, p.y, p.z))
        return BetaResult(0.0, ln, p, 0.0)
    canon = dilate_arr(1.0 / ball.radius, left_translate_arr(group_inv(ball.center), members))
    return members, canon


def _witness_result(members: np.ndarray, ball: Ball, params: tuple[float, float, float],
                    gap: float) -> BetaResult:
    """beta at the canonical-frame line params: the exact sup over all members."""
    witness = transform_line(horizontal_line(*params), g=ball.center, lam=ball.radius)
    d_all = line_dists_arr(members, witness)
    k = int(np.argmax(d_all))
    return BetaResult(float(d_all[k]) / ball_diam(ball), witness, point_of(members[k]), gap)


def _pair_candidates(canon: np.ndarray, budget: BetaBudget, seed: int) -> list[tuple[int, int]]:
    n = canon.shape[0]
    if n <= 8:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    ext = {int(np.argmin(canon[:, 0])), int(np.argmax(canon[:, 0])),
           int(np.argmin(canon[:, 1])), int(np.argmax(canon[:, 1])),
           int(np.argmin(canon[:, 2])), int(np.argmax(canon[:, 2])),
           int(np.argmax(norm_arr(canon)))}
    ext = sorted(ext)
    pairs = [(a, b) for k, a in enumerate(ext) for b in ext[k + 1:]]
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 9463])
    while len(pairs) < budget.pair_starts:
        i, j = rng.integers(0, n, 2)
        if i != j:
            pairs.append((min(int(i), int(j)), max(int(i), int(j))))
    return pairs[:budget.pair_starts]


def _line_of(p: HeisPoint, q: HeisPoint) -> tuple[float, float, float]:
    ln = line_through_two(p, q)
    return (ln.theta, ln.offset, ln.height)


def _max_dists(arr: np.ndarray, params) -> np.ndarray:
    """max_i d(p_i, L) for each line (theta, offset, height) of params, over
    members arr shared or per line as in line_dists_many."""
    return line_dists_many(arr, params).max(axis=-1)


#: Nelder-Mead initial simplex: x0 plus these steps along each axis, at
#: canonical-frame scales (scipy's default steps a zero coordinate by
#: 2.5e-4, far too timid for theta/offset)
_NM_STEPS = (0.25, 0.2, 0.3)

#: scipy's Nelder-Mead coefficients: reflection, expansion, contraction, shrink
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
#: trial point k of an iteration is _TRIAL_A[k] * xbar - _TRIAL_B[k] * worst:
#: reflection, expansion, outside and inside contraction.  scipy writes the
#: inside contraction (1 - psi) * xbar + psi * worst, which rounds exactly as
#: subtracting -psi * worst does.
_TRIAL_A = np.array([1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO, 1 - _PSI])[:, None]
_TRIAL_B = np.array([_RHO, _RHO * _CHI, _PSI * _RHO, -_PSI])[:, None]


def _nelder_mead(arr: np.ndarray, x0s, maxiter: int, xatol: float,
                 fatol: float) -> list[tuple[float, tuple[float, float, float]]]:
    """(min, argmin) of the max line distance to the members from each start in x0s.

    arr is one (m, 3) member array shared by all starts, or one per start,
    (starts, m, 3).  A lockstep replay of scipy 1.17.1's _minimize_neldermead
    (default coefficients, maxiter given, no bounds) from the simplex
    x0 + diag(_NM_STEPS).  Every start keeps its own simplex, arithmetic,
    argsort and convergence test; the iteration counter they share starts at
    1 as scipy's does, whatever ball a start belongs to, and a start that
    converges leaves the lockstep.  The four trial points of an iteration
    depend only on xbar and the worst vertex, so one broadcast evaluates them
    for all starts; shrinks take a second one.
    """
    x0 = np.array(x0s, dtype=float).reshape(-1, 3)
    n = x0.shape[1]
    arr = np.broadcast_to(arr, (len(x0),) + arr.shape[-2:])
    sim = np.concatenate([x0[:, None, :], x0[:, None, :] + np.diag(_NM_STEPS)], axis=1)
    fsim = _max_dists(arr[:, None], sim)
    out: list = [None] * len(x0)
    live = np.arange(len(x0))        # the start of each row of sim, fsim and arr

    def sort(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        rows = np.arange(len(fsim))[:, None]
        return sim[rows, ind], fsim[rows, ind]

    sim, fsim = sort(*sort(sim, fsim))   # scipy sorts twice before its first iteration
    iterations = 1
    while live.size:
        if iterations < maxiter:
            done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                    & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        else:
            done = np.ones(live.size, dtype=bool)
        if done.any():
            for r in np.flatnonzero(done).tolist():
                out[live[r]] = (float(np.min(fsim[r])), tuple(sim[r, 0].tolist()))
            keep = ~done
            sim, fsim, arr, live = sim[keep], fsim[keep], arr[keep], live[keep]
            if not live.size:
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = _TRIAL_A * xbar[:, None, :] - _TRIAL_B * sim[:, -1:]
        ftrial = _max_dists(arr[:, None], trial)
        fxr, fxe, fxc, fxcc = ftrial.T
        # scipy's branches: expand or reflect, reflect, contract outside or
        # inside, else shrink (-1)
        pick = np.where(fxr < fsim[:, 0], np.where(fxe < fxr, 1, 0),
                        np.where(fxr < fsim[:, -2], 0,
                                 np.where(fxr < fsim[:, -1], np.where(fxc <= fxr, 2, -1),
                                          np.where(fxcc < fsim[:, -1], 3, -1))))
        moved = np.flatnonzero(pick >= 0)
        if moved.size:
            sim[moved, -1] = trial[moved, pick[moved]]
            fsim[moved, -1] = ftrial[moved, pick[moved]]
        shrink = np.flatnonzero(pick < 0)
        if shrink.size:
            best = sim[shrink, :1]
            sim[shrink, 1:] = best + _SIGMA * (sim[shrink, 1:] - best)
            fsim[shrink, 1:] = _max_dists(arr[shrink, None], sim[shrink, 1:])
        iterations += 1
        sim, fsim = sort(sim, fsim)
    return out


#: the most (line, member) pairs one broadcast of beta_heis_many evaluates:
#: a batch runs in chunks of balls under this bound (a ball that exceeds it
#: alone runs alone).  One scale of a 50-point build at --budget 24 fits.
BATCH_PAIRS = 1 << 17


class _Fit:
    """One ball with two or more members on its way through the engine: its
    members, optimisation subsample, strip fit and pair candidate lines."""

    def __init__(self, members: np.ndarray, canon: np.ndarray, ball: Ball,
                 budget: BetaBudget, seed: int):
        self.members, self.ball = members, ball
        sub = canon
        if canon.shape[0] > budget.max_members:
            # deterministic farthest-point subsample, kept in row order
            sub = canon[sorted(farthest_point_order(canon, budget.max_members)[0])]
        self.sub = sub
        _, self.th_s, self.off_s = min_width_strip(sub[:, :2])
        self.pair_lines = []
        pairs = _pair_candidates(sub, budget, seed)
        if pairs:
            ii, jj = np.array(pairs).T
            same = np.isclose(sub[ii, :2], sub[jj, :2]).all(axis=1)   # np.allclose per pair
            self.pair_lines = [_line_of(HeisPoint(*sub[i]), HeisPoint(*sub[j]))
                               for (i, j), skip in zip(pairs, same.tolist()) if not skip]
        # lines of the largest broadcast: all candidates, or the Nelder-Mead trials
        self.lines = max(3 + len(self.pair_lines), 4 * budget.nm_starts)
        self.result: BetaResult | None = None


def _chunks(fits: list[_Fit]) -> list[list[_Fit]]:
    """Consecutive runs of fits whose broadcasts stay within BATCH_PAIRS."""
    chunks: list[list[_Fit]] = []
    lines = m = 0
    for f in fits:
        if chunks and (lines + f.lines) * max(m, len(f.sub)) <= BATCH_PAIRS:
            chunks[-1].append(f)
            lines, m = lines + f.lines, max(m, len(f.sub))
        else:
            chunks.append([f])
            lines, m = f.lines, len(f.sub)
    return chunks


def _per_line(subs: np.ndarray, groups: list[list]) -> tuple[np.ndarray, list, list[int]]:
    """The lines of every ball as one flat list, each with its ball's member
    array: (member arrays, lines, lines per ball)."""
    counts = [len(g) for g in groups]
    return subs[np.repeat(np.arange(len(groups)), counts)], [x for g in groups for x in g], counts


def _split(values: list, counts: list[int]) -> list[list]:
    """values cut back into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [values[e - c:e] for c, e in zip(counts, ends)]


def _solve(fits: list[_Fit], budget: BetaBudget) -> list[tuple[tuple[float, float, float], float]]:
    """(witness params, certified gap) of every fit, each step one broadcast
    across all balls.

    Each ball's subsample gets its own rows of one (balls, m, 3) array; a
    shorter one is padded by repeating its first member, which leaves every
    max and min over the members, and so every result, unchanged.
    """
    m = max(len(f.sub) for f in fits)
    # each ball's (m, 3) block column-contiguous, as the kernels read columns
    subs = np.empty((len(fits), 3, m)).transpose(0, 2, 1)
    for row, f in zip(subs, fits):
        row[:len(f.sub)] = f.sub
        row[len(f.sub):] = f.sub[0]

    # stage A: direct candidates, scored together; the best few get their height refit
    strip_h = _best_heights(subs, [f.th_s for f in fits], [f.off_s for f in fits])
    cands = [[(0.0, 0.0, 0.0), (0.5 * math.pi, 0.0, 0.0), (f.th_s, f.off_s, h)] + f.pair_lines
             for f, h in zip(fits, strip_h)]
    arr, flat, counts = _per_line(subs, cands)
    scored = [sorted(zip(v, c))     # by value, ties by line
              for v, c in zip(_split(_max_dists(arr, flat).tolist(), counts), cands)]
    arr, top, counts = _per_line(subs, [[c for _, c in s[:budget.refine_starts]] for s in scored])
    heights = _best_heights(arr, [c[0] for c in top], [c[1] for c in top])
    refit = [(th, c_, h2) for (th, c_, _), h2 in zip(top, heights)]
    for s, v, r in zip(scored, _split(_max_dists(arr, refit).tolist(), counts),
                       _split(refit, counts)):
        s += zip(v, r)
        s.sort()

    # stage B: Nelder-Mead polish from the best few
    arr, starts, counts = _per_line(subs, [[p for _, p in s[:budget.nm_starts]] for s in scored])
    polished = _split(_nelder_mead(arr, starts, budget.nm_iter, 1e-10, 1e-13), counts)
    out = []
    for s, polished_b in zip(scored, polished):
        best = s[0]
        for cand in polished_b:
            if cand < best:
                best = cand
        out.append((best[1], max(budget.gap_floor, s[0][0] / 2.0 - best[0] / 2.0)))
    return out


def beta_heis_many(items: Sequence[tuple[Sequence[HeisPoint] | np.ndarray, Ball]],
                   budget: BetaBudget | None = None,
                   seeds: Sequence[int] | None = None) -> list[BetaResult]:
    """beta_heis of every (points, ball) item, item i with seed seeds[i] (all
    0 when seeds is None), with all balls in lockstep: each step of the engine
    is one broadcast over the balls of a chunk (see BATCH_PAIRS).  Each result
    equals the one beta_heis gives for its item alone.
    """
    if budget is None:
        budget = BetaBudget()
    seeds = [0] * len(items) if seeds is None else list(seeds)
    if len(seeds) != len(items):
        raise ValueError("got %d seeds for %d items" % (len(seeds), len(items)))
    out: list[BetaResult | _Fit] = []
    for (points, ball), seed in zip(items, seeds):
        setup = _setup(points, ball)
        out.append(setup if isinstance(setup, BetaResult) else _Fit(*setup, ball, budget, seed))
    for chunk in _chunks([f for f in out if isinstance(f, _Fit)]):
        for f, (params, gap) in zip(chunk, _solve(chunk, budget)):
            f.result = _witness_result(f.members, f.ball, params, gap)
    return [f.result if isinstance(f, _Fit) else f for f in out]


def beta_heis(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
              budget: BetaBudget | None = None, seed: int = 0) -> BetaResult:
    """Minimax horizontal-line fit of E & B, normalized by diam(B).

    The returned value is the exact sup over members at the witness line
    (an upper bound on the true infimum); certified_gap estimates the
    optimization slack.  Empty intersections give beta 0 flagged vacuous.
    """
    return beta_heis_many([(points, ball)], budget, [seed])[0]


def beta_heis_oracle(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
                     resolution: int = 60, max_cells: float = 2e8) -> BetaResult:
    """Brute-force grid reference for beta_heis.

    Exhaustive canonical-frame grid over (theta, offset, height) with
    bounds derived from the ball, followed by one local refinement (exact
    height refit plus a Nelder-Mead polish from the best cell).  The
    result is an upper bound on the true infimum, decreasing as the grid
    refines.
    """
    if resolution > 400:
        raise ResourceBudgetError("oracle resolution capped at 400 per axis")
    setup = _setup(points, ball)
    if isinstance(setup, BetaResult):
        return setup
    members, canon = setup
    n = canon.shape[0]
    if n > 10_000:
        raise ResourceBudgetError("oracle limited to 1e4 members, got %d" % n)
    if resolution ** 3 * n > max_cells:
        raise ResourceBudgetError("oracle grid of %d cells over %d members exceeds "
                                  "the cost guard" % (resolution ** 3, n))

    # incumbent from the two center lines fixes the search box
    h0, h1 = _best_heights(canon, [0.0, 0.5 * math.pi], [0.0, 0.0])
    d0 = min(_max_dists(canon, [(0.0, 0.0, h0), (0.5 * math.pi, 0.0, h1),
                                (0.0, 0.0, 0.0)]).tolist())
    rmax = float(norm_arr(canon).max())
    c_max = rmax + d0 + 1e-9
    # any line beating the incumbent has a foot point within 4*d0 of some
    # member, which caps |height| by the bound below
    h_max = (rmax + 4.0 * d0) ** 2 + 2.0 * c_max * rmax + 1e-9

    thetas = np.linspace(0.0, math.pi, resolution, endpoint=False)
    offsets = np.linspace(-c_max, c_max, resolution)
    heights = np.linspace(-h_max, h_max, resolution)

    best = (d0, (0.0, 0.0, h0))
    for th in thetas:
        cs, sn = math.cos(th), math.sin(th)
        px = cs * canon[:, 0] + sn * canon[:, 1]
        py = -sn * canon[:, 0] + cs * canon[:, 1]
        for c_ in offsets:
            zt0 = canon[:, 2] + 2.0 * c_ * px
            zt = zt0[None, :] - heights[:, None]          # (res_h, n)
            xt = np.broadcast_to(px, zt.shape)
            yt = np.broadcast_to(py - c_, zt.shape)
            dmax = quartic_dists(xt, yt, zt).max(axis=1)  # (res_h,)
            j = int(np.argmin(dmax))
            if dmax[j] < best[0]:
                best = (float(dmax[j]), (float(th), float(c_), float(heights[j])))

    grid_val = best[0] / 2.0
    th, c_, h = best[1]
    h = _best_heights(canon, [th], [c_])[0]
    refined = [(th, c_, h)]

    def objective(x: np.ndarray) -> float:
        return float(line_dists_arr(canon, HorizontalLine(x[0], x[1], x[2])).max())

    x0 = np.array(refined[0])
    spacing = max(math.pi / resolution, 2.0 * c_max / resolution)
    simplex = np.vstack([x0, x0 + np.diag([spacing, spacing, 2.0 * h_max / resolution])])
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": 400, "xatol": 1e-11, "fatol": 1e-14, "disp": False,
                            "initial_simplex": simplex})
    cand = [(objective(np.array(refined[0])), refined[0]),
            (float(res.fun), tuple(float(v) for v in res.x))]
    cand.sort(key=lambda t: (t[0], t[1]))
    return _witness_result(members, ball, cand[0][1], max(1e-9, grid_val - cand[0][0] / 2.0))
