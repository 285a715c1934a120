"""Flatness numbers: minimax fit over horizontal lines, exact planar fit.

beta_heis runs a canonical-frame multistart: the ball is normalized to the
unit ball at the origin (left translation + dilation commute with every
candidate line, so the result is translation/dilation covariant by
construction).  Candidate lines come from the exact planar strip fit,
lines through point pairs, and lines through the ball center; the best
few are polished with Nelder-Mead over (theta, offset, height).  The
returned beta is always the exact sup over members evaluated at the
returned witness line, hence an upper bound on the true infimum.

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
from scipy.optimize import minimize

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
    HorizontalLine,
    golden_min,
    horizontal_line,
    line_dists_arr,
    line_through_two,
    quartic_dists,
    transform_line,
)


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


def _maxdist(arr: np.ndarray, theta: float, c: float, h: float) -> tuple[float, int]:
    d = line_dists_arr(arr, HorizontalLine(theta, c, h))
    i = int(np.argmax(d))
    return float(d[i]), i


def _best_height(arr: np.ndarray, theta: float, c: float, iters: int = 60) -> float:
    """Minimax-optimal height for fixed (theta, offset).

    max_i d(p_i, L_h) is quasiconvex in h (each d^4 is jointly convex in
    (t, h)), so golden-section over the hull of the per-point zero-mismatch
    heights finds the optimum.
    """
    cs, sn = math.cos(theta), math.sin(theta)
    px = cs * arr[:, 0] + sn * arr[:, 1]
    py = -sn * arr[:, 0] + cs * arr[:, 1]
    w = arr[:, 2] + 2.0 * px * (c - py)       # z of the co-horizontal foot
    targets = w + 2.0 * c * px                # h with zero mismatch at the foot
    a = float(targets.min())
    b = float(targets.max())
    if a == b:
        return a

    def f(h: float) -> float:
        return float(line_dists_arr(arr, HorizontalLine(theta, c, h)).max())

    return golden_min(f, a, b, iters)[0]


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


def beta_heis(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
              budget: BetaBudget | None = None, seed: int = 0) -> BetaResult:
    """Minimax horizontal-line fit of E & B, normalized by diam(B).

    The returned value is the exact sup over members at the witness line
    (an upper bound on the true infimum); certified_gap estimates the
    optimization slack.  Empty intersections give beta 0 flagged vacuous.
    """
    if budget is None:
        budget = BetaBudget()
    setup = _setup(points, ball)
    if isinstance(setup, BetaResult):
        return setup
    members, canon = setup
    sub = canon
    if canon.shape[0] > budget.max_members:
        # deterministic farthest-point subsample, kept in row order
        sub = canon[sorted(farthest_point_order(canon, budget.max_members)[0])]

    cands: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0), (0.5 * math.pi, 0.0, 0.0)]
    _, th_s, off_s = min_width_strip(sub[:, :2])
    cands.append((th_s, off_s, _best_height(sub, th_s, off_s)))
    for i, j in _pair_candidates(sub, budget, seed):
        if not np.allclose(sub[i, :2], sub[j, :2]):
            cands.append(_line_of(HeisPoint(*sub[i]), HeisPoint(*sub[j])))

    scored = sorted(((_maxdist(sub, *c)[0], c) for c in cands), key=lambda t: (t[0], t[1]))
    for _, (th, c_, _h) in scored[:budget.refine_starts]:
        h2 = _best_height(sub, th, c_)
        scored.append((_maxdist(sub, th, c_, h2)[0], (th, c_, h2)))
    scored.sort(key=lambda t: (t[0], t[1]))
    stage_a = scored[0][0] / 2.0

    def objective(x: np.ndarray) -> float:
        return float(line_dists_arr(sub, HorizontalLine(x[0], x[1], x[2])).max())

    best_val, best_params = scored[0]
    for _, params in scored[:budget.nm_starts]:
        x0 = np.array(params)
        # explicit simplex at canonical-frame scales; the scipy default
        # steps a zero coordinate by 2.5e-4, far too timid for theta/offset
        simplex = np.vstack([x0, x0 + np.diag([0.25, 0.2, 0.3])])
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": budget.nm_iter, "xatol": 1e-10,
                                "fatol": 1e-13, "disp": False,
                                "initial_simplex": simplex})
        cand = (float(res.fun), tuple(float(v) for v in res.x))
        if (cand[0], cand[1]) < (best_val, best_params):
            best_val, best_params = cand
    stage_b = best_val / 2.0
    return _witness_result(members, ball, best_params, max(budget.gap_floor, stage_a - stage_b))


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
    d0 = min(_maxdist(canon, 0.0, 0.0, _best_height(canon, 0.0, 0.0))[0],
             _maxdist(canon, 0.5 * math.pi, 0.0, _best_height(canon, 0.5 * math.pi, 0.0))[0],
             _maxdist(canon, 0.0, 0.0, 0.0)[0])
    rmax = float(norm_arr(canon).max())
    c_max = rmax + d0 + 1e-9
    # any line beating the incumbent has a foot point within 4*d0 of some
    # member, which caps |height| by the bound below
    h_max = (rmax + 4.0 * d0) ** 2 + 2.0 * c_max * rmax + 1e-9

    thetas = np.linspace(0.0, math.pi, resolution, endpoint=False)
    offsets = np.linspace(-c_max, c_max, resolution)
    heights = np.linspace(-h_max, h_max, resolution)

    best = (d0, (0.0, 0.0, _best_height(canon, 0.0, 0.0)))
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
    h = _best_height(canon, th, c_)
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
