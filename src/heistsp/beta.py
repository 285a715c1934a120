"""Flatness numbers: minimax fit over horizontal lines, exact planar fit.

beta_heis runs a canonical-frame multistart: the members of the ball are
moved to the unit ball at the origin of their own frame, whose origin is
the members' coordinate mean and whose unit is their largest gauge distance
from it.  Left translation, dilation and rotation about the z axis are
affine in coordinates, so the frame moves with the set, and every
candidate line is found in it.  Candidate lines come from the exact planar
strip fit, lines through point pairs, and lines through the frame's
origin; the best few are polished with Nelder-Mead over (theta, offset,
height).  The returned beta is always the exact sup over members evaluated
at the returned witness line, divided by diam(B), hence an upper bound on
the true infimum.  No step draws from a caller's seed: the fit is a
function of the point array and the member set alone.

The engine runs in lockstep, over many balls at once: beta_heis_many takes
(point set, ball) items, and beta_heis is its one-item case.  Items with
the same point array and the same members share one fit, since they differ
only in the radius that divides the sup.  The member sets' optimisation
subsamples are ragged member rows, one flat (R, 3) array with each set's
rows consecutive (_Rows), and each step evaluates all the lines it needs,
for all sets, in one kernel call: every line is paired with its own set's
rows only, the distances of all pairs come from one lines.quartic_dists
call, and each line's max (or min) is one np.maximum.reduceat over the
line starts.  All candidates are scored together; the golden-section
height searches run side by side, first for the strip lines and then for
every refit candidate; and the Nelder-Mead starts of all sets advance
together, each iteration evaluating the reflections of every start in one
call and then only the one further trial point each start's branch reads
(a shrink takes one more call).  Each search replays its sequential form
bit for bit (the scalar golden-section search, through
lines.golden_min_many, and scipy 1.17.1's Nelder-Mead), and a line reads no
row but its set's, so a result does not depend on the batch it runs in.  A
batch runs in chunks whose iterative steps (height searches, reflections
and the trial points after them) stay under BATCH_PAIRS line-member pairs
per kernel call; the one-shot calls (candidate scores, initial simplices)
and the shrinks run in blocks of whole lines, a start's simplex kept whole,
under the same bound.  A Nelder-Mead start repeated in its set is polished
once.  One pass over the items sets up each distinct member set at its
first item and adds it to the open chunk, which is solved when the next set
would take it past the bound, and at the end.  A set keeps only its member
indices, gathered for its witness, until its chunk is solved, and then only
its witness, so memory follows the chunk.  beta_heis_oracle runs on the
same kernels over one set's rows: its grid one theta at a time through
_max_dists_blocked, its height refit through _best_heights, and its polish
as one _nelder_mead start, so the package needs no scipy.

certified_gap is the improvement the polish stage achieved over the best
direct candidate, in units of beta (floored at GAP_FLOOR in the members'
frame, then scaled by the frame's unit over the ball's radius): a
self-consistency estimate of the remaining optimization slack, not a
global certificate.
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
    frame,
    group_inv,
    left_translate_arr,
    norm_arr,
    within,
)
from .lines import (
    HorizontalLine,
    canon_coords,
    golden_min_many,
    horizontal_line,
    line_dists_arr,
    line_through_two,
    quartic_dists,
    transform_line,
)


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first use.  Nothing in heistsp
    calls it (the polishes run _nelder_mead); kept importable because the
    benchmark's tracer wraps it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


class Ball(NamedTuple):
    center: HeisPoint
    radius: float


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


#: the least certified gap of a fit in its members' frame, where the
#: members' largest distance from the origin is 1
GAP_FLOOR = 1e-9

#: the most (grid cell, member) pairs beta_heis_oracle scans
ORACLE_MAX_CELLS = 2e8

#: lighter budget for the inner loops of the curve builder
BUILDER_BUDGET = BetaBudget(pair_starts=10, refine_starts=2, nm_starts=2,
                            nm_iter=60, max_members=48)

#: the most (line, member) pairs one kernel call of beta_heis_many evaluates,
#: each line counted against its own ball's subsample: a batch runs in
#: chunks of balls whose height searches and reflections stay under this
#: bound, and its one-shot calls and shrinks in blocks under it (a ball, a
#: line or a shrinking simplex that exceeds it alone runs alone)
BATCH_PAIRS = 1 << 14


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


def _ball_members(points: Sequence[HeisPoint] | np.ndarray,
                  ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    """The point array and the indices of its members of the ball, whose
    radius must be finite and positive."""
    if not 0.0 < ball.radius < math.inf:
        raise ValueError("ball radius must be finite and positive, got %r" % (ball.radius,))
    arr = points if isinstance(points, np.ndarray) else as_array(points)
    return arr, members_in_ball(arr, ball)


class _Lines(NamedTuple):
    """Lines in ragged member rows: row j holds a member of line line[j]'s
    ball, each line's rows run consecutively from first[line]."""
    members: np.ndarray     # (P, 3), column-contiguous, as the kernels read columns
    line: np.ndarray        # (P,) the line of each row
    first: np.ndarray       # (L,) the first row of each line


class _Rows:
    """The optimisation subsamples of many balls as one (R, 3) array of
    member rows, ball b's rows at start[b]:start[b] + count[b]."""

    def __init__(self, subs: Sequence[np.ndarray]):
        self.count = np.array([len(s) for s in subs], dtype=np.intp)
        self.start = np.cumsum(self.count) - self.count
        self.cols = np.concatenate(subs).T.copy()

    def lines(self, balls) -> _Lines:
        """The lines of the given balls, one per entry: each line's rows are
        its ball's member rows."""
        balls = np.asarray(balls, dtype=np.intp)
        count = self.count[balls]
        first = np.cumsum(count) - count
        idx = np.arange(count.sum()) + np.repeat(self.start[balls] - first, count)
        return _Lines(self.cols.take(idx, axis=1).T, np.repeat(np.arange(len(balls)), count),
                      first)


def _max_dists(lines: _Lines, params) -> np.ndarray:
    """max_i d(p_i, L) over each line's members, for the line (theta,
    offset, height) of each row of params, shaped (L, 3)."""
    params = np.asarray(params, dtype=float).reshape(-1, 3)
    c, s = np.cos(params[:, 0]), np.sin(params[:, 0])
    j = lines.line
    # a column gathers faster than params[j, 1]; the gathers are freed
    # before the kernel runs
    d = quartic_dists(*canon_coords(lines.members, c[j], s[j],
                                    params[:, 1][j], params[:, 2][j]))
    return np.maximum.reduceat(d, lines.first)


def _max_dists_blocked(rows: _Rows, balls, params) -> np.ndarray:
    """_max_dists of the lines params[i] over ball balls[i]'s rows, for every
    i, in calls under BATCH_PAIRS rows (a longer entry alone).  params[i] is
    one line (theta, offset, height) or an (m, 3) array of m lines, which
    stay in one call."""
    params = np.asarray(params, dtype=float)
    balls = np.asarray(balls, dtype=np.intp)
    per = params[0].size // 3 if len(params) else 1     # lines per entry
    ends = np.cumsum(rows.count[balls] * per)
    out = [np.empty(0)]
    i = 0
    while i < len(balls):
        j = int(np.searchsorted(ends, (ends[i - 1] if i else 0) + BATCH_PAIRS, side="right"))
        j = max(i + 1, j)
        out.append(_max_dists(rows.lines(np.repeat(balls[i:j], per)), params[i:j]))
        i = j
    return np.concatenate(out)


#: golden-section steps of each height search
HEIGHT_ITERS = 60


def _best_heights(lines: _Lines, thetas, offsets) -> list[float]:
    """Minimax-optimal height of each line (thetas[i], offsets[i]) over its
    members.

    max_i d(p_i, L_h) is quasiconvex in h (each d^4 is jointly convex in
    (t, h)), so golden-section over the hull of the per-point zero-mismatch
    heights finds the optimum.  All lines search in lockstep
    (golden_min_many), one kernel call per step.
    """
    th = np.asarray(thetas, dtype=float)
    off = np.asarray(offsets, dtype=float)
    j = lines.line
    off_j = off[j]
    # the canonical coordinates at height 0
    xt, yt, z0 = canon_coords(lines.members, np.cos(th)[j], np.sin(th)[j], off_j, 0.0)
    # h with zero mismatch at the co-horizontal foot
    targets = lines.members[:, 2] - 2.0 * xt * yt + 2.0 * off_j * xt
    a = np.minimum.reduceat(targets, lines.first)
    b = np.maximum.reduceat(targets, lines.first)
    return golden_min_many(
        lambda h: np.maximum.reduceat(quartic_dists(xt, yt, z0 - h[j]), lines.first),
        a, b, HEIGHT_ITERS)[0].tolist()


def convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in ccw order.

    The points, rounded to 15 decimals, are sorted by x then y and each one
    equal to the one before it is dropped: the sorted distinct points of
    np.unique(axis=0), without its structured-row sort.
    """
    pts = pts.round(decimals=15)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    p = pts[keep]
    if p.shape[0] <= 2:
        return p

    def half(seq):
        # on Python floats: the same IEEE operations as on numpy rows, without
        # a numpy call per step
        out = []
        for qx, qy in seq:
            while len(out) > 1:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) > 0:
                    break
                out.pop()
            out.append((qx, qy))
        return out

    seq = p.tolist()
    lower = half(seq)
    upper = half(seq[::-1])
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
        s = frame(math.cos(theta), math.sin(theta), pts[:, 0], pts[:, 1])[1]
        return 0.0, theta, 0.5 * float(s.max() + s.min())
    # edge i runs from hull[i] to hull[i + 1]; its strip's signed offsets s
    # of all hull vertices form row i, in blocks of edges under BATCH_PAIRS
    # entries, since the hull can hold every point
    m = hull.shape[0]
    d = np.roll(hull, -1, axis=0) - hull
    lns = np.array([math.hypot(dx, dy) for dx, dy in d.tolist()])
    width, edge, offset = math.inf, -1, 0.0
    step = max(1, BATCH_PAIRS // m)
    for start in range(0, m, step):
        dd, ln = d[start:start + step], lns[start:start + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (-dd[:, 1:] * hull[:, 0] + dd[:, :1] * hull[:, 1]) / ln[:, None]
        s_max, s_min = s.max(axis=1), s.min(axis=1)
        widths = s_max - s_min
        widths[(ln == 0.0) | np.isnan(widths)] = math.inf   # never taken
        k = int(np.argmin(widths))
        if widths[k] < width:
            width, edge, offset = float(widths[k]), start + k, 0.5 * float(s_max[k] + s_min[k])
    if edge < 0:
        return math.inf, 0.0, 0.0
    return width, math.atan2(d[edge, 1], d[edge, 0]), offset


def beta_euclidean_2d(points: Sequence[HeisPoint] | np.ndarray, ball: Ball) -> float:
    """Exact planar Jones beta of the projected members.

    Half the minimal strip width containing pi(E & B), divided by diam(B)
    (the projected diameter is taken equal to the Koranyi diameter by
    convention; the projection is 1-Lipschitz).  The strip is fitted in the
    ball's canonical frame, pi(E & B) moved to the unit disc at the origin,
    so the value is covariant under left translation and dilation.
    """
    arr, idx = _ball_members(points, ball)
    if idx.size == 0:
        warnings.warn("beta_euclidean_2d: empty intersection, vacuous 0")
        return 0.0
    c = ball.center
    width, _, _ = min_width_strip((arr[idx][:, :2] - (c.x, c.y)) / ball.radius)
    return width / 4.0


class _Witness(NamedTuple):
    """A solved member set, in the input's coordinates: the witness line, the
    members' largest distance to it and a member at that distance, and the
    certified gap of the fit times its frame's unit.  beta of any ball with
    these members is sup / diam(B)."""
    sup: float
    line: HorizontalLine
    point: HeisPoint
    gap: float

    def result(self, ball: Ball) -> BetaResult:
        return BetaResult(self.sup / (2.0 * ball.radius), self.line, self.point,
                          self.gap / ball.radius)


def _point_witness(p: HeisPoint) -> _Witness:
    """The witness of a member set at one point: the horizontal line through
    it along the x axis, at distance 0."""
    return _Witness(0.0, line_through_two(p, HeisPoint(p.x + 1.0, p.y, p.z)), p, 0.0)


def _setup(points: Sequence[HeisPoint] | np.ndarray,
           ball: Ball) -> BetaResult | tuple[np.ndarray, np.ndarray]:
    """The point array and the indices of the members of E & B, or the final
    result when fewer than two points are members."""
    arr, idx = _ball_members(points, ball)
    if idx.size == 0:
        center_line = transform_line(horizontal_line(0.0, 0.0, 0.0),
                                     g=ball.center, lam=ball.radius)
        return BetaResult(0.0, center_line, ball.center, 0.0, vacuous=True)
    if idx.size == 1:
        return _point_witness(point_of(arr[idx[0]])).result(ball)
    return arr, idx


def _member_frame(members: np.ndarray) -> tuple[HeisPoint, float, np.ndarray]:
    """The members' frame and the members in it: the origin is their
    coordinate mean, the unit their largest gauge distance from it, so the
    members lie in the closed unit ball at the origin.  The mean is taken
    about the first member, so coincident members have their point as the
    origin exactly.  The unit is 0 when the members coincide to double
    precision; they are then returned unscaled."""
    origin = point_of(members[0] + (members - members[0]).mean(axis=0))
    rel = left_translate_arr(group_inv(origin), members)
    unit = float(norm_arr(rel).max())
    return origin, unit, dilate_arr(1.0 / unit, rel) if unit > 0.0 else rel


def _witness(members: np.ndarray, origin: HeisPoint, unit: float,
             params: tuple[float, float, float], gap: float) -> _Witness:
    """The witness of the line params of the members' frame: the exact sup
    over the members."""
    witness = transform_line(horizontal_line(*params), g=origin, lam=unit)
    d_all = line_dists_arr(members, witness)
    k = int(np.argmax(d_all))
    return _Witness(float(d_all[k]), witness, point_of(members[k]), gap * unit)


#: the generator of _pair_candidates' fill pairs, the same for every set
PAIR_SEED = (0, 9463)


def _pair_candidates(canon: np.ndarray, budget: BetaBudget) -> list[tuple[int, int]]:
    n = canon.shape[0]
    if n <= 8:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    ext = sorted({*canon.argmin(axis=0).tolist(), *canon.argmax(axis=0).tolist(),
                  int(np.argmax(norm_arr(canon)))})
    pairs = [(a, b) for k, a in enumerate(ext) for b in ext[k + 1:]]
    if len(pairs) < budget.pair_starts:
        rng = np.random.default_rng(PAIR_SEED)
        while len(pairs) < budget.pair_starts:
            # the missing pairs in one draw: the generator's stream is the
            # same as one two-value draw per pair
            ij = rng.integers(0, n, (budget.pair_starts - len(pairs), 2)).tolist()
            pairs += [(min(i, j), max(i, j)) for i, j in ij if i != j]
    return pairs[:budget.pair_starts]


def _pair_lines(sub: np.ndarray, pairs: list[tuple[int, int]]) -> list[HorizontalLine]:
    """line_through_two(sub[i], sub[j]) for each pair, on Python floats."""
    pts = sub.tolist()
    return [line_through_two(HeisPoint(*pts[i]), HeisPoint(*pts[j])) for i, j in pairs]


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


def _nelder_mead(rows: _Rows, balls, x0s, steps: tuple[float, float, float], maxiter: int,
                 xatol: float, fatol: float) -> list[tuple[float, tuple[float, float, float]]]:
    """(min, argmin) of the max line distance to its ball's members from each
    start in x0s, start i in ball balls[i] of rows.

    A lockstep replay of scipy 1.17.1's _minimize_neldermead (default
    coefficients, maxiter given, no bounds) from the initial simplex
    x0 + diag(steps).  Every start keeps its own simplex, arithmetic,
    argsort and convergence test; the iteration counter they share starts at
    1 as scipy's does, whatever ball a start belongs to, and a start that
    converges leaves the lockstep.  An iteration evaluates the reflections of
    all live starts in one kernel call and then, in a second, the one further
    trial point that each start's branch reads (expansion, outside or inside
    contraction, or none), so every start evaluates the points scipy does.
    Shrinks take one more call, in blocks under BATCH_PAIRS rows.  A start
    repeated in the same ball, bit for bit, is polished once and its copies
    share the result.
    """
    x0 = np.array(x0s, dtype=float).reshape(-1, 3)
    balls = np.asarray(balls, dtype=np.intp)
    # each distinct (ball, start) once: start i of x0s is distinct start
    # copy[i], and distinct start j is the start first[j] of x0s
    distinct: dict[tuple[int, bytes], int] = {}
    copy = [distinct.setdefault((b, x.tobytes()), len(distinct))
            for b, x in zip(balls.tolist(), x0)]
    first = np.unique(copy, return_index=True)[1]
    x0, balls = x0[first], balls[first]     # the ball of each row of sim and fsim
    n = x0.shape[1]
    live = np.arange(len(x0))                   # the start of each row of sim and fsim
    sim = np.concatenate([x0[:, None, :], x0[:, None, :] + np.diag(steps)], axis=1)
    fsim = _max_dists_blocked(rows, balls, sim).reshape(-1, n + 1)
    out: list = [None] * len(x0)

    def sort(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        rows = np.arange(len(fsim))[:, None]
        return sim[rows, ind], fsim[rows, ind]

    sim, fsim = sort(*sort(sim, fsim))   # scipy sorts twice before its first iteration
    iterations = 1
    lines = rows.lines(balls)       # one line per live start, for its trial points
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
            sim, fsim, balls, live = sim[keep], fsim[keep], balls[keep], live[keep]
            if not live.size:
                break
            lines = rows.lines(balls)
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = _TRIAL_A * xbar[:, None, :] - _TRIAL_B * sim[:, -1:]
        fxr = _max_dists(lines, trial[:, 0])
        # the trial point read after the reflection: expansion (1),
        # outside (2) or inside (3) contraction, or none (0)
        second = np.where(fxr < fsim[:, 0], 1,
                          np.where(fxr < fsim[:, -2], 0, np.where(fxr < fsim[:, -1], 2, 3)))
        f2 = np.full(live.size, np.inf)     # the second trial's value, where evaluated
        more = np.flatnonzero(second)
        if more.size:
            f2[more] = _max_dists(rows.lines(balls[more]), trial[more, second[more]])
        # scipy's branches: a start takes its second trial point when that
        # passes its branch's test; a failed expansion falls back to the
        # reflection (0), a failed contraction to a shrink (-1)
        keep = np.choose(second, [True, f2 < fxr, f2 <= fxr, f2 < fsim[:, -1]])
        pick = np.where(keep, second, np.where(second == 1, 0, -1))
        moved = np.flatnonzero(pick >= 0)
        if moved.size:
            sim[moved, -1] = trial[moved, pick[moved]]
            fsim[moved, -1] = np.where(pick == 0, fxr, f2)[moved]
        shrink = np.flatnonzero(pick < 0)
        if shrink.size:
            best = sim[shrink, :1]
            sim[shrink, 1:] = best + _SIGMA * (sim[shrink, 1:] - best)
            fsim[shrink, 1:] = _max_dists_blocked(rows, balls[shrink],
                                                  sim[shrink, 1:]).reshape(-1, n)
        iterations += 1
        sim, fsim = sort(sim, fsim)
    return [out[j] for j in copy]


class _Fit:
    """One member set of two or more points on its way through the engine:
    its witness slot in beta_heis_many, point array and member indices, its
    frame, optimisation subsample, strip fit and pair candidate lines."""

    def __init__(self, key: int, points: np.ndarray, idx: np.ndarray,
                 origin: HeisPoint, unit: float, canon: np.ndarray, budget: BetaBudget):
        # the members are the rows idx of points, gathered only for the witness
        self.key, self.points, self.idx, self.origin, self.unit = key, points, idx, origin, unit
        sub = canon
        if canon.shape[0] > budget.max_members:
            # deterministic farthest-point subsample, kept in row order
            sub = canon[sorted(farthest_point_order(canon, budget.max_members)[0])]
        self.sub = sub
        _, self.th_s, self.off_s = min_width_strip(sub[:, :2])
        pairs = _pair_candidates(sub, budget)
        if pairs:
            ii, jj = np.array(pairs).T
            same = np.isclose(sub[ii, :2], sub[jj, :2]).all(axis=1)   # np.allclose per pair
            pairs = [p for p, skip in zip(pairs, same.tolist()) if not skip]
        self.pair_lines = _pair_lines(sub, pairs)
        # (line, member) pairs of its widest iterative call: a height search
        # step of the strip line or the refits, or the Nelder-Mead
        # reflections (the trial points after them are fewer lines, and the
        # one-shot calls and the shrinks run in blocks under BATCH_PAIRS)
        self.pairs = max(1, budget.refine_starts, budget.nm_starts) * len(sub)


def _split(values: list, counts: list[int]) -> list[list]:
    """values cut back into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [values[e - c:e] for c, e in zip(counts, ends)]


def _solve(fits: list[_Fit], budget: BetaBudget) -> list[tuple[tuple[float, float, float], float]]:
    """(witness params, certified gap) of every fit in its members' frame,
    each step one kernel call across all sets, each line over its own set's
    member rows."""
    rows = _Rows([f.sub for f in fits])
    balls = np.arange(len(fits))

    def flatten(groups: list[list]) -> tuple[list, list[int], np.ndarray]:
        """The groups' items as one list, the count per group and the ball of each item."""
        counts = [len(g) for g in groups]
        return [x for g in groups for x in g], counts, np.repeat(balls, counts)

    # stage A: direct candidates, scored together; the best few get their height refit
    strip_h = _best_heights(rows.lines(balls), [f.th_s for f in fits], [f.off_s for f in fits])
    cands = [[(0.0, 0.0, 0.0), (0.5 * math.pi, 0.0, 0.0), (f.th_s, f.off_s, h)] + f.pair_lines
             for f, h in zip(fits, strip_h)]
    flat, counts, owner = flatten(cands)
    scored = [sorted(zip(v, c))     # by value, ties by line
              for v, c in zip(_split(_max_dists_blocked(rows, owner, flat).tolist(), counts),
                              cands)]
    top, counts, owner = flatten([[c for _, c in s[:budget.refine_starts]] for s in scored])
    lines = rows.lines(owner)
    heights = _best_heights(lines, [c[0] for c in top], [c[1] for c in top])
    refit = [(th, c_, h2) for (th, c_, _), h2 in zip(top, heights)]
    for s, v, r in zip(scored, _split(_max_dists(lines, refit).tolist(), counts),
                       _split(refit, counts)):
        s += zip(v, r)
        s.sort()

    # stage B: Nelder-Mead polish from the best few
    starts, counts, owner = flatten([[p for _, p in s[:budget.nm_starts]] for s in scored])
    polished = _split(_nelder_mead(rows, owner, starts, _NM_STEPS, budget.nm_iter, 1e-10, 1e-13),
                      counts)
    out = []
    for s, polished_b in zip(scored, polished):
        best = s[0]
        for cand in polished_b:
            if cand < best:
                best = cand
        out.append((best[1], max(GAP_FLOOR, s[0][0] / 2.0 - best[0] / 2.0)))
    return out


def beta_heis_many(items: Sequence[tuple[Sequence[HeisPoint] | np.ndarray, Ball]],
                   budget: BetaBudget | None = None) -> list[BetaResult]:
    """beta_heis of every (points, ball) item, with all member sets in
    lockstep: each step of the engine is one broadcast over the sets of a
    chunk (see BATCH_PAIRS).  Each distinct (points object, member set) is
    fitted once, into its witness slot, and every item with those members
    divides the slot's sup by its own diameter.  Each result equals the one
    beta_heis gives for its item alone.
    """
    if budget is None:
        budget = BetaBudget()
    slots: dict[tuple[int, bytes], int] = {}
    witnesses: list[_Witness | None] = []
    chunk: list[_Fit] = []
    pairs = 0

    def flush() -> None:
        for f, (params, gap) in zip(chunk, _solve(chunk, budget)):
            witnesses[f.key] = _witness(f.points[f.idx], f.origin, f.unit, params, gap)
        chunk.clear()

    def set_up(points, ball: Ball) -> BetaResult | int:
        """The item's result, or the slot of its member set, which is framed
        and joins the open chunk when new.  Its arrays die with the call."""
        nonlocal pairs
        setup = _setup(points, ball)
        if isinstance(setup, BetaResult):
            return setup
        arr, idx = setup
        slot = slots.setdefault((id(points), idx.tobytes()), len(witnesses))
        if slot < len(witnesses):
            return slot
        origin, unit, canon = _member_frame(arr[idx])
        if unit == 0.0:
            witnesses.append(_point_witness(point_of(arr[idx[0]])))
            return slot
        witnesses.append(None)
        f = _Fit(slot, arr, idx, origin, unit, canon, budget)
        if chunk and pairs + f.pairs > BATCH_PAIRS:
            flush()
            pairs = 0
        chunk.append(f)
        pairs += f.pairs
        return slot

    setups = [set_up(points, ball) for points, ball in items]
    if chunk:
        flush()
    return [s if isinstance(s, BetaResult) else witnesses[s].result(ball)
            for s, (_, ball) in zip(setups, items)]


def beta_heis(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
              budget: BetaBudget | None = None) -> BetaResult:
    """Minimax horizontal-line fit of E & B, normalized by diam(B).

    The returned value is the exact sup over members at the witness line
    (an upper bound on the true infimum); certified_gap estimates the
    optimization slack.  Empty intersections give beta 0 flagged vacuous,
    and members that coincide to double precision give beta 0.
    """
    return beta_heis_many([(points, ball)], budget)[0]


def beta_heis_oracle(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
                     resolution: int = 60) -> BetaResult:
    """Brute-force grid reference for beta_heis.

    Exhaustive canonical-frame grid over (theta, offset, height) with
    bounds derived from the ball, followed by one local refinement (exact
    height refit plus a Nelder-Mead polish from the best cell, its initial
    simplex one grid step along each axis).  The result is an upper bound
    on the true infimum, decreasing as the grid refines.
    """
    if resolution < 1:
        raise ValueError("oracle resolution must be at least 1, got %d" % resolution)
    if resolution > 400:
        raise ResourceBudgetError("oracle resolution capped at 400 per axis")
    setup = _setup(points, ball)
    if isinstance(setup, BetaResult):
        return setup
    arr, idx = setup
    n = idx.size
    if n > 10_000:
        raise ResourceBudgetError("oracle limited to 1e4 members, got %d" % n)
    if resolution ** 3 * n > ORACLE_MAX_CELLS:
        raise ResourceBudgetError("oracle grid of %d cells over %d members exceeds "
                                  "the cost guard" % (resolution ** 3, n))
    members = arr[idx]
    origin, unit, canon = _member_frame(members)
    if unit == 0.0:
        return _point_witness(point_of(members[0])).result(ball)

    # incumbent from the two center lines fixes the search box
    rows = _Rows([canon])
    h0, h1 = _best_heights(rows.lines([0, 0]), [0.0, 0.5 * math.pi], [0.0, 0.0])
    d0 = min(_max_dists(rows.lines([0, 0, 0]), [(0.0, 0.0, h0), (0.5 * math.pi, 0.0, h1),
                                                 (0.0, 0.0, 0.0)]).tolist())
    rmax = float(norm_arr(canon).max())
    c_max = rmax + d0 + 1e-9
    # any line beating the incumbent has a foot point within 4*d0 of some
    # member, which caps |height| by the bound below
    h_max = (rmax + 4.0 * d0) ** 2 + 2.0 * c_max * rmax + 1e-9

    # the (offset, height) cells of one theta, offset-major
    cells = np.stack(np.meshgrid(np.linspace(-c_max, c_max, resolution),
                                 np.linspace(-h_max, h_max, resolution), indexing="ij"),
                     axis=-1).reshape(-1, 2)
    ball0 = np.zeros(len(cells), dtype=np.intp)
    # the first cell in scan order (theta, offset, height) that beats the incumbent
    best = (d0, (0.0, 0.0, h0))
    for th in np.linspace(0.0, math.pi, resolution, endpoint=False).tolist():
        dmax = _max_dists_blocked(rows, ball0, np.column_stack([np.full(len(cells), th), cells]))
        k = int(np.argmin(dmax))
        if dmax[k] < best[0]:
            best = (float(dmax[k]), (th, *cells[k].tolist()))

    th, c_, _ = best[1]
    x0 = (th, c_, _best_heights(rows.lines([0]), [th], [c_])[0])
    spacing = max(math.pi / resolution, 2.0 * c_max / resolution)
    cand = min((float(_max_dists(rows.lines([0]), [x0])[0]), x0),
               _nelder_mead(rows, [0], [x0], (spacing, spacing, 2.0 * h_max / resolution),
                            400, 1e-11, 1e-14)[0])
    return _witness(members, origin, unit, cand[1],
                    max(GAP_FLOOR, best[0] / 2.0 - cand[0] / 2.0)).result(ball)
