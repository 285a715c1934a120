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
only in the radius that divides the sup.  The sets' optimisation
subsamples are ragged rows, one flat (R, 3) array with each set's rows
consecutive (_Rows), and each step evaluates all the lines it needs, for
all sets, in one kernel call: every line is paired with its own set's rows
only, their distances come from one lines.quartic_dists call, and each
line's max is one np.maximum.reduceat.  All candidates are scored
together; the golden-section height searches run side by side; and the
Nelder-Mead starts of all sets advance together, each iteration evaluating
every start's reflection in one call and then only the trial point each
start's branch reads.  Each search replays its sequential form bit for bit
(lines.golden_min_many; scipy 1.17.1's Nelder-Mead), and a line reads no
row but its set's, so a result does not depend on the batch it runs in.
A batch runs in chunks whose iterative steps stay under BATCH_PAIRS
line-member pairs per kernel call; the one-shot calls and the shrinks run
in blocks under the same bound.

The set-up runs in ragged passes too, each bit for bit with the per-set
form it replaces.  The items are scanned in blocks over one point array,
under BATCH_PAIRS distances a pass (_memberships), and a block's new
member sets are framed in one pass (_frames); each then joins the open
chunk, which is solved when the next set would take it past the bound,
and at the end.  A chunk's strips, pair candidates and pair lines are one
pass each (_strips, _pair_candidates, _pair_lines), and its witnesses' exact
sups one pass per run of sets under BATCH_PAIRS members (_witnesses).  Only
each hull's monotone chain, a large set's subsample traversal, each witness
line's transform_line, and math's atan2, cos and sin per pair run one at a
time.  A set keeps its member indices and subsample until its chunk is
solved, and then only its witness, so memory follows the chunk.
beta_heis_oracle runs on the same kernels and passes over one set, so the
package needs no scipy.

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
    dist_arr,
    dist_point_arr,     # kept importable because the benchmark's tracer wraps it
    farthest_point_order,
    frame,
    norm_arr,
    product,
    within,
)
from .lines import (
    HorizontalLine,
    canon_coords,
    golden_min_many,
    horizontal_line,
    line_dists_arr,     # kept importable because the benchmark's tracer wraps it
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


def _memberships(points: Sequence[HeisPoint] | np.ndarray,
                 balls: Sequence[Ball]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The point array and its rows inside each closed ball (tolerance 1e-12
    * radius), in one distance pass: their indices, ascending per ball and
    concatenated, and each ball's count.  Radii must be finite and positive."""
    for ball in balls:
        if not 0.0 < ball.radius < math.inf:
            raise ValueError("ball radius must be finite and positive, got %r" % (ball.radius,))
    arr = points if isinstance(points, np.ndarray) else as_array(points)
    centers = np.array([b.center for b in balls], dtype=float).reshape(-1, 1, 3)
    inside = within(dist_arr(centers, arr), np.array([[b.radius] for b in balls]))
    idx = np.flatnonzero(inside)
    idx %= max(1, arr.shape[0])         # the column: the row of arr
    return arr, idx, np.count_nonzero(inside, axis=1)


def members_in_ball(arr: np.ndarray, ball: Ball) -> np.ndarray:
    """Indices of rows inside the closed ball (tolerance 1e-12 * radius)."""
    return _memberships(arr, [ball])[1]


def _per_row(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """values[i] for each of the count[i] rows of set i (for one set, values
    itself, which broadcasts without a copy)."""
    return values if len(count) == 1 else np.repeat(values, count, axis=0)


def _ragged(count: np.ndarray) -> np.ndarray:
    """0, 1, ..., count[i] - 1 for each i in turn."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _blocks(sizes: np.ndarray):
    """(i, j) of runs of entries of sizes adding up to at most BATCH_PAIRS
    (a larger entry alone)."""
    ends, i = np.cumsum(sizes), 0
    while i < len(ends):
        j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0) + BATCH_PAIRS, "right")))
        yield i, j
        i = j


def _first_max(v: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index in v of the first greatest value (or first NaN, as np.argmax
    picks) of each run of count[i] >= 1 consecutive values."""
    start = np.cumsum(count) - count
    hit = np.flatnonzero((v == _per_row(np.maximum.reduceat(v, start), count)) | np.isnan(v))
    return hit[np.searchsorted(hit, start)]


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
    out = [np.empty(0)]
    for i, j in _blocks(rows.count[balls] * per):
        out.append(_max_dists(rows.lines(np.repeat(balls[i:j], per)), params[i:j]))
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


def _chain(seq: list) -> list:
    """Half of Andrew's monotone chain over points sorted by x then y, on
    Python floats: numpy's IEEE operations without a numpy call per step."""
    out = []
    for qx, qy in seq:
        while len(out) > 1:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) > 0:
                break
            out.pop()
        out.append((qx, qy))
    return out


def _hulls(pts: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The convex hull of each run of count[i] consecutive rows of pts: its
    vertices in ccw order, each hull's consecutive, and their counts.  The
    rows, rounded to 15 decimals, are sorted by x then y and each equal to
    the one before it is dropped (the distinct rows of np.unique(axis=0),
    without its row sort), all runs in one pass; then each run's monotone
    chain."""
    set_of = np.repeat(np.arange(len(count)), count)
    p = pts.round(decimals=15)
    p = p[np.lexsort((p[:, 1], p[:, 0], set_of))]
    keep = np.ones(p.shape[0], dtype=bool)
    keep[1:] = (p[1:] != p[:-1]).any(axis=1) | (set_of[1:] != set_of[:-1])
    seq = p[keep].tolist()
    ends = np.cumsum(np.bincount(set_of[keep], minlength=len(count))).tolist()
    hulls = [s if len(s) <= 2 else _chain(s)[:-1] + _chain(s[::-1])[:-1]
             for s in (seq[a:e] for a, e in zip([0] + ends[:-1], ends))]
    return (np.array([v for h in hulls for v in h], dtype=float).reshape(-1, 2),
            np.array([len(h) for h in hulls], dtype=np.intp))


def _strips(pts: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min_width_strip of each run of count[i] >= 1 consecutive rows of pts:
    arrays of widths, thetas and offsets.  Hull edge e's strip spans the
    hull's signed offsets from it; the edges are scored in passes under
    BATCH_PAIRS (edge, vertex) pairs (an edge over more alone), and the
    first narrowest edge wins."""
    hull, m = _hulls(pts, count)
    h0, start = np.cumsum(m) - m, np.cumsum(count) - count
    width, theta, offset = np.zeros(len(count)), np.zeros(len(count)), np.zeros(len(count))
    # a hull of at most two points: the width-0 strip along it, midway
    # between its rows' extreme signed offsets (through a lone point)
    flat = np.flatnonzero(m <= 2)
    if flat.size:
        d = (hull[h0[flat] + m[flat] - 1] - hull[h0[flat]]).tolist()
        theta[flat] = [math.atan2(dy, dx) if dx != 0.0 or dy != 0.0 else 0.0 for dx, dy in d]
        cos, sin = (_per_row(np.array(list(map(f, theta[flat].tolist()))), count[flat])
                    for f in (math.cos, math.sin))
        x, y = pts[np.repeat(m <= 2, count)].T
        s, at = frame(cos, sin, x, y)[1], np.cumsum(count[flat]) - count[flat]
        offset[flat] = 0.5 * (np.maximum.reduceat(s, at) + np.minimum.reduceat(s, at))
        offset[count == 1] = pts[start[count == 1], 1]
    wide = np.flatnonzero(m > 2)
    if wide.size:
        mw, top = m[wide], m[wide].max()
        # each hull's vertices as a row of top, padded with its first vertex,
        # which moves no extreme offset
        pad = h0[wide][:, None] + np.where(np.arange(top) < mw[:, None], np.arange(top), 0)
        hx, hy = hull[pad, 0], hull[pad, 1]
        e = _ragged(mw) + np.repeat(h0[wide], mw)   # each edge's first vertex
        nxt = e + 1
        nxt[np.cumsum(mw) - 1] = h0[wide]
        d = hull[nxt] - hull[e]
        ln = np.array([math.hypot(dx, dy) for dx, dy in d.tolist()])
        own = np.repeat(np.arange(wide.size), mw)  # each edge's hull
        s_max, s_min = np.empty(len(e)), np.empty(len(e))
        for i, j in _blocks(np.full(len(e), top)):
            w = own[i] if own[i] == own[j - 1] else own[i:j]    # one hull: its row
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (-d[i:j, 1:] * hx[w] + d[i:j, :1] * hy[w]) / ln[i:j, None]
            s_max[i:j], s_min[i:j] = s.max(axis=1), s.min(axis=1)
        with np.errstate(invalid="ignore"):
            widths = s_max - s_min
        widths[(ln == 0.0) | np.isnan(widths)] = math.inf   # never taken
        k = _first_max(-widths, mw)
        ok = widths[k] < math.inf       # else no edge: (inf, 0, 0)
        width[wide] = widths[k]
        theta[wide] = [math.atan2(dy, dx) if o else 0.0 for (dx, dy), o in zip(d[k].tolist(), ok)]
        offset[wide] = np.where(ok, 0.5 * (s_max[k] + s_min[k]), 0.0)
    return width, theta, offset


def min_width_strip(pts: np.ndarray) -> tuple[float, float, float]:
    """Minimal-width strip of a planar point set.

    Returns (width, theta, offset): theta the direction of the strip
    midline, offset its signed distance from the origin.  Width is exact
    (the optimal direction is attained on a hull edge).
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    width, theta, offset = _strips(pts, np.array([pts.shape[0]]))
    return float(width[0]), float(theta[0]), float(offset[0])


def beta_euclidean_2d(points: Sequence[HeisPoint] | np.ndarray, ball: Ball) -> float:
    """Exact planar Jones beta of the projected members.

    Half the minimal strip width containing pi(E & B), divided by diam(B)
    (the projected diameter is taken equal to the Koranyi diameter by
    convention; the projection is 1-Lipschitz).  The strip is fitted in the
    ball's canonical frame, pi(E & B) moved to the unit disc at the origin,
    so the value is covariant under left translation and dilation.
    """
    arr, idx, _ = _memberships(points, [ball])
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


def _few(arr: np.ndarray, idx: np.ndarray, ball: Ball) -> BetaResult:
    """The final result of a ball with fewer than two members, the rows idx
    of arr."""
    if idx.size == 0:
        center_line = transform_line(horizontal_line(0.0, 0.0, 0.0),
                                     g=ball.center, lam=ball.radius)
        return BetaResult(0.0, center_line, ball.center, 0.0, vacuous=True)
    return _point_witness(point_of(arr[idx[0]])).result(ball)


def _frames(members: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame of each member set, set i the next count[i] rows, and its
    members in it: the origin (a row) is their coordinate mean about the
    first member, summed in row order as .mean(axis=0) sums, so coincident
    members have their point as the origin exactly; the unit is their
    largest gauge distance from it (0 if they coincide to double precision,
    and then they are left unscaled)."""
    start = np.cumsum(count) - count
    first = members[start]
    dev = members - _per_row(first, count)
    if len(count) == 1:         # no per-row set index, for a large set's memory
        total = dev.sum(axis=0, keepdims=True)
    else:
        set_of = np.repeat(np.arange(len(count)), count)
        total = np.column_stack([np.bincount(set_of, c, len(count)) for c in dev.T])
    del dev
    origin = first + total / count[:, None]
    rel = np.column_stack(product(*-_per_row(origin, count).T, *members.T))
    unit = np.maximum.reduceat(norm_arr(rel), start)
    lam = 1.0 / np.where(unit == 0.0, 1.0, unit)
    if not (lam > 0.0).all():
        raise ValueError("dilation factor must be positive, got %r" % float(lam[~(lam > 0.0)][0]))
    lam = _per_row(lam, count)
    rel *= lam[:, None]
    rel[:, 2] *= lam
    return origin, unit, rel


def _subsamples(canon: np.ndarray, count: np.ndarray, max_members: int) -> np.ndarray:
    """Each set's optimisation subsample, set i the next count[i] rows: its
    rows, or the max_members picks of a farthest-point traversal of them, in
    row order."""
    start = (np.cumsum(count) - count).tolist()
    big = [(a, c, farthest_point_order(canon[a:a + c], max_members)[0])
           for a, c in zip(start, count.tolist()) if c > max_members]
    times = np.ones(canon.shape[0], dtype=np.intp)      # each row's copies
    for a, c, picks in big:
        times[a:a + c] = 0
        np.add.at(times, a + np.array(picks), 1)
    return np.repeat(canon, times, axis=0)


class _Fit:
    """A member set of two or more points, not all at one point, in the open
    chunk: its witness slot, point array and member indices (gathered again
    for its witness), its frame's origin and unit, and its subsample."""

    def __init__(self, key: int, points: np.ndarray, idx: np.ndarray, origin: HeisPoint,
                 unit: float, sub: np.ndarray):
        self.key, self.points, self.idx, self.origin, self.unit, self.sub = \
            key, points, idx, origin, unit, sub


def _witnesses(fits: list[_Fit], solved: list) -> list[_Witness]:
    """The witness of each fit's solved (line of its frame, certified gap):
    the exact sup over its members and the first member at it, one pass per
    run of fits under BATCH_PAIRS members (a larger fit alone)."""
    lines = [transform_line(horizontal_line(*params), g=f.origin, lam=f.unit)
             for f, (params, _) in zip(fits, solved)]
    count, out = np.array([f.idx.size for f in fits]), []
    for i, j in _blocks(count):
        # one fit's members are gathered without the copy of a concatenation
        members = np.concatenate([f.points[f.idx] for f in fits[i:j]]) if j > i + 1 else \
            fits[i].points[fits[i].idx]
        th, off, h = (_per_row(v, count[i:j]) for v in np.array(lines[i:j]).T)
        d = quartic_dists(*canon_coords(members, np.cos(th), np.sin(th), off, h))
        out += [_Witness(float(d[k]), line, point_of(members[k]), gap * f.unit)
                for k, line, f, (_, gap) in zip(_first_max(d, count[i:j]).tolist(), lines[i:j],
                                                fits[i:j], solved[i:j])]
    return out


#: the generator of the fill pairs, the same for every set
PAIR_SEED = (0, 9463)


def _fill_pairs(n: int, have: int, starts: int) -> np.ndarray:
    """The pairs a set of n > 8 rows takes after its `have` extreme pairs:
    rows i != j from the generator PAIR_SEED, each round's missing pairs in
    one draw (the stream of one draw per pair), up to starts pairs in all."""
    pairs: list[tuple[int, int]] = []
    if have < starts:
        rng = np.random.default_rng(PAIR_SEED)
        while have + len(pairs) < starts:
            ij = rng.integers(0, n, (starts - have - len(pairs), 2)).tolist()
            pairs += [(min(i, j), max(i, j)) for i, j in ij if i != j]
    return np.array(pairs[:starts - have], dtype=np.intp).reshape(-1, 2)


def _pair_candidates(sub: np.ndarray, count: np.ndarray,
                     budget: BetaBudget) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pairs (i, j), i < j, of rows of sub, set s its next
    count[s] rows, and their sets, each set's pairs consecutive: all pairs of
    a set of at most 8 rows; else the pairs of its extreme rows (the first
    least and greatest of each coordinate and the first farthest from the
    origin, ascending), then _fill_pairs, budget.pair_starts in all."""
    start, small = np.cumsum(count) - count, count <= 8
    # the extreme rows, sorted, or every row of a small set, each once
    ext = np.stack([_first_max(v, count) for v in (*-sub.T, *sub.T, norm_arr(sub))], axis=1)
    ext = np.sort(np.where(small[:, None], np.minimum(np.arange(8), count[:, None] - 1),
                           np.column_stack([ext - start[:, None], ext[:, :1] - start[:, None]])),
                  axis=1)
    new = np.ones(ext.shape, dtype=bool)
    new[:, 1:] = ext[:, 1:] != ext[:, :-1]
    a, b = np.triu_indices(8, 1)                # their pairs, in ascending order
    ok = new[:, a] & new[:, b]
    ok &= (np.cumsum(ok, axis=1) <= budget.pair_starts) | small[:, None]
    at, k = np.nonzero(ok)
    # each set's fill, drawn once per distinct (rows, pairs so far) of the chunk
    have = np.where(small, budget.pair_starts, ok.sum(axis=1))
    key = count * (budget.pair_starts + 1) + have      # have <= pair_starts
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    fills = [_fill_pairs(int(count[f]), int(have[f]), budget.pair_starts) for f in first.tolist()]
    fill = np.concatenate([fills[t] for t in inv.tolist()])
    owner = np.concatenate([at, np.repeat(np.arange(len(count)), [len(fills[t]) for t in inv])])
    order = np.argsort(owner, kind="stable")    # each set's extreme pairs, then its fill
    owner = owner[order]
    ii = np.concatenate([ext[at, a[k]], fill[:, 0]])[order] + start[owner]
    jj = np.concatenate([ext[at, b[k]], fill[:, 1]])[order] + start[owner]
    return ii, jj, owner


def _pair_lines(rows: "_Rows", budget: BetaBudget) -> tuple[np.ndarray, np.ndarray]:
    """line_through_two(sub[i], sub[j]) for each candidate pair of every set
    whose projections are not np.isclose: (theta, offset, height) rows, each
    set's consecutive, and each set's count.  atan2, cos and sin are math's,
    one call per pair, as in line_through_two."""
    sub = rows.cols.T
    ii, jj, owner = _pair_candidates(sub, rows.count, budget)
    far = ~np.isclose(sub[ii, :2], sub[jj, :2]).all(axis=1)
    a, b = sub[ii[far]], sub[jj[far]]
    theta = np.array(list(map(math.atan2, (b[:, 1] - a[:, 1]).tolist(),
                              (b[:, 0] - a[:, 0]).tolist())), dtype=float)
    # theta_mod_pi, with both of its rounding guards
    t = theta - np.floor(theta / math.pi) * math.pi
    t = np.where(t < 0.0, t + math.pi, t)
    t = np.where(t >= math.pi, t - math.pi, t)
    gx, gy = frame(*(np.array(list(map(f, t.tolist())), dtype=float) for f in (math.cos, math.sin)),
                   a[:, 0], a[:, 1])
    return (np.column_stack([t, gy, a[:, 2] + 2.0 * gx * gy]),
            np.bincount(owner[far], minlength=len(rows.count)))


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
            # scipy's test, its simplex spread read only where fatol holds
            done = np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
            near = np.flatnonzero(done)
            done[near] = np.abs(sim[near, 1:] - sim[near, :1]).max(axis=(1, 2)) <= xatol
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
        xr = _TRIAL_A[0] * xbar - _TRIAL_B[0] * sim[:, -1]
        fxr = _max_dists(lines, xr)
        # the trial point read after the reflection: expansion (1),
        # outside (2) or inside (3) contraction, or none (0)
        second = np.where(fxr < fsim[:, 0], 1,
                          np.where(fxr < fsim[:, -2], 0, np.where(fxr < fsim[:, -1], 2, 3)))
        f2 = np.full(live.size, np.inf)     # the second trial's value, where evaluated
        x2 = np.empty_like(xr)              # and its point
        more = np.flatnonzero(second)
        if more.size:
            k = second[more]
            x2[more] = _TRIAL_A[k] * xbar[more] - _TRIAL_B[k] * sim[more, -1]
            f2[more] = _max_dists(rows.lines(balls[more]), x2[more])
        # scipy's branches: a start takes its second trial point when that
        # passes its branch's test; a failed expansion falls back to the
        # reflection (0), a failed contraction to a shrink (-1)
        keep = np.choose(second, [True, f2 < fxr, f2 <= fxr, f2 < fsim[:, -1]])
        pick = np.where(keep, second, np.where(second == 1, 0, -1))
        moved = np.flatnonzero(pick >= 0)
        if moved.size:
            sim[moved, -1] = np.where((pick == 0)[:, None], xr, x2)[moved]
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
    _, th_s, off_s = _strips(rows.cols[:2].T, rows.count)
    pair_lines, n_pairs = _pair_lines(rows, budget)

    def flatten(groups: list[list]) -> tuple[list, list[int], np.ndarray]:
        """The groups' items as one list, the count per group and the ball of each item."""
        counts = [len(g) for g in groups]
        return [x for g in groups for x in g], counts, np.repeat(balls, counts)

    # stage A: direct candidates, scored together; the best few get their height refit
    strip_h = _best_heights(rows.lines(balls), th_s, off_s)
    cands = [[(0.0, 0.0, 0.0), (0.5 * math.pi, 0.0, 0.0), (th, off, h)] + lines
             for th, off, h, lines in zip(th_s.tolist(), off_s.tolist(), strip_h,
                                          _split(list(map(tuple, pair_lines.tolist())),
                                                 n_pairs.tolist()))]
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
    budget = budget or BetaBudget()
    # (line, member) pairs per subsample row in a fit's widest iterative call:
    # a height search step, or the Nelder-Mead reflections
    width = max(1, budget.refine_starts, budget.nm_starts)
    results: list[BetaResult | int] = []      # each item's result, or its set's slot
    slots: dict[tuple[int, bytes], int] = {}
    witnesses: list[_Witness | None] = []
    chunk: list[_Fit] = []
    pairs = 0

    def flush() -> None:
        nonlocal pairs
        for f, w in zip(chunk, _witnesses(chunk, _solve(chunk, budget))):
            witnesses[f.key] = w
        chunk.clear()
        pairs = 0

    def set_up(points, balls: list[Ball]) -> None:
        """Give each item of a block its result or its set's slot; frame the
        new sets in one pass and add each to the open chunk, which is solved
        first if the set would take it past BATCH_PAIRS.  The block's arrays
        die with the call."""
        nonlocal pairs
        arr, idx, count = _memberships(points, balls)
        new = []            # (slot, member indices) of each new set
        for ball, end, c in zip(balls, np.cumsum(count).tolist(), count.tolist()):
            own = idx[end - c:end]
            slot = slots.setdefault((id(points), own.tobytes()), len(witnesses)) if c > 1 else None
            results.append(_few(arr, own, ball) if slot is None else slot)
            if slot == len(witnesses):
                witnesses.append(None)
                new.append((slot, own))
        if not new:
            return
        count = np.array([own.size for _, own in new])
        origin, unit, canon = _frames(
            arr[new[0][1] if len(new) == 1 else np.concatenate([own for _, own in new])], count)
        fit = unit > 0.0
        sub = _subsamples(canon[np.repeat(fit, count)] if not fit.all() else canon, count[fit],
                          budget.max_members)
        del canon
        n_sub = np.minimum(count[fit], budget.max_members)
        subs = iter(np.split(sub, np.cumsum(n_sub)[:-1]))
        for (slot, own), o, u in zip(new, origin.tolist(), unit.tolist()):
            if u == 0.0:
                witnesses[slot] = _point_witness(point_of(arr[own[0]]))
                continue
            f = _Fit(slot, arr, own, HeisPoint(*o), u, next(subs))
            if chunk and pairs + width * len(f.sub) > BATCH_PAIRS:
                flush()
            chunk.append(f)
            pairs += width * len(f.sub)

    i = 0
    while i < len(items):
        # a block: the next items over one points object, under BATCH_PAIRS
        # distances (an item over more alone)
        points, j = items[i][0], i + 1
        stop = min(len(items), i + max(1, BATCH_PAIRS // max(1, len(points))))
        while j < stop and items[j][0] is points:
            j += 1
        set_up(points, [ball for _, ball in items[i:j]])
        i = j
    if chunk:
        flush()
    return [r if isinstance(r, BetaResult) else witnesses[r].result(ball)
            for r, (_, ball) in zip(results, items)]


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
    arr, idx, _ = _memberships(points, [ball])
    if idx.size < 2:
        return _few(arr, idx, ball)
    n = idx.size
    if n > 10_000:
        raise ResourceBudgetError("oracle limited to 1e4 members, got %d" % n)
    if resolution ** 3 * n > ORACLE_MAX_CELLS:
        raise ResourceBudgetError("oracle grid of %d cells over %d members exceeds "
                                  "the cost guard" % (resolution ** 3, n))
    origin, unit, canon = _frames(arr[idx], np.array([n]))
    if unit[0] == 0.0:
        return _point_witness(point_of(arr[idx[0]])).result(ball)

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
    fit = _Fit(0, arr, idx, point_of(origin[0]), float(unit[0]), canon)
    return _witnesses([fit], [(cand[1], max(GAP_FLOOR, best[0] / 2.0 - cand[0] / 2.0))])[0] \
        .result(ball)
