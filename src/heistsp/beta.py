"""Flatness numbers: minimax fit over horizontal lines, exact planar fit.

beta_heis runs a canonical-frame multistart: the members of the ball are
moved to the unit ball at the origin of their own frame (origin their
coordinate mean, unit their largest gauge distance from it), which moves
with the set under left translation, dilation and rotation about the z
axis.  Candidate lines come from the exact planar strip fit (at the height
its search finds), lines through point pairs, and lines through the
frame's origin; the best few are polished over (theta, offset, height) by
damped Newton steps on a least-pth objective (_polish).  The returned beta
is the exact sup over members at the returned witness line, divided by
diam(B): an upper bound on the true infimum.  No step draws from a
caller's seed.

The engine runs in lockstep over many balls: beta_heis_many takes (point
set, ball) items, beta_heis is its one-item case, and items with the same
point array and members share one fit.  The sets' optimisation subsamples
are one flat (R, 3) array of ragged rows (_Rows), and each step evaluates
all its lines, for all sets, in one lines.quartic_dists call, each line on
its own set's rows only (_Lines) and its max one np.maximum.reduceat: the
candidates' scores, each step of the strip lines' height search
(_best_heights, a bracketed search on exact subgradients) and each polish
iteration.  So a result does not depend on the batch it runs in.  A batch
runs in chunks whose iterative steps stay under BATCH_PAIRS line-member
pairs per kernel call, and its one-shot calls in blocks.

The set-up runs in ragged passes too, each bit for bit with the per-set
form it replaces: membership scans in blocks under BATCH_PAIRS distances
(_memberships), one framing pass per block of new sets (_frames), which
join the open chunk until the next would take it past the bound, and one
pass per chunk for its strips, pair candidates and pair lines, and per run
of sets under BATCH_PAIRS members for the witnesses' exact sups.  Only
each hull's monotone chain, a large set's subsample traversal, each
witness line's transform_line, and math's atan2, cos and sin per pair run
one at a time.  Memory follows the chunk.  beta_heis_oracle runs on the
same kernels, passes and polish over one set, so the package needs no scipy.

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
    horizontal_line,
    line_dists_arr,     # kept importable because the benchmark's tracer wraps it
    line_through_two,
    quartic_dists,
    transform_line,
)


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first use.  Nothing in heistsp
    calls it; kept importable because the benchmark's tracer wraps it."""
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
    nm_starts: int = 3         # polish starts: the best-scored candidates
    nm_iter: int = 64          # polish iterations, one kernel call each
    max_members: int = 96      # optimization subsample; final eval uses all


#: the least certified gap of a fit in its members' frame, where the
#: members' largest distance from the origin is 1
GAP_FLOOR = 1e-9

#: the most (grid cell, member) pairs beta_heis_oracle scans
ORACLE_MAX_CELLS = 2e8

#: the iterations of beta_heis_oracle's polish of its best cell
ORACLE_POLISH_ITERS = 120

#: lighter budget for the inner loops of the curve builder
BUILDER_BUDGET = BetaBudget(pair_starts=10, nm_starts=2, nm_iter=24, max_members=48)

#: the most (line, member) pairs one kernel call of beta_heis_many evaluates,
#: each line counted against its own ball's subsample: a batch runs in
#: chunks of balls whose height searches and polish steps stay under this
#: bound, and its one-shot calls in blocks under it (a ball or a line that
#: exceeds it alone runs alone)
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
    """Lines in ragged member rows: line i's count[i] rows run consecutively
    from first[i], held as the x, y and z columns the kernels read."""
    cols: np.ndarray        # (3, P)
    count: np.ndarray       # (L,)
    first: np.ndarray       # (L,)


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
        return _Lines(self.cols.take(idx, axis=1), count, first)


def _max_dists(lines: _Lines, params) -> np.ndarray:
    """max_i d(p_i, L) over each line's members, for the line (theta,
    offset, height) of each row of params, shaped (L, 3)."""
    th, off, h = np.asarray(params, dtype=float).reshape(-1, 3).T
    # each line's cos, sin, offset and height on each of its rows, freed
    # before the kernel runs
    canon = canon_coords(lines.cols.T, *np.repeat([np.cos(th), np.sin(th), off, h], lines.count,
                                                  axis=1))
    return np.maximum.reduceat(quartic_dists(*canon), lines.first)


def _max_dists_blocked(rows: _Rows, balls, params) -> np.ndarray:
    """_max_dists of the line params[i] (theta, offset, height) over ball
    balls[i]'s rows, for every i, in calls under BATCH_PAIRS rows (a longer
    entry alone)."""
    params = np.asarray(params, dtype=float)
    balls = np.asarray(balls, dtype=np.intp)
    out = [np.empty(0)]
    for i, j in _blocks(rows.count[balls]):
        out.append(_max_dists(rows.lines(balls[i:j]), params[i:j]))
    return np.concatenate(out)


#: the steps of each height search after its bracket's two ends
HEIGHT_STEPS = 12


def _best_heights(lines: _Lines, thetas, offsets) -> list[float]:
    """Minimax-optimal height of each line (thetas[i], offsets[i]) over its
    members.

    F(h) = max_i d_i(h)^4 is convex: each d_i^4 is the minimum over t of a
    function jointly convex in (t, h), least at the row's target (zero
    mismatch at its co-horizontal foot), so the targets' hull brackets the
    optimum.  F'(h) is that of F's argmax row (the last), -2 (z~ - 2 t y~)
    at the row's foot t by the envelope theorem.  Each step takes the
    secant root of that row's derivative where both ends share the argmax
    row, else the cut of the ends' tangents (Kelley, SIAM J. 8 (1960)); it
    bisects where that point leaves the bracket or the bracket did not
    halve over two steps, and keeps the side the sign of F' names.  The
    least F met wins (the first on a tie).  All lines search in lockstep,
    each on its own rows, one kernel call a probe: the ends and HEIGHT_STEPS.
    """
    count, first = lines.count, lines.first
    th = np.asarray(thetas, dtype=float)
    off = _per_row(np.asarray(offsets, dtype=float), count)
    # the canonical coordinates at height 0
    xt, yt, z0 = canon_coords(lines.cols.T, _per_row(np.cos(th), count),
                              _per_row(np.sin(th), count), off, 0.0)
    # h with zero mismatch at the co-horizontal foot
    targets = lines.cols[2] - 2.0 * xt * yt + 2.0 * off * xt
    rows = np.arange(xt.size)

    def probe(h):       # (h, F, F's argmax row, F') and max d
        d, t = quartic_dists(xt, yt, z0 - _per_row(h, count), foot=True)
        top = np.maximum.reduceat(d, first)
        k = np.maximum(np.maximum.reduceat(np.where(d == _per_row(top, count), rows, 0), first), first)
        return np.stack([h, (top * top) ** 2, k, -2.0 * (z0[k] - h - 2.0 * t[k] * yt[k])]), top

    (lo, d_lo), (hi, d_hi) = (probe(f.reduceat(targets, first)) for f in (np.minimum, np.maximum))
    best = np.where(d_hi < d_lo, [hi[0], d_hi], [lo[0], d_lo])      # h and max d
    back = [np.inf, np.inf]      # the bracket's width one and two steps back
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(HEIGHT_STEPS):
            (a, fa, ka, ga), (b, fb, kb, gb), w = lo, hi, hi[0] - lo[0]
            m = a + np.where(ka == kb, -ga * w, fa - fb + gb * w) / (gb - ga)
            m = np.where((m > a) & (m < b) & (w <= 0.5 * back[1]), m, a + 0.5 * w)
            back = [w, back[0]]
            mid, d = probe(m)
            np.copyto(best, [m, d], where=d < best[1])
            right = mid[3] < 0.0        # the minimum lies right of m
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return best[0].tolist()


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
    chain.  Runs of equal rows are dropped before the sort as well: the
    first of each equal class survives either way."""
    set_of = np.repeat(np.arange(len(count)), count)
    p = pts.round(decimals=15)
    for sort in (False, True):
        if sort:
            p = p[np.lexsort((p[:, 1], p[:, 0], set_of))]
        keep = np.ones(p.shape[0], dtype=bool)
        keep[1:] = (p[1:] != p[:-1]).any(axis=1) | (set_of[1:] != set_of[:-1])
        p, set_of = p[keep], set_of[keep]
    seq = p.tolist()
    ends = np.cumsum(np.bincount(set_of, minlength=len(count))).tolist()
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
    t = theta - (np.floor(theta / math.pi) + 0.0) * math.pi   # k = -0.0 as the int 0
    t = np.where(t < 0.0, t + math.pi, t)
    t = np.where(t >= math.pi, t - math.pi, t)
    gx, gy = frame(*(np.array(list(map(f, t.tolist())), dtype=float) for f in (math.cos, math.sin)),
                   a[:, 0], a[:, 1])
    return (np.column_stack([t, gy, a[:, 2] + 2.0 * gx * gy]),
            np.bincount(owner[far], minlength=len(rows.count)))


#: the (row, column) of each of the six entries of a symmetric 3x3 matrix
_SYM = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _dists_grads(lines: _Lines, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distances d of each line's rows to the line params[i] (theta, offset,
    height), and in those the gradients of log d, (3, P), and the Hessians of
    d^4 over 4 d^4, (6, P) in _SYM order, 0 where d is 0: one kernel call."""
    cos, sin, off, h = np.repeat(np.stack([np.cos(params[:, 0]), np.sin(params[:, 0]),
                                           params[:, 1], params[:, 2]]), lines.count, axis=1)
    xt, yt, zt = canon_coords(lines.cols.T, cos, sin, off, h)
    d, (fx, fy, fz), (hxx, hxy, hxz, hyy, hyz, hzz) = quartic_dists(xt, yt, zt, grad=True)
    # the chain rule through canon_coords, Y = y~ + offset: Jacobian columns (Y, -x~, 2 offset Y),
    # (0, -1, 2 x~), (0, 0, -1); second derivatives -x~, -Y, -2 offset x~ in theta, and 2 Y of z~
    # in theta and offset
    yt += off
    zy = 2.0 * off * yt
    vx, vy, vz = (yt * a - xt * b + zy * c for a, b, c in ((hxx, hxy, hxz), (hxy, hyy, hyz),
                                                          (hxz, hyz, hzz)))
    wy, wz = 2.0 * xt * hyz - hyy, 2.0 * xt * hzz - hyz
    g = np.stack([fx * yt - fy * xt + fz * zy, 2.0 * xt * fz - fy, -fz])
    c = np.stack([yt * vx - xt * vy + zy * vz - (fx + 2.0 * off * fz) * xt - fy * yt,
                  2.0 * (xt * vz + yt * fz) - vy, -vz, 2.0 * xt * wz - wy, -wz, hzz])
    f4 = (d * d) ** 2
    f4 = np.divide(0.25, f4, out=np.zeros_like(f4), where=f4 > 0.0)     # d log d = d(d^4) / 4 d^4
    return d, g * f4, c * f4


#: the least-pth p of a start's first step, the most it reaches, and its factor after a
#: step taken that lowers the objective by under 0.3 / p, near that smoothing's optimum
POLISH_P = (4.0, 1e7, 1.5)
#: the damping mu of a start's first step, and its factors after a taken and a refused step
POLISH_DAMPING = (1.0, 0.3, 4.0)
#: the probe, a trial step before the first iteration, out of a symmetric saddle (a vertical pair)
POLISH_PROBE = (0.05, 0.05, 0.0)


def _adjugate_solve(h: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h^-1 m, (S, 3), for symmetric h, (6, S) in _SYM order, and m, (3, S), by
    the adjugate; and whether h is positive definite (its leading minors)."""
    h11, h12, h13, h22, h23, h33 = h
    adj = np.stack([h22 * h33 - h23 * h23, h13 * h23 - h12 * h33, h12 * h23 - h13 * h22,
                    h11 * h33 - h13 * h13, h12 * h13 - h11 * h23, h11 * h22 - h12 * h12])
    det = h11 * adj[0] + h12 * adj[1] + h13 * adj[2]
    x = (adj[[0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(3, 3, -1) * m).sum(axis=1) / det
    return x.T, (h11 > 0.0) & (adj[5] > 0.0) & (det > 0.0)


def _polish(rows: _Rows, balls, x0s, iters: int) -> list[tuple[float, tuple[float, float, float]]]:
    """(min, argmin) of the max line distance to its ball's members from
    each start in x0s, start i in ball balls[i] of rows: the least max at
    the start, its probe and its iters trial points.

    A least-pth polish (Bandler & Charalambous, IEEE Trans. MTT 20 (1972);
    Charalambous, Math. Programming 17 (1979)): damped Newton steps on
    log (sum_i d_i^p)^(1/p) from the exact derivatives of the log d_i
    (_dists_grads), by the adjugate, Gauss-Newton where the Hessian is not
    positive definite.  A start takes a step only where the objective falls,
    and then its damping falls and its p may rise (POLISH_P), else the
    damping rises.  All starts run every iteration, one kernel call for all,
    each on its own rows and sums, so no result depends on the batch; a
    start repeated bit for bit in its ball is polished once.
    """
    x0, balls = np.array(x0s, dtype=float).reshape(-1, 3), np.asarray(balls, dtype=np.intp)
    # each distinct (ball, start) once: start i of x0s is distinct start copy[i]
    distinct: dict[tuple[int, bytes], int] = {}
    copy = [distinct.setdefault((b, x.tobytes()), len(distinct))
            for b, x in zip(balls.tolist(), x0)]
    first = np.unique(copy, return_index=True)[1]
    x, lines = x0[first], rows.lines(balls[first])
    mu, p = np.full(len(first), POLISH_DAMPING[0]), np.full(len(first), POLISH_P[0])
    count, at = lines.count, lines.first
    i, j = np.array(_SYM).T

    def spread(d):      # each start's max distance, and log(d_i / max) of its rows
        return (top := np.maximum.reduceat(d, at)), np.log(d) - np.repeat(np.log(top), count)

    def weights(lr, p):     # (d_i / max)^p, floored at exp(-600), off the subnormals
        return np.exp(np.maximum(lr * np.repeat(p, count), -600.0))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        d, g, c = _dists_grads(lines, x)
        top, lr = spread(d)
        best, best_x = top.copy(), x.copy()
        for k in range(-1, iters):
            if k < 0:       # the probe, taken where it lowers the max distance
                trial = x + POLISH_PROBE
            else:
                # the weighted means of the gradients, their products, the Hessians
                w = weights(lr, p)
                m = np.empty((15, w.size))
                np.multiply(g, w, out=m[:3])
                np.multiply(g[i], m[j], out=m[3:9])
                np.multiply(c, w, out=m[9:])
                total = np.add.reduceat(w, at)
                m = np.add.reduceat(m, at, axis=1) / total
                # p times the gradients' covariance, damped by p mu |m|^2, plus
                # the mean Hessian of log d: that of d^4 over 4 d^4, less 4 g g^T
                gn = p * (m[3:9] - m[i] * m[j])
                gn[[0, 3, 5]] += mu * p * (m[:3] * m[:3]).sum(axis=0)
                step, pd = _adjugate_solve(gn + m[9:] - 4.0 * m[3:9], m[:3])
                if not pd.all():
                    step[~pd] = _adjugate_solve(gn[:, ~pd], m[:3, ~pd])[0]
                np.copyto(step, 0.0, where=~np.isfinite(step))
                trial = x - step
            dt, gt, ct = _dists_grads(lines, trial)
            tt, lrt = spread(dt)
            if k < 0:
                ok = tt < top
            else:
                gain = (np.log(top) + np.log(total) / p
                        - np.log(tt) - np.log(np.add.reduceat(weights(lrt, p), at)) / p)
                ok = gain > 0.0
                mu = np.maximum(mu * np.where(ok, *POLISH_DAMPING[1:]), 1e-12)
                p = np.where(ok & (gain * p < 0.3), np.minimum(p * POLISH_P[2], POLISH_P[1]), p)
            better, rows_ok = tt < best, np.repeat(ok, count)
            for now, new, where in ((best, tt, better), (best_x, trial, better[:, None]),
                                    (x, trial, ok[:, None]), (top, tt, ok), (lr, lrt, rows_ok),
                                    (g, gt, rows_ok), (c, ct, rows_ok)):
                np.copyto(now, new, where=where)
    out = list(zip(best.tolist(), map(tuple, best_x.tolist())))
    return [out[q] for q in copy]


def _solve(fits: list[_Fit], budget: BetaBudget) -> list[tuple[tuple[float, float, float], float]]:
    """(witness params, certified gap) of every fit in its members' frame,
    each step one kernel call across all sets, each line over its own set's
    member rows."""
    rows = _Rows([f.sub for f in fits])
    sets = np.arange(len(fits))
    _, th_s, off_s = _strips(rows.cols[:2].T, rows.count)
    pair_lines, n_pairs = _pair_lines(rows, budget)

    # stage A: each set's two centre lines, its strip line at its searched
    # height and its pair lines, scored together, and ranked per set by
    # (value, theta, offset, height), a tie kept in place as a sort of
    # tuples keeps it
    strip = np.column_stack([th_s, off_s, _best_heights(rows.lines(sets), th_s, off_s)])
    cands = np.concatenate([np.repeat([[0.0, 0.0, 0.0], [0.5 * math.pi, 0.0, 0.0]], len(fits), 0),
                            strip, pair_lines])
    owner = np.concatenate([np.tile(sets, 3), np.repeat(sets, n_pairs)])
    v = _max_dists_blocked(rows, owner, cands)
    order = np.lexsort((*cands[:, ::-1].T, v, owner))

    # stage B: the least-pth polish from the best few, which fits their
    # heights with their thetas and offsets
    n = 3 + n_pairs
    starts, best = order[_ragged(n) < budget.nm_starts], order[np.cumsum(n) - n]
    polished = iter(_polish(rows, owner[starts], cands[starts], budget.nm_iter))
    out = []
    for direct, k in zip(zip(v[best].tolist(), map(tuple, cands[best].tolist())),
                         np.minimum(n, budget.nm_starts).tolist()):
        fun, x = min([direct, *(next(polished) for _ in range(k))])     # the first least
        out.append((x, max(GAP_FLOOR, direct[0] / 2.0 - fun / 2.0)))
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
    # a height search step, or a polish step, one line per start
    width = max(1, budget.nm_starts)
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

    Exhaustive canonical-frame grid over (theta, offset, height) within
    bounds from the ball, then an exact height refit and the engine's polish
    (ORACLE_POLISH_ITERS iterations) from the best cell.  The result is an
    upper bound on the true infimum, decreasing as the grid refines.
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
    cand = _polish(rows, [0], [x0], ORACLE_POLISH_ITERS)[0]
    fit = _Fit(0, arr, idx, point_of(origin[0]), float(unit[0]), canon)
    return _witnesses([fit], [(cand[1], max(GAP_FLOOR, best[0] / 2.0 - cand[0] / 2.0))])[0] \
        .result(ball)
