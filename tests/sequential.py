"""The sequential, one-point forms that the library's lockstep kernels replay.

The tests compare the array kernels of heistsp.lines against these scalar
references bit for bit (golden_min, the quartic profile) or to a tolerance
(line distances by golden section), and beta's pair candidates against
pair_candidates, which draws one pair per generator call.  The beta
engine's set-up passes run over every member set of a chunk at once; the
per-set forms they replace, one member set a call, are kept here as their
reference: member_frame, subsample, min_width_strip (with convex_hull_2d),
pair_candidates, pair_lines and witness.
"""

import math
from typing import Callable

import numpy as np

from heistsp.core import (HeisPoint, dilate_arr, farthest_point_order, frame, group_inv,
                          left_translate_arr, norm_arr, point_of)
from heistsp.lines import (HorizontalLine, horizontal_line, line_dists_arr, line_through_two,
                           transform_line)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f: Callable[[float], float], a: float, b: float,
               iters: int) -> tuple[float, float]:
    """Golden-section search of a unimodal f on [a, b]: (t, f(t)) of the better final probe."""
    c1 = b - _INV_GOLDEN * (b - a)
    c2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _INV_GOLDEN * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _INV_GOLDEN * (b - a)
            f2 = f(c2)
    return (c1, f1) if f1 <= f2 else (c2, f2)


def point_canon_coords(p: HeisPoint, line: HorizontalLine) -> tuple[float, float, float]:
    """(x~, y~, z~): p in the frame where the line is {(t, 0, 0)}-like.

    x~ is the foot parameter axis, y~ the signed plane offset from the
    projected line, z~ the z mismatch against the line's profile at t = 0.
    """
    c, s = math.cos(line.theta), math.sin(line.theta)
    px = c * p.x + s * p.y
    py = -s * p.x + c * p.y
    return px, py - line.offset, p.z + 2.0 * line.offset * px - line.height


def quartic(t, xt, yt, zt):
    """f(t) = ((t-x~)^2+y~^2)^2 + (z~-2ty~)^2: the fourth power of the distance
    from the point to the line point at parameter t."""
    u = t - xt
    return (u * u + yt * yt) ** 2 + (zt - 2.0 * t * yt) ** 2


def pair_candidates(canon: np.ndarray, pair_starts: int) -> list[tuple[int, int]]:
    """beta's candidate point pairs: every pair of at most 8 points, else the
    pairs of extreme points and then random pairs i != j, one draw each from
    one generator of a fixed seed."""
    n = canon.shape[0]
    if n <= 8:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    ext = sorted({*canon.argmin(axis=0).tolist(), *canon.argmax(axis=0).tolist(),
                  int(np.argmax(norm_arr(canon)))})
    pairs = [(a, b) for k, a in enumerate(ext) for b in ext[k + 1:]]
    if len(pairs) < pair_starts:
        rng = np.random.default_rng([0, 9463])
        while len(pairs) < pair_starts:
            i, j = rng.integers(0, n, 2)
            if i != j:
                pairs.append((min(int(i), int(j)), max(int(i), int(j))))
    return pairs[:pair_starts]


def member_frame(members: np.ndarray) -> tuple[HeisPoint, float, np.ndarray]:
    """The members' frame and the members in it: the origin is their
    coordinate mean, taken about the first member, the unit their largest
    gauge distance from it; the members are left unscaled when it is 0."""
    origin = point_of(members[0] + (members - members[0]).mean(axis=0))
    rel = left_translate_arr(group_inv(origin), members)
    unit = float(norm_arr(rel).max())
    return origin, unit, dilate_arr(1.0 / unit, rel) if unit > 0.0 else rel


def subsample(canon: np.ndarray, max_members: int) -> np.ndarray:
    """The optimisation subsample: the rows of a farthest-point traversal of
    max_members picks, in row order, when there are more rows than that."""
    if canon.shape[0] <= max_members:
        return canon
    return canon[sorted(farthest_point_order(canon, max_members)[0])]


def convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    """Andrew monotone chain over the distinct rounded points, one set a call."""
    pts = pts.round(decimals=15)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    p = pts[keep]
    if p.shape[0] <= 2:
        return p

    def half(seq):
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
    return np.array(half(seq)[:-1] + half(seq[::-1])[:-1])


def min_width_strip(pts: np.ndarray, hull=convex_hull_2d) -> tuple[float, float, float]:
    """(width, theta, offset) of the minimal strip of a planar set, scoring
    one hull edge after another in blocks under BATCH_PAIRS entries."""
    from heistsp.beta import BATCH_PAIRS
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 1:
        return 0.0, 0.0, float(pts[0, 1])
    h = hull(pts)
    if h.shape[0] <= 2:
        d = h[-1] - h[0]
        theta = math.atan2(d[1], d[0]) if np.any(d != 0.0) else 0.0
        s = frame(math.cos(theta), math.sin(theta), pts[:, 0], pts[:, 1])[1]
        return 0.0, theta, 0.5 * float(s.max() + s.min())
    m = h.shape[0]
    d = np.roll(h, -1, axis=0) - h
    lns = np.array([math.hypot(dx, dy) for dx, dy in d.tolist()])
    width, edge, offset = math.inf, -1, 0.0
    step = max(1, BATCH_PAIRS // m)
    for start in range(0, m, step):
        dd, ln = d[start:start + step], lns[start:start + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (-dd[:, 1:] * h[:, 0] + dd[:, :1] * h[:, 1]) / ln[:, None]
            s_max, s_min = s.max(axis=1), s.min(axis=1)
            widths = s_max - s_min
        widths[(ln == 0.0) | np.isnan(widths)] = math.inf
        k = int(np.argmin(widths))
        if widths[k] < width:
            width, edge, offset = float(widths[k]), start + k, 0.5 * float(s_max[k] + s_min[k])
    if edge < 0:
        return math.inf, 0.0, 0.0
    return width, math.atan2(d[edge, 1], d[edge, 0]), offset


def pair_lines(sub: np.ndarray, pairs: list[tuple[int, int]]) -> list[HorizontalLine]:
    """line_through_two(sub[i], sub[j]) for each pair whose projections are
    not np.isclose."""
    pts = sub.tolist()
    return [line_through_two(HeisPoint(*pts[i]), HeisPoint(*pts[j])) for i, j in pairs
            if not np.isclose(sub[i, :2], sub[j, :2]).all()]


def witness(members: np.ndarray, origin: HeisPoint, unit: float,
            params: tuple[float, float, float]) -> tuple[float, HorizontalLine, HeisPoint]:
    """The line params of the members' frame in the input's coordinates, the
    members' largest distance to it and the first member at that distance."""
    line = transform_line(horizontal_line(*params), g=origin, lam=unit)
    d = line_dists_arr(members, line)
    k = int(np.argmax(d))
    return float(d[k]), line, point_of(members[k])
