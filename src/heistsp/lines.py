"""Horizontal lines, foot-point projections, and line-relative areas.

A horizontal line is a left translate of a dilation orbit of a horizontal
element.  We store the canonical triple (theta, offset, height): after
rotating the plane by -theta the line is exactly

    { (t, offset, height - 2*offset*t) : t in R }

so theta in [0, pi) is the direction of the projected line, offset is its
signed distance from the origin, and height is the z value over the foot
of the origin.  The map t -> point(t) is an isometry of R onto the line.

Sign conventions: the trapezoid area follows the path
pi(a) -> pi(b) -> pi(b_L) -> pi(a_L) with the usual counterclockwise
shoelace sign, so the unit square traversed clockwise has area -1.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import HeisPoint, koranyi_norm, rotate_z, sigma


class HorizontalLine(NamedTuple):
    theta: float
    offset: float
    height: float


class LineFoot(NamedTuple):
    co_foot: HeisPoint    # co-horizontal with p, perpendicular drop in the plane
    line_point: HeisPoint  # the point of L vertically aligned with co_foot
    param: float           # coordinate of line_point under the isometry L ~ R


def horizontal_line(theta: float, offset: float, height: float) -> HorizontalLine:
    """Canonicalize: reduce theta mod pi, negating offset per half turn."""
    k = math.floor(theta / math.pi)
    t = theta - k * math.pi
    if t < 0.0:  # theta / pi underflowed to -0.0 for a tiny negative theta
        t += math.pi
        k -= 1
    if t >= math.pi:  # guard against rounding at the boundary
        t -= math.pi
        k += 1
    off = -offset if (k % 2) else offset
    return HorizontalLine(t, off, height)


def line_from_point_direction(g: HeisPoint, theta: float) -> HorizontalLine:
    """The horizontal line through g with projected direction theta."""
    line = horizontal_line(theta, 0.0, 0.0)
    c, s = math.cos(line.theta), math.sin(line.theta)
    gx = c * g.x + s * g.y      # rotate by -theta
    gy = -s * g.x + c * g.y
    return HorizontalLine(line.theta, gy, g.z + 2.0 * gx * gy)


def line_point_at(line: HorizontalLine, t: float) -> HeisPoint:
    """Point of the line at parameter t; |s - t| is the Koranyi distance."""
    return rotate_z(line.theta, HeisPoint(t, line.offset, line.height - 2.0 * line.offset * t))


def line_through_two(a: HeisPoint, b: HeisPoint) -> HorizontalLine:
    """Horizontal line through a whose projection passes through pi(b).

    Contains b as well only when a, b are co-horizontal; degenerate when the
    projections coincide (direction defaults to theta = 0).
    """
    theta = math.atan2(b.y - a.y, b.x - a.x)
    return line_from_point_direction(a, theta)


def canon_coords(p: HeisPoint, line: HorizontalLine) -> tuple[float, float, float]:
    """(x~, y~, z~): p in the frame where the line is {(t, 0, 0)}-like.

    x~ is the foot parameter axis, y~ the signed plane offset from the
    projected line, z~ the z mismatch against the line's profile at t = 0.
    """
    c, s = math.cos(line.theta), math.sin(line.theta)
    px = c * p.x + s * p.y
    py = -s * p.x + c * p.y
    return px, py - line.offset, p.z + 2.0 * line.offset * px - line.height


def foot(p: HeisPoint, line: HorizontalLine) -> LineFoot:
    """Co-horizontal foot of p over pi(L) and the line point below/above it."""
    c, s = math.cos(line.theta), math.sin(line.theta)
    px = c * p.x + s * p.y
    py = -s * p.x + c * p.y
    w = p.z + 2.0 * px * (line.offset - py)
    co = rotate_z(line.theta, HeisPoint(px, line.offset, w))
    on = rotate_z(line.theta, HeisPoint(px, line.offset, line.height - 2.0 * line.offset * px))
    return LineFoot(co, on, px)


def foot_params_arr(arr: np.ndarray, line: HorizontalLine) -> np.ndarray:
    """Foot parameters of every row of arr along the line."""
    c, s = math.cos(line.theta), math.sin(line.theta)
    return c * arr[:, 0] + s * arr[:, 1]


def _cubic_shift(yt: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Real root u of u^3 + 3 y~^2 u + q, where q = y~ (2 x~ y~ - z~).

    f'(t)/4 = u^3 + 3 y~^2 u + q with u = t - x~ for the quartic profile
    f(t) = ((t-x~)^2+y~^2)^2 + (z~-2ty~)^2: a depressed cubic with
    nonnegative linear coefficient, hence a single real root (hyperbolic
    Cardano form).  Where that form overflows the root is taken as -cbrt(q);
    where y~ = 0, u = 0.
    """
    ay = np.abs(yt)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = q / (2.0 * ay ** 3)
        u = -2.0 * ay * np.sinh(np.arcsinh(ratio) / 3.0)
    u = np.where(np.isfinite(u), u, -np.cbrt(q))
    return np.where(ay > 0.0, u, 0.0)


def _canon_arr(arr: np.ndarray, c, s, offset, height) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """canon_coords of every row, given cos and sin of the line direction."""
    px = c * arr[..., 0] + s * arr[..., 1]
    py = -s * arr[..., 0] + c * arr[..., 1]
    return px, py - offset, arr[..., 2] + 2.0 * offset * px - height


def _quartic(t, xt, yt, zt):
    """f(t) = ((t-x~)^2+y~^2)^2 + (z~-2ty~)^2: the fourth power of the distance
    from the point to the line point at parameter t."""
    u = t - xt
    return (u * u + yt * yt) ** 2 + (zt - 2.0 * t * yt) ** 2


def quartic_dists(xt: np.ndarray, yt: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Koranyi distance to the line from canonical coordinates: f at its
    minimizer, the cubic root (broadcasts over matching shapes)."""
    drop = 2.0 * xt * yt - zt          # minus the z mismatch at the vertical drop t = x~
    f = _quartic(xt + _cubic_shift(yt, yt * drop), xt, yt, zt)
    # insurance candidate at the vertical drop t = x~ (free; same min in exact math)
    f_alt = (yt * yt) ** 2 + drop ** 2
    return np.minimum(f, f_alt) ** 0.25


def line_dists_arr(arr: np.ndarray, line: HorizontalLine) -> np.ndarray:
    """Koranyi distance of every row to the line."""
    return quartic_dists(*_canon_arr(arr, math.cos(line.theta), math.sin(line.theta),
                                     line.offset, line.height))


def directions(thetas) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each theta, shaped thetas.shape + (1,), taken with math.cos
    and math.sin as line_dists_arr takes them, so broadcasts match it bit for bit."""
    ts = np.asarray(thetas, dtype=float)
    flat = ts.ravel().tolist()
    shape = ts.shape + (1,)
    return (np.fromiter(map(math.cos, flat), float, len(flat)).reshape(shape),
            np.fromiter(map(math.sin, flat), float, len(flat)).reshape(shape))


def line_dists_many(arr: np.ndarray, params) -> np.ndarray:
    """Koranyi distance of every member to each line in one broadcast.

    params holds one (theta, offset, height) per line, shaped (..., 3) (a flat
    sequence of lines is (L, 3)).  arr is one (m, 3) member array shared by
    all lines, or one member array per line, broadcast against params.shape[:-1]
    + (m, 3).  The result is params.shape[:-1] + (m,), and the row of a line
    equals line_dists_arr(its members, HorizontalLine(*line)) bit for bit.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim == 1:      # one line, or no lines
        params = params.reshape(-1, 3)
    c, s = directions(params[..., 0])
    return quartic_dists(*_canon_arr(arr, c, s, params[..., 1:2], params[..., 2:3]))


def line_dist(p: HeisPoint, line: HorizontalLine) -> float:
    """Koranyi distance of p to the line."""
    return float(line_dists_arr(np.array([[p.x, p.y, p.z]]), line)[0])


def canon_coords_rowwise(pts: np.ndarray, thetas: np.ndarray, offsets: np.ndarray,
                         heights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """canon_coords for row i of pts against line i; all inputs length n."""
    return _canon_arr(pts, np.cos(thetas), np.sin(thetas), offsets, heights)


def line_dists_rowwise(pts: np.ndarray, thetas: np.ndarray, offsets: np.ndarray,
                       heights: np.ndarray) -> np.ndarray:
    """Distance of point i to line i (vectorized over matched rows)."""
    return quartic_dists(*canon_coords_rowwise(pts, thetas, offsets, heights))


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


def line_dist_bracket(p: HeisPoint, line: HorizontalLine, iters: int = 120) -> float:
    """Golden-section fallback on t in [-T, T], T = 4(N(p~)+1).

    Independent of the cubic root solve; serves as the 1D oracle in tests.
    """
    xt, yt, zt = canon_coords(p, line)
    hi = 4.0 * (koranyi_norm(HeisPoint(xt, yt, zt)) + 1.0)
    return golden_min(lambda t: _quartic(t, xt, yt, zt), -hi, hi, iters)[1] ** 0.25


def line_dists_bracket_rowwise(pts: np.ndarray, thetas: np.ndarray, offsets: np.ndarray,
                               heights: np.ndarray, iters: int = 100) -> np.ndarray:
    """Golden-section distances for matched rows; oracle for the cubic solve.

    The vectorised bulk form of golden_min: every row narrows its own
    bracket in lockstep.
    """
    xt, yt, zt = canon_coords_rowwise(pts, thetas, offsets, heights)
    r2 = xt * xt + yt * yt
    n4 = (r2 * r2 + zt * zt) ** 0.25
    hi = 4.0 * (n4 + 1.0)
    a, b = -hi, hi

    def f(t: np.ndarray) -> np.ndarray:
        return _quartic(t, xt, yt, zt)

    c1 = b - _INV_GOLDEN * (b - a)
    c2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        left = f1 <= f2
        b = np.where(left, c2, b)
        a = np.where(left, a, c1)
        c1 = b - _INV_GOLDEN * (b - a)
        c2 = a + _INV_GOLDEN * (b - a)
        f1, f2 = f(c1), f(c2)
    return np.minimum(f1, f2) ** 0.25


def trapezoid_area(a: HeisPoint, b: HeisPoint, line: HorizontalLine) -> float:
    """Signed shoelace area of pi(a) -> pi(b) -> pi(b_L) -> pi(a_L)."""
    fa = foot(a, line)
    fb = foot(b, line)
    pts = ((a.x, a.y), (b.x, b.y), (fb.co_foot.x, fb.co_foot.y), (fa.co_foot.x, fa.co_foot.y))
    acc = 0.0
    for i in range(4):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % 4]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def sigma_l(a: HeisPoint, b: HeisPoint, line: HorizontalLine) -> float:
    """Line-relative signed area: sigma(a, b) plus the foot trapezoid.

    Additive in the middle point and ties the feet displacement to the
    area: nh((a_L)^-1 b_L) = 2 sqrt(|sigma_l|).
    """
    return sigma(a, b) + trapezoid_area(a, b, line)


def transform_line(line: HorizontalLine, g: HeisPoint | None = None,
                   lam: float = 1.0) -> HorizontalLine:
    """Image of the line under p -> g * dilate(lam, p); again a horizontal line."""
    from .core import dilate, group_mul

    q0 = line_point_at(line, 0.0)
    q1 = line_point_at(line, 1.0)
    if lam != 1.0:
        q0 = dilate(lam, q0)
        q1 = dilate(lam, q1)
    if g is not None:
        q0 = group_mul(g, q0)
        q1 = group_mul(g, q1)
    theta = math.atan2(q1.y - q0.y, q1.x - q0.x)
    return line_from_point_direction(q0, theta)


def lines_close(l1: HorizontalLine, l2: HorizontalLine, tol: float = 1e-12) -> bool:
    """Compare canonical fields, handling the theta wrap at pi."""
    dt = abs(l1.theta - l2.theta)
    if dt < tol:
        return abs(l1.offset - l2.offset) <= tol and abs(l1.height - l2.height) <= tol
    if abs(dt - math.pi) < tol:  # same direction mod pi, flipped frame
        return abs(l1.offset + l2.offset) <= tol and abs(l1.height - l2.height) <= tol
    return False
