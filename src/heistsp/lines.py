"""Horizontal lines, foot-point projections, and line-relative areas.

A horizontal line is a left translate of a dilation orbit of a horizontal
element.  We store the canonical triple (theta, offset, height): after
rotating the plane by -theta the line is exactly

    { (t, offset, height - 2*offset*t) : t in R }

so theta in [0, pi) is the direction of the projected line, offset is its
signed distance from the origin, and height is the z value over the foot
of the origin.  The map t -> point(t) is an isometry of R onto the line.

Every rotation into a line's frame is core.frame: line_from_point_direction,
foot, foot_params_arr and canon_coords call it.  Distances to lines have one
kernel: canon_coords moves points into a line's frame, given the cosine and
sine of its direction, and quartic_dists takes the distance there by a
closed-form cubic root, and on request the minimising foot t (from which
the beta engine's height search takes each d^4's derivative in the height)
or the derivatives of the polish.  Callers with many lines (the beta
engine, the lemma checks) pair the two themselves; line_dists_arr and
line_dist are the one-line forms.  The line-relative area has one kernel
too: line_area takes the shoelace of the foot trapezoid from the same
canonical coordinates, for trapezoid_area and sigma_l and for the lemma
checks' rows.  foot takes its line point from line_point_at.

Sign conventions: the trapezoid area follows the path
pi(a) -> pi(b) -> pi(b_L) -> pi(a_L) with the usual counterclockwise
shoelace sign, so the unit square traversed clockwise has area -1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import HeisPoint, dilate, frame, group_mul, rotate_z, sigma


class HorizontalLine(NamedTuple):
    theta: float
    offset: float
    height: float


class LineFoot(NamedTuple):
    co_foot: HeisPoint    # co-horizontal with p, perpendicular drop in the plane
    line_point: HeisPoint  # the point of L vertically aligned with co_foot
    param: float           # coordinate of line_point under the isometry L ~ R


def theta_mod_pi(theta: float) -> tuple[float, int]:
    """(t, k): theta = t + k * pi up to rounding, with t in [0, pi)."""
    k = math.floor(theta / math.pi)
    t = theta - k * math.pi
    if t < 0.0:  # theta / pi underflowed to -0.0 for a tiny negative theta
        t += math.pi
        k -= 1
    if t >= math.pi:  # guard against rounding at the boundary
        t -= math.pi
        k += 1
    return t, k


def horizontal_line(theta: float, offset: float, height: float) -> HorizontalLine:
    """Canonicalize: reduce theta mod pi, negating offset per half turn."""
    t, k = theta_mod_pi(theta)
    off = -offset if (k % 2) else offset
    return HorizontalLine(t, off, height)


def line_from_point_direction(g: HeisPoint, theta: float) -> HorizontalLine:
    """The horizontal line through g with projected direction theta."""
    t = theta_mod_pi(theta)[0]
    gx, gy = frame(math.cos(t), math.sin(t), g.x, g.y)
    return HorizontalLine(t, gy, g.z + 2.0 * gx * gy)


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


def foot(p: HeisPoint, line: HorizontalLine) -> LineFoot:
    """Co-horizontal foot of p over pi(L) and the line point below/above it."""
    px, py = frame(math.cos(line.theta), math.sin(line.theta), p.x, p.y)
    w = p.z + 2.0 * px * (line.offset - py)
    co = rotate_z(line.theta, HeisPoint(px, line.offset, w))
    return LineFoot(co, line_point_at(line, px), px)


def foot_params_arr(arr: np.ndarray, line: HorizontalLine) -> np.ndarray:
    """Foot parameters of every row of arr along the line."""
    return frame(math.cos(line.theta), math.sin(line.theta), arr[:, 0], arr[:, 1])[0]


def canon_coords(arr: np.ndarray, c, s, offset, height) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x~, y~, z~) of every row in the frame where the line is {(t, 0, 0)}-like,
    given cos and sin of its direction: x~ is the foot parameter axis, y~ the
    signed plane offset from the projected line, z~ the z mismatch against
    the line's profile at t = 0.  The line parameters broadcast against the
    rows: one line's scalars, or one line per row (temporaries updated in place)."""
    px, py = frame(c, s, arr[..., 0], arr[..., 1])
    py -= offset
    pz = 2.0 * offset * px      # z + 2 offset x - height, in that order
    pz += arr[..., 2]
    pz -= height
    return px, py, pz


def quartic_dists(xt: np.ndarray, yt: np.ndarray, zt: np.ndarray, grad: bool = False,
                  foot: bool = False):
    """Koranyi distance to the line from canonical coordinates, broadcast
    over the three arrays; with grad, also the gradient and Hessian of its
    fourth power in (x~, y~, z~), else with foot the minimising t.

    The fourth power of the distance from the point to the line point at
    parameter t is f(t) = ((t-x~)^2+y~^2)^2 + (z~-2ty~)^2, and f'(t)/4 =
    u^3 + 3 y~^2 u + q with u = t - x~ and q = y~ (2 x~ y~ - z~): a depressed
    cubic with nonnegative linear coefficient, hence a single real root
    (hyperbolic Cardano form).  Where that form overflows the root is taken
    as -cbrt(q); where y~ = 0, u = 0.  f at the vertical drop t = x~ is an
    insurance candidate (the same min in exact math), and the distance is
    the square root of the square root of the lesser.  At the winning t, by
    the envelope theorem, the gradient is f's with t held fixed: -4 u A,
    4 (y~ A - t B) and 2 B, for A = u^2 + y~^2 and B = z~ - 2 t y~; and the
    Hessian f_qq - f_qt f_tq / f_tt over q = (x~, y~, z~), in the order xx,
    xy, xz, yy, yz, zz (f_tt = 12 A; the quotient 0 where A < 1e-100).  The temporaries are
    updated in place.
    """
    if not np.shape(xt) == np.shape(yt) == np.shape(zt):    # engine calls share one shape
        xt, yt, zt = np.broadcast_arrays(xt, yt, zt)
    drop = 2.0 * xt         # minus the z mismatch at the vertical drop t = x~
    drop *= yt
    drop -= zt
    q = yt * drop
    # u = -2 |y~| sinh(arcsinh(q / (2 |y~|^3)) / 3)
    ay = np.abs(yt)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = ay * ay
        u *= ay
        u *= 2.0
        np.divide(q, u, out=u)
        np.arcsinh(u, out=u)
        u /= 3.0
        np.sinh(u, out=u)
        ay *= -2.0          # negative exactly where |y~| > 0
        u *= ay
    nonzero = ay < 0.0
    bad = ~np.isfinite(u)
    bad &= nonzero          # the y~ = 0 rows are not finite but take u = 0 below
    if bad.any():
        u[bad] = -np.cbrt(q[bad])
    np.copyto(u, 0.0, where=~nonzero)
    del bad, nonzero        # freed before f and its terms
    u += xt                 # t, the minimizer
    t = u.copy() if grad or foot else None
    f = u - xt
    f *= f
    yy = yt * yt
    f += yy
    f *= f
    u *= 2.0
    u *= yt
    np.subtract(zt, u, out=u)
    u *= u
    f += u
    yy *= yy                # f at t = x~
    drop *= drop
    yy += drop
    if t is not None:
        np.copyto(t, xt, where=yy < f)     # the vertical drop wins
    np.minimum(f, yy, out=f)
    np.sqrt(np.sqrt(f, out=f), out=f)
    if not grad:
        return f if t is None else (f, t)
    u = t - xt
    a, b = u * u + yt * yt, zt - 2.0 * t * yt
    # f_xx (= -f_tx), f_yy, f_ty and f_tz; f_xy = -8 u y~, f_yz = -4 t, f_zz = 2
    fxx, fyy = 8.0 * u * u + 4.0 * a, 8.0 * (yt * yt + t * t) + 4.0 * a
    fty, ftz = 8.0 * yt * (u + t) - 4.0 * b, -4.0 * yt
    r = np.divide(1.0, 12.0 * a, out=np.zeros_like(a), where=a > 1e-100)
    return f, (-4.0 * u * a, 4.0 * (yt * a - t * b), 2.0 * b), \
        (fxx - fxx * fxx * r, fxx * fty * r - 8.0 * u * yt, fxx * ftz * r,
         fyy - fty * fty * r, -4.0 * t - fty * ftz * r, 2.0 - ftz * ftz * r)


def line_dists_arr(arr: np.ndarray, line: HorizontalLine) -> np.ndarray:
    """Koranyi distance of every row to the line."""
    c, s = np.cos(line.theta), np.sin(line.theta)
    return quartic_dists(*canon_coords(arr, c, s, line.offset, line.height))


def line_dist(p: HeisPoint, line: HorizontalLine) -> float:
    """Koranyi distance of p to the line."""
    return float(line_dists_arr(np.array([[p.x, p.y, p.z]]), line)[0])


def line_area(xa, ya, xb, yb, offset):
    """Signed shoelace area of pi(a) -> pi(b) -> pi(b_L) -> pi(a_L), given
    the canonical coordinates (x~, y~) of a and b (canon_coords) and the
    line's offset; on floats or broadcast over arrays.  The rotation into
    the line's frame keeps signed areas, and there pi(a) is (x~, y~ +
    offset) and its foot pi(a_L) is (x~, offset)."""
    # the four-term shoelace, not its closed form (x~a - x~b)(y~a + y~b) / 2:
    # the two round differently, and the line-area-bound check records the bits
    y0, y1 = ya + offset, yb + offset
    return 0.5 * ((xa * y1 - xb * y0) + (xb * offset - xb * y1)
                  + (xb * offset - xa * offset) + (xa * y0 - xa * offset))


def trapezoid_area(a: HeisPoint, b: HeisPoint, line: HorizontalLine) -> float:
    """Signed shoelace area of pi(a) -> pi(b) -> pi(b_L) -> pi(a_L)."""
    c, s = math.cos(line.theta), math.sin(line.theta)
    (xa, xb), (ya, yb), _ = canon_coords(np.array([a, b]), c, s, line.offset, line.height)
    return float(line_area(xa, ya, xb, yb, line.offset))


def sigma_l(a: HeisPoint, b: HeisPoint, line: HorizontalLine) -> float:
    """Line-relative signed area: sigma(a, b) plus the foot trapezoid.

    Additive in the middle point and ties the feet displacement to the
    area: nh((a_L)^-1 b_L) = 2 sqrt(|sigma_l|).
    """
    return sigma(a, b) + trapezoid_area(a, b, line)


def transform_line(line: HorizontalLine, g: HeisPoint, lam: float) -> HorizontalLine:
    """Image of the line under p -> g * dilate(lam, p); again a horizontal line."""
    q0 = group_mul(g, dilate(lam, line_point_at(line, 0.0)))
    q1 = group_mul(g, dilate(lam, line_point_at(line, 1.0)))
    theta = math.atan2(q1.y - q0.y, q1.x - q0.x)
    return line_from_point_direction(q0, theta)
