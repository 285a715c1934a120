"""Heisenberg group arithmetic with the Koranyi gauge.

Points are triples (x, y, z).  The group law twists the z coordinate by
twice the cross product of the horizontal parts; the Koranyi norm
N(x, y, z) = ((x^2 + y^2)^2 + z^2)^(1/4) induces a left-invariant metric
d(g, h) = N(g^-1 h) which scales linearly under the anisotropic dilations
(x, y, z) -> (l*x, l*y, l^2*z) and is invariant under rotations about the
z axis.

All operations here are pure; values are immutable after construction.
Each coordinate formula has one kernel, on Python floats or broadcast over
numpy arrays alike: gauge is the norm (koranyi_norm, dist, norm_arr,
dist_arr and the traversal's leaf bounds take its fourth root), product the
group law (group_mul, left_translate_arr), relative the coordinates of
a^-1 b (dist, dist_arr, sigma and the callers outside core), and frame the
rotation into a line's frame (rotate_z and rotate_arr rotate out of it by
frame(c, -s, ...)).  Array helpers operate on float64 arrays of shape
(n, 3); dist_arr is the one array form of the distance.  numpy's vectorised
power may round a fourth root one ulp away from the scalar one.  dilate and
dilate_arr stay two functions: they round z as (l*l)*z and (z*l)*l.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np


class HeisPoint(NamedTuple):
    x: float
    y: float
    z: float


ORIGIN = HeisPoint(0.0, 0.0, 0.0)


def heis_point(x: float, y: float, z: float) -> HeisPoint:
    """Validating constructor; coordinates must be finite."""
    p = HeisPoint(float(x), float(y), float(z))
    if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.z)):
        raise ValueError("non-finite coordinates: %r" % (p,))
    return p


def product(ax, ay, az, bx, by, bz):
    """Coordinates of the group product (ax,ay,az)*(bx,by,bz) =
    (ax+bx, ay+by, az+bz+2(ax by - bx ay)), on floats or broadcast over arrays."""
    return ax + bx, ay + by, az + bz + 2.0 * (ax * by - bx * ay)


def relative(ax, ay, az, bx, by, bz):
    """Coordinates of a^-1 b, on floats or broadcast over arrays."""
    return bx - ax, by - ay, bz - az - 2.0 * (ax * by - bx * ay)


def frame(c, s, x, y):
    """(x, y) rotated by -theta, given c = cos(theta) and s = sin(theta):
    the coordinates in the frame of a line of direction theta.  frame(c, -s,
    x, y) rotates by +theta.  On floats or broadcast over arrays, updating
    its own temporaries in place: c y - s x rounds as -s x + c y does."""
    px, py = c * x, c * y
    px += s * y
    py -= s * x
    return px, py


def group_mul(a: HeisPoint, b: HeisPoint) -> HeisPoint:
    """Group product (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+2(xy'-x'y))."""
    return HeisPoint(*product(*a, *b))


def group_inv(a: HeisPoint) -> HeisPoint:
    """Group inverse; coordinate-wise negation since the cross term cancels."""
    return HeisPoint(-a.x, -a.y, -a.z)


def gauge(x, y, z):
    """((x^2+y^2)^2 + z^2)^(1/4), on floats or broadcast over arrays."""
    r2 = x * x + y * y
    return (r2 * r2 + z * z) ** 0.25


def koranyi_norm(a: HeisPoint) -> float:
    """N(x,y,z) = gauge(x, y, z)."""
    return gauge(a.x, a.y, a.z)


def dist(a: HeisPoint, b: HeisPoint) -> float:
    """Left-invariant Koranyi distance d(a,b) = N(a^-1 b)."""
    return gauge(*relative(*a, *b))


def dilate(lam: float, a: HeisPoint) -> HeisPoint:
    """Anisotropic dilation (x,y,z) -> (l*x, l*y, l^2*z), l > 0."""
    if not lam > 0.0:
        raise ValueError("dilation factor must be positive, got %r" % (lam,))
    return HeisPoint(lam * a.x, lam * a.y, lam * lam * a.z)


def rotate_z(theta: float, a: HeisPoint) -> HeisPoint:
    """Rotate the horizontal part by theta radians; z is unchanged."""
    x, y = frame(math.cos(theta), -math.sin(theta), a.x, a.y)
    return HeisPoint(x, y, a.z)


def proj_pi(a: HeisPoint) -> tuple[float, float]:
    """Homomorphic 1-Lipschitz projection onto the horizontal plane."""
    return (a.x, a.y)


def proj_tilde(a: HeisPoint) -> HeisPoint:
    """The horizontal element below a (not a homomorphism)."""
    return HeisPoint(a.x, a.y, 0.0)


def nh(a: HeisPoint) -> float:
    """Non-horizontality N(a^-1 * proj_tilde(a)); equals |z|^(1/2)."""
    return abs(a.z) ** 0.5


def sigma(a: HeisPoint, b: HeisPoint) -> float:
    """Signed area of the loop: projected horizontal path a->b, chord back.

    Normalized so that z(a^-1 b) = 4 * sigma(a, b), which makes
    nh of a^-1 b equal to 2*sqrt(|sigma|) identically.
    """
    return 0.25 * relative(*a, *b)[2]


# ---------------------------------------------------------------------------
# Array helpers.  Shape (n, 3), float64, columns x, y, z.

def as_array(points: Iterable[HeisPoint]) -> np.ndarray:
    arr = np.asarray(list(points), dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    return arr.reshape(-1, 3)


def point_of(row: np.ndarray) -> HeisPoint:
    """One array row as a HeisPoint with plain float fields."""
    return HeisPoint(float(row[0]), float(row[1]), float(row[2]))


def norm_arr(arr: np.ndarray) -> np.ndarray:
    return gauge(arr[:, 0], arr[:, 1], arr[:, 2])


def left_translate_arr(g: HeisPoint, arr: np.ndarray) -> np.ndarray:
    """g * p for every row p."""
    return np.column_stack(product(*g, arr[:, 0], arr[:, 1], arr[:, 2]))


def dilate_arr(lam: float, arr: np.ndarray) -> np.ndarray:
    if not lam > 0.0:
        raise ValueError("dilation factor must be positive, got %r" % (lam,))
    out = arr * lam
    out[:, 2] *= lam
    return out


def rotate_arr(theta: float, arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[:, 0], out[:, 1] = frame(math.cos(theta), -math.sin(theta), arr[:, 0], arr[:, 1])
    return out


def dist_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d(a, b) over rows (..., 3) of a and b broadcast against each other."""
    return gauge(*relative(a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]))


def dist_point_arr(p: HeisPoint, arr: np.ndarray) -> np.ndarray:
    """d(p, row) for every row."""
    return dist_arr(np.array(p), arr)


def within(d: np.ndarray, radius: float) -> np.ndarray:
    """Closed-ball membership of distances d, with a tolerance of 1e-12 * radius."""
    return d <= radius * (1.0 + 1e-12)


def dist_matrix(arr: np.ndarray) -> np.ndarray:
    """Full pairwise distance matrix; O(n^2) memory."""
    return dist_arr(arr[:, None], arr[None, :])


def diameter(arr: np.ndarray) -> float:
    """Max pairwise Koranyi distance (0 for fewer than 2 points)."""
    n = arr.shape[0]
    if n < 2:
        return 0.0
    best = 0.0
    for i in range(n - 1):
        best = max(best, float(dist_arr(arr[i], arr[i + 1:]).max()))
    return best


#: rows per leaf of the block-bounded traversal
LEAF_ROWS = 512
#: the least row count for which farthest_point_order runs the block-bounded
#: traversal.  Below it one in-cache scan per pick costs less than the leaf
#: bookkeeping (timed on a 2-vCPU virtual machine): 48 picks from an
#: 8000-point cloud take 0.004 s by scans and 0.010 s by leaves, from 12000
#: points 0.006 and 0.016 s; from 16384 points 0.014 and 0.012 s, and from
#: 16384 points on a line plus a vertical stack 0.014 and 0.005 s.  Full
#: traversals cross over sooner (12000-point cloud: 1.95 s by scans, 1.23 s
#: by leaves; 8000 points: 0.70 and 0.88 s).
BLOCK_MIN_ROWS = 1 << 14
#: rows per step of the block-bounded traversal's scans and of its Morton
#: keys, which bounds their temporaries at any row count
SCAN_ROWS = 1 << 13


def farthest_point_order(arr: np.ndarray, m: int | None = None,
                         stop: float | None = None) -> tuple[list[int], list[float]]:
    """Farthest-point traversal seeded at row 0: the picked rows and their
    insertion radii, the first being infinite.  Each pick is the row farthest
    from the rows picked so far, ties going to the smallest index, and its
    radius is that distance.  The traversal ends after m picks (all rows by
    default) or before the first pick whose radius is at most stop.  The
    radii never increase, and by the triangle inequality every row lies
    within the current radius of a pick (Gonzalez 1985), so with stop the
    picks are a stop-net.

    From BLOCK_MIN_ROWS rows on, the rows are sorted once by a Morton key
    into leaves of LEAF_ROWS rows, each with a bounding box, and a pick p
    rescans only the leaves it can reach.  This is exact.  A row's distance
    to the picked set changes only when d(p, row) is below it, so a leaf
    whose lower bound on d(p, row) over its box (_leaf_bounds, which allows
    for rounding) exceeds its largest distance to the picked set cannot
    change.  The rows rescanned get the arithmetic of a full scan, so the
    picks, the radii and the ties equal the plain traversal's bit for bit.
    """
    if arr.shape[0] == 0:
        raise ValueError("no farthest-point traversal of an empty set")
    picks = arr.shape[0] if m is None else min(m, arr.shape[0])
    stop = -math.inf if stop is None else stop
    if arr.shape[0] >= BLOCK_MIN_ROWS:
        return _farthest_by_leaves(arr, picks, stop)
    order = [0]
    radii = [math.inf]
    d = dist_arr(arr[0], arr)
    while len(order) < picks:
        i = int(np.argmax(d))
        if d[i] <= stop:
            break
        order.append(i)
        radii.append(float(d[i]))
        d = np.minimum(d, dist_arr(arr[i], arr))
    return order, radii


def _morton_leaves(arr: np.ndarray) -> np.ndarray:
    """Row indices of arr as (leaves, LEAF_ROWS): the rows in the order of a
    Morton key over the bounding box, cut into leaves, each leaf in index
    order.  The last leaf is padded with copies of one of its own rows."""
    n = arr.shape[0]
    lo = np.array([arr[:, c].min() for c in range(3)])
    span = np.array([arr[:, c].max() for c in range(3)]) - lo
    scale = ((1 << 21) - 1) / np.where(span > 0.0, span, np.inf)
    key = np.empty(n, dtype=np.uint64)
    for s in range(0, n, SCAN_ROWS):
        q = ((arr[s:s + SCAN_ROWS] - lo) * scale).astype(np.uint64)
        # spread each coordinate's 21 bits two apart, then interleave them
        for shift, mask in ((32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF),
                            (8, 0x100F00F00F00F00F), (4, 0x10C30C30C30C30C3),
                            (2, 0x1249249249249249)):
            q = (q | (q << np.uint64(shift))) & np.uint64(mask)
        key[s:s + SCAN_ROWS] = q[:, 0] | (q[:, 1] << np.uint64(1)) | (q[:, 2] << np.uint64(2))
    rows = np.argsort(key, kind="stable")
    del key
    leaves = -(-n // LEAF_ROWS)
    rows = np.concatenate([rows, np.full(leaves * LEAF_ROWS - n, rows[-1])])
    rows = rows.reshape(leaves, LEAF_ROWS)
    rows.sort(axis=1)
    return rows


def _leaf_bounds(p: np.ndarray, box: np.ndarray) -> np.ndarray:
    """A lower bound on dist_arr(p, q), as computed, over the rows q of each
    leaf.  box holds one column per leaf: the least x, y, z of its rows, the
    greatest x, y, z, and the greatest |x|, |y|, |z|.

    The bound is the gauge of the xy gap between p and the box and of the
    gap between 0 and the interval of the twisted height z - z_p - 2 (x_p y -
    x y_p) over it: with exact arithmetic d(p, q) is at least that.  The
    xy gaps are rounded as dist_arr rounds dx and dy, and rounding is
    monotone, so they stay at most the computed |dx| and |dy|; the height
    gap is reduced by 8 ulps of the magnitudes that enter the twisted
    height, more than its rounding in dist_arr and here; and the gauge by a
    relative 1e-12, more than the fourth root's rounding.
    """
    x0, y0, z0, x1, y1, z1, ax, ay, az = box
    px, py, pz = (float(v) for v in p)
    gx = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
    gy = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
    y_hi, y_lo = (y1, y0) if px >= 0.0 else (y0, y1)
    x_lo, x_hi = (x0, x1) if py >= 0.0 else (x1, x0)
    t_lo = z0 - pz - 2.0 * (px * y_hi) + 2.0 * (py * x_lo)
    t_hi = z1 - pz - 2.0 * (px * y_lo) + 2.0 * (py * x_hi)
    slack = 8.0 * np.finfo(float).eps * (az + abs(pz) + 2.0 * abs(px) * ay + 2.0 * abs(py) * ax)
    gz = np.maximum(np.maximum(t_lo, -t_hi) - slack, 0.0)
    return gauge(gx, gy, gz) * (1.0 - 1e-12)


def _farthest_by_leaves(arr: np.ndarray, picks: int,
                        stop: float) -> tuple[list[int], list[float]]:
    """farthest_point_order's traversal rescanning only the leaves a pick can reach."""
    rows = _morton_leaves(arr)
    leaves = rows.shape[0]
    step = SCAN_ROWS // LEAF_ROWS              # leaves per scan step
    d = np.empty(rows.shape)
    box = np.empty((9, leaves))                  # as _leaf_bounds takes it
    leaf_max = np.empty(leaves)
    leaf_arg = np.empty(leaves, dtype=np.intp)   # smallest row index at leaf_max

    def store(ls, dd: np.ndarray) -> None:
        """Store the distances dd to the picked set of the leaves ls."""
        d[ls] = dd
        leaf_max[ls] = dd.max(axis=1)
        leaf_arg[ls] = rows[ls][np.arange(dd.shape[0]), dd.argmax(axis=1)]

    for s in range(0, leaves, step):
        ls = slice(s, s + step)
        pts = np.take(arr, rows[ls], axis=0)
        for c in range(3):
            box[c, ls] = pts[..., c].min(axis=1)
            box[3 + c, ls] = pts[..., c].max(axis=1)
        store(ls, dist_arr(arr[0], pts))
    np.maximum(np.abs(box[:3]), np.abs(box[3:6]), out=box[6:])
    order = [0]
    radii = [math.inf]
    while len(order) < picks:
        top = leaf_max.max()
        if top <= stop:
            break
        i = int(leaf_arg[leaf_max == top].min())
        order.append(i)
        radii.append(float(top))
        near = np.flatnonzero(_leaf_bounds(arr[i], box) <= leaf_max)
        for s in range(0, near.size, step):
            ls = near[s:s + step]
            store(ls, np.minimum(d[ls], dist_arr(arr[i], np.take(arr, rows[ls], axis=0))))
    return order, radii


def sample_box(rng: np.random.Generator, n: int, s: float = 2.0) -> np.ndarray:
    """n points uniform in the anisotropic box [-s,s]^2 x [-s^2,s^2]."""
    out = np.empty((n, 3))
    out[:, 0] = rng.uniform(-s, s, n)
    out[:, 1] = rng.uniform(-s, s, n)
    out[:, 2] = rng.uniform(-s * s, s * s, n)
    return out
