"""Heisenberg group arithmetic with the Koranyi gauge.

Points are triples (x, y, z).  The group law twists the z coordinate by
twice the cross product of the horizontal parts; the Koranyi norm
N(x, y, z) = ((x^2 + y^2)^2 + z^2)^(1/4) induces a left-invariant metric
d(g, h) = N(g^-1 h) which scales linearly under the anisotropic dilations
(x, y, z) -> (l*x, l*y, l^2*z) and is invariant under rotations about the
z axis.

All operations here are pure; values are immutable after construction.
Array helpers operate on float64 arrays of shape (n, 3) and repeat the
scalar functions' arithmetic operation for operation; dist_arr is the one
array form of the distance.  numpy's vectorised power may round a fourth
root one ulp away from the scalar one.
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


def group_mul(a: HeisPoint, b: HeisPoint) -> HeisPoint:
    """Group product (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+2(xy'-x'y))."""
    return HeisPoint(a.x + b.x, a.y + b.y, a.z + b.z + 2.0 * (a.x * b.y - b.x * a.y))


def group_inv(a: HeisPoint) -> HeisPoint:
    """Group inverse; coordinate-wise negation since the cross term cancels."""
    return HeisPoint(-a.x, -a.y, -a.z)


def koranyi_norm(a: HeisPoint) -> float:
    """N(x,y,z) = ((x^2+y^2)^2 + z^2)^(1/4)."""
    r2 = a.x * a.x + a.y * a.y
    return (r2 * r2 + a.z * a.z) ** 0.25


def dist(a: HeisPoint, b: HeisPoint) -> float:
    """Left-invariant Koranyi distance d(a,b) = N(a^-1 b)."""
    dx = b.x - a.x
    dy = b.y - a.y
    dz = b.z - a.z - 2.0 * (a.x * b.y - b.x * a.y)
    r2 = dx * dx + dy * dy
    return (r2 * r2 + dz * dz) ** 0.25


def dilate(lam: float, a: HeisPoint) -> HeisPoint:
    """Anisotropic dilation (x,y,z) -> (l*x, l*y, l^2*z), l > 0."""
    if not lam > 0.0:
        raise ValueError("dilation factor must be positive, got %r" % (lam,))
    return HeisPoint(lam * a.x, lam * a.y, lam * lam * a.z)


def rotate_z(theta: float, a: HeisPoint) -> HeisPoint:
    """Rotate the horizontal part by theta radians; z is unchanged."""
    c, s = math.cos(theta), math.sin(theta)
    return HeisPoint(c * a.x - s * a.y, s * a.x + c * a.y, a.z)


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
    dz = b.z - a.z - 2.0 * (a.x * b.y - b.x * a.y)
    return 0.25 * dz


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
    x, y, z = arr[:, 0], arr[:, 1], arr[:, 2]
    r2 = x * x + y * y
    return (r2 * r2 + z * z) ** 0.25


def left_translate_arr(g: HeisPoint, arr: np.ndarray) -> np.ndarray:
    """g * p for every row p."""
    x, y, z = arr[:, 0], arr[:, 1], arr[:, 2]
    out = np.empty_like(arr)
    out[:, 0] = g.x + x
    out[:, 1] = g.y + y
    out[:, 2] = g.z + z + 2.0 * (g.x * y - x * g.y)
    return out


def dilate_arr(lam: float, arr: np.ndarray) -> np.ndarray:
    if not lam > 0.0:
        raise ValueError("dilation factor must be positive, got %r" % (lam,))
    out = arr * lam
    out[:, 2] *= lam
    return out


def rotate_arr(theta: float, arr: np.ndarray) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    out = np.empty_like(arr)
    out[:, 0] = c * arr[:, 0] - s * arr[:, 1]
    out[:, 1] = s * arr[:, 0] + c * arr[:, 1]
    out[:, 2] = arr[:, 2]
    return out


def dist_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d(a, b) over rows (..., 3) of a and b broadcast against each other."""
    dx = b[..., 0] - a[..., 0]
    dy = b[..., 1] - a[..., 1]
    dz = b[..., 2] - a[..., 2] - 2.0 * (a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1])
    r2 = dx * dx + dy * dy
    return (r2 * r2 + dz * dz) ** 0.25


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


def farthest_point_order(arr: np.ndarray, m: int | None = None) -> tuple[list[int], list[float]]:
    """Farthest-point traversal seeded at row 0, stopped after m picks (all rows
    by default): the picked rows and their insertion radii, the first being
    infinite.  Ties go to the smallest index.
    """
    n = arr.shape[0] if m is None else min(m, arr.shape[0])
    order = [0]
    radii = [math.inf]
    d = dist_arr(arr[0], arr)
    for _ in range(n - 1):
        i = int(np.argmax(d))
        order.append(i)
        radii.append(float(d[i]))
        d = np.minimum(d, dist_arr(arr[i], arr))
    return order, radii


def sample_box(rng: np.random.Generator, n: int, s: float = 2.0) -> np.ndarray:
    """n points uniform in the anisotropic box [-s,s]^2 x [-s^2,s^2]."""
    out = np.empty((n, 3))
    out[:, 0] = rng.uniform(-s, s, n)
    out[:, 1] = rng.uniform(-s, s, n)
    out[:, 2] = rng.uniform(-s * s, s * s, n)
    return out
