"""The sequential, one-point forms that the library's lockstep kernels replay.

The tests compare the array kernels of heistsp.lines against these scalar
references bit for bit (golden_min, the quartic profile) or to a tolerance
(line distances by golden section), and beta's pair candidates against
pair_candidates, which draws one pair per generator call.
"""

import math
from typing import Callable

import numpy as np

from heistsp.core import HeisPoint, norm_arr
from heistsp.lines import HorizontalLine

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
