"""The sequential, one-point forms that the library's lockstep kernels replay.

The tests compare the array kernels of heistsp.lines against these scalar
references bit for bit (golden_min, the quartic profile) or to a tolerance
(line distances by golden section).
"""

import math
from typing import Callable

from heistsp.core import HeisPoint
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
