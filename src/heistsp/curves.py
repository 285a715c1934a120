"""Polygonal curves: ordered vertex walks with Koranyi edge lengths."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import HeisPoint, dist, group_mul


@dataclass
class PolygonalCurve:
    """An edge path through an ordered vertex list (revisits allowed)."""

    vertices: list[HeisPoint]

    def edge_lengths(self) -> list[float]:
        v = self.vertices
        return [dist(v[i], v[i + 1]) for i in range(len(v) - 1)]

    @property
    def length(self) -> float:
        return math.fsum(self.edge_lengths())


def curve_length(curve: PolygonalCurve) -> float:
    """Sum of Koranyi edge lengths; additive under concatenation."""
    return curve.length


def resample_curve(curve: PolygonalCurve, spacing: float) -> list[HeisPoint]:
    """Points along a horizontal realization of the curve, about `spacing` apart.

    Each edge u -> v is realized as a horizontal path: the straight lift of
    the projected chord, followed (when u^-1 v has a vertical component) by
    the lift of a small plane circle through the endpoint that sweeps
    exactly the missing area.  Horizontal edges reduce to the plain chord.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    verts = curve.vertices
    out: list[HeisPoint] = [verts[0]]
    for a, b in zip(verts, verts[1:]):
        gx, gy = b.x - a.x, b.y - a.y
        gz = b.z - a.z - 2.0 * (a.x * b.y - b.x * a.y)
        chord = math.hypot(gx, gy)
        n1 = max(1, math.ceil(chord / spacing))
        for j in range(1, n1 + 1):
            s = j / n1
            out.append(group_mul(a, HeisPoint(s * gx, s * gy, 0.0)))
        if gz != 0.0:
            v0 = out[-1]
            rho = math.sqrt(abs(gz) / (4.0 * math.pi))
            sgn = 1.0 if gz > 0.0 else -1.0
            n2 = max(4, math.ceil(2.0 * math.pi * rho / spacing))
            for j in range(1, n2 + 1):
                t = 2.0 * math.pi * j / n2
                loop = HeisPoint(rho * (math.cos(t) - 1.0),
                                 sgn * rho * math.sin(t),
                                 sgn * 2.0 * rho * rho * (t - math.sin(t)))
                out.append(group_mul(v0, loop))
            out[-1] = b  # lands on b exactly in exact arithmetic; pin it
    return out
