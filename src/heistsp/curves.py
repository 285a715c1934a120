"""Polygonal curves: ordered vertex walks with Koranyi edge lengths."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beta import ResourceBudgetError
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


#: the most points resample_curve returns; a walk that would need more at
#: the given spacing raises ResourceBudgetError before any point is made
MAX_SAMPLES = 1_000_000


def _steps(length: float, spacing: float, least: int) -> int:
    """The steps of about `spacing` that cover `length`, at least `least`;
    any count above MAX_SAMPLES (an infinite length too) as MAX_SAMPLES + 1."""
    q = length / spacing
    return max(least, math.ceil(q)) if q <= MAX_SAMPLES else MAX_SAMPLES + 1


def resample_curve(curve: PolygonalCurve, spacing: float) -> list[HeisPoint]:
    """Points along a horizontal realization of the curve, about `spacing` apart.

    Each edge u -> v is realized as a horizontal path: the straight lift of
    the projected chord, followed (when u^-1 v has a vertical component) by
    the lift of a small plane circle through the endpoint that sweeps
    exactly the missing area.  Horizontal edges reduce to the plain chord.
    The points are counted first: more than MAX_SAMPLES raise
    ResourceBudgetError.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    verts = curve.vertices
    edges = []      # per edge: its ends, a^-1 b, the chord's steps, the loop's radius and steps
    total = 1
    for a, b in zip(verts, verts[1:]):
        gx, gy = b.x - a.x, b.y - a.y
        gz = b.z - a.z - 2.0 * (a.x * b.y - b.x * a.y)
        n1 = _steps(math.hypot(gx, gy), spacing, 1)
        rho = math.sqrt(abs(gz) / (4.0 * math.pi))
        n2 = _steps(2.0 * math.pi * rho, spacing, 4) if gz != 0.0 else 0
        total += n1 + n2
        if total > MAX_SAMPLES:
            raise ResourceBudgetError("resampling at spacing %g needs more than %d points"
                                      % (spacing, MAX_SAMPLES))
        edges.append((a, b, gx, gy, gz, n1, rho, n2))
    out: list[HeisPoint] = [verts[0]]
    for a, b, gx, gy, gz, n1, rho, n2 in edges:
        for j in range(1, n1 + 1):
            s = j / n1
            out.append(group_mul(a, HeisPoint(s * gx, s * gy, 0.0)))
        if n2:
            v0 = out[-1]
            sgn = 1.0 if gz > 0.0 else -1.0
            for j in range(1, n2 + 1):
                t = 2.0 * math.pi * j / n2
                loop = HeisPoint(rho * (math.cos(t) - 1.0),
                                 sgn * rho * math.sin(t),
                                 sgn * 2.0 * rho * rho * (t - math.sin(t)))
                out.append(group_mul(v0, loop))
            out[-1] = b  # lands on b exactly in exact arithmetic; pin it
    return out
