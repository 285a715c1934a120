"""Net hierarchies and discrete Carleson sums.

Nets come from one farthest-point traversal of the input: point i gets the
insertion radius r_i = d(p_i, {p_1..p_{i-1}}) (the seed gets infinity), and
the net at scale k is the prefix {i : r_i > 2^-k}.  The radii are
non-increasing, so nets are nested, strictly 2^-k separated, and cover the
whole set at radius 2^-k.  Boundary ties are resolved by insertion order.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import HeisPoint, as_array, diameter, farthest_point_order, point_of
from .beta import Ball, BetaBudget, BetaResult, beta_heis_many
# not called here: kept importable because the benchmark's tracer wraps them here
from .core import dist_point_arr  # noqa: F401
from .beta import beta_heis  # noqa: F401
from .curves import PolygonalCurve, curve_length, resample_curve


@dataclass
class NetHierarchy:
    points: np.ndarray                 # (n, 3), the input set
    k_min: int
    k_max: int
    nets: dict[int, list[int]]         # scale -> point indices in net order
    diam: float | None = None          # diam(E), when the scale range was derived from it


def build_nets(points: Sequence[HeisPoint] | np.ndarray, k_min: int | None = None,
               k_max: int | None = None) -> NetHierarchy:
    """Nested 2^-k nets for k in [k_min, k_max].

    Without k_min and k_max the range is default_scale_range's, taken from
    the same traversal and diameter that the nets use.
    """
    arr = points if isinstance(points, np.ndarray) else as_array(points)
    if arr.shape[0] == 0:
        raise ValueError("cannot build nets of an empty set")
    order, radii = farthest_point_order(arr)
    diam = None
    if k_min is None and k_max is None:
        diam = diameter(arr)
        k_min, k_max = _scale_range(diam, radii)
    elif k_min is None or k_max is None:
        raise ValueError("give both k_min and k_max, or neither")
    if k_max < k_min:
        raise ValueError("k_max < k_min")
    nets: dict[int, list[int]] = {}
    for k in range(k_min, k_max + 1):
        cut = 2.0 ** (-k)
        nets[k] = [i for i, r in zip(order, radii) if r > cut]
    if len(nets[k_min]) > 1:
        warnings.warn("the coarsest net at scale 2^-%d has %d points, not one"
                      % (k_min, len(nets[k_min])))
    return NetHierarchy(arr, k_min, k_max, nets, diam)


@dataclass
class CarlesonTerm:
    k: int
    point: HeisPoint
    beta: float
    contribution: float
    gap: float = 0.0   # certified_gap of the underlying beta evaluation


@dataclass
class CarlesonReport:
    exponent_r: float
    ball_multiplier_a: float
    terms: list[CarlesonTerm]
    total: float
    diam_e: float


def carleson_sum(hierarchy: NetHierarchy, r: float, a: float,
                 beta_budget: BetaBudget | None = None, seed: int = 0) -> CarlesonReport:
    """Sum of beta(B(P, a*2^-k))^r * 2^-k over net points and scales."""
    balls, seeds = _carleson_balls(hierarchy, r, a, seed)
    with _noted("carleson_sum", balls):
        results = beta_heis_many([(hierarchy.points, ball) for _, ball in balls], beta_budget,
                                 seeds)
    return _carleson_report(hierarchy, r, a, balls, results)


def _carleson_balls(hierarchy: NetHierarchy, r: float, a: float,
                    seed: int) -> tuple[list[tuple[int, Ball]], list[int]]:
    """The (scale, ball) of every term of carleson_sum, scale by scale in net
    order, and the seed of each."""
    if not (0.0 < r <= 8.0):
        raise ValueError("carleson exponent r must lie in (0, 8], got %r" % (r,))
    if a < 1.0:
        raise ValueError("ball multiplier must be >= 1, got %r" % (a,))
    arr = hierarchy.points
    scales = range(hierarchy.k_min, hierarchy.k_max + 1)
    balls = [(k, Ball(point_of(arr[i]), a * 2.0 ** (-k))) for k in scales
             for i in hierarchy.nets[k]]
    seeds = [_term_seed(seed, k - hierarchy.k_min, pos) for k in scales
             for pos in range(len(hierarchy.nets[k]))]
    return balls, seeds


def _carleson_report(hierarchy: NetHierarchy, r: float, a: float,
                     balls: list[tuple[int, Ball]], results: list[BetaResult]) -> CarlesonReport:
    """carleson_sum's report from the betas of its balls."""
    terms = [CarlesonTerm(k, ball.center, res.beta, res.beta ** r * 2.0 ** (-k),
                          res.certified_gap) for (k, ball), res in zip(balls, results)]
    total = math.fsum(t.contribution for t in terms)
    diam = diameter(hierarchy.points) if hierarchy.diam is None else hierarchy.diam
    return CarlesonReport(r, a, terms, total, diam)


@contextmanager
def _noted(caller: str, balls: list[tuple[int, Ball]]) -> Iterator[None]:
    """Adds to an exception raised in the block a note that it arose in
    caller's fits of balls, (scale, ball) pairs in scale order, naming their
    scales."""
    try:
        yield
    except Exception as exc:
        if hasattr(exc, "add_note"):   # Python 3.11+
            if len(balls) == 1:
                where = "scale k=%d, net point %r" % (balls[0][0], balls[0][1].center)
            elif balls[0][0] == balls[-1][0]:
                where = "scale k=%d, %d net points" % (balls[0][0], len(balls))
            else:
                where = "scales k=%d..%d, %d net points" % (balls[0][0], balls[-1][0], len(balls))
            exc.add_note("in %s at %s" % (caller, where))
        raise


def _term_seed(seed: int, level: int, pos: int) -> int:
    # depends only on the scale offset and net position, so dyadic
    # rescaling of the input reproduces identical sampling
    return (seed * 1_000_003 + level * 8191 + pos) & 0x7FFFFFFF


#: the most scales a default scale range spans below its coarsest one
MAX_LEVELS = 60


def default_scale_range(arr: np.ndarray) -> tuple[int, int]:
    """(k_min, k_max): the coarsest scale covers diam(E), the finest resolves
    the closest pair, and k_max - k_min is at most MAX_LEVELS.

    A pair closer than diam(E) * 2^-MAX_LEVELS is not resolved: the finest
    net then misses a point of the set.
    """
    diam = diameter(arr)
    return _scale_range(diam, farthest_point_order(arr)[1] if diam > 0.0 else [])


def _scale_range(diam: float, radii: Sequence[float]) -> tuple[int, int]:
    """default_scale_range from diam(E) and the insertion radii of the traversal."""
    if diam == 0.0:
        return 0, 0
    k_min = math.floor(-math.log2(diam))
    while 2.0 ** (-k_min) < diam:
        k_min -= 1
    sep = min(r for r in radii[1:] if r > 0.0)
    k_max = k_min
    while 2.0 ** (-k_max) >= sep and k_max - k_min < MAX_LEVELS:
        k_max += 1
    return k_min, k_max


def theorem_b_check(curve: PolygonalCurve, sample_density: float, r: float = 4.0,
                    a: float = 4.0, beta_budget: BetaBudget | None = None,
                    seed: int = 0) -> tuple[float, float, float]:
    """Discrete converse bound: (carleson sum, curve length, their ratio).

    Samples the curve at sample_density points per unit length, builds the
    net hierarchy of the samples, and evaluates the beta^r Carleson sum.
    The reported length is the polygonal Koranyi length of the input curve.
    """
    if len(curve.vertices) < 2:
        raise ValueError("curve needs at least 2 vertices")
    length = curve_length(curve)
    samples = resample_curve(curve, spacing=1.0 / sample_density)
    report = carleson_sum(build_nets(as_array(samples)), r, a, beta_budget, seed=seed)
    ratio = report.total / length if length > 0.0 else math.inf
    return report.total, length, ratio
