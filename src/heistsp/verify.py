"""Executable registry of the quantitative geometric inequalities.

Each check draws seeded samples (or builds deterministic parametric
families where random sampling would never hit the hypotheses), evaluates
the inequality, and reports sample count, violation count and the worst
relative slack.  Checks with explicit constants (the two-sided
shortest-to-line split, the foot-point factor 4, the line-area bound, the
pair flatness floor) must never record a violation beyond -1e-9 relative
slack.  Dichotomy checks assert that at least one stated alternative
holds on every constructed hypothesis-satisfying instance and record the
empirical constants observed; the worst-case thresholds quoted in proofs
(10^-50 and friends) are unobservable at double precision and are
replaced by regression-tracked empirical floors.

_CHECKS is the one table of checks: each id, in suite order, with its
check function, default sample count and whether its constant is exact;
DEFAULT_COUNTS and EXACT_CHECK_IDS are read from it.  Each check keeps its
frozen constants as locals.

The exact checks draw through one sampler (_sample_exact: point arrays,
then one line per row) and the constructed families take their lines from
one (_random_line); each check keeps its own generator and the order of
its draws.  The line-area check takes sigma_l from the one line-area
kernel, lines.line_area, on the same canonical coordinates that give the
two line distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    HeisPoint,
    as_array,
    dist,
    dist_arr,
    dist_point_arr,
    farthest_point_order,
    gauge,
    group_mul,
    left_translate_arr,
    norm_arr,
    point_of,
    relative,
    rotate_arr,
    sample_box,
    within,
)
from .lines import (
    HorizontalLine,
    canon_coords,
    foot_params_arr,
    horizontal_line,
    line_dists_arr,
    line_area,
    line_from_point_direction,
    line_point_at,
    line_dist,
    quartic_dists,
)
from .beta import Ball, BUILDER_BUDGET, beta_euclidean_2d, beta_heis_many, members_in_ball
# not called here: kept importable because the benchmark's tracer wraps it here
from .beta import beta_heis  # noqa: F401
from .builder import excess

RELATIVE_SLACK = 1e-9


@dataclass
class LemmaCheck:
    id: str
    samples: int
    violations: int
    worst_margin: float
    seed: int
    extras: dict = field(default_factory=dict)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0x7FFFFFFF, tag])


def _sample_lines(rng: np.random.Generator, n: int, s: float = 2.0):
    thetas = rng.uniform(0.0, math.pi, n)
    offsets = rng.uniform(-s, s, n)
    heights = rng.uniform(-s * s, s * s, n)
    return thetas, offsets, heights


def _random_line(rng: np.random.Generator) -> HorizontalLine:
    """One line of _sample_lines' law, canonical: a constructed family's line."""
    return horizontal_line(*(float(v[0]) for v in _sample_lines(rng, 1)))


def _sample_exact(rng: np.random.Generator, n: int, sets: int):
    """An exact check's draws, in this order: `sets` arrays of n points from
    sample_box, then one line per row from _sample_lines, as the cosine and
    sine of its direction, its offset and its height."""
    pts = [sample_box(rng, n) for _ in range(sets)]
    th, off, hgt = _sample_lines(rng, n)
    return pts, (np.cos(th), np.sin(th), off, hgt)


def _summary(check_id: str, margins: np.ndarray, seed: int, extras: dict | None = None) -> LemmaCheck:
    violations = int(np.count_nonzero(margins < -RELATIVE_SLACK))
    worst = float(margins.min()) if margins.size else 0.0
    return LemmaCheck(check_id, int(margins.size), violations, worst, seed, extras or {})


# ---------------------------------------------------------------------------
# exact-constant checks, fully vectorized

def check_shortest_to_line(seed: int, n: int) -> LemmaCheck:
    """1/2 * (d(p,p_L)^4 + d(p_L,L)^4)^(1/4) <= d(p,L) <= 2 * (same)."""
    (pts,), line = _sample_exact(_rng(seed, 11), n, 1)
    xt, yt, zt = canon_coords(pts, *line)
    dpl = np.abs(yt)                         # d(p, p_L)
    dll = np.sqrt(np.abs(zt - 2.0 * xt * yt))  # d(p_L, L)
    mix = (dpl ** 4 + dll ** 4) ** 0.25
    d = quartic_dists(xt, yt, zt)
    scale = mix + 1e-300
    lower = (d - 0.5 * mix) / scale
    upper = (2.0 * mix - d) / scale
    return _summary("shortest-to-line", np.minimum(lower, upper), seed)


def check_foot_point_factor(seed: int, n: int) -> LemmaCheck:
    """d(p, P_L(p)) <= 4 d(p, L)."""
    (pts,), line = _sample_exact(_rng(seed, 13), n, 1)
    xt, yt, zt = canon_coords(pts, *line)
    d_vert = gauge(0.0, yt, zt - 2.0 * xt * yt)  # d(p, P_L(p))
    d = quartic_dists(xt, yt, zt)
    margins = (4.0 * d - d_vert) / (d_vert + 1e-300)
    return _summary("foot-point-factor", margins, seed)


def check_line_area_bound(seed: int, n: int) -> LemmaCheck:
    """max(d(a,L), d(b,L)) >= 1/2 * sqrt(|sigma_l(a,b)|)."""
    (a, b), (c, s, off, hgt) = _sample_exact(_rng(seed, 17), n, 2)
    xa, ya, za = canon_coords(a, c, s, off, hgt)
    xb, yb, zb = canon_coords(b, c, s, off, hgt)
    sig = 0.25 * relative(*a.T, *b.T)[2] + line_area(xa, ya, xb, yb, off)
    rhs = 0.5 * np.sqrt(np.abs(sig))
    lhs = np.maximum(quartic_dists(xa, ya, za), quartic_dists(xb, yb, zb))
    margins = (lhs - rhs) / (rhs + 1e-300)
    return _summary("line-area-bound", margins, seed)


def check_pair_flatness_floor(seed: int, n: int) -> LemmaCheck:
    """max(d(a,L), d(b,L)) >= nh(a^-1 b)^2 / (16 d(a,b)), any line."""
    (a, b), line = _sample_exact(_rng(seed, 19), n, 2)
    da = quartic_dists(*canon_coords(a, *line))
    db = quartic_dists(*canon_coords(b, *line))
    dz = np.abs(relative(*a.T, *b.T)[2])
    dab = dist_arr(a, b)
    keep = dab > 0.0
    rhs = dz[keep] / (16.0 * dab[keep])    # nh^2 = |z(a^-1 b)|
    lhs = np.maximum(da, db)[keep]
    margins = (lhs - rhs) / (rhs + 1e-300)
    return _summary("pair-flatness-floor", margins, seed)


# ---------------------------------------------------------------------------
# constructed hypothesis families

def _lift_many(line: HorizontalLine, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Zero-mismatch points at foot parameters ts and plane offsets ys from the line."""
    c, h = line.offset, line.height
    return rotate_arr(line.theta, np.column_stack([ts, c + ys, h + 2.0 * ts * (ys - c)]))


def check_flat_exit_spread(seed: int, n: int) -> LemmaCheck:
    """Chains from center past the boundary, 1/100-close to a line, must
    spread along the line by more than a quarter diameter."""
    rng = _rng(seed, 23)
    margins = []
    for _ in range(n):
        line = _random_line(rng)
        radius = float(rng.uniform(0.5, 2.0))
        diam = 2.0 * radius
        delta = float(rng.uniform(0.002, 0.009))
        t0 = float(rng.uniform(-1.0, 1.0))
        step = 0.5 * delta * diam
        amp = min(0.2 * delta, 0.008) * diam
        count = math.ceil(1.1 * radius / step) + 2
        ts = t0 + step * np.arange(count)
        ys = amp * np.sin(np.linspace(0.0, 9.0, count))
        pts = _lift_many(line, ts, ys)
        center = HeisPoint(*pts[0])
        # hypotheses: small steps, 1/100-closeness, escape past the radius
        steps = np.max(np.abs(np.diff(ts))) + 2.0 * amp
        d_line = line_dists_arr(pts, line)
        d_center = dist_point_arr(center, pts)
        assert steps < delta * diam and float(d_line.max()) <= diam / 100.0
        assert float(d_center.max()) > radius
        inside = within(d_center, radius)
        params = foot_params_arr(pts[inside], line)
        spread = float(params.max() - params.min())
        margins.append((spread - 0.25 * diam) / diam)
    return _summary("flat-exit-spread", np.asarray(margins), seed)


def check_sharp_turn_dichotomy(seed: int, n: int) -> LemmaCheck:
    """Chains hugging a line either dip back toward it within a short
    window along the line, or contain a pair ball with large beta^p*diam.

    The window constant and the beta floor are empirical stand-ins for the
    proof's unobservable worst-case values; both are recorded.
    """
    rng = _rng(seed, 29)
    window_const = 0.5           # replaces the proof's 500
    ball_floor = 1e-4            # frozen: observed beta^p*diam/M near 3e-3
    p_exp = 3.5
    margins = []
    fits = []       # (margin slot, points, ball, m_const) of each instance without a dip
    branch_counts = {"return": 0, "ball": 0}
    for i in range(n):
        line = _random_line(rng)
        eps = float(rng.uniform(4e-3, 9e-3))
        m_const = 0.6 * eps
        m1 = 0.5 * eps
        delta = 0.02 * eps
        window = window_const * eps * eps / m_const
        stay_high = (i % 2 == 1)
        if stay_high:
            dt = delta * delta / (8.0 * m1)
            count = math.ceil(window / dt) + 2
            ts = dt * np.arange(count)
            ys = np.full(count, m1)
        else:
            down = np.arange(m1, 0.0, -0.5 * delta)
            ts_down = np.zeros(down.size)
            n_floor = math.ceil(window / (0.5 * delta)) + 2
            ts_floor = 0.5 * delta * np.arange(1, n_floor + 1)
            ts = np.concatenate([ts_down, ts_floor])
            ys = np.concatenate([down, np.zeros(n_floor)])
        pts = _lift_many(line, ts, ys)
        d_line = line_dists_arr(pts, line)
        assert float(d_line.max()) <= eps
        params = foot_params_arr(pts, line)
        assert abs(params[-1] - params[0]) > window * (1.0 - 1e-9)
        near = np.abs(params - params[0]) < window
        dip = near & (np.abs(ys) < 0.5 * m1)
        if np.any(dip):
            branch_counts["return"] += 1
            margins.append(1.0)
            continue
        # second alternative: a pair ball with nontrivial flatness deficit
        j = int(np.searchsorted(ts, ts[0] + m1))
        j = min(j, len(ts) - 1)
        q0, qj = HeisPoint(*pts[0]), HeisPoint(*pts[j])
        fits.append((len(margins), pts, Ball(q0, max(2.0 * dist(q0, qj), 0.5 * m_const)),
                     m_const))
        branch_counts["ball"] += 1
        margins.append(0.0)
    # the draws do not depend on beta: every ball is fitted in one batch
    floors = []
    results = beta_heis_many([(pts, ball) for _, pts, ball, _ in fits], BUILDER_BUDGET)
    for (slot, _, ball, m_const), res in zip(fits, results):
        floors.append(res.beta ** p_exp * (2.0 * ball.radius) / m_const)
        margins[slot] = floors[-1] - ball_floor
    extras = {"branches": branch_counts, "window_const": window_const,
              "ball_floor": ball_floor}
    if floors:
        extras["ball_score_min"] = min(floors)
    return _summary("sharp-turn-dichotomy", np.asarray(margins), seed, extras)


def check_angle_improvement_dichotomy(seed: int, n: int) -> LemmaCheck:
    """Corner or lifted-point configurations near a line admit either a
    subball with large projected beta and quarter spread, or a subball
    with large beta^p * diam (empirical constants recorded)."""
    rng = _rng(seed, 31)
    p_exp = 3.5
    tilde_floor = 0.05     # empirical stand-in for 1e-10 * M^2/eps^2
    ball_floor = 1e-8      # empirical stand-in for 1e-50 * M
    margins = []
    branch_counts = {"projected": 0, "ball": 0}
    for i in range(n):
        line = _random_line(rng)
        eps = 0.05
        m_const = float(rng.uniform(0.3, 0.9)) * eps
        delta = m_const / 150.0
        span = 0.15
        corner = (i % 2 == 0)
        ts_floor = np.arange(-span, span, 0.5 * delta)
        if corner:
            ys_up = np.arange(0.0, m_const, 0.5 * delta)
            pts = np.concatenate([
                _lift_many(line, ts_floor, np.zeros(ts_floor.size)),
                _lift_many(line, np.zeros(ys_up.size), ys_up),
                _lift_many(line, np.array([0.0]), np.array([m_const])),
            ])
        else:
            zeta = (0.8 * eps) ** 2
            dz = (0.5 * delta) ** 2
            zs = np.arange(dz, zeta + dz, dz)
            base = line_point_at(line, 0.0)
            climb = np.column_stack([np.full(zs.size, base.x), np.full(zs.size, base.y),
                                     base.z + zs])
            pts = np.concatenate([
                _lift_many(line, ts_floor, np.zeros(ts_floor.size)),
                climb,
                _lift_many(line, np.array([span / 2.0]), np.array([m_const])),
            ])
        d_line = line_dists_arr(pts, line)
        assert float(d_line.max()) <= eps * (1.0 + 1e-9)
        params = foot_params_arr(pts, line)
        assert params.max() - params.min() >= 0.25
        if corner:
            center = point_of(_lift_many(line, np.array([0.0]), np.array([m_const]))[0])
        else:
            center = HeisPoint(*pts[ts_floor.size + len(zs) - 1])
        # candidate subball at the feature, diameter a few eps^2 / m
        rho = max(2.0 * eps * eps / m_const, 4.0 * delta)
        cand = Ball(center, rho)
        tilde = beta_euclidean_2d(pts, cand)
        big = Ball(center, max(m_const, 4.0 * rho))
        # one batch per instance: an instance holds up to about 6e5 points
        res, res_big = beta_heis_many([(pts, cand), (pts, big)], BUILDER_BUDGET)
        spread_ok = False
        idx = members_in_ball(pts, cand)
        if idx.size:
            fp = foot_params_arr(pts[idx], res.line)
            spread_ok = (fp.max() - fp.min()) >= 0.25 * 2.0 * rho
        first = tilde >= tilde_floor and spread_ok
        second = res_big.beta ** p_exp * (2.0 * big.radius) >= ball_floor * m_const
        if first:
            branch_counts["projected"] += 1
        elif second:
            branch_counts["ball"] += 1
        margins.append(1.0 if (first or second) else -1.0)
    extras = {"branches": branch_counts, "tilde_floor": tilde_floor,
              "ball_floor": ball_floor}
    return _summary("angle-improvement-dichotomy", np.asarray(margins), seed, extras)


def check_excess_forces_width(seed: int, n: int) -> LemmaCheck:
    """Near the x-axis, a triple with excess eta * diam must stick out in y
    by at least sqrt(eta) * diam / D0 for a stable empirical D0."""
    rng = _rng(seed, 37)
    p_exp = 3.5
    d_big = 1.0
    ratios = []
    for _ in range(n):
        s = float(rng.uniform(0.3, 0.45))
        y0 = float(rng.uniform(0.005, 0.08))
        radius = float(rng.uniform(0.5, 0.62))
        diam = 2.0 * radius
        p1 = HeisPoint(-s, 0.0, 0.0)
        p2 = HeisPoint(0.0, y0, 0.0)
        p3 = HeisPoint(s, 0.0, 0.0)
        arr = as_array([p1, p2, p3])
        eps = float(line_dists_arr(arr, horizontal_line(0.0, 0.0, 0.0)).max()) / diam
        eta = excess(p1, p2, p3) / diam
        if eta < d_big * eps ** p_exp or eta <= 0.0:
            continue  # hypothesis fails; skip (the regime excludes z-driven excess)
        ratios.append(math.sqrt(eta) * diam / y0)
    ratios = np.asarray(ratios)
    d0_emp = float(ratios.max()) if ratios.size else 0.0
    frozen_bound = 6.0            # observed maximum near 3.5
    margins = (frozen_bound - ratios) / frozen_bound
    return _summary("excess-forces-width", margins, seed,
                    {"d0_empirical": d0_emp, "frozen_bound": frozen_bound,
                     "qualifying": int(ratios.size)})


def check_excess_vs_beta_squared(seed: int, n: int) -> LemmaCheck:
    """Empirical curvature constant: excess <= D * beta^2 * diam over
    well-spread near-flat triples; the max ratio D is recorded."""
    rng = _rng(seed, 41)
    eps0 = 0.05                   # the flatness a triple's beta must not exceed
    triples = []     # (points, ball) of every draw; the draws do not depend on beta
    for _ in range(n):
        line = _random_line(rng)
        radius = float(rng.uniform(0.5, 2.0))
        diam = 2.0 * radius
        t0 = float(rng.uniform(-1.0, 1.0))
        noise = float(10.0 ** rng.uniform(-4.0, math.log10(0.8 * eps0))) * diam
        spread = sorted(rng.uniform(0.25, 0.45, 2))
        ts = np.array([t0 - spread[1] * diam, t0 + float(rng.uniform(-0.1, 0.1)) * diam,
                       t0 + spread[0] * diam])
        raw = _lift_many(line, ts, np.zeros(3))
        bump = sample_box(rng, 3, 1.0)
        scale = noise / np.maximum(norm_arr(bump), 1e-12)
        bump[:, 0] *= scale
        bump[:, 1] *= scale
        bump[:, 2] *= scale ** 2
        pts = [group_mul(HeisPoint(*raw[i]), HeisPoint(*bump[i])) for i in range(3)]
        center = pts[0]
        rad = max(dist(center, q) for q in pts) * 1.05
        triples.append((pts, Ball(center, rad)))
    ratios = []
    for (pts, ball), res in zip(triples, beta_heis_many(triples, BUILDER_BUDGET)):
        if res.beta <= 0.0 or res.beta > eps0:
            continue
        exc = excess(*pts)
        ratios.append(exc / (res.beta ** 2 * 2.0 * ball.radius))
    ratios = np.asarray(ratios)
    d_emp = float(ratios.max()) if ratios.size else 0.0
    frozen_bound = 150.0          # observed maximum near 32
    margins = (frozen_bound - ratios) / frozen_bound
    return _summary("excess-vs-beta-squared", margins, seed,
                    {"curvature_const_empirical": d_emp, "frozen_bound": frozen_bound,
                     "qualifying": int(ratios.size)})


def check_three_point_example(seed: int, n: int) -> LemmaCheck:
    """The central-bump triple: excess/eps^2 near 1/2, and the tilted
    witness line through the bump stays within 2*eps of all three points."""
    eps_values = (0.2, 0.1, 0.05, 0.025)[:n]
    margins = []
    ratios = {}
    for eps in eps_values:
        a = HeisPoint(-1.0, 0.0, 0.0)
        b = HeisPoint(0.0, 0.0, eps)
        c = HeisPoint(1.0, 0.0, 0.0)
        ratio = excess(a, b, c) / eps ** 2
        ratios[eps] = ratio
        margins.append(min(ratio - 0.45, 0.55 - ratio) / 0.5)
        theta = math.atan2(eps / 2.0, 1.0 - eps / 2.0)
        witness = line_from_point_direction(b, theta)
        worst = max(line_dist(p, witness) for p in (a, b, c))
        margins.append((2.0 * eps - worst) / (2.0 * eps))
    return _summary("three-point-example", np.asarray(margins), seed,
                    {"excess_over_eps2": ratios})


def check_doubling_constant(seed: int, n: int) -> LemmaCheck:
    """Greedy half-radius nets of dense ball samples stay under a fixed count."""
    rng = _rng(seed, 43)
    frozen_bound = 82
    counts = []
    for _ in range(n):
        center = HeisPoint(*sample_box(rng, 1)[0])
        radius = float(10.0 ** rng.uniform(math.log10(0.25), math.log10(4.0)))
        g = np.linspace(-1.0, 1.0, 13)
        gx, gy, gz = np.meshgrid(g * radius, g * radius, g * radius ** 2, indexing="ij")
        u = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        u = u[within(norm_arr(u), radius)]
        pts = left_translate_arr(center, u)
        counts.append(len(farthest_point_order(pts, stop=radius / 2.0)[1]))
    counts = np.asarray(counts)
    margins = (frozen_bound - counts).astype(float) / frozen_bound
    return _summary("doubling-constant", margins, seed,
                    {"max_count": int(counts.max()), "frozen_bound": frozen_bound})


# ---------------------------------------------------------------------------

#: every check in suite order: id -> (check, default sample count, whether
#: its constant is exact, so that any violation fails the suite)
_CHECKS: dict[str, tuple[Callable[[int, int], LemmaCheck], int, bool]] = {
    "shortest-to-line": (check_shortest_to_line, 100_000, True),
    "foot-point-factor": (check_foot_point_factor, 100_000, True),
    "line-area-bound": (check_line_area_bound, 100_000, True),
    "pair-flatness-floor": (check_pair_flatness_floor, 100_000, True),
    "flat-exit-spread": (check_flat_exit_spread, 48, False),
    "sharp-turn-dichotomy": (check_sharp_turn_dichotomy, 24, False),
    "angle-improvement-dichotomy": (check_angle_improvement_dichotomy, 12, False),
    "excess-forces-width": (check_excess_forces_width, 200, False),
    "excess-vs-beta-squared": (check_excess_vs_beta_squared, 1000, False),
    "three-point-example": (check_three_point_example, 4, False),
    "doubling-constant": (check_doubling_constant, 100, False),
}

DEFAULT_COUNTS = {cid: n for cid, (_, n, _) in _CHECKS.items()}
EXACT_CHECK_IDS = tuple(cid for cid, (_, _, exact) in _CHECKS.items() if exact)


def run_suite(seed: int = 0, sample_counts: dict[str, int] | None = None,
              include: Sequence[str] | None = None) -> list[LemmaCheck]:
    """Run the named checks (all by default, in suite order), each at its
    count in sample_counts or else its default; deterministic given seed."""
    counts = sample_counts or {}
    unknown = set(counts) - set(_CHECKS)
    if unknown:
        raise ValueError("unknown check ids: %s" % sorted(unknown))
    results = []
    for cid in (_CHECKS if include is None else include):
        if cid not in _CHECKS:
            raise ValueError("unknown check id: %r" % (cid,))
        check, n, _ = _CHECKS[cid]
        results.append(check(seed, counts.get(cid, n)))
    return results


def suite_passed(results: Sequence[LemmaCheck]) -> bool:
    """True when no exact-constant check recorded a violation."""
    return all(r.violations == 0 for r in results if r.id in EXACT_CHECK_IDS)


def report_dict(results: Sequence[LemmaCheck], seed: int) -> dict:
    return {
        "seed": seed,
        "passed": suite_passed(results),
        "checks": [
            {
                "id": r.id,
                "samples": r.samples,
                "violations": r.violations,
                "worst_margin": r.worst_margin,
                "seed": r.seed,
                "extras": r.extras,
            }
            for r in results
        ],
    }
