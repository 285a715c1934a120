"""Multiscale construction of a short connected curve through a point set.

The builder walks the net hierarchy coarse to fine, keeping one open
polygonal path.  For every net point P at scale k it inspects the ball
B(P, C1 * 2^-k):

* non-flat ball (beta >= eps0): each new net point is joined next to its
  nearest existing path vertex (cost bounded by the covering radius);
* flat ball (beta < eps0): new net points are taken in the order of their
  foot parameters along the witness line and spliced into the globally
  cheapest slot, which reproduces the line order wherever the existing
  path already follows it.

After each scale a connectivity repair pass restores the local invariant
that the net points of every ball are connected by the path restricted to
that ball, inserting short detours where the path only connects them via
arcs outside the ball.  Every length change is logged in a ledger entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import HeisPoint, as_array, dist, dist_point_arr, point_of, within
# not called here: kept importable because the benchmark's tracer wraps them here
from .core import diameter, farthest_point_order  # noqa: F401
from .beta import (
    BUILDER_BUDGET,
    Ball,
    BetaBudget,
    beta_heis,
    scale_ball,
)
from .curves import PolygonalCurve, curve_length
from .lines import foot
from .multiscale import (
    MAX_LEVELS,
    NetHierarchy,
    UnionFind,
    build_nets,
    carleson_sum,
    _term_seed,
)


class ScaleRangeError(ValueError):
    """The scale range cannot resolve every input point."""


@dataclass
class BuilderConfig:
    c1: float = 16.0           # ball multiplier per net scale
    eps0: float = 0.05         # flatness threshold
    r: float = 3.0             # target Carleson exponent, in (2, 4)
    beta_budget: BetaBudget = field(default_factory=lambda: BUILDER_BUDGET)
    d1: float = 1e4            # future-ball slack constant
    carleson_a: float = 4.0    # ball multiplier of the Carleson sum
    curvature_const: float = 1.0   # fitted constant of excess <= C * beta^2 * diam
    alpha1: float = 0.2        # triple spread window, lower
    alpha2: float = 0.9        # triple spread window, upper
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.c1 > 1.0:
            raise ValueError("c1 must exceed 1")
        if not 0.0 < self.eps0 < 1.0:
            raise ValueError("eps0 must lie in (0, 1)")
        if not 2.0 < self.r < 4.0:
            raise ValueError("r must lie in (2, 4); got %r" % (self.r,))
        if not 0.0 < self.alpha1 < self.alpha2 < 1.0:
            raise ValueError("need 0 < alpha1 < alpha2 < 1")

    @property
    def p(self) -> float:
        """Derived curvature exponent (r + 4) / 2, always below 4."""
        return 0.5 * (self.r + 4.0)

    @property
    def d7(self) -> float:
        """Future-ball enlargement factor, fixed at 2 * c1."""
        return 2.0 * self.c1


@dataclass
class LedgerEntry:
    k: int
    anchor: int                      # net point index owning the ball
    case: str                        # "flat" | "nonflat" | "bridge"
    op: str                          # "prepend" | "append" | "split" | "detour"
    point: int                       # inserted (or detour target) point index
    cost: float
    deleted_edge: tuple[int, int] | None = None


@dataclass
class BuildLedger:
    entries: list[LedgerEntry] = field(default_factory=list)
    #: path vertex indices after each completed scale
    snapshots: dict[int, list[int]] = field(default_factory=dict)

    def total_cost(self) -> float:
        return math.fsum(e.cost for e in self.entries)

    def deleted_edges(self) -> list[tuple[int, tuple[int, int]]]:
        return [(e.k, e.deleted_edge) for e in self.entries if e.deleted_edge is not None]


def excess(a: HeisPoint, b: HeisPoint, c: HeisPoint) -> float:
    """Triangle inequality excess d(a,b) + d(b,c) - d(a,c); zero iff b is between."""
    val = dist(a, b) + dist(b, c) - dist(a, c)
    return val if val > 0.0 else 0.0


@dataclass
class ExcessReport:
    triple: tuple[HeisPoint, HeisPoint, HeisPoint]
    excess: float
    ball: Ball
    beta: float
    curvature_ratio: float   # excess / (beta^2 * diam)


def excess_report(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
                  triple: tuple[HeisPoint, HeisPoint, HeisPoint],
                  budget: BetaBudget | None = None, seed: int = 0) -> ExcessReport:
    """Curvature diagnostic: excess of the triple against beta of the ball."""
    exc = excess(*triple)
    res = beta_heis(points, ball, budget, seed=seed)
    diam = 2.0 * ball.radius
    denom = res.beta ** 2 * diam
    ratio = exc / denom if denom > 0.0 else math.inf if exc > 0.0 else 0.0
    return ExcessReport(triple, exc, ball, res.beta, ratio)


class _Path:
    """Open vertex walk over point indices with incremental edge lengths."""

    def __init__(self, arr: np.ndarray, first: int):
        self.arr = arr
        self.seq = [first]
        self.edges: list[float] = []

    def _coords(self) -> np.ndarray:
        return self.arr[self.seq]

    def _slot_costs(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances from idx to the vertices, and the added length per slot:
        slot 0 prepends, slot len(seq) appends, slot j splits edge j-1."""
        d = dist_point_arr(HeisPoint(*self.arr[idx]), self._coords())
        m = len(self.seq)
        costs = np.empty(m + 1)
        costs[0] = d[0]
        costs[1:m] = d[:-1] + d[1:] - np.asarray(self.edges)
        costs[m] = d[m - 1]
        return d, costs

    def insert_cheapest(self, idx: int) -> tuple[str, float, tuple[int, int] | None]:
        """Insert idx at the slot of least added length (ends or edge split)."""
        d, costs = self._slot_costs(idx)
        return self._apply(idx, int(np.argmin(costs)) if len(self.seq) > 1 else 1, d)

    def insert_near(self, idx: int) -> tuple[str, float, tuple[int, int] | None]:
        """Insert idx next to its nearest existing vertex, on the cheaper side."""
        d, costs = self._slot_costs(idx)
        pos = int(np.argmin(d))
        j = pos + int(np.argmin(costs[pos:pos + 2])) if len(self.seq) > 1 else 1
        return self._apply(idx, j, d)

    def _apply(self, idx: int, j: int, d: np.ndarray) -> tuple[str, float, tuple[int, int] | None]:
        m = len(self.seq)
        if j == 0:
            self.seq.insert(0, idx)
            self.edges.insert(0, float(d[0]))
            return "prepend", float(d[0]), None
        if j == m:
            self.seq.append(idx)
            self.edges.append(float(d[m - 1]))
            return "append", float(d[m - 1]), None
        u, v = self.seq[j - 1], self.seq[j]
        removed = self.edges[j - 1]
        cost = float(d[j - 1] + d[j] - removed)
        self.seq.insert(j, idx)
        self.edges[j - 1:j] = [float(d[j - 1]), float(d[j])]
        return "split", cost, (u, v)

    def detour(self, pos: int, idx: int) -> float:
        """Insert a side trip [idx, seq[pos]] after position pos."""
        u = HeisPoint(*self.arr[self.seq[pos]])
        w = HeisPoint(*self.arr[idx])
        duw = dist(u, w)
        self.seq[pos + 1:pos + 1] = [idx, self.seq[pos]]
        self.edges[pos:pos] = [duw, duw]
        return 2.0 * duw


def _ball_member_roots(path: _Path, center: HeisPoint,
                       radius: float) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Components of the path restricted to the ball, keyed by vertex id.

    Consecutive path positions whose vertices both lie in the ball are
    joined; returns (vertex id -> root, root -> vertex ids).
    """
    coords = path._coords()
    inside = within(dist_point_arr(center, coords), radius)
    ids = sorted({path.seq[p] for p in np.flatnonzero(inside)})
    idx_of = {v: i for i, v in enumerate(ids)}
    uf = UnionFind(len(ids))
    for p in range(len(path.seq) - 1):
        if inside[p] and inside[p + 1]:
            uf.union(idx_of[path.seq[p]], idx_of[path.seq[p + 1]])
    root_of = {v: uf.find(idx_of[v]) for v in ids}
    groups: dict[int, list[int]] = {}
    for v in ids:
        groups.setdefault(root_of[v], []).append(v)
    return root_of, groups


def curve_ball_components(curve: PolygonalCurve, member_points: Sequence[HeisPoint],
                          ball: Ball) -> int:
    """Number of ball-restricted curve components covering the given members.

    Revisited vertices are identified (the curve is one point set), edges
    count only when both endpoints lie inside the ball.  Returns -1 when a
    member is not a curve vertex inside the ball.
    """
    verts = curve.vertices
    key_of = {}
    for v in verts:
        key_of.setdefault((v.x, v.y, v.z), len(key_of))
    arr = as_array(list(key_of))
    inside = within(dist_point_arr(ball.center, arr), ball.radius)
    uf = UnionFind(len(key_of))
    for a, b in zip(verts, verts[1:]):
        ia, ib = key_of[(a.x, a.y, a.z)], key_of[(b.x, b.y, b.z)]
        if inside[ia] and inside[ib]:
            uf.union(ia, ib)
    roots = set()
    for p in member_points:
        i = key_of.get((p.x, p.y, p.z))
        if i is None or not inside[i]:
            return -1
        roots.add(uf.find(i))
    return len(roots)


def _enforce_local_connectivity(path: _Path, arr: np.ndarray, net_ids: list[int],
                                k: int, c1: float, ledger: BuildLedger) -> None:
    """Bridge detours until each C1-ball's net members share a path component."""
    radius = c1 * 2.0 ** (-k)
    for anchor in net_ids:
        center = HeisPoint(*arr[anchor])
        d = dist_point_arr(center, arr[net_ids])
        members = [net_ids[j] for j in np.flatnonzero(within(d, radius))]
        if len(members) <= 1:
            continue
        for _ in range(len(members)):
            root_of, groups = _ball_member_roots(path, center, radius)
            roots = {root_of[m] for m in members}
            if len(roots) == 1:
                break
            base_root = root_of[members[0]]
            base = groups[base_root]
            rest = [v for m in members if root_of[m] != base_root
                    for v in groups[root_of[m]]]
            rest = sorted(set(rest))
            base_arr = arr[base]
            best = (math.inf, -1, -1)
            for w in rest:
                dd = dist_point_arr(HeisPoint(*arr[w]), base_arr)
                j = int(np.argmin(dd))
                cand = (float(dd[j]), base[j], w)
                if cand < best:
                    best = cand
            _, u, w = best
            pos = path.seq.index(u)
            cost = path.detour(pos, w)
            ledger.entries.append(LedgerEntry(k, anchor, "bridge", "detour", w, cost))


def _dedup_exact(points: Sequence[HeisPoint]) -> list[HeisPoint]:
    seen: set[tuple[float, float, float]] = set()
    out = []
    for p in points:
        key = (p.x, p.y, p.z)
        if key not in seen:
            seen.add(key)
            out.append(HeisPoint(*key))
    return out


def build_curve(points: Sequence[HeisPoint],
                cfg: BuilderConfig | None = None) -> tuple[PolygonalCurve, BuildLedger]:
    """Connected polygonal curve through every input point, with cost ledger."""
    curve, ledger, _ = _build(points, cfg)
    return curve, ledger


def _build(points: Sequence[HeisPoint],
           cfg: BuilderConfig | None) -> tuple[PolygonalCurve, BuildLedger, NetHierarchy | None]:
    if cfg is None:
        cfg = BuilderConfig()
    pts = _dedup_exact(points)
    if not pts:
        raise ValueError("cannot build a curve through an empty set")
    ledger = BuildLedger()
    if len(pts) == 1:
        return PolygonalCurve(pts), ledger, None
    arr = as_array(pts)
    hierarchy = build_nets(arr)
    k_min, k_max = hierarchy.k_min, hierarchy.k_max
    missed = arr.shape[0] - len(hierarchy.nets[k_max])
    if missed:
        raise ScaleRangeError("%d points lie within 2^-%d of another point, finer than the "
                              "%d scales below diam(E) that the nets span, and would be "
                              "dropped from the curve" % (missed, k_max, MAX_LEVELS))

    path = _Path(arr, hierarchy.nets[k_min][0])
    in_path = set(path.seq)
    ledger.snapshots[k_min] = list(path.seq)
    for k in range(k_min + 1, k_max + 1):
        net_k = hierarchy.nets[k]
        net_arr = arr[net_k]
        radius = cfg.c1 * 2.0 ** (-k)
        for pos, anchor in enumerate(net_k):
            center = HeisPoint(*arr[anchor])
            d = dist_point_arr(center, net_arr)
            members = [net_k[j] for j in np.flatnonzero(within(d, radius))]
            fresh = [i for i in members if i not in in_path]
            if not fresh:
                continue
            ball = Ball(center, radius)
            res = beta_heis(arr, ball, cfg.beta_budget,
                            seed=_term_seed(cfg.seed, k - k_min, pos))
            if res.beta < cfg.eps0:
                case = "flat"
                keyed = sorted(((foot(HeisPoint(*arr[i]), res.line).param, i) for i in fresh))
                for _, i in keyed:
                    op, cost, deleted = path.insert_cheapest(i)
                    ledger.entries.append(LedgerEntry(k, anchor, case, op, i, cost, deleted))
                    in_path.add(i)
            else:
                case = "nonflat"
                for i in fresh:
                    op, cost, deleted = path.insert_near(i)
                    ledger.entries.append(LedgerEntry(k, anchor, case, op, i, cost, deleted))
                    in_path.add(i)
        _enforce_local_connectivity(path, arr, net_k, k, cfg.c1, ledger)
        ledger.snapshots[k] = list(path.seq)

    curve = PolygonalCurve([point_of(arr[i]) for i in path.seq])
    return curve, ledger, hierarchy


class TheoremAResult(NamedTuple):
    length: float
    bound: float
    ratio: float
    curve: PolygonalCurve    # the built curve the check measured
    ledger: BuildLedger


def theorem_a_check(points: Sequence[HeisPoint], cfg: BuilderConfig | None = None,
                    ) -> TheoremAResult:
    """Length of the built curve against diam(E) + the r-Carleson sum.

    The ratio is reported, not asserted: the theorem's constant is not
    pinned numerically.  The curve and ledger come from the same build.
    """
    if cfg is None:
        cfg = BuilderConfig()
    curve, ledger, hierarchy = _build(points, cfg)
    length = curve_length(curve)
    if hierarchy is None:
        return TheoremAResult(0.0, 0.0, 0.0, curve, ledger)
    report = carleson_sum(hierarchy, cfg.r, cfg.carleson_a, cfg.beta_budget, seed=cfg.seed)
    bound = report.diam_e + report.total
    return TheoremAResult(length, bound, length / bound if bound > 0.0 else math.inf,
                          curve, ledger)


@dataclass
class FutureBallReport:
    source_ball: Ball
    found_ball: Ball | None
    q_exponent: float | None
    beta_found: float
    satisfies_e_at_2: bool
    satisfies_e_at_4: bool
    search_log: list[tuple[Ball, float]]
    out_of_regime: bool = False
    note: str = ""


def future_ball_search(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
                       triple: tuple[HeisPoint, HeisPoint, HeisPoint],
                       cfg: BuilderConfig | None = None,
                       max_candidates: int = 4000) -> FutureBallReport:
    """Search for a nearby ball whose beta^p * diam pays for the triple's excess.

    Solves excess = curvature_const * eps^q * diam(B) for q with eps derived from
    beta of the enlarged source ball; in the regime 2 <= q < p, scans
    dyadic balls centered at set points inside the 16x enlarged source,
    with diameters above eps^(q/2) * diam(B) / d1, ranking candidates by
    beta^p * diam of their d7 enlargements.
    """
    if cfg is None:
        cfg = BuilderConfig()
    arr = points if isinstance(points, np.ndarray) else as_array(points)
    diam = 2.0 * ball.radius
    pd = [dist(triple[i], triple[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    for v in pd:
        if not cfg.alpha1 * diam <= v <= cfg.alpha2 * diam:
            raise ValueError("triple is not well spread: pairwise distance %g "
                             "outside [%g, %g]" % (v, cfg.alpha1 * diam, cfg.alpha2 * diam))
    exc = excess(*triple)

    def bail(note: str, q: float | None = None) -> FutureBallReport:
        return FutureBallReport(ball, None, q, 0.0, False, False, [],
                                out_of_regime=True, note=note)

    if exc <= 0.0:
        return bail("zero excess: no exponent q exists")
    d7 = cfg.d7
    eps = d7 * beta_heis(arr, scale_ball(d7, ball), cfg.beta_budget, seed=cfg.seed).beta
    if eps <= 0.0:
        return bail("flat enlarged ball: eps = 0")
    if eps >= 1.0:
        return bail("enlarged ball is not flat: eps >= 1")
    q = math.log(exc / (cfg.curvature_const * diam)) / math.log(eps)
    if q < 2.0:
        return bail("excess too large for any q >= 2", q)
    if q >= cfg.p:
        return bail("excess below the curvature_const * eps^p threshold", q)

    floor_diam = eps ** (0.5 * q) * diam / cfg.d1
    big_r = 16.0 * d7 * ball.radius
    d_centers = dist_point_arr(ball.center, arr)
    centers = np.flatnonzero(d_centers <= big_r)
    levels = []
    rho = big_r
    while 2.0 * rho >= floor_diam and len(levels) < 24:
        levels.append(rho)
        rho *= 0.5
    if len(centers) * len(levels) > max_candidates:
        # thin the centers deterministically to stay within budget
        step = math.ceil(len(centers) * len(levels) / max_candidates)
        centers = centers[::step]

    log: list[tuple[Ball, float]] = []
    best: tuple[float, int, int] | None = None
    best_ball: Ball | None = None
    for li, rho in enumerate(levels):
        for ci in centers:
            if not within(d_centers[ci] + rho, big_r):
                continue
            cand = Ball(point_of(arr[ci]), rho)
            res = beta_heis(arr, cand, cfg.beta_budget, seed=cfg.seed)
            score = res.beta ** cfg.p * (2.0 * rho)
            log.append((cand, score))
            key = (-score, li, int(ci))
            if best is None or key < best:
                best = key
                best_ball = cand
    if best_ball is None:
        return bail("no candidate ball fits inside the enlarged source", q)
    found = best_ball
    # the reported inequalities live on the d7 enlargement of the winner
    beta_found = beta_heis(arr, scale_ball(d7, found), cfg.beta_budget, seed=cfg.seed).beta
    at2 = exc <= cfg.d1 * beta_found ** cfg.p * (2.0 * d7 * found.radius)
    at4 = beta_found ** cfg.p <= cfg.d1 * eps ** (0.5 * q)
    return FutureBallReport(ball, found, q, beta_found, at2, at4, log)
