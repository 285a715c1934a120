"""Multiscale construction of a short connected curve through a point set.

The builder walks the net hierarchy coarse to fine, keeping one open
polygonal path.  For every net point P at scale k it inspects the ball
B(P, C1 * 2^-k).  A build runs in two steps with one beta_heis_many call
between them: _plan makes the nets and lists the fits of every scale, which
read the point set and not the path, and _grow makes the insertions, the
repairs and the ledger from their results.  theorem_a_check sends the
Carleson sum's balls over the same nets through that same call.  The
insertions:

* non-flat ball (beta >= eps0): each new net point is joined next to its
  nearest existing path vertex (cost bounded by the covering radius);
* flat ball (beta < eps0): new net points are taken in the order of their
  foot parameters along the witness line, ties by point index, and
  spliced into the globally cheapest slot, which reproduces the line
  order wherever the existing path already follows it.

After each scale a connectivity repair pass restores the local invariant
that the net points of every ball are connected by the path restricted to
that ball, inserting short detours where the path only connects them via
arcs outside the ball; a detour only merges components, so each ball's
components are computed once.  Every length change is logged in a ledger
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import HeisPoint, as_array, dist, dist_arr, dist_point_arr, point_of, within
# not called here: kept importable because the benchmark's tracer wraps them here
from .core import diameter, farthest_point_order  # noqa: F401
from .beta import (
    BATCH_PAIRS,
    BUILDER_BUDGET,
    Ball,
    BetaBudget,
    BetaResult,
    beta_heis,
    beta_heis_many,
    members_in_ball,
    scale_ball,
)
from .curves import PolygonalCurve, curve_length
from .lines import foot_params_arr
from .multiscale import (
    MAX_LEVELS,
    NetHierarchy,
    build_nets,
    _carleson_balls,
    _carleson_report,
    _noted,
)
# not called here: kept importable because the benchmark's tracer wraps it here
from .multiscale import carleson_sum  # noqa: F401


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
    # reaches no fit (beta_heis takes no seed); kept for the callers and the
    # --seed flag that set it
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
                  budget: BetaBudget | None = None) -> ExcessReport:
    """Curvature diagnostic: excess of the triple against beta of the ball."""
    exc = excess(*triple)
    res = beta_heis(points, ball, budget)
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


def _ball_components(seq: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components of the path seq restricted to the ball of the net points
    members.

    At repair time the path's vertex set is exactly the scale's net (the
    test_path_holds_the_previous_net_at_each_scale invariant), so the
    in-ball path positions are those whose vertex is a member, and no
    distance is needed.  Returns the sorted member ids and a component
    label for each: consecutive in-ball path positions form a run, and runs
    that share a vertex id (the path revisits a vertex) are one component,
    labelled by its least run.  Each round gives every vertex the least
    label of the runs that visit it and every run the least label of its
    vertices; labels only fall, and when a round changes none, each
    component holds its least run's index.  A chain of runs linked one
    shared vertex at a time takes one round per link.
    """
    inball = np.zeros(int(seq.max()) + 1, dtype=bool)
    inball[members] = True
    pos = np.flatnonzero(inball[seq])
    step = np.empty(len(pos), dtype=bool)
    step[0] = True
    np.not_equal(pos[1:] - pos[:-1], 1, out=step[1:])
    run, starts, vert = np.cumsum(step) - 1, np.flatnonzero(step), seq[pos]
    label, run_label = np.full(len(inball), len(pos)), np.arange(len(starts))
    while True:
        np.minimum.at(label, vert, run_label[run])
        least = np.minimum.reduceat(label[vert], starts)
        if np.array_equal(least, run_label):
            break
        run_label = least
    ids = np.flatnonzero(inball)
    return ids, label[ids]


def _nearest(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each vertex id in rows, the distance to its nearest id in cols
    (ascending) and that id, the smallest one on a tie; at most BATCH_PAIRS
    distances per broadcast."""
    d, near = np.empty(len(rows)), np.empty(len(rows), dtype=cols.dtype)
    step = max(1, BATCH_PAIRS // len(cols))
    for a in range(0, len(rows), step):
        block = dist_arr(arr[rows[a:a + step], None], arr[cols])
        d[a:a + step], near[a:a + step] = block.min(axis=1), cols[block.argmin(axis=1)]
    return d, near


def _enforce_local_connectivity(path: _Path, arr: np.ndarray,
                                balls: list[tuple[int, np.ndarray]],
                                k: int, ledger: BuildLedger) -> None:
    """Bridge detours until each C1-ball's net members share a path component.

    balls holds (anchor, net members of its C1-ball) for every net point of
    scale k.  The path's vertices are that scale's net points, so a ball's
    in-ball vertices are its members, and no radius is read.  Each bridge is a
    detour u -> w -> u from the component of the first member (the base) to
    the closest vertex w of another component, the least (d(w, u), u, w).
    It adds only the edge u-w, so it merges w's component into the base and
    splits none: the components are computed once per ball, and only the
    nearest base vertex of each remaining vertex is updated after a bridge.
    """
    seq = np.asarray(path.seq)
    for anchor, members in balls:
        if len(members) <= 1:
            continue
        if len(seq) != len(path.seq):       # a bridge lengthened the path
            seq = np.asarray(path.seq)
        ids, comp = _ball_components(seq, members)
        base = comp == comp[np.searchsorted(ids, members[0])]
        rest, rest_comp = ids[~base], comp[~base]
        d, u = _nearest(arr, rest, ids[base])
        while len(rest):
            b = np.lexsort((rest, u, d))[0]
            w = int(rest[b])
            cost = path.detour(path.seq.index(int(u[b])), w)
            ledger.entries.append(LedgerEntry(k, anchor, "bridge", "detour", w, cost))
            joined = rest_comp == rest_comp[b]
            moved, keep = rest[joined], ~joined
            rest, rest_comp, d, u = rest[keep], rest_comp[keep], d[keep], u[keep]
            d2, u2 = _nearest(arr, rest, moved)
            closer = (d2 < d) | ((d2 == d) & (u2 < u))
            d, u = np.where(closer, d2, d), np.where(closer, u2, u)


def build_curve(points: Sequence[HeisPoint],
                cfg: BuilderConfig | None = None) -> tuple[PolygonalCurve, BuildLedger]:
    """Connected polygonal curve through every input point, with cost ledger."""
    curve, ledger, _ = _build(points, cfg)
    return curve, ledger


def _build(points: Sequence[HeisPoint],
           cfg: BuilderConfig | None) -> tuple[PolygonalCurve, BuildLedger, NetHierarchy | None]:
    if cfg is None:
        cfg = BuilderConfig()
    plan = _plan(points, cfg)
    if isinstance(plan, PolygonalCurve):
        return plan, BuildLedger(), None
    results = beta_heis_many(plan.items, cfg.beta_budget)
    curve, ledger = _grow(plan, cfg, results)
    return curve, ledger, plan.hierarchy


class _BuildPlan(NamedTuple):
    """What a build reads before its first insertion: the nets, and every
    scale's balls and fits in the order the ledger takes them."""
    arr: np.ndarray                  # the distinct input points
    hierarchy: NetHierarchy
    #: per scale from k_min + 1: (k, (anchor, net members of its C1-ball) of
    #: every net point, (anchor, fresh members) of every ball with some)
    scales: list[tuple[int, list[tuple[int, np.ndarray]], list[tuple[int, list[int]]]]]
    items: list[tuple[np.ndarray, Ball]]    # the fits' beta_heis_many items, in order


def _plan(points: Sequence[HeisPoint], cfg: BuilderConfig) -> _BuildPlan | PolygonalCurve:
    """The build's nets and fits, or the finished curve of a one-point set.

    Raises ScaleRangeError, before any fit, when the nets miss a point.
    """
    # exact duplicates are dropped, the first kept (0.0 and -0.0 are one key)
    pts = list(dict.fromkeys(HeisPoint(*p) for p in points))
    if not pts:
        raise ValueError("cannot build a curve through an empty set")
    if len(pts) == 1:
        return PolygonalCurve(pts)
    arr = as_array(pts)
    hierarchy = build_nets(arr)
    k_min, k_max = hierarchy.k_min, hierarchy.k_max
    missed = arr.shape[0] - len(hierarchy.nets[k_max])
    if missed:
        raise ScaleRangeError("%d points lie within 2^-%d of another point, finer than the "
                              "%d scales below diam(E) that the nets span, and would be "
                              "dropped from the curve" % (missed, k_max, MAX_LEVELS))
    # A ball's fresh members are those neither on the path at the start of
    # its scale nor fresh in an earlier ball of the scale.  The path holds
    # the first net point before the first scale and the previous scale's
    # net after it (the nets are nested and every net point is a member of
    # its own ball), so a running claimed set gives every scale's fresh
    # members in advance, and the fits, which read the point set and not
    # the path, are planned before the first insertion.
    claimed = {hierarchy.nets[k_min][0]}
    scales, items = [], []
    for k in range(k_min + 1, k_max + 1):
        net_k = hierarchy.nets[k]
        # int32 members: every scale's balls are held until that scale's repair
        net_idx, net_arr = np.asarray(net_k, dtype=np.int32), arr[net_k]
        radius = cfg.c1 * 2.0 ** (-k)
        balls, fits = [], []
        for anchor in net_k:
            ball = Ball(HeisPoint(*arr[anchor]), radius)
            members = net_idx[members_in_ball(net_arr, ball)]
            balls.append((anchor, members))
            fresh = [i for i in members.tolist() if i not in claimed]
            if fresh:
                claimed.update(fresh)
                fits.append((anchor, fresh))
                items.append((arr, ball))
        scales.append((k, balls, fits))
    return _BuildPlan(arr, hierarchy, scales, items)


def _grow(plan: _BuildPlan, cfg: BuilderConfig,
          results: Sequence[BetaResult]) -> tuple[PolygonalCurve, BuildLedger]:
    """The curve and ledger of the plan, given the betas of its fits: the
    insertions of every scale, then that scale's repair."""
    arr, hierarchy = plan.arr, plan.hierarchy
    path = _Path(arr, hierarchy.nets[hierarchy.k_min][0])
    ledger = BuildLedger()
    ledger.snapshots[hierarchy.k_min] = list(path.seq)
    fitted = iter(results)
    for k, balls, fits in plan.scales:
        for anchor, fresh in fits:
            res = next(fitted)
            if res.beta < cfg.eps0:
                case, insert = "flat", path.insert_cheapest
                order = np.lexsort((fresh, foot_params_arr(arr[fresh], res.line)))
                fresh = [fresh[j] for j in order]
            else:
                case, insert = "nonflat", path.insert_near
            for i in fresh:
                op, cost, deleted = insert(i)
                ledger.entries.append(LedgerEntry(k, anchor, case, op, i, cost, deleted))
        _enforce_local_connectivity(path, arr, balls, k, ledger)
        ledger.snapshots[k] = list(path.seq)
    return PolygonalCurve([point_of(arr[i]) for i in path.seq]), ledger


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
    pinned numerically.  The curve and ledger come from the same build,
    and the Carleson sum is carleson_sum's over the build's nets: both read
    the point set and not the path, so the builder's fits and then the
    Carleson balls go through one beta_heis_many call, with the results of
    _build followed by carleson_sum.  A builder ball B(P, c1 2^-k) whose
    anchor is in the net of scale k - 2 is, at the defaults, also the
    Carleson ball B(P, a 2^-(k-2)), and the call fits their members once.
    """
    if cfg is None:
        cfg = BuilderConfig()
    plan = _plan(points, cfg)
    if isinstance(plan, PolygonalCurve):
        return TheoremAResult(0.0, 0.0, 0.0, plan, BuildLedger())
    balls = _carleson_balls(plan.hierarchy, cfg.r, cfg.carleson_a)
    with _noted("theorem_a_check", balls):
        results = beta_heis_many(plan.items + [(plan.arr, ball) for _, ball in balls],
                                 cfg.beta_budget)
    n_fits = len(plan.items)
    curve, ledger = _grow(plan, cfg, results[:n_fits])
    report = _carleson_report(plan.hierarchy, cfg.r, cfg.carleson_a, balls, results[n_fits:])
    length = curve_length(curve)
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


#: the most (center, level) candidate balls future_ball_search fits; above
#: it the centers are thinned
FUTURE_MAX_CANDIDATES = 4000


def future_ball_search(points: Sequence[HeisPoint] | np.ndarray, ball: Ball,
                       triple: tuple[HeisPoint, HeisPoint, HeisPoint],
                       cfg: BuilderConfig | None = None) -> FutureBallReport:
    """Search for a nearby ball whose beta^p * diam pays for the triple's excess.

    Solves excess = curvature_const * eps^q * diam(B) for q with eps derived from
    beta of the enlarged source ball; in the regime 2 <= q < p, scans
    dyadic balls centered at set points inside the 16x enlarged source,
    with diameters above eps^(q/2) * diam(B) / d1, ranking candidates by
    their own beta^p * diam; the reported inequalities use the beta of the
    winner's d7 enlargement.
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
    eps = d7 * beta_heis(arr, scale_ball(d7, ball), cfg.beta_budget).beta
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
    centers = np.flatnonzero(within(d_centers, big_r))
    levels = []
    rho = big_r
    while 2.0 * rho >= floor_diam and len(levels) < 24:
        levels.append(rho)
        rho *= 0.5
    if len(centers) * len(levels) > FUTURE_MAX_CANDIDATES:
        # thin the centers deterministically to stay within budget
        step = math.ceil(len(centers) * len(levels) / FUTURE_MAX_CANDIDATES)
        centers = centers[::step]

    cands = [Ball(point_of(arr[ci]), rho) for rho in levels for ci in centers
             if within(d_centers[ci] + rho, big_r)]
    if not cands:
        return bail("no candidate ball fits inside the enlarged source", q)
    results = beta_heis_many([(arr, cand) for cand in cands], cfg.beta_budget)
    log = [(cand, res.beta ** cfg.p * (2.0 * cand.radius)) for cand, res in zip(cands, results)]
    # log runs coarse to fine and by center index, so the first highest score
    # breaks ties toward the coarser level, then the smaller center index
    found = max(log, key=lambda entry: entry[1])[0]
    # the reported inequalities live on the d7 enlargement of the winner
    beta_found = beta_heis(arr, scale_ball(d7, found), cfg.beta_budget).beta
    at2 = exc <= cfg.d1 * beta_found ** cfg.p * (2.0 * d7 * found.radius)
    at4 = beta_found ** cfg.p <= cfg.d1 * eps ** (0.5 * q)
    return FutureBallReport(ball, found, q, beta_found, at2, at4, log)
