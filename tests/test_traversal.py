"""The block-bounded farthest-point traversal against the plain loop.

farthest_point_order rescans, from BLOCK_MIN_ROWS rows on, only the leaves
a pick can reach; the result must equal the plain traversal's bit for bit:
the same picks, the same radii and the same smallest-index ties.  The
oracle below is the plain loop as it stood before the leaves were added.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heistsp.core
from heistsp.core import (
    BLOCK_MIN_ROWS,
    LEAF_ROWS,
    _farthest_by_leaves,
    _leaf_bounds,
    dist_arr,
    farthest_point_order,
    sample_box,
)
from heistsp.multiscale import build_nets


def plain_order(arr, m=None):
    """The plain farthest-point traversal: one full scan per pick."""
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


KINDS = ("cloud", "line-and-stack", "duplicates", "far-cloud", "far-line-and-stack")


def point_set(kind: str, n: int, seed: int) -> np.ndarray:
    """n rows of one fixture shape.  line-and-stack is the shape of the
    angle-improvement check: a horizontal line of points plus a vertical
    stack at one xy; the far- shapes sit near (1e6, -1e6, 3e6), where the
    twisted height rounds by a few 1e-4."""
    rng = np.random.default_rng(seed)
    base = kind.removeprefix("far-")
    if base == "cloud":
        arr = sample_box(rng, n, 1.0)
    elif base == "line-and-stack":
        k = max(2, n // 10)
        t = np.linspace(-0.15, 0.15, k)
        theta = float(rng.uniform(0.0, math.pi))
        line = np.column_stack([t * math.cos(theta), t * math.sin(theta), np.zeros(k)])
        z = np.linspace(0.0, float(rng.uniform(1e-3, 1e-2)), n - k)
        stack = np.column_stack([np.full(n - k, 0.01), np.full(n - k, -0.02), z])
        arr = np.concatenate([line, stack])
    else:
        # exact duplicate rows, many of them, in shuffled order
        pool = sample_box(rng, max(2, n // 8), 1.0)
        arr = pool[rng.integers(0, pool.shape[0], n)]
    if kind.startswith("far-"):
        arr = arr + np.array([1e6, -1e6, 3e6])
    return np.ascontiguousarray(arr)


def stop_prefix(order, radii, stop):
    """The seed pick and the picks after it whose radius exceeds stop."""
    k = next((j for j in range(1, len(radii)) if not radii[j] > stop), len(radii))
    return order[:k], radii[:k]


def box_of(leaves):
    """The box argument of _leaf_bounds for leaves of shape (L, rows, 3)."""
    lo, hi = leaves.min(axis=1).T, leaves.max(axis=1).T
    return np.concatenate([lo, hi, np.maximum(np.abs(lo), np.abs(hi))])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20),
       shift=st.sampled_from([0.0, 1e3, 1e6]), spread=st.sampled_from([0.0, 1e-6, 1.0]))
def test_leaf_bound_below_computed_distance(seed, rows, shift, spread):
    """The bound stays below every computed distance of the leaf's rows, also
    where the twisted height loses most of its digits to rounding: points
    far from the origin, leaves of one repeated point, picks next to them."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, (64, 1, 3)) * shift
    leaves = centers + spread * rng.uniform(-1.0, 1.0, (64, rows, 3))
    box = box_of(leaves)
    for p in np.concatenate([leaves[:8, 0], leaves[:8, 0] + rng.normal(0.0, 1e-3, (8, 3)),
                             rng.uniform(-1.0, 1.0, (8, 3)) * shift]):
        assert np.all(_leaf_bounds(p, box) <= dist_arr(p, leaves).min(axis=1))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5 * LEAF_ROWS),
       seed=st.integers(0, 2**32 - 1), m=st.integers(1, 120), cut=st.integers(1, 119))
def test_leaves_match_plain(kind, n, seed, m, cut):
    """The leaf traversal itself, on sets of a few leaves: every m-prefix and
    every stop-prefix equals the plain loop's."""
    arr = point_set(kind, n, seed)
    order, radii = plain_order(arr, m)
    assert _farthest_by_leaves(arr, min(m, n), -math.inf) == (order, radii)
    stop = radii[min(cut, len(radii) - 1)]
    expected = stop_prefix(order, radii, stop)
    assert _farthest_by_leaves(arr, n, stop) == expected
    assert farthest_point_order(arr, stop=stop) == expected


def test_leaves_full_traversal():
    """Every pick of a full traversal, duplicates and all (a traversal past
    the distinct rows picks row 0 again at radius 0)."""
    for kind in KINDS:
        arr = point_set(kind, 3 * LEAF_ROWS + 7, 11)
        assert _farthest_by_leaves(arr, arr.shape[0], -math.inf) == plain_order(arr)


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(KINDS), extra=st.integers(0, BLOCK_MIN_ROWS // 4),
       seed=st.integers(0, 2**32 - 1), m=st.integers(2, 48), cut=st.integers(1, 47))
def test_dispatch_above_threshold(kind, extra, seed, m, cut):
    """farthest_point_order above the row threshold: m- and stop-prefixes."""
    arr = point_set(kind, BLOCK_MIN_ROWS + extra, seed)
    order, radii = plain_order(arr, m)
    assert farthest_point_order(arr, m) == (order, radii)
    stop = radii[min(cut, len(radii) - 1)]
    assert farthest_point_order(arr, stop=stop) == stop_prefix(order, radii, stop)


def test_dispatch_on_row_count(monkeypatch):
    """The leaves run from BLOCK_MIN_ROWS rows on, the plain scan below."""
    calls = []
    monkeypatch.setattr(heistsp.core, "_farthest_by_leaves",
                        lambda *a: calls.append(a[0].shape[0]) or _farthest_by_leaves(*a))
    for n in (BLOCK_MIN_ROWS - 1, BLOCK_MIN_ROWS):
        arr = point_set("cloud", n, 5)
        assert farthest_point_order(arr, 4) == plain_order(arr, 4)
    assert calls == [BLOCK_MIN_ROWS]


@pytest.mark.parametrize("m", [0, 1, 3])
def test_small_prefixes(m):
    """At least the seed row is picked; stop never drops it."""
    arr = point_set("cloud", 10, 2)
    assert farthest_point_order(arr, m) == plain_order(arr, m)
    assert farthest_point_order(arr, stop=math.inf) == ([0], [math.inf])
    with pytest.raises(ValueError):
        farthest_point_order(arr[:0], m)


#: isometries of the Koranyi metric whose coordinate maps round nothing: a
#: quarter turn about the z axis and the reflection (x, y, z) -> (x, -y, -z)
SYMMETRIES = {
    "quarter-turn": lambda a: np.column_stack([-a[:, 1], a[:, 0], a[:, 2]]),
    "reflection": lambda a: np.column_stack([a[:, 0], -a[:, 1], -a[:, 2]]),
}


@pytest.mark.parametrize("sym", SYMMETRIES)
@pytest.mark.parametrize("kind, n, m", [("cloud", 300, None), ("line-and-stack", 300, None),
                                         ("duplicates", 300, None),
                                         ("cloud", BLOCK_MIN_ROWS + 3616, 1024)])
def test_traversal_exact_under_symmetries(sym, kind, n, m):
    """The same picks and radii, bit for bit, on the image of the set; the
    large set takes the leaves path, on a prefix of 1024 picks."""
    arr = point_set(kind, n, 7)
    assert farthest_point_order(SYMMETRIES[sym](arr), m) == farthest_point_order(arr, m)


@pytest.mark.parametrize("sym", SYMMETRIES)
def test_nets_exact_under_symmetries(sym):
    """build_nets of the image: the same scale range, nets and diameter."""
    arr = point_set("cloud", 400, 3)
    want, got = build_nets(arr), build_nets(SYMMETRIES[sym](arr))
    assert (got.k_min, got.k_max, got.nets, got.diam) == (want.k_min, want.k_max, want.nets,
                                                          want.diam)
