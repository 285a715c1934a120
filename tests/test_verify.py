import hashlib

import numpy as np
import pytest

import heistsp.verify
from heistsp.verify import (
    DEFAULT_COUNTS,
    EXACT_CHECK_IDS,
    LemmaCheck,
    check_angle_improvement_dichotomy,
    check_doubling_constant,
    check_excess_forces_width,
    check_excess_vs_beta_squared,
    check_flat_exit_spread,
    check_sharp_turn_dichotomy,
    check_three_point_example,
    report_dict,
    run_suite,
    suite_passed,
)

SMALL = {cid: 20_000 for cid in EXACT_CHECK_IDS}
SMALL.update({
    "flat-exit-spread": 12,
    "sharp-turn-dichotomy": 6,
    "angle-improvement-dichotomy": 4,
    "excess-forces-width": 60,
    "excess-vs-beta-squared": 120,
    "doubling-constant": 20,
})


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(seed=7, sample_counts=SMALL)


class TestSuite:
    def test_exact_checks_have_no_violations(self, small_suite):
        for r in small_suite:
            if r.id in EXACT_CHECK_IDS:
                assert r.violations == 0
                assert r.samples == 20_000
                assert r.worst_margin >= -1e-9

    def test_all_checks_present(self, small_suite):
        assert {r.id for r in small_suite} == set(DEFAULT_COUNTS)

    def test_check_table_pinned(self, small_suite):
        # the counts, the exact ids and the suite order all derive from one
        # table; their values are fixed
        assert list(DEFAULT_COUNTS.items()) == [
            ("shortest-to-line", 100_000), ("foot-point-factor", 100_000),
            ("line-area-bound", 100_000), ("pair-flatness-floor", 100_000),
            ("flat-exit-spread", 48), ("sharp-turn-dichotomy", 24),
            ("angle-improvement-dichotomy", 12), ("excess-forces-width", 200),
            ("excess-vs-beta-squared", 1000), ("three-point-example", 4),
            ("doubling-constant", 100)]
        assert EXACT_CHECK_IDS == ("shortest-to-line", "foot-point-factor",
                                   "line-area-bound", "pair-flatness-floor")
        assert [r.id for r in small_suite] == list(DEFAULT_COUNTS)
        # include keeps its own order
        tiny = {cid: 10 for cid in EXACT_CHECK_IDS}
        assert [r.id for r in run_suite(0, tiny, include=EXACT_CHECK_IDS[::-1])] == \
            list(EXACT_CHECK_IDS[::-1])

    def test_reproducible(self):
        a = run_suite(seed=11, sample_counts=SMALL)
        b = run_suite(seed=11, sample_counts=SMALL)
        assert a == b

    def test_seed_changes_samples(self):
        a = run_suite(seed=1, include=["shortest-to-line"],
                      sample_counts={"shortest-to-line": 5000})
        b = run_suite(seed=2, include=["shortest-to-line"],
                      sample_counts={"shortest-to-line": 5000})
        assert a[0].worst_margin != b[0].worst_margin

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            run_suite(sample_counts={"not-a-check": 1})
        with pytest.raises(ValueError):
            run_suite(include=["nope"])

    def test_report_shape(self, small_suite):
        payload = report_dict(small_suite, 7)
        assert payload["seed"] == 7
        assert payload["passed"] is True
        assert len(payload["checks"]) == len(small_suite)
        assert all({"id", "samples", "violations", "worst_margin"} <= set(c)
                   for c in payload["checks"])

    def test_suite_passed_ignores_empirical(self, small_suite):
        tweaked = [LemmaCheck(r.id, r.samples, r.violations, r.worst_margin, r.seed, r.extras)
                   for r in small_suite]
        for r in tweaked:
            if r.id not in EXACT_CHECK_IDS:
                r.violations += 1
        assert suite_passed(tweaked)
        tweaked[0].violations = 1
        assert not suite_passed(tweaked)


class TestConstructedFamilies:
    def test_flat_exit(self):
        r = check_flat_exit_spread(3, 12)
        assert r.violations == 0
        assert r.worst_margin > 0.0  # projected spread clears a quarter diameter

    def test_sharp_turn_branches(self):
        r = check_sharp_turn_dichotomy(3, 6)
        assert r.violations == 0
        assert r.extras["branches"]["return"] > 0
        assert r.extras["branches"]["ball"] > 0
        assert r.extras["ball_floor"] > 0.0

    def test_angle_improvement_branches(self):
        r = check_angle_improvement_dichotomy(3, 4)
        assert r.violations == 0
        assert sum(r.extras["branches"].values()) == 4

    def test_excess_width_constant_stable(self):
        a = check_excess_forces_width(3, 100)
        b = check_excess_forces_width(4, 100)
        assert a.extras["qualifying"] > 50
        assert 1.0 <= a.extras["d0_empirical"] <= 10.0
        assert a.extras["d0_empirical"] == pytest.approx(b.extras["d0_empirical"], rel=0.25)

    def test_curvature_constant_stable(self):
        a = check_excess_vs_beta_squared(3, 150)
        b = check_excess_vs_beta_squared(4, 150)
        assert a.extras["qualifying"] > 100
        assert np.isfinite(a.extras["curvature_const_empirical"])
        assert a.extras["curvature_const_empirical"] == pytest.approx(
            b.extras["curvature_const_empirical"], rel=0.5)

    def test_three_point_example(self):
        r = check_three_point_example(0, 4)
        assert r.violations == 0
        for eps, ratio in r.extras["excess_over_eps2"].items():
            assert 0.45 <= ratio <= 0.55

    def test_doubling_frozen(self):
        r = check_doubling_constant(5, 20)
        assert r.violations == 0
        assert r.extras["max_count"] <= r.extras["frozen_bound"] == 82


def _hexed(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, dict):
        return {k: _hexed(x) for k, x in v.items()}
    return v


def _beta_fields(res):
    vals = (res.beta, *res.line, *res.achieving_point, res.certified_gap)
    return tuple(float(v).hex() for v in vals) + (res.vacuous,)


#: (samples, violations, worst margin, extras) with every float as hex, and
#: the count and SHA-1 of the beta results each check fitted, in order
FROZEN_DICHOTOMY = {
    "sharp-turn": ((24, 0, '0x1.4f8be70f57752p-9',
                    {'branches': {'return': 12, 'ball': 12},
                     'window_const': '0x1.0000000000000p-1',
                     'ball_floor': '0x1.a36e2eb1c432dp-14',
                     'ball_score_min': '0x1.5ca75884e596bp-9'}),
                   12, '141353723a435cc531bcd674d5975a5c535f64ee'),
    "angle-improvement": ((6, 0, '0x1.0000000000000p+0',
                           {'branches': {'projected': 0, 'ball': 6},
                            'tilde_floor': '0x1.999999999999ap-5',
                            'ball_floor': '0x1.5798ee2308c3ap-27'}),
                          12, 'bdace6f6a21125c13d106357e34555c71be1fcb0'),
}


DICHOTOMY_CASES = [("sharp-turn", check_sharp_turn_dichotomy, 24),
                   ("angle-improvement", check_angle_improvement_dichotomy, 6)]


def _dichotomy_fits(check, n):
    """check(0, n) with its beta_heis_many calls recorded: the check's
    result, the length of each call, and the entry of FROZEN_DICHOTOMY."""
    calls = []
    fit = heistsp.verify.beta_heis_many

    def spy(items, budget=None):
        out = fit(items, budget)
        calls.append(out)
        return out

    heistsp.verify.beta_heis_many = spy
    try:
        r = check(0, n)
    finally:
        heistsp.verify.beta_heis_many = fit
    fitted = [_beta_fields(res) for c in calls for res in c]
    digest = hashlib.sha1(repr(fitted).encode()).hexdigest()
    got = (r.samples, r.violations, r.worst_margin.hex(), _hexed(r.extras))
    return r, [len(c) for c in calls], (got, len(fitted), digest)


@pytest.mark.parametrize("name, check, n", DICHOTOMY_CASES)
def test_dichotomy_fits_frozen_and_batched(name, check, n):
    r, calls, frozen = _dichotomy_fits(check, n)
    if name == "sharp-turn":    # one call for every ball-branch instance
        assert calls == [r.extras["branches"]["ball"]]
    else:                       # one two-item call per instance
        assert calls == [2] * n
    assert frozen == FROZEN_DICHOTOMY[name]
