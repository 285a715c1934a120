import json
import math
import os
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import heistsp.builder
import heistsp.cli
import heistsp.multiscale
from heistsp.beta import ResourceBudgetError
from heistsp.cli import InputError, PointSetFile, load_points, main, save_points
from heistsp.verify import EXACT_CHECK_IDS, run_suite
from heistsp.core import HeisPoint
from conftest import corner_curve_vertices, horizontal_points, intro_triple


def write_points(path, points, name=None):
    save_points(str(path), PointSetFile(list(points), name=name))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPointFiles:
    def test_round_trip_structured(self, tmp_path):
        pts = [HeisPoint(1.0 / 3.0, -2.0e-17, 5.5), HeisPoint(0.1, 0.2, 0.3)]
        pset = PointSetFile(pts, name="fixture")
        path = tmp_path / "pts.txt"
        save_points(str(path), pset)
        back = load_points(str(path))
        assert back.points == pts          # bit-exact at 17 significant digits
        assert back.name == "fixture"

    def test_meta_line_is_a_comment(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# name: fixture\n# meta kind: test\n0 0 0\n1 2 3\n")
        got = load_points(str(path))
        assert got.points == [HeisPoint(0, 0, 0), HeisPoint(1, 2, 3)]
        assert got.name == "fixture"

    @given(st.lists(st.builds(
        HeisPoint,
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, pts):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.txt")
            save_points(path, PointSetFile(pts))
            assert load_points(path).points == pts

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# plain comment\n\n0 0 0\n  1 2 3  \n# trailing\n")
        got = load_points(str(path))
        assert got.points == [HeisPoint(0, 0, 0), HeisPoint(1, 2, 3)]

    def test_malformed_line_column(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0\n1 oops 3\n")
        with pytest.raises(InputError) as err:
            load_points(str(path))
        assert "%s:2:3" % path in str(err.value)

    def test_malformed_token_column_past_an_earlier_match(self, tmp_path):
        # "e5" also occurs inside "1e5": the column is the bad token's own
        path = tmp_path / "bad3.txt"
        path.write_text("1e5 e5 0\n")
        with pytest.raises(InputError) as err:
            load_points(str(path))
        assert "%s:1:5:" % path in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("1 2\n")
        with pytest.raises(InputError) as err:
            load_points(str(path))
        assert ":1:1" in str(err.value)


class TestBetaCommand:
    def test_collinear_fixture(self, tmp_path, capsys):
        path = write_points(tmp_path / "line.txt", horizontal_points(8))
        code, out, _ = run_cli(capsys, "beta", path)
        assert code == 0
        beta = float(next(l for l in out.splitlines() if l.startswith("beta ")).split()[1])
        assert beta == 0.0

    def test_two_point_central(self, tmp_path, capsys):
        path = write_points(tmp_path / "pair.txt",
                            [HeisPoint(0, 0, 0), HeisPoint(0, 0, 1)])
        code, out, _ = run_cli(capsys, "beta", path, "--ball", "0 0 0 1")
        assert code == 0
        lines = out.splitlines()
        beta = float(next(l for l in lines if l.startswith("beta ")).split()[1])
        gap = float(next(l for l in lines if l.startswith("certified_gap")).split()[1])
        assert beta >= 1.0 / 32.0 - gap

    @pytest.mark.parametrize("pts", [[HeisPoint(0.1, -0.3, 0.7)] * 3,
                                     [HeisPoint(i * 1e-100, 0.0, 0.0) for i in range(3)]],
                             ids=["coincident", "underflow"])
    def test_members_of_zero_extent_give_zero(self, pts, tmp_path, capsys):
        # the members' frame has unit 0: coincident points, and points 1e-100
        # apart, whose gauge distances round to 0
        path = write_points(tmp_path / "p.txt", pts)
        code, out, err = run_cli(capsys, "beta", path)
        assert code == 0 and err == ""
        assert "\nbeta 0\n" in out and "\nvacuous false\n" in out

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "beta", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "absent.txt" in err

    def test_malformed_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("a b c\n")
        code, _, err = run_cli(capsys, "beta", str(path))
        assert code == 2
        assert ":1:" in err

    def test_empty_file_needs_ball(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, _, err = run_cli(capsys, "beta", str(path))
        assert code == 2 and "Traceback" not in err
        code, out, _ = run_cli(capsys, "beta", str(path), "--ball", "0 0 0 1")
        assert code == 0 and "vacuous true" in out

    def test_ball_spec_errors(self, tmp_path, capsys):
        path = write_points(tmp_path / "p.txt", horizontal_points(3))
        assert run_cli(capsys, "beta", path, "--ball", "0 0 0")[0] == 2
        assert run_cli(capsys, "beta", path, "--ball", "0 0 0 -1")[0] == 2


class TestBuildCommand:
    def test_two_points(self, tmp_path, capsys):
        path = write_points(tmp_path / "two.txt",
                            [HeisPoint(0, 0, 0), HeisPoint(1, 0, 0)])
        code, out, _ = run_cli(capsys, "build", path, "--out", str(tmp_path / "run"))
        assert code == 0
        curve = load_points(str(tmp_path / "run.curve.txt"))
        assert len(curve.points) == 2

    def test_horizontal_and_determinism(self, tmp_path, capsys):
        path = write_points(tmp_path / "seg.txt", horizontal_points(20))
        code, out1, _ = run_cli(capsys, "build", path, "--out", str(tmp_path / "a"))
        assert code == 0
        length = float(next(l for l in out1.splitlines() if l.startswith("length")).split()[1])
        assert length <= 1.0 + 1e-6
        bytes1 = (tmp_path / "a.curve.txt").read_bytes(), (tmp_path / "a.ledger.csv").read_bytes()
        code, out2, _ = run_cli(capsys, "build", path, "--out", str(tmp_path / "b"))
        bytes2 = (tmp_path / "b.curve.txt").read_bytes(), (tmp_path / "b.ledger.csv").read_bytes()
        assert out1.replace("a.curve", "b.curve").replace("a.ledger", "b.ledger") == out2
        assert bytes1 == bytes2


class TestCarlesonCommand:
    def test_horizontal_zero_total(self, tmp_path, capsys):
        path = write_points(tmp_path / "seg.txt", horizontal_points(10))
        out_file = tmp_path / "carleson.csv"
        code, _, _ = run_cli(capsys, "carleson", path, "--out", str(out_file))
        assert code == 0
        total_line = next(l for l in out_file.read_text().splitlines()
                          if l.startswith("total"))
        assert float(total_line.split(",")[-1]) <= 1e-12

    def test_large_r_allowed_raw(self, tmp_path, capsys):
        path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
        assert run_cli(capsys, "carleson", path, "--r", "5")[0] == 0
        assert run_cli(capsys, "carleson", path, "--r", "9")[0] == 2

    def test_large_r_rejected_theorem_a(self, tmp_path, capsys):
        path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
        code, _, err = run_cli(capsys, "theorem-a", path, "--r", "5")
        assert code == 2
        assert "r" in err

    def test_zero_length_curve_ratio_inf(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("0 0 0\n0 0 0\n")
        code, out, _ = run_cli(capsys, "carleson", str(path), "--density", "4")
        assert code == 0
        assert out.splitlines()[-2:] == ["length,,,,,0", "ratio,,,,,inf"]


class TestTheoremCommands:
    def test_theorem_a_horizontal(self, tmp_path, capsys):
        path = write_points(tmp_path / "seg.txt", horizontal_points(12))
        code, out, _ = run_cli(capsys, "theorem-a", path)
        assert code == 0
        ratio = float(next(l for l in out.splitlines() if l.startswith("ratio")).split()[1])
        assert ratio <= 1.0 + 1e-6

    def test_theorem_b_corner(self, tmp_path, capsys):
        path = write_points(tmp_path / "corner.txt", corner_curve_vertices())
        code, out, _ = run_cli(capsys, "theorem-b", path, "--density", "32")
        assert code == 0
        got = dict(l.split() for l in out.splitlines() if not l.startswith("#"))
        assert float(got["sum"]) > 0.0
        assert float(got["length"]) == pytest.approx(1.0)

    def test_theorem_b_zero_length_curve_ratio_inf(self, tmp_path, capsys):
        # a duplicated point is a curve of length 0, whose ratio is inf
        path = tmp_path / "zero.txt"
        path.write_text("0 0 0\n0 0 0\n")
        code, out, _ = run_cli(capsys, "theorem-b", str(path))
        assert code == 0
        assert [l for l in out.splitlines() if not l.startswith("#")] == \
            ["sum 0", "length 0", "ratio inf"]

    def test_theorem_b_needs_curve(self, tmp_path, capsys):
        path = write_points(tmp_path / "one.txt", [HeisPoint(0, 0, 0)])
        assert run_cli(capsys, "theorem-b", path)[0] == 2


class TestVerifyCommand:
    def test_pass_and_reports_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, stdout1, _ = run_cli(capsys, "verify", "--seed", "42", "--samples", "4000",
                                    "--out", str(out1))
        code2, stdout2, _ = run_cli(capsys, "verify", "--seed", "42", "--samples", "4000",
                                    "--out", str(out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert stdout1 == stdout2
        payload = json.loads(out1.read_text())
        assert payload["passed"] is True

    def test_tamper_fails(self, capsys, monkeypatch):
        def tampered(seed, sample_counts):
            results = run_suite(seed=seed, sample_counts=sample_counts,
                                include=["shortest-to-line", "doubling-constant"])
            results[0].violations += 1
            results[0].worst_margin = -1.0
            return results

        monkeypatch.setattr(heistsp.cli, "run_suite", tampered)
        code, out, _ = run_cli(capsys, "verify", "--samples", "2000")
        assert code == 1
        assert "FAIL" in out

    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2


BAD_INPUTS = [
    ("beta", "--ball", "0 0 0 inf"),
    ("beta", "--ball", "0 0 0 nan"),
    ("beta", "--ball", "nan 0 0 1"),
    ("beta", "--ball", "0 0 0 1e41"),
    ("beta", "--ball", "0 0 1e81 1"),
    ("beta", "--c1", "2"),
    ("beta", "--a", "2"),
    ("carleson", "--density", "-2"),
    ("carleson", "--density", "0"),
    ("carleson", "--a", "0.5"),
    ("carleson", "--a", "1e200"),     # a ball of radius 1e200 squares to inf
    ("carleson", "--a", "1e308"),
    ("carleson", "--eps0", "0.1"),
    ("build", "--a", "0.5"),
    ("build", "--a", "nan"),
    ("build", "--c1", "inf"),
    ("build", "--c1", "1e200"),
    ("theorem-a", "--a", "0.5"),
    ("theorem-b", "--density", "0"),
    ("theorem-b", "--density", "inf"),
    ("theorem-b", "--a", "0.5"),
    ("theorem-b", "--c1", "2"),
    ("verify", "--debug-tamper"),
    ("verify", "--samples", "0"),
    ("verify", "--samples", "-5"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
    cmd, *flags = argv
    code, _, err = run_cli(capsys, cmd, *([] if cmd == "verify" else [path]), *flags)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["beta", "build", "carleson", "theorem-a", "theorem-b", "verify"])
def test_out_into_a_missing_directory_exits_2(cmd, tmp_path, capsys):
    path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
    out = str(tmp_path / "missing" / "x")
    code, _, err = run_cli(capsys, cmd, *(["--samples", "200"] if cmd == "verify" else [path]),
                           "--out", out)
    assert code == 2
    assert err.startswith("error: cannot write %s" % out) and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["build", "theorem-a"])
def test_c1_at_one_is_refused_by_its_flag(cmd, tmp_path, capsys):
    # the builder needs c1 > 1: argparse refuses --c1 1 and names the flag
    path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
    code, out, err = run_cli(capsys, cmd, path, "--c1", "1")
    assert code == 2 and out == ""
    assert "argument --c1" in err and "(1, 1e+06]" in err


@pytest.mark.parametrize("cmd", ["beta", "build", "carleson", "theorem-a", "theorem-b"])
def test_budget_above_cap_exits_3(cmd, tmp_path, capsys):
    path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
    level = heistsp.cli.MAX_BUDGET_LEVEL
    assert heistsp.cli._budget_from_level(level).pair_starts == level
    code, out, err = run_cli(capsys, cmd, path, "--budget", str(level + 1),
                             "--out", str(tmp_path / "run"))
    assert code == 3
    assert "exceeds the cap" in err and "Traceback" not in err
    assert out == "" and os.listdir(tmp_path) == ["tri.txt"]


def test_budget_error_inside_carleson_exits_3(tmp_path, capsys, monkeypatch):
    def over_budget(*args, **kwargs):
        raise ResourceBudgetError("beta over its cost guard")

    monkeypatch.setattr(heistsp.multiscale, "beta_heis_many", over_budget)
    path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
    code, _, err = run_cli(capsys, "carleson", path)
    assert code == 3
    assert "over its cost guard" in err and "Traceback" not in err
    if sys.version_info >= (3, 11):
        assert "in carleson_sum at scales k=" in err


@pytest.mark.parametrize("cmd", ["build", "theorem-a"])
def test_budget_error_inside_theorem_a_exits_3(cmd, tmp_path, capsys, monkeypatch):
    # the builder's fits and the Carleson balls share one engine call
    def over_budget(*args, **kwargs):
        raise ResourceBudgetError("beta over its cost guard")

    monkeypatch.setattr(heistsp.builder, "beta_heis_many", over_budget)
    path = write_points(tmp_path / "tri.txt", intro_triple(0.1))
    code, out, err = run_cli(capsys, cmd, path, "--out", str(tmp_path / "run"))
    assert code == 3 and out == ""
    assert "over its cost guard" in err and "Traceback" not in err
    if sys.version_info >= (3, 11):
        assert "in theorem_a_check at scales k=" in err


def test_unresolvable_close_pair_exits_2(tmp_path, capsys):
    path = write_points(tmp_path / "close.txt",
                        [HeisPoint(0, 0, 0), HeisPoint(1, 0, 0), HeisPoint(1e-20, 0, 0)])
    code, _, err = run_cli(capsys, "build", path, "--out", str(tmp_path / "run"))
    assert code == 2
    assert "dropped" in err


@pytest.mark.parametrize("cmd", ["build", "carleson", "theorem-a", "theorem-b"])
def test_points_below_the_metrics_resolution_exit_2(cmd, tmp_path, capsys):
    # every distance among these points underflows to 0
    path = write_points(tmp_path / "tiny.txt", [HeisPoint(0, 0, 0), HeisPoint(1e-100, 0, 0),
                                                HeisPoint(2e-100, 1e-100, 0)])
    code, out, err = run_cli(capsys, cmd, path, "--out", str(tmp_path / "run"))
    assert code == 2 and out == ""
    assert "metric's resolution" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["beta", "build", "carleson", "theorem-a", "theorem-b"])
def test_point_beyond_range_exits_2(cmd, tmp_path, capsys):
    # the diameter of this pair overflows to inf
    path = write_points(tmp_path / "big.txt", [HeisPoint(0, 0, 0), HeisPoint(1e200, 0, 0)])
    code, out, err = run_cli(capsys, cmd, path, "--out", str(tmp_path / "run"))
    assert code == 2
    assert "point 2" in err and "out of range" in err and "Traceback" not in err
    assert out == "" and os.listdir(tmp_path) == ["big.txt"]


@pytest.mark.parametrize("cmd, flags", [
    ("beta", []),
    ("build", ["--a", "1e6", "--c1", "1e6"]),
    ("carleson", ["--a", "1e6"]),
    ("theorem-a", ["--a", "1e6", "--c1", "1e6"]),
])
def test_inputs_at_the_range_limits_stay_finite(cmd, flags, tmp_path, capsys):
    lim = heistsp.cli.MAX_COORD
    path = write_points(tmp_path / "lim.txt", [HeisPoint(0, 0, 0), HeisPoint(lim, 0, 0),
                                                HeisPoint(0, -lim, lim * lim)])
    code, out, err = run_cli(capsys, cmd, path, *flags, "--out", str(tmp_path / "run"))
    assert code == 0, err
    texts = [out] + [f.read_text() for f in tmp_path.iterdir() if f.name != "lim.txt"]
    assert not any(w in t.lower() for t in texts for w in ("nan", "inf"))


@pytest.mark.parametrize("cmd", ["theorem-b", "carleson"])
def test_resampling_beyond_its_cap_exits_3(cmd, tmp_path, capsys):
    # 6.4e10 samples at density 64: without the cap the run allocates until it is killed
    path = write_points(tmp_path / "long.txt", [HeisPoint(0, 0, 0), HeisPoint(1e9, 0, 0)])
    code, out, err = run_cli(capsys, cmd, path, "--density", "64")
    assert code == 3
    assert "needs more than" in err and "Traceback" not in err
    assert out == ""


def test_samples_above_cap_exits_3(capsys, monkeypatch):
    # at the cap an exact check peaks near 200 MB; above it the run stops
    # before the suite draws a sample.  The suite is replaced, so neither
    # count is run.
    asked = []

    def no_suite(seed, sample_counts):
        asked.append(sample_counts)
        return []

    monkeypatch.setattr(heistsp.cli, "run_suite", no_suite)
    cap = heistsp.cli.MAX_SAMPLES
    code, out, err = run_cli(capsys, "verify", "--samples", str(cap + 1))
    assert code == 3 and asked == []
    assert "exceeds the cap" in err and "Traceback" not in err
    assert out == ""
    assert run_cli(capsys, "verify", "--samples", str(cap))[0] == 0
    assert [asked[0][cid] for cid in EXACT_CHECK_IDS] == [cap] * len(EXACT_CHECK_IDS)



#: the flags each command parses besides its input and --out
PARSED = {"beta": {"ball", "budget", "seed"},
          "build": {"a", "budget", "c1", "eps0", "r", "seed"},
          "carleson": {"a", "budget", "density", "r", "seed"},
          "theorem-b": {"a", "budget", "density", "r", "seed"}}

_LIM = heistsp.cli.MAX_COORD
_coord = st.one_of(st.sampled_from([0.0, 1e-3, -1e-3, 1.0, 1e3, -1e3, _LIM, -_LIM]),
                   st.floats(-1e3, 1e3))
_height = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([_LIM * _LIM, -_LIM * _LIM]))
#: single points and vertical stacks (one xy, several heights), then repeats of them
_point_sets = st.lists(
    st.builds(lambda x, y, zs: [HeisPoint(x, y, z) for z in zs], _coord, _coord,
              st.lists(_height, min_size=1, max_size=4)),
    min_size=1, max_size=4).map(lambda groups: [p for g in groups for p in g])


def _parses(line: str, fields: list) -> bool:
    """line is comma or blank separated: each field equal to the given text,
    or accepted by the given parser."""
    parts = line.split(",") if "," in line else line.split()
    if len(parts) != len(fields):
        return False
    try:
        for part, kind in zip(parts, fields):
            assert part == kind if isinstance(kind, str) else kind(part) is not False
    except (AssertionError, ValueError, IndexError):
        return False
    return True


@pytest.mark.parametrize("argv", [["beta"], ["build"], ["carleson"], ["carleson", "--density"],
                                  ["theorem-b", "--density"]], ids=" ".join)
@given(pts=_point_sets, data=st.data())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_cli_runs_exit_cleanly_and_name_their_flags(argv, pts, data):
    """Small files of duplicates, vertical stacks and coordinates from 1e-3
    to MAX_COORD: every run exits 0, 2 or 3 without a traceback, and on exit
    0 its header names every flag it parsed and every output line parses.
    A resampled curve gets about 16 samples along its length."""
    import contextlib
    import io
    import tempfile
    pts = (pts + data.draw(st.lists(st.sampled_from(pts), max_size=4)))[:12]
    length = heistsp.cli.PolygonalCurve(pts).length
    if argv[-1] == "--density":
        argv = argv + ["%r" % (16.0 / length if 0.0 < length < math.inf else 1.0)]
    with tempfile.TemporaryDirectory() as d:
        path = write_points(os.path.join(d, "in.txt"), pts)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [path, "--budget", "2", "--out", os.path.join(d, "run")])
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), err.getvalue()
        event("exit %d" % code)
        if code:
            return
        texts = [open(os.path.join(d, f), encoding="utf-8").read()
                 for f in sorted(os.listdir(d)) if f != "in.txt"]
    texts += [out.getvalue()] if out.getvalue() else []     # beta and carleson write --out only
    def keyed(key):
        return lambda part: float(part.split(key + "=", 1)[1])

    def flag(part):
        assert part in ("true", "false")

    rows = [["k", "px", "py", "pz", "beta", "contribution"], [int] + 5 * [float],
            ["k", "anchor", "case", "op", "point", "cost"], [int, int, str, str, int, float],
            [float, float, float], ["vertices", int], ["curve_file", str], ["ledger_file", str],
            ["line", keyed("theta"), keyed("offset"), keyed("height")],
            ["achieving_point", float, float, float], ["vacuous", flag]]
    rows += [[key, "", "", "", "", float] for key in ("total", "length", "ratio")]
    rows += [[key, float] for key in ("beta", "certified_gap", "length", "bound", "ratio", "sum")]
    for text in texts:
        config = [ln for ln in text.splitlines() if ln.startswith("# config: ")]
        assert len(config) == 1, text
        named = {part.split("=", 1)[0] for part in config[0][len("# config: "):].split(" ")}
        assert PARSED[argv[0]] | {"input"} <= named
        for ln in text.splitlines():
            assert ln.startswith("#") or any(_parses(ln, r) for r in rows), ln
