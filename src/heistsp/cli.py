"""Command-line interface: beta | build | carleson | verify | theorem-a | theorem-b.

Input files are line oriented: one point per line as "x y z", '#' starts a
comment.  A "# name: ..." comment line names the set; points round-trip at
17 significant digits.  Every output's header (_config_header) names each
flag the command parsed but --out, with the resolved value where a default
is derived from the input, and all commands are byte-reproducible at a
fixed seed.  _write writes every output, to a file or to stdout.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .core import HeisPoint, as_array, dist_point_arr, heis_point
from .beta import Ball, BetaBudget, ResourceBudgetError, beta_heis
from .builder import BuilderConfig, ScaleRangeError, TheoremAResult, theorem_a_check
# not called here: kept importable because the benchmark's tracer wraps them here
from .builder import build_curve  # noqa: F401
from .curves import PolygonalCurve
from .multiscale import build_nets, carleson_sum, sampled_carleson, theorem_b_check
from .multiscale import default_scale_range  # noqa: F401
from .verify import DEFAULT_COUNTS, EXACT_CHECK_IDS, report_dict, run_suite, suite_passed


class InputError(ValueError):
    """Malformed input, or a file that cannot be read or written; carries a
    location for diagnostics."""


@dataclass
class PointSetFile:
    points: list[HeisPoint]
    name: str | None = None


def _fmt(v: float) -> str:
    return format(v, ".17g")


def load_points(path: str) -> PointSetFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror)) from exc
    points: list[HeisPoint] = []
    name = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise InputError("%s:%d:1: expected 'x y z', got %d fields"
                             % (path, lineno, len(tokens)))
        vals = []
        col = 0
        for tok in tokens:
            col = line.index(tok, col)      # this token's place, past the ones before it
            try:
                vals.append(float(tok))
            except ValueError:
                raise InputError("%s:%d:%d: not a number: %r"
                                 % (path, lineno, col + 1, tok)) from None
            col += len(tok)
        try:
            points.append(heis_point(*vals))
        except ValueError as exc:
            raise InputError("%s:%d:1: %s" % (path, lineno, exc)) from None
    return PointSetFile(points, name)


def save_points(path: str, pset: PointSetFile, header: list[str] | None = None) -> None:
    lines = ["# heis-tsp point set"]
    if header:
        lines.extend(header)
    if pset.name:
        lines.append("# name: %s" % pset.name)
    for p in pset.points:
        lines.append("%s %s %s" % (_fmt(p.x), _fmt(p.y), _fmt(p.z)))
    _write(path, "\n".join(lines) + "\n")


def _write(path: str | None, text: str) -> None:
    """Every output's one writer: the file at path, or stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc.strerror)) from exc


def _config_header(args: argparse.Namespace, **resolved) -> list[str]:
    """The command and every flag it parsed but --out, sorted: the input by
    its base name, and resolved[name] in place of a flag whose value the
    command derived."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    cfg["input"] = os.path.basename(args.input)
    cfg.update(resolved)
    parts = []
    for key in sorted(cfg):
        v = cfg[key]
        parts.append("%s=%s" % (key, _fmt(v) if isinstance(v, float) else v))
    return ["# heis-tsp %s" % args.command, "# config: %s" % " ".join(parts)]


#: the largest |x|, |y| of an input point or a --ball center, and the
#: largest --ball radius; |z| may reach its square.  The metric takes fourth
#: powers of lengths: with the multipliers at most MAX_MULTIPLIER every ball
#: radius stays under 1e48, whose square (a dilation moves z by it) and
#: fourth power stay finite.
MAX_COORD = 1e40
#: the largest ball multiplier, --a or --c1
MAX_MULTIPLIER = 1e6


def _in_range(p: HeisPoint) -> bool:
    return max(abs(p.x), abs(p.y)) <= MAX_COORD and abs(p.z) <= MAX_COORD ** 2


def _load_input(path: str) -> PointSetFile:
    """load_points of a command's input, every point within MAX_COORD."""
    pset = load_points(path)
    for i, p in enumerate(pset.points, start=1):
        if not _in_range(p):
            raise InputError("%s: point %d %r is out of range: |x|, |y| <= %g and |z| <= %g"
                             % (path, i, tuple(p), MAX_COORD, MAX_COORD ** 2))
    return pset


def _ball_arg(spec: str) -> Ball:
    """argparse type of --ball: four finite numbers, the radius positive, all
    within MAX_COORD (cz within its square)."""
    try:
        vals = [float(t) for t in spec.split()]
    except ValueError:
        vals = []
    if (len(vals) != 4 or not all(math.isfinite(v) for v in vals)
            or not 0.0 < vals[3] <= MAX_COORD or not _in_range(HeisPoint(*vals[:3]))):
        raise argparse.ArgumentTypeError("expected 'cx cy cz radius' as finite numbers, 0 < "
                                         "radius and |cx|, |cy| <= %g, |cz| <= %g, got %r"
                                         % (MAX_COORD, MAX_COORD ** 2, spec))
    return Ball(HeisPoint(*vals[:3]), vals[3])


def _number_arg(ok, what: str):
    """argparse type of a finite number for which ok(value) holds."""
    def parse(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not (math.isfinite(v) and ok(v)):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (what, text))
        return v
    return parse


_positive_arg = _number_arg(lambda v: v > 0.0, "a finite number > 0")
_multiplier_arg = _number_arg(lambda v: 1.0 <= v <= MAX_MULTIPLIER,
                              "a number in [1, %g]" % MAX_MULTIPLIER)
# the builder's multiplier must exceed 1 (BuilderConfig)
_c1_arg = _number_arg(lambda v: 1.0 < v <= MAX_MULTIPLIER,
                      "a number in (1, %g]" % MAX_MULTIPLIER)


def _count_arg(text: str) -> int:
    """argparse type of a positive integer."""
    try:
        v = int(text)
    except ValueError:
        v = 0
    if v <= 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return v


def _enclosing_ball(points: list[HeisPoint]) -> Ball:
    """Ball centered at the input point minimizing the max distance."""
    if not points:
        raise InputError("no points: give --ball")
    arr = as_array(points)
    best = (math.inf, 0)
    for i in range(arr.shape[0]):
        m = float(dist_point_arr(HeisPoint(*arr[i]), arr).max())
        if m < best[0]:
            best = (m, i)
    radius = best[0] if best[0] > 0.0 else 1.0
    return Ball(HeisPoint(*arr[best[1]]), radius)


#: the largest --budget level.  Level L scores L pair candidates and runs
#: max(2, L // 8) polish starts of 4 L / 3 iterations per beta evaluation,
#: each iteration one broadcast over one line per start (the default, 24, is
#: BetaBudget() at half its polish iterations); above the cap a run exits 3.
MAX_BUDGET_LEVEL = 200


def _budget_from_level(level: int) -> BetaBudget:
    if level < 2:
        raise InputError("--budget must be at least 2")
    if level > MAX_BUDGET_LEVEL:
        raise ResourceBudgetError("--budget %d exceeds the cap of %d" % (level, MAX_BUDGET_LEVEL))
    return BetaBudget(pair_starts=level, refine_starts=max(2, level // 6),
                      nm_starts=max(2, level // 8), nm_iter=4 * level // 3)


def _theorem_a(args) -> tuple[TheoremAResult, list[str]]:
    """theorem_a_check of the input file under the flags, and the output header."""
    pset = _load_input(args.input)
    if not pset.points:
        raise InputError("%s: no points" % args.input)
    try:
        cfg = BuilderConfig(c1=args.c1, eps0=args.eps0, r=args.r,
                            beta_budget=_budget_from_level(args.budget),
                            carleson_a=args.a, seed=args.seed)
    except ValueError as exc:   # r outside (2, 4), eps0 outside (0, 1)
        raise InputError(str(exc)) from None
    return theorem_a_check(pset.points, cfg), _config_header(args)


def cmd_beta(args) -> int:
    pset = _load_input(args.input)
    ball = args.ball if args.ball is not None else _enclosing_ball(pset.points)
    budget = _budget_from_level(args.budget)
    res = beta_heis(pset.points, ball, budget)
    lines = _config_header(args, ball="%s %s %s %s" % tuple(
        _fmt(v) for v in (ball.center.x, ball.center.y, ball.center.z, ball.radius)))
    lines.append("beta %s" % _fmt(res.beta))
    lines.append("line theta=%s offset=%s height=%s"
                 % (_fmt(res.line.theta), _fmt(res.line.offset), _fmt(res.line.height)))
    lines.append("achieving_point %s %s %s"
                 % tuple(_fmt(v) for v in res.achieving_point))
    lines.append("certified_gap %s" % _fmt(res.certified_gap))
    lines.append("vacuous %s" % ("true" if res.vacuous else "false"))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_build(args) -> int:
    check, header = _theorem_a(args)
    curve, ledger = check.curve, check.ledger
    prefix = args.out or os.path.splitext(args.input)[0]
    curve_path = prefix + ".curve.txt"
    ledger_path = prefix + ".ledger.csv"
    save_points(curve_path, PointSetFile(curve.vertices, name="curve"), header)
    rows = ["\n".join(header), "k,anchor,case,op,point,cost"]
    for e in ledger.entries:
        rows.append("%d,%d,%s,%s,%d,%s" % (e.k, e.anchor, e.case, e.op, e.point, _fmt(e.cost)))
    _write(ledger_path, "\n".join(rows) + "\n")
    summary = "\n".join(header + [
        "vertices %d" % len(curve.vertices),
        "length %s" % _fmt(check.length),
        "bound %s" % _fmt(check.bound),
        "ratio %s" % _fmt(check.ratio),
        "curve_file %s" % os.path.basename(curve_path),
        "ledger_file %s" % os.path.basename(ledger_path),
    ]) + "\n"
    sys.stdout.write(summary)
    return 0


def _carleson_csv(report, header: list[str], extra: list[str]) -> str:
    rows = list(header)
    rows.append("k,px,py,pz,beta,contribution")
    for t in report.terms:
        rows.append("%d,%s,%s,%s,%s,%s" % (t.k, _fmt(t.point.x), _fmt(t.point.y),
                                           _fmt(t.point.z), _fmt(t.beta), _fmt(t.contribution)))
    rows.append("total,,,,,%s" % _fmt(report.total))
    rows.extend(extra)
    return "\n".join(rows) + "\n"


def cmd_carleson(args) -> int:
    pset = _load_input(args.input)
    if not pset.points:
        raise InputError("%s: no points" % args.input)
    if not 0.0 < args.r <= 8.0:
        raise InputError("carleson exponent r must lie in (0, 8]")
    budget = _budget_from_level(args.budget)
    header = _config_header(args, density=args.density or 0)
    extra: list[str] = []
    if args.density:
        report, length, ratio = sampled_carleson(PolygonalCurve(pset.points), args.density,
                                                 args.r, args.a, budget)
        extra = ["length,,,,,%s" % _fmt(length), "ratio,,,,,%s" % _fmt(ratio)]
    else:
        report = carleson_sum(build_nets(as_array(pset.points)), args.r, args.a, budget)
    _write(args.out, _carleson_csv(report, header, extra))
    return 0


def cmd_theorem_a(args) -> int:
    check, header = _theorem_a(args)
    out = "\n".join(header + [
        "length %s" % _fmt(check.length),
        "bound %s" % _fmt(check.bound),
        "ratio %s" % _fmt(check.ratio),
    ]) + "\n"
    _write(args.out, out)
    return 0


def cmd_theorem_b(args) -> int:
    pset = _load_input(args.input)
    if len(pset.points) < 2:
        raise InputError("%s: a curve needs at least 2 vertices" % args.input)
    if not 0.0 < args.r <= 8.0:
        raise InputError("exponent r must lie in (0, 8]")
    budget = _budget_from_level(args.budget)
    curve = PolygonalCurve(pset.points)
    total, length, ratio = theorem_b_check(curve, args.density, args.r, args.a, budget)
    out = "\n".join(_config_header(args) + [
        "sum %s" % _fmt(total),
        "length %s" % _fmt(length),
        "ratio %s" % _fmt(ratio),
    ]) + "\n"
    _write(args.out, out)
    return 0


#: the largest verify --samples: an exact check peaks at up to 200 bytes per
#: sample, about 200 MB at the cap; above it a run exits 3 before any draw.
MAX_SAMPLES = 10 ** 6


def cmd_verify(args) -> int:
    counts = None
    if args.samples is not None:
        if args.samples > MAX_SAMPLES:
            raise ResourceBudgetError("--samples %d exceeds the cap of %d"
                                      % (args.samples, MAX_SAMPLES))
        # exact checks run at the requested count; the constructed-family
        # checks scale proportionally (with a small floor)
        scale = args.samples / DEFAULT_COUNTS["shortest-to-line"]
        counts = {cid: args.samples if cid in EXACT_CHECK_IDS else max(4, int(round(n * scale)))
                  for cid, n in DEFAULT_COUNTS.items()}
    results = run_suite(seed=args.seed, sample_counts=counts)
    payload = report_dict(results, args.seed)
    if args.out:
        _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for r in results:
        sys.stdout.write("%-32s samples=%-7d violations=%-3d worst_margin=%s\n"
                         % (r.id, r.samples, r.violations, _fmt(r.worst_margin)))
    ok = suite_passed(results)
    sys.stdout.write("suite %s\n" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heis-tsp",
                                 description="Heisenberg-group TSP toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, r=None, builder=False):
        """Subcommand with the flags func reads: --r when r is its default,
        --c1/--eps0 for the builder, --a wherever a Carleson sum runs."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("input", help="point set file: 'x y z' per line, '#' comments")
        if r is not None:
            p.add_argument("--r", type=float, default=r, help="beta exponent")
            p.add_argument("--a", type=_multiplier_arg, default=4.0,
                           help="Carleson ball multiplier (1 to %g)" % MAX_MULTIPLIER)
        if builder:
            p.add_argument("--c1", type=_c1_arg, default=16.0,
                           help="builder ball multiplier (above 1, at most %g)" % MAX_MULTIPLIER)
            p.add_argument("--eps0", type=float, default=0.05, help="flatness threshold")
        p.add_argument("--seed", type=int, default=0, help="listed in the header; no fit reads it")
        p.add_argument("--budget", type=int, default=24, help="beta effort level")
        p.add_argument("--out", default=None)
        return p

    p = command("beta", cmd_beta, "beta number of a point set in a ball")
    p.add_argument("--ball", type=_ball_arg, default=None,
                   help="'cx cy cz radius' (default: enclosing)")
    command("build", cmd_build, "build the multiscale curve", r=3.0, builder=True)
    p = command("carleson", cmd_carleson, "discrete Carleson sum (raw r up to 8)", r=3.0)
    p.add_argument("--density", type=_positive_arg, default=None,
                   help="treat input as curve vertices, sample at this density")
    command("theorem-a", cmd_theorem_a, "length vs diam + Carleson bound (r in (2,4))",
            r=3.0, builder=True)
    # theorem-b defaults to the converse exponent
    p = command("theorem-b", cmd_theorem_b, "Carleson sum of a sampled curve vs length", r=4.0)
    p.add_argument("--density", type=_positive_arg, default=64.0,
                   help="samples per unit length")

    p = sub.add_parser("verify", help="run the lemma suite")
    p.add_argument("--seed", type=int, default=0, help="seed of the checks' samples")
    p.add_argument("--samples", type=_count_arg, default=None,
                   help="override sample count of the exact-constant checks")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ScaleRangeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ResourceBudgetError as exc:
        # notes name where the error arose, such as carleson_sum's scale and net point
        notes = "".join("\n  %s" % n for n in getattr(exc, "__notes__", ()))
        sys.stderr.write("resource error: %s%s\n" % (exc, notes))
        return 3


if __name__ == "__main__":
    sys.exit(main())
