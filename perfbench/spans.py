"""In-memory spans around calls into heistsp, and the per-layer metrics.

A traced run replaces module attributes of heistsp (the names other
modules look up at call time) with timing wrappers.  The wrappers pass
arguments and results through unchanged; they only record a span (name,
start, end, parent, job id, and one integer such as rows or evaluations)
or bump a counter.  Nothing in ``src/`` is edited: the import sites are
patched from here and restored afterwards.

The span name's first component is the heistsp module (layer) that owns
the called function; ``bench`` marks the benchmark's own job spans.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

# Span record fields, kept as plain lists so the hot wrappers stay cheap.
NAME, START, END, PARENT, JOB, N = range(6)

VERIFY_IDS = (
    "shortest-to-line", "foot-point-factor", "line-area-bound", "pair-flatness-floor",
    "flat-exit-spread", "sharp-turn-dichotomy", "angle-improvement-dichotomy",
    "excess-forces-width", "excess-vs-beta-squared", "three-point-example",
    "doubling-constant",
)

#: layers whose self time is reported as ``<layer>.self_s``; lines and core
#: have one wrapped function each, reported as lines.dists.s and core.diameter.s
SELF_LAYERS = ("cli", "builder", "multiscale", "beta", "verify")


class Tracer:
    """Span and counter store for one traced phase of a run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, list[int]] = {}   # name -> [calls, rows]

    def wrap(self, name: str, fn: Callable,
             measure: Callable[[tuple, object], int] | None = None) -> Callable:
        """fn timed as a span; measure(args, result) fills the span's N field."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[N] = measure(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """fn untimed; counts calls and the rows of its array argument."""
        tally = self.counts.setdefault(name, [0, 0])

        def counted(p, arr):
            tally[0] += 1
            tally[1] += arr.shape[0]
            return fn(p, arr)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, 0]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()


class Site(NamedTuple):
    module: str      # heistsp module whose attribute is replaced
    attr: str        # the imported name looked up at call time
    span: str        # span name, or counter name when counted
    counted: bool = False


def _rows(args, _out) -> int:
    return int(args[0].shape[0])


def _nfev(_args, out) -> int:
    return int(out.nfev)


def _terms(_args, out) -> int:
    return len(out.terms)


MEASURES = {"lines.dists": _rows, "beta.polish": _nfev, "multiscale.carleson_sum": _terms}

#: every import site the traced run patches
SITES = (
    Site("heistsp.cli", "main", "cli.main"),
    Site("heistsp.cli", "build_curve", "builder.build_curve"),
    Site("heistsp.cli", "theorem_a_check", "builder.theorem_a_check"),
    Site("heistsp.builder", "build_curve", "builder.build_curve"),
    Site("heistsp.cli", "carleson_sum", "multiscale.carleson_sum"),
    Site("heistsp.builder", "carleson_sum", "multiscale.carleson_sum"),
    Site("heistsp.cli", "build_nets", "multiscale.build_nets"),
    Site("heistsp.builder", "build_nets", "multiscale.build_nets"),
    Site("heistsp.multiscale", "build_nets", "multiscale.build_nets"),
    Site("heistsp.cli", "default_scale_range", "multiscale.default_scale_range"),
    Site("heistsp.multiscale", "default_scale_range", "multiscale.default_scale_range"),
    Site("heistsp.multiscale", "farthest_point_order", "multiscale.farthest_point_order"),
    Site("heistsp.builder", "farthest_point_order", "multiscale.farthest_point_order"),
    Site("heistsp.verify", "farthest_point_order", "multiscale.farthest_point_order"),
    Site("heistsp.multiscale", "diameter", "core.diameter"),
    Site("heistsp.builder", "diameter", "core.diameter"),
    Site("heistsp.builder", "beta_heis", "beta.beta_heis"),
    Site("heistsp.multiscale", "beta_heis", "beta.beta_heis"),
    Site("heistsp.verify", "beta_heis", "beta.beta_heis"),
    Site("heistsp.verify", "beta_euclidean_2d", "beta.beta_euclidean_2d"),
    Site("heistsp.beta", "minimize", "beta.polish"),
    Site("heistsp.beta", "min_width_strip", "beta.strip"),
    Site("heistsp.beta", "line_dists_arr", "lines.dists"),
    Site("heistsp.builder", "dist_point_arr", "builder.dist", counted=True),
    Site("heistsp.multiscale", "dist_point_arr", "multiscale.dist", counted=True),
    Site("heistsp.beta", "dist_point_arr", "beta.scan", counted=True),
)


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers of SITES; restore the originals on exit.

    A name patched in its own module also covers calls made inside that
    module, since those look the module attribute up at call time.
    """
    saved = []
    try:
        for site in SITES:
            mod = importlib.import_module(site.module)
            orig = getattr(mod, site.attr)
            saved.append((mod, site.attr, orig))
            if site.counted:
                new = tracer.count(site.span, orig)
            else:
                new = tracer.wrap(site.span, orig, MEASURES.get(site.span))
            setattr(mod, site.attr, new)
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "name", "start", "end", "parent", "job", "n"])
        for i, s in enumerate(spans):
            w.writerow([i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[JOB], s[N]])


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job layer metrics of one traced phase of ``jobs`` jobs.

    Times are seconds per job; counts are per job.  The self times, that is
    ``<layer>.self_s`` of SELF_LAYERS, ``lines.dists.s``, ``core.diameter.s``
    and ``trace.unattributed_s`` (the benchmark's own share of a job), add
    up to ``trace.job_s``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name: str) -> list[int]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in idx(name))

    def self_sum(pred: Callable[[str], bool]) -> float:
        return sum(t for s, t in zip(spans, selfs) if pred(s[NAME]))

    def layer(s: list) -> str:
        return s[NAME].split(".", 1)[0]

    def calls(name: str) -> int:
        return len(idx(name))

    def n_sum(name: str) -> int:
        return sum(spans[i][N] for i in idx(name))

    m: dict[str, float] = {}       # sums over the phase, divided by jobs below
    dist_calls = calls("lines.dists")
    beta_calls = calls("beta.beta_heis")
    m["lines.dists.calls"] = dist_calls
    m["lines.dists.s"] = total("lines.dists")
    m["beta.calls"] = beta_calls
    m["beta.s"] = total("beta.beta_heis")
    polish_in_beta = sum(spans[i][END] - spans[i][START] for i in idx("beta.polish")
                         if spans[i][PARENT] >= 0
                         and spans[spans[i][PARENT]][NAME] == "beta.beta_heis")
    m["beta.direct.s"] = m["beta.s"] - polish_in_beta
    m["beta.polish.calls"] = calls("beta.polish")
    m["beta.polish.nfev"] = n_sum("beta.polish")
    m["beta.polish.self_s"] = self_sum(lambda n: n == "beta.polish")
    m["beta.strip.s"] = total("beta.strip")
    m["beta.scan_rows"] = tracer.counts.get("beta.scan", [0, 0])[1]
    m["builder.passes"] = sum(1 for i in idx("multiscale.build_nets")
                              if spans[i][PARENT] >= 0
                              and layer(spans[spans[i][PARENT]]) == "builder")
    m["builder.dist_scans"], m["builder.dist_rows"] = tracer.counts.get("builder.dist", [0, 0])
    m["multiscale.carleson.terms"] = n_sum("multiscale.carleson_sum")
    m["multiscale.carleson.self_s"] = self_sum(lambda n: n == "multiscale.carleson_sum")
    m["multiscale.fpo.calls"] = calls("multiscale.farthest_point_order")
    m["multiscale.fpo.s"] = total("multiscale.farthest_point_order")
    m["multiscale.build_nets.self_s"] = self_sum(lambda n: n == "multiscale.build_nets")
    m["multiscale.dist_rows"] = tracer.counts.get("multiscale.dist", [0, 0])[1]
    m["core.diameter.calls"] = calls("core.diameter")
    m["core.diameter.s"] = total("core.diameter")
    for cid in VERIFY_IDS:
        m["verify.%s.s" % cid] = total("verify." + cid)
    for name in SELF_LAYERS:
        m["%s.self_s" % name] = self_sum(lambda n, p=name + ".": n.startswith(p))
    m["trace.unattributed_s"] = self_sum(lambda n: n.startswith("bench."))
    m["trace.job_s"] = total("bench.job")
    out = {k: v / jobs for k, v in m.items()}
    # ratios and the per-call median are not per-job quantities
    out["lines.dists.rows_per_call"] = n_sum("lines.dists") / dist_calls if dist_calls else 0.0
    out["lines.dists.calls_per_beta"] = dist_calls / beta_calls if beta_calls else 0.0
    out["beta.call_s.p50"] = (statistics.median(spans[i][END] - spans[i][START]
                                                for i in idx("beta.beta_heis"))
                              if beta_calls else 0.0)
    return out
