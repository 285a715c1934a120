"""heistsp benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; heistsp is imported from ``src/``.
Jobs run back to back in this process (no worker threads or processes)
until the next job would end after S seconds, with at least one job.
Every job's output is checked; a job that raises, exits non-zero or fails
its check counts as failed.

``--trace 0`` reports the end-to-end metrics: the median job time, the
median set-up time of three fresh processes (start, imports, inputs,
fixture files), and this process's peak resident memory.
``--trace 1`` runs each job twice, untraced then traced, and reports the
per-layer metrics of the traced runs (see ``spans.py``); the spans go to
``.perfbench/spans/``.

The last line of standard output is the JSON result; the lines before it
that start with ``#`` record the environment and every job time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One process and no worker threads: BLAS or OpenMP pools would compete
# with the job for the machine's few cores.  Set before numpy is imported;
# the set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"lines.dists.rows_per_call": "rows/call", "lines.dists.calls_per_beta": "calls/beta",
               "curve_len_ratio": "ratio", "carleson_total": "length"}
OBSERVED = ("builder.vertices", "builder.bridges", "curve_len_ratio", "carleson_total")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="heistsp benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the self-tests")
    ap.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def unit_of(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith(("_s", ".s", ".p50")) else "count"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "load": "closed loop, one process, no worker threads or processes"}


def setup_probe(args) -> int:
    """Child process: set up the workload, report seconds since T0, clean up."""
    import workloads
    workdir = new_workdir()
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir, args.size)
        print(repr(time.time() - args.setup_probe), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to the first job's start."""
    out = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--setup-probe", repr(time.time())]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + res.stderr)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def new_workdir() -> str:
    (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=OUT_DIR / "work")


def run_job(wl, j: int, tracer=None):
    """Job j and its check: (seconds, or None if it raised; passed; observations)."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = wl.job(j)
            seconds = time.perf_counter() - t0
        else:
            tracer.job = j
            with tracer.span("bench.job") as rec:
                out = wl.job(j, tracer)
            seconds = rec[2] - rec[1]
        problems = wl.check(j, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, False, None
    if problems:
        sys.stderr.write("job %d failed: %s\n" % (j, "; ".join(problems)))
        return seconds, False, None
    return seconds, True, wl.observe(j, out)


def closed_loop(step, budget: float) -> None:
    """step(0), step(1), ... until the next step would end after ``budget``
    seconds, judged by the slowest step so far; at least one step."""
    start = time.perf_counter()
    slowest = 0.0
    j = 0
    while True:
        t0 = time.perf_counter()
        step(j)
        slowest = max(slowest, time.perf_counter() - t0)
        j += 1
        if time.perf_counter() - start + slowest > budget:
            return


def times_of(runs: list[tuple]) -> list[float]:
    return [r[0] for r in runs if r[0] is not None]


def mean_observed(runs: list[tuple]) -> dict[str, float]:
    observed = [r[2] for r in runs if r[1]]
    return {k: statistics.fmean(o.get(k, 0.0) for o in observed) if observed else 0.0
            for k in OBSERVED}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heistsp" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no heistsp sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        return setup_probe(args)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    setups = [] if args.trace else setup_seconds(args)
    workdir = new_workdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.size)
        if not args.trace:
            runs: list[tuple] = []
            closed_loop(lambda j: runs.append(run_job(wl, j)), args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            times = times_of(runs)
            metrics = {"job_s": statistics.median(times) if times else math.nan,
                       "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
            info = {"job_s": times, "setup_s": setups}
        else:
            runs, metrics, info = traced_run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    failed = sum(not r[1] for r in runs)
    print("# env " + json.dumps(environment()))
    print("# jobs " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def traced_run(wl, args):
    """Each job untraced, then traced; per-layer metrics of the traced runs.

    Alternating the two keeps slow drift of the machine's speed out of
    ``trace.overhead_s``.  Returns (all runs, metrics, info).
    """
    import spans
    tracer = spans.Tracer()
    plain: list[tuple] = []
    traced: list[tuple] = []

    def pair(j: int) -> None:
        plain.append(run_job(wl, j))
        with spans.patched(tracer):
            traced.append(run_job(wl, j, tracer))

    closed_loop(pair, args.seconds)
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics.update(mean_observed(traced))
    t_plain, t_traced = times_of(plain), times_of(traced)
    metrics["trace.overhead_s"] = (statistics.fmean(t_traced) - statistics.fmean(t_plain)
                                   if t_plain and t_traced else 0.0)
    (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
    spans.write_spans(str(OUT_DIR / "spans" / ("%s-seed%d.csv" % (args.workload, args.seed))),
                      tracer.spans)
    info = {"untraced_job_s": t_plain, "traced_job_s": t_traced, "spans": len(tracer.spans)}
    return plain + traced, metrics, info


if __name__ == "__main__":
    sys.exit(main())
