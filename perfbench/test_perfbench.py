"""Self-tests of the benchmark: span arithmetic, output checks, a tiny smoke run.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import END, N, NAME, PARENT, START, Tracer  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_times_on_hand_built_tree():
    tree = [
        span("bench.job", 0.0, 10.0, -1),
        span("builder.build_curve", 1.0, 8.0, 0),
        span("beta.beta_heis", 2.0, 5.0, 1),
        span("lines.dists", 2.5, 3.0, 2),
        span("lines.dists", 3.5, 4.5, 2),
        span("core.diameter", 6.0, 7.0, 1),
        span("multiscale.build_nets", 8.5, 9.5, 0),
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 1.5, 0.5, 1.0, 1.0, 1.0]
    tracer = Tracer()
    tracer.spans = tree
    m = spans.layer_metrics(tracer, jobs=2)
    assert m["trace.job_s"] == 5.0
    assert m["builder.self_s"] == 1.5
    assert m["beta.self_s"] == 0.75
    assert m["lines.dists.s"] == 0.75
    assert m["lines.dists.calls"] == 1.0
    assert m["lines.dists.calls_per_beta"] == 2.0
    assert m["builder.passes"] == 0.0
    parts = sum(m[k] for k in ("cli.self_s", "builder.self_s", "multiscale.self_s",
                               "beta.self_s", "verify.self_s", "lines.dists.s",
                               "core.diameter.s", "trace.unattributed_s"))
    assert parts == pytest.approx(m["trace.job_s"], abs=1e-12)


def test_wrappers_pass_results_through_and_restore():
    import numpy as np
    import heistsp.beta
    orig = heistsp.beta.line_dists_arr
    arr = np.zeros((5, 3))
    line = heistsp.beta.HorizontalLine(0.3, 0.1, 0.2)
    tracer = Tracer()
    with spans.patched(tracer):
        assert heistsp.beta.line_dists_arr is not orig
        got = heistsp.beta.line_dists_arr(arr, line)
        heistsp.beta.dist_point_arr(heistsp.beta.HeisPoint(0, 0, 0), arr)
    assert heistsp.beta.line_dists_arr is orig
    assert np.array_equal(got, orig(arr, line))
    (rec,) = tracer.spans
    assert rec[NAME] == "lines.dists" and rec[N] == 5 and rec[PARENT] == -1
    assert rec[END] >= rec[START]
    assert tracer.counts["beta.scan"] == [1, 5]


def test_every_site_exists():
    import importlib
    for site in spans.SITES:
        assert callable(getattr(importlib.import_module(site.module), site.attr)), site


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_lifted_check_rejects_dropped_vertex_and_bad_exit(workdir):
    wl = workloads.LiftedBuild(0, workdir, "tiny")
    out = wl.job(0)
    assert wl.check(0, out) == []
    assert wl.check(0, (1, out[1])) != []
    curve = os.path.join(workdir, "circle.curve.txt")
    with open(curve, encoding="utf-8") as fh:
        lines = fh.readlines()
    dropped = [ln for ln in lines if not ln.startswith("#")][3]
    with open(curve, "w", encoding="utf-8") as fh:
        fh.writelines(ln for ln in lines if ln != dropped)
    assert any("not curve vertices" in p for p in wl.check(0, out))


def test_lifted_check_rejects_ratio_outside_band(workdir):
    wl = workloads.LiftedBuild(0, workdir, "tiny")
    code, text = wl.job(0)
    ref = workloads.LIFTED_RATIO[("tiny", "circle")]
    lines = [("ratio %r" % (1.2 * ref)) if ln.startswith("ratio ") else ln
             for ln in text.splitlines()]
    assert any("ratio" in p for p in wl.check(0, (code, "\n".join(lines))))


def test_cloud_check_rejects_dropped_vertex_and_ledger_mismatch(workdir):
    wl = workloads.CloudBuild(3, workdir, "tiny")
    curve, ledger = wl.job(0)
    assert wl.check(0, (curve, ledger)) == []
    lost = curve.vertices[0]
    dropped = type(curve)([v for v in curve.vertices if v != lost])
    assert any("not curve vertices" in p for p in wl.check(0, (dropped, ledger)))
    ledger.entries[0].cost += 1e-9 * curve.length
    assert any("ledger" in p for p in wl.check(0, (curve, ledger)))


def test_nets_check_rejects_changed_size(workdir):
    wl = workloads.Nets8k(5, workdir, "tiny")
    k_min, k_max, sizes = wl.job(0)
    assert wl.check(0, (k_min, k_max, sizes)) == []
    sizes[2] += 1
    assert wl.check(0, (k_min, k_max, sizes)) != []


def test_verify_check_rejects_injected_violation(workdir):
    wl = workloads.VerifySuite(2, workdir, "tiny")
    results = wl.job(0)
    assert wl.check(0, results) == []
    results[-1].violations = 1        # a constructed-family check
    assert wl.check(0, results) != []
    results[-1].violations = 0
    results[0].violations = 1         # an exact check: suite_passed turns false
    assert len(wl.check(0, results)) == 2


def test_moved_cloud_is_an_isometric_copy():
    from heistsp.core import dist_matrix, sample_box
    import numpy as np
    base = sample_box(np.random.default_rng(0), 50, 1.0)
    moved = workloads.moved_cloud(50, 11)
    assert not np.allclose(moved, base)
    assert np.allclose(dist_matrix(moved), dist_matrix(base), rtol=1e-12, atol=1e-14)


def benchmark_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec, {0: [m["name"] for m in spec["end_to_end"]],
                  1: [m["name"] for m in spec["per_layer"]]}


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_of_every_workload(trace):
    spec, names = benchmark_metrics()
    # every workload, including those BENCHMARK.json does not list
    for name in workloads.WORKLOADS:
        res = subprocess.run(RUN + ["--workload", name, "--seed", "4", "--seconds", "1",
                                    "--trace", str(trace), "--size", "tiny"],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(names[trace]), name
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nets-8k",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
