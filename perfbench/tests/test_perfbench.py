"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
import run  # noqa: E402
from reference import HostSpeed  # noqa: E402
from tracer import VERIFY_GROUPS, Tracer  # noqa: E402
from workloads import DUALITY_GAP_MAX, WORKLOADS, Gradient2D, _timed  # noqa: E402

COUNTS = ("forward.newton_iters", "sparse.factor_calls", "sparse.bmat_calls",
          "control.iterations", "output.files")


def _result(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_smoke_untraced_reports_end_to_end_metrics_for_every_workload():
    result = _result("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--smoke")
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m}" for w in WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_reports_every_per_layer_metric(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert result["correct"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["forward.solve_calls"] >= 1
    if workload == "verify-rectangle":
        assert metrics["verify.checks_passed"] == 11
        assert all(metrics[name] > 0 for name in VERIFY_GROUPS)


def test_a_per_layer_metric_nobody_produced_is_an_error():
    layers = {name: 1.0 for name in run.PER_LAYER if name not in run.FACT_METRICS}
    del layers["sparse.bmat_s"]
    rounds = [{"layers": layers, "facts": {},
               "passes": [{"op": "pass", "wall_s": 1.0, "cpu_s": 1.0}]}]
    with pytest.raises(RuntimeError, match="sparse.bmat_s"):
        run._per_layer(rounds, 1.0)
    layers["sparse.bmat_s"] = 1.0
    assert set(run._per_layer(rounds, 1.0)) == set(run.PER_LAYER)


def test_host_speed_samples_during_a_call_and_leaves_them_out_of_its_time():
    with HostSpeed() as hs:
        time.sleep(0.35)
    assert len(hs.samples) >= 5         # before, at least three during, after
    assert 0 < hs.spent < 0.35 and hs.kernel_s > 0
    _, error, (wall, _, kernel_s) = _timed(lambda: time.sleep(0.3), True)
    assert error is None and kernel_s > 0
    assert wall == pytest.approx(0.3, abs=0.03)


def test_count_metrics_repeat_across_runs():
    a, b = (_result("--workload", "optimize-1d", "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--smoke")["metrics"] for _ in range(2))
    for name in COUNTS:
        assert a[name]["value"] > 0
        assert a[name]["value"] == b[name]["value"], name


def test_tracer_nesting_self_time_and_superlu_solves():
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    tracer = Tracer()
    A = sp.identity(4, format="csc")
    factor = tracer.wrap("sparse.factor", "splu", splu, tracer._on_splu)
    inner = tracer.wrap("forward.solve", "inner", lambda: factor(A).solve(np.ones(4)))
    outer = tracer.wrap("forward.solve", "outer", inner)
    outer()
    spans = tracer.spans()
    assert list(spans["parent"]) == [-1, 0, 1, 1]
    m = tracer.metrics()
    assert m["forward.solve_calls"] == 1           # the nested call is not doubled
    assert m["sparse.factor_calls"] == m["sparse.trisolve_calls"] == 1
    assert (m["sparse.factor_dofs"], m["sparse.factor_nnz"]) == (4, 4)
    dur = spans["end"] - spans["start"]
    expected_self = (dur[0] - dur[1]) + (dur[1] - dur[2] - dur[3])
    assert m["forward.self_s"] == pytest.approx(expected_self)


def test_duality_gate_rejects_a_scaled_gradient(tmp_path):
    from cho.control import control_inner

    wl = Gradient2D(7, str(tmp_path), smoke=True)
    objects = wl.build()
    problem, _, _, h, _ = objects
    _, g, dJ_lin, dJ_adj = wl.derivatives(objects)
    assert wl.duality_gap(dJ_adj, dJ_lin) <= DUALITY_GAP_MAX
    scaled = control_inner(g.scaled(1.0 + 1e-6), h, problem.ops, problem.grid.dt)
    assert wl.duality_gap(scaled, dJ_lin) > DUALITY_GAP_MAX


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradient-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
