"""The benchmark's gradient-2d workload builds its objects through the
public ``cho`` API (``Problem.create``, ``PairField.from_bulk``,
``ControlPair.scaled``/``sup_norm``, ``random_direction``), which the
package itself need not call.  A removed or renamed name would fail
every gradient-2d operation of a benchmark run; here it fails at once.
The optimize-1d and verify-rectangle workloads run one smoke round each
through their own gates (the history_0.csv columns, all checks passed),
so a change that breaks a gate fails here as well.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).parents[1] / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))     # for its ``reference`` import
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_gradient_2d_builds_and_closes_the_duality_gap(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    wl = workloads.Gradient2D(7, str(tmp_path), smoke=True)
    objects = wl.build()
    _, _, dJ_lin, dJ_adj = wl.derivatives(objects)
    assert wl.duality_gap(dJ_adj, dJ_lin) <= 1e-10


def smoke_round(workload, tmp_path, monkeypatch):
    """Run each operation of a workload once on its smoke inputs, without
    sampling the reference kernel; returns the pass results."""
    wl = load_workloads(monkeypatch).WORKLOADS[workload](7, str(tmp_path), smoke=True)
    wl.host_speed = False
    wl.write_inputs()
    objects = wl.build()
    return [wl.run_pass(objects, op) for op in wl.ops]


def test_optimize_1d_smoke_round_passes_its_gates(tmp_path, monkeypatch):
    for result in smoke_round("optimize-1d", tmp_path, monkeypatch):
        assert result.attempted == 1 and result.failures == [], result.failures
        assert result.facts["gate.iterations"] >= 1


def test_verify_rectangle_smoke_round_passes_its_gates(tmp_path, monkeypatch):
    result, = smoke_round("verify-rectangle", tmp_path, monkeypatch)
    assert result.attempted == 1 and result.failures == [], result.failures
    assert result.facts["verify.checks_passed"] == 11
