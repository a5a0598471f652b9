"""The benchmark's gradient-2d workload builds its objects through the
public ``cho`` API (``Problem.create``, ``PairField.from_bulk``,
``ControlPair.scaled``/``sup_norm``, ``random_direction``), which the
package itself need not call.  A removed or renamed name would fail
every gradient-2d operation of a benchmark run; here it fails at once.
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
