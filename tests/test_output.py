"""Byte-level tests of the output writers.

Every CSV writer is compared with a reference writer that formats row by
row: an integer as str(int(v)), anything else as format(float(v), ".17g").
The rows hold the values whose text is easiest to get wrong: -0.0, nan,
+-inf, the smallest subnormal, 1e300, integers and booleans.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cho import output
from cho.control import IterateRecord
from cho.forward import TimeGrid
from cho.mesh import build_interval, build_rectangle

SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, -2.5, 1.0 / 3.0])


def reference_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(reference_fmt(v) for v in row) + "\n")


def reference_fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def same_bytes(tmp_path, written, header, rows):
    expected = tmp_path / "expected.csv"
    reference_csv(expected, header, rows)
    return open(written, "rb").read() == expected.read_bytes()


def test_write_csv_columns_and_blocks(tmp_path):
    k = SPECIALS.size
    ints = np.arange(k) - 4
    ints[-1] = 2**53
    flags = np.arange(k) % 2 == 0
    block = np.column_stack([SPECIALS[::-1], -SPECIALS])
    path = tmp_path / "table.csv"
    output._write_csv(path, "a,b,c,d,e", SPECIALS, ints, flags, block)
    rows = zip(SPECIALS, ints, flags, *block.T)
    assert same_bytes(tmp_path, path, "a,b,c,d,e", rows)
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[1] == "-0,-4,1,0.33333333333333331,0"
    assert text[2] == "nan,-3,0,-2.5,nan"


def test_state_csv(tmp_path):
    mesh = build_interval(SPECIALS.size - 1, 0.7)
    path = output.write_state_csv(tmp_path / "state.csv", mesh, SPECIALS, SPECIALS[::-1])
    rows = zip(mesh.bulk_nodes[:, 0], SPECIALS, SPECIALS[::-1])
    assert same_bytes(tmp_path, path, output.STATE_HEADER, rows)


def test_history_csv(tmp_path):
    history = [IterateRecord(k, J, vi, step, 7 * k, k % 2 == 0)
               for k, (J, vi, step) in enumerate(zip(SPECIALS, SPECIALS[::-1], np.roll(SPECIALS, 3)))]
    path = output.write_history_csv(tmp_path / "history.csv", history)
    header = open(path, encoding="utf-8").readline().rstrip("\n")
    rows = ((h.iteration, h.J, h.vi_residual, h.step, h.newton_total, int(h.uad_ok))
            for h in history)
    assert same_bytes(tmp_path, path, header, rows)


def test_control_csv(tmp_path):
    grid = TimeGrid(T=0.3, N=SPECIALS.size)
    u = np.outer(SPECIALS, [1.0, -1.0, 3.0])
    uG = np.column_stack([SPECIALS[::-1], np.arange(SPECIALS.size)])
    paths = output.write_control_csv(tmp_path, grid, SimpleNamespace(u=u, uG=uG))
    times = grid.times()
    for path, arr in zip(paths, (u, uG)):
        header = output.CONTROL_TIMES + ",".join(f"node_{i} (1)" for i in range(arr.shape[1]))
        rows = ((times[j], times[j + 1], *arr[j]) for j in range(arr.shape[0]))
        assert same_bytes(tmp_path, path, header, rows)


@pytest.mark.parametrize("orders", [[1.9999, np.inf, -0.0], []], ids=["orders", "exact"])
def test_taylor_csv(tmp_path, orders):
    scales, remainders = [0.5, 0.25, 0.125, 0.0625], list(SPECIALS[:4])
    path = output.write_taylor_csv(tmp_path / "taylor.csv", scales, remainders, orders)
    rows = []
    for k, (s, rho) in enumerate(zip(scales, remainders)):
        order = orders[k - 1] if 0 < k <= len(orders) else float("nan")
        rows.append((s, rho, order))
    assert same_bytes(tmp_path, path, "s (1),remainder (1),observed_order (1)", rows)


def test_adjoint_norms_csv(tmp_path, monkeypatch):
    # The norms are square roots of row_inner; patched to read a column,
    # it makes them -0.0, nan, inf, a subnormal's root, 1e150 and the rest.
    monkeypatch.setattr(output, "row_inner", lambda M, a, b: a[:, 0])
    squares = np.array([-0.0, np.nan, np.inf, 5e-324, 1e300, 2.0, 0.25, 0.0, 1.0 / 3.0])
    grid = SimpleNamespace(times=lambda: SPECIALS)
    adj = SimpleNamespace(p=squares[:, None], q=squares[::-1, None])
    ops = SimpleNamespace(M_total=None)
    path = output.write_adjoint_norms_csv(tmp_path / "adj.csv", ops, grid, adj)
    rows = zip(SPECIALS, np.sqrt(squares), np.sqrt(squares[::-1]))
    assert same_bytes(tmp_path, path, "t (time),norm_p (1),norm_q (1)", rows)


def test_series_csv(tmp_path, monkeypatch, generic_run):
    problem, _, controls, traj = generic_run
    n = problem.grid.N + 1
    energies = np.resize(SPECIALS, n)
    exact = np.resize(SPECIALS[::-1], n)
    monkeypatch.setattr(output, "energy", lambda problem, phi: energies)
    monkeypatch.setattr(output, "exact_mean", lambda m0, gamma, omega, grid: exact)
    path = output.write_series_csv(tmp_path / "series.csv", problem, traj, controls)
    header = open(path, encoding="utf-8").readline().rstrip("\n")
    phi = traj.phi
    means = problem.ops.mean(phi, phi[:, traj.mesh.trace_map])
    iters = np.concatenate([[0], traj.newton_iters])
    rows = zip(problem.grid.times(), means, exact, energies, phi.min(axis=1),
               phi.max(axis=1), iters)
    assert same_bytes(tmp_path, path, header, rows)


VTK_3X3 = """\
# vtk DataFile Version 3.0
phase-field snapshot
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 16 float
0 0 0
0 0.233333333 0
0 0.466666667 0
0 0.7 0
0.333333333 0 0
0.333333333 0.233333333 0
0.333333333 0.466666667 0
0.333333333 0.7 0
0.666666667 0 0
0.666666667 0.233333333 0
0.666666667 0.466666667 0
0.666666667 0.7 0
1 0 0
1 0.233333333 0
1 0.466666667 0
1 0.7 0
CELLS 18 72
3 0 4 5
3 0 5 1
3 1 5 6
3 1 6 2
3 2 6 7
3 2 7 3
3 4 8 9
3 4 9 5
3 5 9 10
3 5 10 6
3 6 10 11
3 6 11 7
3 8 12 13
3 8 13 9
3 9 13 14
3 9 14 10
3 10 14 15
3 10 15 11
CELL_TYPES 18
5
5
5
5
5
5
5
5
5
5
5
5
5
5
5
5
5
5
POINT_DATA 16
SCALARS phi float 1
LOOKUP_TABLE default
-0
nan
inf
-inf
4.94065645841e-324
1e+300
-1
-0.666666666667
-0.333333333333
0
0.333333333333
0.666666666667
1
1.33333333333
1.66666666667
2
SCALARS mu float 1
LOOKUP_TABLE default
-6.28318530718
-5.23598775598
-4.18879020479
-3.14159265359
-2.09439510239
-1.0471975512
-0
1.0471975512
2.09439510239
3.14159265359
-3.14159265359e+300
-1.48219693752e-323
inf
-inf
nan
0
"""


def test_state_vtk_golden(tmp_path):
    mesh = build_rectangle(3, 3, 1.0, 0.7)
    phi = np.r_[-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, np.arange(10) / 3.0 - 1.0]
    with np.errstate(invalid="ignore"):
        mu = -phi[::-1] * np.pi
    path = output.write_state_vtk(tmp_path / "state.vtk", mesh, phi, mu)
    assert open(path, "rb").read() == VTK_3X3.encode("utf-8")


def test_snapshots_are_numbered_in_order(tmp_path):
    mesh = build_interval(4, 1.0)
    grid = TimeGrid(T=1.0, N=7)
    phi = np.arange(8 * 5, dtype=float).reshape(8, 5)
    traj = SimpleNamespace(grid=grid, phi=phi, mu=-phi)
    written = output.write_snapshots(str(tmp_path), mesh, traj, 3)
    assert [p.rsplit("/", 1)[1] for p in written] == ["state_0.csv", "state_1.csv", "state_2.csv"]
    for path, n in zip(written, (0, 3, 6)):
        rows = zip(mesh.bulk_nodes[:, 0], phi[n], -phi[n])
        assert same_bytes(tmp_path, path, output.STATE_HEADER, rows)
    assert output.write_snapshots(str(tmp_path), mesh, traj, 0) == []
