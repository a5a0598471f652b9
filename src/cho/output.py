"""CSV and legacy-VTK writers.

All CSVs are UTF-8, comma-separated with '.' decimals, and carry a
header row naming every column with its unit; dimensionless columns are
marked (1).  File naming follows {run-name}/{kind}_{index}.csv.
"""

import os

import numpy as np

from .forward import StateTrajectory, energy, exact_mean
from .spaces import row_inner

# Headers that ``config`` recognizes in a control table or snapshot it reads.
CONTROL_TIMES = "t_start (time),t_end (time),"
STATE_HEADER = "x (length),phi (1),mu (1)"


def write_series_csv(path, problem, traj: StateTrajectory, controls) -> str:
    """Per-step time series: mean vs closed form, energy, range, iterations."""
    ops, grid, phi = problem.ops, problem.grid, traj.phi
    omega = ops.mean(controls.u, controls.uG)
    means = ops.mean(phi, phi[:, traj.mesh.trace_map])
    energies = energy(problem, phi)
    exact = exact_mean(means[0], problem.physics.gamma, omega, grid)
    iters = np.concatenate([[0], traj.newton_iters])
    rows = zip(grid.times(), means, exact, energies, phi.min(axis=1), phi.max(axis=1), iters)
    header = (
        "t (time),mean (1),exact_mean (1),energy (energy),"
        "phi_min (1),phi_max (1),newton_iters (1)"
    )
    _write_csv(path, header, rows)
    return path


def write_state_csv(path, mesh, phi, mu) -> str:
    """1D snapshot: coordinate, order parameter, chemical potential."""
    rows = zip(mesh.bulk_nodes[:, 0], phi, mu)
    _write_csv(path, STATE_HEADER, rows)
    return path


def write_state_vtk(path, mesh, phi, mu) -> str:
    """2D snapshot as legacy ASCII VTK point data."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("phase-field snapshot\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_bulk} float\n")
        for x, y in mesh.bulk_nodes:
            fh.write(f"{x:.9g} {y:.9g} 0\n")
        m = mesh.bulk_elements.shape[0]
        fh.write(f"CELLS {m} {4 * m}\n")
        for tri in mesh.bulk_elements:
            fh.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        fh.write(f"CELL_TYPES {m}\n")
        fh.write("\n".join(["5"] * m) + "\n")
        fh.write(f"POINT_DATA {mesh.n_bulk}\n")
        for name, values in (("phi", phi), ("mu", mu)):
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(f"{v:.12g}" for v in values) + "\n")
    return path


def write_snapshots(outdir, mesh, traj: StateTrajectory, stride: int):
    """Field snapshots every `stride` steps (0 disables)."""
    written = []
    if stride <= 0:
        return written
    index = 0
    for n in range(0, traj.grid.N + 1, stride):
        if mesh.dim == 1:
            path = os.path.join(outdir, f"state_{index}.csv")
            write_state_csv(path, mesh, traj.phi[n], traj.mu[n])
        else:
            path = os.path.join(outdir, f"state_{index}.vtk")
            write_state_vtk(path, mesh, traj.phi[n], traj.mu[n])
        written.append(path)
        index += 1
    return written


def write_history_csv(path, history) -> str:
    """Optimizer iterate history."""
    header = (
        "iteration (1),J (cost),vi_residual (1),step (1),"
        "newton_total (1),uad_ok (bool)"
    )
    rows = (
        (h.iteration, h.J, h.vi_residual, h.step, h.newton_total, int(h.uad_ok))
        for h in history
    )
    _write_csv(path, header, rows)
    return path


def write_control_csv(outdir, grid, controls):
    """Final control slabs, one file per side."""
    times = grid.times()
    paths = []
    for name, arr in (("control_u", controls.u), ("control_ug", controls.uG)):
        path = os.path.join(outdir, f"{name}_0.csv")
        width = arr.shape[1]
        header = CONTROL_TIMES + ",".join(
            f"node_{i} (1)" for i in range(width)
        )
        rows = (
            (times[j], times[j + 1], *arr[j]) for j in range(arr.shape[0])
        )
        _write_csv(path, header, rows)
        paths.append(path)
    return paths


def write_taylor_csv(path, result) -> str:
    """Remainder decay table of a first-order expansion test."""
    rows = []
    for k, (s, rho) in enumerate(zip(result.scales, result.remainders)):
        order = result.orders[k - 1] if 0 < k <= len(result.orders) else float("nan")
        rows.append((s, rho, order))
    _write_csv(path, "s (1),remainder (1),observed_order (1)", rows)
    return path


def write_adjoint_norms_csv(path, ops, grid, adj) -> str:
    """Diagnostic dump of the adjoint magnitudes per time node."""
    norm_p = np.sqrt(row_inner(ops.M_total, adj.p, adj.p))
    norm_q = np.sqrt(row_inner(ops.M_total, adj.q, adj.q))
    _write_csv(path, "t (time),norm_p (1),norm_q (1)", zip(grid.times(), norm_p, norm_q))
    return path


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")
