"""CSV and legacy-VTK writers.

All CSVs are UTF-8, comma-separated with '.' decimals, and carry a
header row naming every column with its unit; dimensionless columns are
marked (1).  File naming follows {run-name}/{kind}_{index}.csv.
"""

import os
from dataclasses import astuple

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
    header = (
        "t (time),mean (1),exact_mean (1),energy (energy),"
        "phi_min (1),phi_max (1),newton_iters (1)"
    )
    _write_csv(path, header, grid.times(), means, exact, energies,
               phi.min(axis=1), phi.max(axis=1), iters)
    return path


def write_state_csv(path, mesh, phi, mu) -> str:
    """1D snapshot: coordinate, order parameter, chemical potential."""
    _write_csv(path, STATE_HEADER, mesh.bulk_nodes[:, 0], phi, mu)
    return path


def write_state_vtk(path, mesh, phi, mu) -> str:
    """2D snapshot as legacy ASCII VTK point data."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\nphase-field snapshot\n"
                 f"ASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_bulk} float\n")
        np.savetxt(fh, mesh.bulk_nodes, "%.9g %.9g 0")
        m = mesh.bulk_elements.shape[0]
        fh.write(f"CELLS {m} {4 * m}\n")
        np.savetxt(fh, mesh.bulk_elements, "3 %d %d %d")
        fh.write(f"CELL_TYPES {m}\n" + "5\n" * m + f"POINT_DATA {mesh.n_bulk}\n")
        for name, values in (("phi", phi), ("mu", mu)):
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
            np.savetxt(fh, values, "%.12g")
    return path


def write_snapshots(outdir, mesh, traj: StateTrajectory, stride: int):
    """Field snapshots every `stride` steps (0 disables)."""
    written = []
    if stride <= 0:
        return written
    for index, n in enumerate(range(0, traj.grid.N + 1, stride)):
        if mesh.dim == 1:
            path = os.path.join(outdir, f"state_{index}.csv")
            write_state_csv(path, mesh, traj.phi[n], traj.mu[n])
        else:
            path = os.path.join(outdir, f"state_{index}.vtk")
            write_state_vtk(path, mesh, traj.phi[n], traj.mu[n])
        written.append(path)
    return written


def write_history_csv(path, history) -> str:
    """Optimizer iterate history."""
    header = (
        "iteration (1),J (cost),vi_residual (1),step (1),"
        "newton_total (1),uad_ok (bool)"
    )
    # IterateRecord's fields are the columns, in order.
    _write_csv(path, header, *zip(*map(astuple, history)))
    return path


def write_control_csv(outdir, grid, controls):
    """Final control slabs, one file per side."""
    times = grid.times()
    paths = []
    for name, arr in (("control_u", controls.u), ("control_ug", controls.uG)):
        path = os.path.join(outdir, f"{name}_0.csv")
        header = CONTROL_TIMES + ",".join(
            f"node_{i} (1)" for i in range(arr.shape[1])
        )
        _write_csv(path, header, times[:-1], times[1:], arr)
        paths.append(path)
    return paths


def write_taylor_csv(path, scales, remainders, orders) -> str:
    """Remainder decay table of a first-order expansion test."""
    # Order k compares scales k - 1 and k; the first row has none.
    observed = np.full(len(scales), np.nan)
    observed[1:len(orders) + 1] = orders
    _write_csv(path, "s (1),remainder (1),observed_order (1)", scales, remainders, observed)
    return path


def write_adjoint_norms_csv(path, ops, grid, adj) -> str:
    """Diagnostic dump of the adjoint magnitudes per time node."""
    norm_p = np.sqrt(row_inner(ops.M_total, adj.p, adj.p))
    norm_q = np.sqrt(row_inner(ops.M_total, adj.q, adj.q))
    _write_csv(path, "t (time),norm_p (1),norm_q (1)", grid.times(), norm_p, norm_q)
    return path


def _write_csv(path, header, *columns):
    """One table from equal-length columns (1D, or 2D for a block of
    columns); "%.17g" writes booleans and integers below 2^53 as integers
    and every float as format(v, ".17g") does, -0, nan and inf included."""
    np.savetxt(path, np.column_stack(columns), "%.17g", ",", header=header,
               comments="", encoding="utf-8")
