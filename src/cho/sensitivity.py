"""Linearization of the control-to-state map around a base trajectory.

The linearized step is the exact Jacobian of the discrete forward step:
per step it solves the same block system as the converged Newton
iteration, with the potential derivative frozen at the end-of-step base
state.  This makes the Taylor check and the adjoint gradient exact at
the discrete level while the scheme itself discretizes the continuous
linearized system.  The solve goes through the forward solver's shared
block solve (``forward.solve_block_system``) on the block template's
one step matrix, whose coefficients the forward run left in place, so
each step refills only the diagonal lambda.  It refines on the live
factor, usually the one the forward run left behind (on an exact
template, one built at each step's own matrix), to a relative
residual of 1e-13, and raises ``SolverError`` on a singular matrix, a
non-finite solution or a refinement that stalls on a fresh factor.
"""

import numpy as np

from .forward import Problem, StateTrajectory, solve_block_system


class LinearizedTrajectory:
    """Sensitivities (psi, eta) of (phi, mu) along a control direction."""

    def __init__(self, psi, eta):
        self.psi = psi          # (N+1, n_bulk), psi[0] = 0
        self.eta = eta


def linearized_solve(problem: Problem, base: StateTrajectory, h) -> LinearizedTrajectory:
    """Solve the linearized system for the direction h = (h, h_Gamma).

    ``h`` is a ``ControlPair``, checked against the problem's mesh and
    grid.  The initial sensitivity vanishes because the initial state
    does not depend on the control.
    """
    ops, grid, physics = problem.ops, problem.grid, problem.physics
    dt = grid.dt
    n = problem.mesh.n_bulk

    h.check(problem.mesh, grid, "direction")
    psi = np.zeros((grid.N + 1, n))
    eta = np.zeros((grid.N + 1, n))

    c = problem.jacobian_coefficients
    lam, dexp = problem.jacobian(base.phi)
    sources = physics.gamma * ops.mass(h.u, h.uG)
    for k in range(grid.N):
        Mpsi = ops.M_total @ psi[k]
        rhs1 = (1.0 / dt) * Mpsi + sources[k]
        rhs2 = (physics.tau / dt) * Mpsi - dexp[k] * psi[k]
        psi[k + 1], eta[k + 1] = solve_block_system(
            ops, c, np.concatenate([rhs1, rhs2]), lam[k + 1], step=k + 1)
    return LinearizedTrajectory(psi, eta)
