"""Linearization of the control-to-state map around a base trajectory.

The linearized step is the exact Jacobian of the discrete forward step:
per step it solves the same block system as the converged Newton
iteration, with the potential derivative frozen at the end-of-step base
state.  This makes the Taylor test and the adjoint gradient exact at
the discrete level while the scheme itself discretizes the continuous
linearized system.  The solve goes through the forward solver's shared
block solve (``forward.solve_block_system``) on the block template's
one step matrix, whose coefficients the forward run left in place, so
each step refills only the diagonal lambda.  It refines on the live
factor, usually the one the forward run left behind (on an exact
template, one built at each step's own matrix), to a relative
residual of 1e-13, and raises ``SolverError`` on a singular matrix, a
non-finite solution or a refinement that stalls on a fresh factor.

The Taylor test solves the state system at one base control and at many
perturbed ones.  The base and the perturbed controls march together in
one stacked ``solve_many``, the base as its first column.
Linearized solves take one direction at a time.
"""

from dataclasses import dataclass

import numpy as np

from .forward import (
    Problem,
    StateTrajectory,
    solve_block_system,
    solve_many,
    traj_norm_Y,
)


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


@dataclass
class TaylorResult:
    """Remainder decay of the first-order expansion of the state map."""

    scales: list
    remainders: list
    orders: list
    exact: bool = False

    def min_order(self) -> float:
        return min(self.orders) if self.orders else np.inf


def taylor_test(problem: Problem, phi0, u, directions,
                scales=(1.0, 0.5, 0.25, 0.125)) -> list:
    """Measure || S(u + s h) - S(u) - s psi_h || across shrinking scales
    for each direction h, from one stacked solve at u and at every
    u + s h; returns one ``TaylorResult`` per direction.

    The remainder is taken in the discrete H1-in-time / L-infinity-energy
    norm; observed orders log2(rho(s)/rho(s/2)) should approach 2 for a
    three-times differentiable potential.  When the remainder sits at
    round-off (state map affine in the control) the result is flagged
    ``exact`` and no orders are reported.
    """
    base, *perturbed = solve_many(problem, phi0, [u] + [u.plus(h, s) for h in directions
                                                          for s in scales])
    perturbed = iter(perturbed)
    ops, grid = problem.ops, problem.grid
    scale_ref = traj_norm_Y(ops, grid, base.phi) + 1.0
    results = []
    for h in directions:
        psi = linearized_solve(problem, base, h).psi
        remainders = [traj_norm_Y(ops, grid, next(perturbed).phi - base.phi - s * psi)
                      for s in scales]
        exact = max(remainders) <= 1e-12 * scale_ref
        orders = [] if exact else [
            float(np.log2(r1 / r2)) if r2 > 0 else np.inf
            for r1, r2 in zip(remainders, remainders[1:])
        ]
        results.append(TaylorResult(list(scales), remainders, orders, exact=exact))
    return results
