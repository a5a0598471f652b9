"""Linearization of the control-to-state map around a base trajectory.

The linearized step is the exact Jacobian of the discrete forward step:
per step it solves the same block system as the converged Newton
iteration, with the potential derivative frozen at the end-of-step base
state.  This makes the Taylor test and the adjoint gradient exact at
the discrete level while the scheme itself discretizes the continuous
linearized system.  The solve goes through the forward solver's shared
fixed-pattern block solve (``forward.solve_block_system``), which
raises ``SolverError`` on a singular matrix or a non-finite solution.
"""

from dataclasses import dataclass

import numpy as np

from .forward import (
    Problem,
    StateTrajectory,
    jacobian_coefficients,
    scheme_functions,
    solve,
    solve_block_system,
    traj_norm_Y,
)


class LinearizedTrajectory:
    """Sensitivities (psi, eta) of (phi, mu) along a control direction."""

    def __init__(self, base: StateTrajectory, psi, eta):
        self.base = base
        self.psi = psi          # (N+1, n_bulk), psi[0] = 0
        self.eta = eta


def linearized_solve(problem: Problem, base: StateTrajectory, h) -> LinearizedTrajectory:
    """Solve the linearized system for the direction h = (h, h_Gamma).

    ``h`` carries slab arrays like a control pair.  The initial
    sensitivity vanishes because the initial state does not depend on
    the control.
    """
    ops, grid, physics = problem.ops, problem.grid, problem.physics
    fns = scheme_functions(problem.pair, problem.opts)
    dt = grid.dt
    n = problem.mesh.n_bulk

    hu = np.asarray(h.u, dtype=float)
    hg = np.asarray(h.uG, dtype=float)
    psi = np.zeros((grid.N + 1, n))
    eta = np.zeros((grid.N + 1, n))

    Mbar = ops.M_total
    a, b = jacobian_coefficients(physics, dt)
    for k in range(grid.N):
        lam = fns.nodal(ops, base.phi[k + 1], 1)
        rhs1 = (1.0 / dt) * (Mbar @ psi[k]) + physics.gamma * (
            ops.M_bulk @ hu[k] + ops.P.T @ (ops.M_gamma @ hg[k])
        )
        rhs2 = (physics.tau / dt) * (Mbar @ psi[k]) - fns.nodal(ops, base.phi[k], 3) * psi[k]
        psi[k + 1], eta[k + 1] = solve_block_system(
            ops, a, b, np.concatenate([rhs1, rhs2]), lam=lam, step=k + 1
        )
    return LinearizedTrajectory(base, psi, eta)


@dataclass
class TaylorResult:
    """Remainder decay of the first-order expansion of the state map."""

    scales: list
    remainders: list
    orders: list
    exact: bool = False

    def min_order(self) -> float:
        return min(self.orders) if self.orders else np.inf


def taylor_test(problem: Problem, phi0, u, h, scales=(1.0, 0.5, 0.25, 0.125)) -> TaylorResult:
    """Measure || S(u + s h) - S(u) - s psi_h || across shrinking scales.

    The remainder is taken in the discrete H1-in-time / L-infinity-energy
    norm; observed orders log2(rho(s)/rho(s/2)) should approach 2 for a
    three-times differentiable potential.  When the remainder sits at
    round-off (state map affine in the control) the result is flagged
    ``exact`` and no orders are reported.
    """
    base = solve(problem, phi0, u)
    lin = linearized_solve(problem, base, h)
    ops, grid = problem.ops, problem.grid

    remainders = []
    for s in scales:
        perturbed = solve(problem, phi0, u.plus(h, s))
        diff = perturbed.phi - base.phi - s * lin.psi
        remainders.append(traj_norm_Y(ops, grid, diff))

    scale_ref = traj_norm_Y(ops, grid, base.phi) + 1.0
    if max(remainders) <= 1e-12 * scale_ref:
        return TaylorResult(list(scales), remainders, [], exact=True)
    orders = [
        float(np.log2(r1 / r2)) if r2 > 0 else np.inf
        for r1, r2 in zip(remainders, remainders[1:])
    ]
    return TaylorResult(list(scales), remainders, orders)


def continuous_dependence(problem: Problem, phi0, u, h, scales=(1.0, 0.5, 0.25)):
    """Ratios ||S(u + s h) - S(u)||_Y / ||s h|| across scales.

    First-order Lipschitz behavior of the state map makes the ratio
    nearly scale-independent.
    """
    from .control import control_norm

    base = solve(problem, phi0, u)
    ops, grid = problem.ops, problem.grid
    hnorm = control_norm(h, ops, grid.dt)
    ratios = []
    for s in scales:
        perturbed = solve(problem, phi0, u.plus(h, s))
        dstate = traj_norm_Y(ops, grid, perturbed.phi - base.phi)
        ratios.append(dstate / (abs(s) * hnorm))
    return ratios
