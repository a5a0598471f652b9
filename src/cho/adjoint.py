"""Backward-in-time adjoint solvers.

``adjoint_solve`` transposes the discrete linearized dynamics step by
step, so the resulting gradient matches the directional derivative of
the discrete cost to round-off.  Storage convention: index N holds the
terminal pair defined by M(p + tau q) = terminal cost data together
with the discrete second adjoint equation K p = M q; index n < N holds
the multiplier of the forward step t_n -> t_{n+1} (scaled by 1/dt), so
the chain rule reads

    dJ[h] = sum_n dt [ (gamma p_n + a5 u_n)^T M_bulk h_n
                     + (gamma p_{Gamma,n} + a6 u_{Gamma,n})^T M_gamma h_{Gamma,n} ]

with slab index n = 0..N-1.  Each backward step is one implicit Euler
step of the continuous adjoint system with coefficients frozen at the
right end of the step interval; ``adjoint_continuous_form`` freezes
them at the left end instead (discretize-the-adjoint variant) and is
kept for cross-validation.

No backward matrix is assembled.  The backward step matrix equals
diag(dt I, I) J^T with J the forward step Jacobian, so both solvers
solve J^T (p, q) = (rhs / dt, 0) through the forward solver's
fixed-pattern block solve with ``trans="T"``; the terminal pair uses the
same block template with the coefficients of [[M, tau M], [K, -M]].
"""

import numpy as np

from .forward import (
    Problem,
    StateTrajectory,
    jacobian_coefficients,
    scheme_functions,
    solve_block_system,
)


class AdjointTrajectory:
    """Dual states (p, q) on the time grid, bulk-indexed and conforming."""

    def __init__(self, base: StateTrajectory, p, q):
        self.base = base
        self.p = p              # (N+1, n_bulk)
        self.q = q


def _sweep_backward(problem: Problem, base: StateTrajectory, cost, step_terms):
    """Terminal pair, then backward steps m = N..1.

    The terminal pair solves M(p + tau q) = zeta3_w and K p = M q.  Each
    backward step solves J^T (p, q) = (rhs1, 0) with the step Jacobian J,
    where ``step_terms(data, m, p_m, q_m)`` returns J's diagonal weights
    and rhs1.
    """
    ops, grid = problem.ops, problem.grid
    data = cost.expand(problem.mesh, grid)
    n = problem.mesh.n_bulk
    p = np.zeros((grid.N + 1, n))
    q = np.zeros((grid.N + 1, n))
    zero = np.zeros(n)

    zeta3 = data.zeta3_w(ops, base.phi[grid.N])
    p[grid.N], q[grid.N] = solve_block_system(
        ops, (1.0, problem.physics.tau, 0.0, -1.0), (0.0, 0.0, 1.0, 0.0),
        np.concatenate([zeta3, zero]), step=grid.N,
    )
    a, b = jacobian_coefficients(problem.physics, grid.dt)
    for m in range(grid.N, 0, -1):
        lam, rhs1 = step_terms(data, m, p[m], q[m])
        p[m - 1], q[m - 1] = solve_block_system(
            ops, a, b, np.concatenate([rhs1, zero]), lam=lam, trans="T", step=m
        )
    return AdjointTrajectory(base, p, q)


def adjoint_solve(problem: Problem, base: StateTrajectory, cost) -> AdjointTrajectory:
    """Exact transpose of the discrete linearized dynamics against the cost."""
    ops, N, tau, dt = problem.ops, problem.grid.N, problem.physics.tau, problem.grid.dt
    fns = scheme_functions(problem.pair, problem.opts)

    def step_terms(data, m, pm, qm):
        phi = base.phi[m]
        rhs1 = data.zeta1_w(ops, phi, m) + ops.M_total @ (pm + tau * qm) / dt
        if m < N:
            rhs1 -= fns.nodal(ops, phi, 3) * qm
        return fns.nodal(ops, phi, 1), rhs1

    return _sweep_backward(problem, base, cost, step_terms)


def _lambda_second_derivative(ops, pair, phi):
    """Lumped-mass weights of F'' regardless of the time-stepping split."""
    out = ops.lumped_bulk * pair.bulk.F(phi, 2)
    tr = phi[ops.mesh.trace_map]
    out[ops.mesh.trace_map] += ops.lumped_gamma * pair.boundary.F(tr, 2)
    return out


def adjoint_continuous_form(problem: Problem, base: StateTrajectory, cost) -> AdjointTrajectory:
    """Implicit Euler applied directly to the continuous adjoint system.

    Coefficients and sources are evaluated at the unknown's own time
    level; agrees with ``adjoint_solve`` up to O(dt) and is used as an
    independent consistency target.
    """
    ops, tau, dt = problem.ops, problem.physics.tau, problem.grid.dt

    def step_terms(data, m, pm, qm):
        phi = base.phi[m - 1]
        rhs1 = data.zeta1_w(ops, phi, m - 1) + ops.M_total @ (pm + tau * qm) / dt
        return _lambda_second_derivative(ops, problem.pair, phi), rhs1

    return _sweep_backward(problem, base, cost, step_terms)


def reduced_gradient(problem: Problem, u, adj: AdjointTrajectory, cost):
    """Gradient densities (gamma p + a5 u, gamma p_Gamma + a6 u_Gamma) per slab."""
    from .control import ControlPair

    gamma = problem.physics.gamma
    a5, a6 = cost.alphas[4], cost.alphas[5]
    trace_map = problem.mesh.trace_map
    N = problem.grid.N
    gu = np.empty_like(np.asarray(u.u, dtype=float))
    gg = np.empty_like(np.asarray(u.uG, dtype=float))
    for j in range(N):
        gu[j] = gamma * adj.p[j] + a5 * u.u[j]
        gg[j] = gamma * adj.p[j][trace_map] + a6 * u.uG[j]
    return ControlPair(gu, gg)
