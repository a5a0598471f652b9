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

The cost enters through ``CostSpec.sources``: the terminal source zeta3
and the running source Z1, one mass-weighted misfit row per time level,
evaluated once for the whole trajectory.  Step m reads Z1[m] here and
Z1[m - 1] in the continuous form; ``cost_directional`` pairs the same
rows with the sensitivity.

No backward matrix is assembled.  The backward step matrix equals
diag(dt I, I) J^T with J the forward step Jacobian, so both solvers
solve J^T (p, q) = (rhs / dt, 0) on the block template's one step
matrix with ``trans="T"``, and each backward step refills only the
diagonal lambda.  The first backward step reads M(p_N + tau q_N) =
zeta3 from the terminal condition itself, so the sweep never solves
the terminal pair: the gradient reads the slabs p[:N] alone.  The pair,
which only diagnostics read, is solved on the first read of
``AdjointTrajectory.p`` or ``.q``: (M + tau K) p_N = zeta3 by one
sparse factorization of that SPD matrix, then M q_N = K p_N with the
cached ``CoupledOperators.mass_factor``.  The step solves refine on the
template's one live factor to a relative residual of 1e-13.  A sweep
releases the factor it finds, so step N rebuilds it at the last state.
Off an exact template (``BlockTemplate.exact``) that one factorization
serves every backward step; on an exact one, a dense template on an
interval, every backward step factors its own matrix and refines once.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolverError
from .forward import Problem, StateTrajectory, solve_block_system
from .spaces import ControlPair


class AdjointTrajectory:
    """Dual states (p, q) on the time grid, bulk-indexed and conforming.

    The sweep fills the slabs n < N; the terminal row N is solved on the
    first read of ``p``, ``q`` or ``terminal()``."""

    def __init__(self, problem: Problem, zeta3, p, q):
        self._problem, self._zeta3 = problem, zeta3
        self._p, self._q = p, q     # (N+1, n_bulk) each

    @property
    def p(self):
        self.terminal()
        return self._p

    @property
    def q(self):
        self.terminal()
        return self._q

    def terminal(self):
        """The terminal pair (p_N, q_N), solved on the first call from
        M(p + tau q) = zeta3 and K p = M q as (M + tau K) p = zeta3, then
        M q = K p with the mass factor.  A singular M + tau K raises
        ``SolverError`` at step N."""
        N = self._problem.grid.N
        if self._zeta3 is not None:
            ops, tau = self._problem.ops, self._problem.physics.tau
            try:
                lu = spla.splu((ops.M_total + tau * ops.K_total).tocsc(),
                               permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as err:
                raise SolverError(f"terminal adjoint pair: {err}", step=N) from err
            p = lu.solve(self._zeta3)
            self._p[N], self._q[N] = p, ops.mass_factor.solve(ops.K_total @ p)
            self._zeta3 = None
        return self._p[N], self._q[N]


def _sweep_backward(problem: Problem, lam, dexp, Z1, zeta3):
    """Backward steps m = N..1, without the terminal pair.

    Backward step m solves J^T (p, q)_{m-1} = (rhs1, 0) with the step
    Jacobian J of diagonal lam[m-1] and rhs1 = Z1[m-1] + M (p_m + tau q_m)
    / dt - dexp[m-1] q_m: each row of lam, dexp and Z1 sits at the index
    of the unknown it solves for.  At m = N the terminal condition gives
    M (p_N + tau q_N) = zeta3, and the dexp term, which enters below the
    terminal step only, drops.  The sweep releases the live factor first,
    so step N rebuilds it at lam[N - 1].
    """
    ops, grid = problem.ops, problem.grid
    tau, dt = problem.physics.tau, grid.dt
    n = problem.mesh.n_bulk
    p = np.zeros((grid.N + 1, n))
    q = np.zeros((grid.N + 1, n))
    zero = np.zeros(n)

    ops.block_template.lu = None
    c = problem.jacobian_coefficients
    for m in range(grid.N, 0, -1):
        if m == grid.N:
            rhs1 = Z1[m - 1] + zeta3 / dt
        else:
            rhs1 = Z1[m - 1] + ops.M_total @ (p[m] + tau * q[m]) / dt - dexp[m - 1] * q[m]
        p[m - 1], q[m - 1] = solve_block_system(
            ops, c, np.concatenate([rhs1, zero]), lam[m - 1], trans="T", step=m)
    return AdjointTrajectory(problem, zeta3, p, q)


def adjoint_solve(problem: Problem, base: StateTrajectory, cost) -> AdjointTrajectory:
    """Exact transpose of the discrete linearized dynamics against the cost."""
    lam, dexp = problem.jacobian(base.phi)
    Z1, zeta3 = cost.sources(problem.ops, base.phi)
    return _sweep_backward(problem, lam[1:], dexp[1:], Z1[1:], zeta3)


def adjoint_continuous_form(problem: Problem, base: StateTrajectory, cost) -> AdjointTrajectory:
    """Implicit Euler applied directly to the continuous adjoint system.

    Coefficients and sources are evaluated at the unknown's own time
    level; agrees with ``adjoint_solve`` up to O(dt) and is used as an
    independent consistency target.  The coefficient is the second
    derivative of the run's potential, Yosida-regularized when the run is,
    whatever the time-stepping split: the sum of both terms of
    ``Problem.jacobian``, evaluated once over the stack.
    """
    lam, dexp = problem.jacobian(base.phi[:-1])
    Z1, zeta3 = cost.sources(problem.ops, base.phi)
    return _sweep_backward(problem, lam + dexp, np.broadcast_to(0.0, lam.shape), Z1[:-1], zeta3)


def reduced_gradient(problem: Problem, u, adj: AdjointTrajectory, cost):
    """Gradient densities (gamma p + a5 u, gamma p_Gamma + a6 u_Gamma) per slab."""
    gamma = problem.physics.gamma
    a5, a6 = cost.alphas[4], cost.alphas[5]
    p = adj._p[:problem.grid.N]
    return ControlPair(gamma * p + a5 * u.u, gamma * p[:, problem.mesh.trace_map] + a6 * u.uG)
